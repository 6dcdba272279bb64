//! The slot ticker: turns the paper's abstract "every Δt = 15 ms" into a
//! concrete pacing loop with deadline accounting.

use std::time::{Duration, Instant};

/// Paces a slot loop and accounts for deadline behaviour.
///
/// One call to [`SlotTicker::wait`] ends the current slot: it measures
/// how much of the period the slot's work consumed, then sleeps until
/// the next slot boundary. Boundaries live on an
/// *absolute* grid — each slot nominally starts exactly one period after
/// the previous one — so the systematic oversleep of `thread::sleep`
/// cannot compound across slots: an oversleep eats into the next slot's
/// budget instead of shifting every later boundary. A slot whose work
/// ran past its boundary is an *overrun*; only then does the ticker
/// resynchronise the grid to "now" rather than letting lateness
/// accumulate.
#[derive(Debug)]
pub struct SlotTicker {
    period: Duration,
    /// Nominal start of the current slot: on the absolute `k × period`
    /// grid, not at the post-sleep wakeup instant.
    slot_start: Instant,
    ticks: u64,
    on_time: u64,
    overruns: u64,
}

impl SlotTicker {
    /// Creates a ticker with the given slot period.
    pub fn new(period: Duration) -> Self {
        SlotTicker {
            period,
            slot_start: Instant::now(),
            ticks: 0,
            on_time: 0,
            overruns: 0,
        }
    }

    /// The configured slot period.
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Ends the current slot: records whether its work met the deadline
    /// and sleeps until the next slot boundary on the absolute grid.
    /// Returns `true` if the slot was on time.
    pub fn wait(&mut self) -> bool {
        let worked = self.slot_start.elapsed();
        self.ticks += 1;
        let on_time = worked <= self.period;
        if on_time {
            self.on_time += 1;
        } else {
            self.overruns += 1;
        }
        let deadline = self.slot_start + self.period;
        let now = Instant::now();
        if now < deadline {
            std::thread::sleep(deadline - now);
            // The next slot starts at the *nominal* boundary even if the
            // sleep overshot it — pacing against the absolute grid is
            // what keeps per-sleep oversleep from drifting the session
            // off its 15 ms cadence.
            self.slot_start = deadline;
        } else {
            // Overrun: resynchronise the grid to now, so one late slot
            // cannot cascade into permanent lateness.
            self.slot_start = now;
        }
        on_time
    }

    /// Slots completed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Slots whose work fit inside the period.
    pub fn on_time(&self) -> u64 {
        self.on_time
    }

    /// Fraction of slots that met the deadline (1.0 before any tick).
    pub fn on_time_fraction(&self) -> f64 {
        if self.ticks == 0 {
            1.0
        } else {
            self.on_time as f64 / self.ticks as f64
        }
    }

    /// Slots whose work exceeded the period.
    pub fn overruns(&self) -> u64 {
        self.overruns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realtime_pacing_spaces_slots_by_the_period() {
        let period = Duration::from_millis(5);
        let start = Instant::now();
        let mut t = SlotTicker::new(period);
        for _ in 0..6 {
            t.wait();
        }
        // Six periods minimum; the grid boundaries are one period apart
        // and sleeps cannot wake before their boundary.
        assert!(start.elapsed() >= period * 6);
    }

    #[test]
    fn realtime_pacing_does_not_drift_off_the_absolute_grid() {
        // Regression test for the compounding-oversleep bug: pacing used
        // to restart each slot at the post-sleep `Instant::now()`, so the
        // systematic oversleep of `thread::sleep` (tens of microseconds
        // per call on a typical host) accumulated every slot and the
        // session fell steadily behind its nominal grid. With absolute
        // deadlines, N on-time slots must complete within N × period plus
        // a single period of slack, no matter how many slots run.
        // A loaded CI host can delay any single wakeup by more than a
        // period, which is scheduler noise, not drift — so the tight
        // bound gets a few attempts. The drift bug is systematic (it
        // adds lateness on *every* slot), so it fails all attempts.
        let period = Duration::from_millis(3);
        let slots = 100u32;
        let mut last = None;
        for _ in 0..5 {
            let start = Instant::now();
            let mut t = SlotTicker::new(period);
            for _ in 0..slots {
                t.wait();
            }
            let elapsed = start.elapsed();
            assert!(elapsed >= period * slots);
            assert_eq!(t.ticks(), u64::from(slots));
            if elapsed <= period * slots + period {
                return;
            }
            last = Some(elapsed);
        }
        panic!(
            "ticker drifted: {slots} idle slots of {period:?} took {last:?} \
             on every attempt (budget {:?} + one period of slack)",
            period * slots
        );
    }

    #[test]
    fn overrun_resynchronises_the_grid_to_now() {
        let period = Duration::from_millis(2);
        let mut t = SlotTicker::new(period);
        // Blow through several nominal boundaries in one slot.
        std::thread::sleep(period * 5);
        assert!(!t.wait());
        // The grid restarted at the overrun, so the next (idle) slot
        // still paces one period, not zero and not five periods of
        // catch-up.
        let start = Instant::now();
        assert!(t.wait());
        let paced = start.elapsed();
        assert!(paced >= period, "post-overrun slot paced only {paced:?}");
        assert!(paced < period * 4, "post-overrun slot paced {paced:?}");
    }

    #[test]
    fn slow_work_counts_as_overrun() {
        let mut t = SlotTicker::new(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(!t.wait());
        assert_eq!(t.overruns(), 1);
        assert!(t.on_time_fraction() < 1.0);
    }
}
