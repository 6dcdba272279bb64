//! Anticipatory degrade: ramp quality down smoothly *ahead* of predicted
//! bandwidth dips instead of cliff-dropping when the EMA catches up.
//!
//! The server's per-user bandwidth estimate lags reality (that is what an
//! EMA is). Under the impairment pathologies the lag is the failure mode:
//! during the onset of a fade or a handover gap the estimate still reads
//! high, the myopic allocator assigns a rate the link cannot carry, and
//! the slot's frame arrives late or not at all. This module fits a trend
//! over the recent estimate history, extrapolates it across the
//! lookahead horizon, and clamps the link budget handed to the allocator
//! so quality walks down a bounded ramp before the dip lands — and walks
//! back up a slower ramp after it, which is where the quality-variance
//! reduction comes from.
//!
//! The clamp only ever *lowers* the budget relative to the raw estimate,
//! so constraint (6) is tightened, never violated.

/// Parameters of the anticipatory-degrade policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeConfig {
    /// Estimate-history samples the trend line is fitted over.
    pub window: usize,
    /// A horizon forecast below this fraction of the current estimate
    /// counts as a predicted dip and triggers the down-ramp; shallower
    /// wobbles are ignored. Deliberately deep (0.75 by default): the
    /// paper's QoE weights price delay at α = 0.1 per slot, so a clamp
    /// that shaves assigned quality on estimator noise costs far more
    /// than the queueing delay it saves — only forecasts of *losing*
    /// the link are worth acting on.
    pub dip_threshold: f64,
    /// Maximum fractional budget decrease per slot while ramping down.
    pub down_ramp: f64,
    /// Maximum fractional budget increase per slot while recovering.
    /// Comparable to [`DegradeConfig::down_ramp`]: every slot spent
    /// below the raw estimate after a dip clears is quality given away,
    /// and QoE's variance term already damps oscillation.
    pub up_ramp: f64,
    /// Absolute budget floor, Mbps (keeps the M/M/1 delay model defined).
    pub floor_mbps: f64,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            window: 8,
            dip_threshold: 0.75,
            down_ramp: 0.20,
            up_ramp: 0.25,
            floor_mbps: 1.0,
        }
    }
}

impl DegradeConfig {
    /// Tuning for [`AnticipatoryDegrade::clamp_to_forecast`] callers
    /// whose forecast is *exact* (e.g. the Section-IV trace simulator,
    /// which owns its throughput traces). An exact forecast has no
    /// noise to hedge against, so a shallow dip threshold only ever
    /// acts on real dips and the deep default would skip most of them.
    pub fn known_future() -> Self {
        DegradeConfig {
            dip_threshold: 0.92,
            ..DegradeConfig::default()
        }
    }
}

/// Where the policy currently is in its ramp cycle (exported for
/// observability and asserted in the DESIGN.md §5m state machine tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradePhase {
    /// Budget equals the raw estimate; no dip forecast.
    Steady,
    /// A dip is forecast; budget is stepping down toward the forecast.
    RampDown,
    /// Budget reached the forecast floor and holds there while the dip
    /// forecast persists.
    Pinned,
    /// The forecast cleared; budget is stepping back up toward the raw
    /// estimate.
    Recover,
}

/// Per-user anticipatory-degrade state: the estimate history ring, the
/// last emitted budget, and the ramp phase.
#[derive(Debug, Clone)]
pub struct AnticipatoryDegrade {
    cfg: DegradeConfig,
    history: Vec<f64>,
    cursor: usize,
    filled: usize,
    budget: Option<f64>,
    phase: DegradePhase,
}

impl AnticipatoryDegrade {
    /// Fresh state with the given policy parameters.
    pub fn new(cfg: DegradeConfig) -> Self {
        let window = cfg.window.max(2);
        AnticipatoryDegrade {
            cfg,
            history: vec![0.0; window],
            cursor: 0,
            filled: 0,
            budget: None,
            phase: DegradePhase::Steady,
        }
    }

    /// Current ramp phase.
    pub fn phase(&self) -> DegradePhase {
        self.phase
    }

    /// The last emitted budget, if any.
    pub fn budget(&self) -> Option<f64> {
        self.budget
    }

    /// Records this slot's raw bandwidth estimate, extrapolates the
    /// fitted trend `horizon − 1` slots ahead, and returns the clamped
    /// link budget for the allocator. The returned budget never exceeds
    /// `raw`, but it can lag below it (the up-ramp is bounded), so this is
    /// not the identity at `horizon = 1` — the slot planner does not call
    /// it there.
    pub fn observe_and_clamp(&mut self, raw: f64, horizon: usize) -> f64 {
        let raw = if raw.is_finite() {
            raw
        } else {
            self.cfg.floor_mbps
        };
        self.push(raw);
        let forecast = self.forecast_min(raw, horizon);
        self.step(raw, forecast)
    }

    /// Known-future variant (the Section-IV trace simulator knows its
    /// throughput traces): clamp toward an externally computed minimum
    /// over the horizon instead of a fitted trend.
    pub fn clamp_to_forecast(&mut self, raw: f64, forecast_min: f64) -> f64 {
        let raw = if raw.is_finite() {
            raw
        } else {
            self.cfg.floor_mbps
        };
        self.step(raw, forecast_min)
    }

    fn push(&mut self, raw: f64) {
        self.history[self.cursor] = raw;
        self.cursor = (self.cursor + 1) % self.history.len();
        self.filled = (self.filled + 1).min(self.history.len());
    }

    /// Least-squares slope over the filled ring, extrapolated to the far
    /// edge of the horizon; only downward trends are trusted (an upward
    /// extrapolation would let the policy assign *above* the estimate).
    fn forecast_min(&self, raw: f64, horizon: usize) -> f64 {
        if self.filled < 2 || horizon <= 1 {
            return raw;
        }
        let n = self.filled;
        let len = self.history.len();
        // Oldest-first walk of the ring.
        let start = (self.cursor + len - n) % len;
        let mean_x = (n as f64 - 1.0) / 2.0;
        let mut mean_y = 0.0;
        for i in 0..n {
            mean_y += self.history[(start + i) % len];
        }
        mean_y /= n as f64;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        for i in 0..n {
            let dx = i as f64 - mean_x;
            sxy += dx * (self.history[(start + i) % len] - mean_y);
            sxx += dx * dx;
        }
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        raw + slope.min(0.0) * (horizon as f64 - 1.0)
    }

    /// One step of the ramp state machine (DESIGN.md §5m):
    /// `Steady → RampDown → Pinned → Recover → Steady`.
    fn step(&mut self, raw: f64, forecast_min: f64) -> f64 {
        let floor = self.cfg.floor_mbps;
        let raw = raw.max(floor);
        let dip = forecast_min < raw * self.cfg.dip_threshold;
        let target = if dip { forecast_min.max(floor) } else { raw };
        let prev = self.budget.unwrap_or(raw);
        let next = if target < prev {
            let stepped = (prev * (1.0 - self.cfg.down_ramp)).max(target);
            self.phase = if stepped <= target {
                DegradePhase::Pinned
            } else {
                DegradePhase::RampDown
            };
            stepped
        } else {
            let stepped = (prev * (1.0 + self.cfg.up_ramp)).min(target);
            self.phase = if dip {
                DegradePhase::Pinned
            } else if stepped >= raw {
                DegradePhase::Steady
            } else {
                DegradePhase::Recover
            };
            stepped
        };
        let next = next.min(raw).max(floor);
        self.budget = Some(next);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AnticipatoryDegrade {
        AnticipatoryDegrade::new(DegradeConfig::default())
    }

    #[test]
    fn steady_on_flat_estimates() {
        let mut d = policy();
        for _ in 0..20 {
            let b = d.observe_and_clamp(50.0, 8);
            assert_eq!(b, 50.0);
            assert_eq!(d.phase(), DegradePhase::Steady);
        }
    }

    #[test]
    fn ramps_down_ahead_of_a_declining_trend() {
        let mut d = policy();
        for i in 0..6 {
            d.observe_and_clamp(50.0 - 4.0 * i as f64, 8);
        }
        // By now the fitted slope is −4/slot; an 8-slot horizon forecasts
        // a dip well below the threshold, so the budget must sit strictly
        // below the raw estimate.
        let raw = 26.0;
        let b = d.observe_and_clamp(raw, 8);
        assert!(b < raw, "budget {b} should anticipate the dip below {raw}");
        assert!(matches!(
            d.phase(),
            DegradePhase::RampDown | DegradePhase::Pinned
        ));
    }

    #[test]
    fn down_ramp_is_bounded_per_slot() {
        let mut d = policy();
        for i in 0..8 {
            d.observe_and_clamp(80.0 - 2.0 * i as f64, 8);
        }
        let before = d.budget().unwrap();
        let after = d.observe_and_clamp(64.0, 8);
        assert!(
            after >= before * (1.0 - DegradeConfig::default().down_ramp) - 1e-12,
            "one slot dropped {before} → {after}, past the ramp bound"
        );
    }

    #[test]
    fn recovers_slowly_after_the_dip_clears() {
        let mut d = policy();
        for i in 0..10 {
            d.observe_and_clamp((50.0 - 4.0 * i as f64).max(2.0), 8);
        }
        let low = d.budget().unwrap();
        // Estimates jump back up; the budget must climb along the bounded
        // up-ramp, not snap.
        let b = d.observe_and_clamp(50.0, 8);
        assert!(b < 50.0, "recovery must not snap to the raw estimate");
        assert!(b <= low * (1.0 + DegradeConfig::default().up_ramp) + 1e-12);
        let mut last = b;
        let mut saw_recover = false;
        for _ in 0..80 {
            let next = d.observe_and_clamp(50.0, 8);
            assert!(
                next <= last * (1.0 + DegradeConfig::default().up_ramp) + 1e-12,
                "climb {last} → {next} past the up-ramp bound"
            );
            saw_recover |= d.phase() == DegradePhase::Recover;
            last = next;
        }
        assert!(saw_recover, "the climb must pass through Recover");
        assert_eq!(last, 50.0, "budget must eventually rejoin the estimate");
        assert_eq!(d.phase(), DegradePhase::Steady);
    }

    #[test]
    fn never_exceeds_the_raw_estimate_or_drops_below_the_floor() {
        let mut d = policy();
        let series = [50.0, 10.0, 0.0, f64::NAN, 3.0, 90.0, 0.5];
        for raw in series {
            let b = d.observe_and_clamp(raw, 4);
            let bounded_raw = if raw.is_finite() { raw.max(1.0) } else { 1.0 };
            assert!(b <= bounded_raw + 1e-12, "budget {b} above estimate {raw}");
            assert!(b >= 1.0, "budget {b} below floor");
            assert!(b.is_finite());
        }
    }

    #[test]
    fn known_future_variant_pins_to_the_forecast() {
        let mut d = policy();
        let mut b = 0.0;
        for _ in 0..40 {
            b = d.clamp_to_forecast(50.0, 20.0);
        }
        assert_eq!(b, 20.0, "budget should pin at the known future minimum");
        assert_eq!(d.phase(), DegradePhase::Pinned);
    }

    #[test]
    fn deterministic_given_the_same_series() {
        let series: Vec<f64> = (0..50).map(|i| 40.0 + 15.0 * ((i % 7) as f64)).collect();
        let run = || {
            let mut d = policy();
            series
                .iter()
                .map(|&r| d.observe_and_clamp(r, 8).to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }
}
