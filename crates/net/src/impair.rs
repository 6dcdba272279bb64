//! Correlated cellular impairments: the digital-twin trace generators.
//!
//! The synthetic FCC/Ghent generators in [`crate::trace`] are
//! i.i.d.-ish — fine for reproducing Section IV, useless for stressing
//! the server's EMA/δ estimators with the *correlated* pathologies real
//! commodity mobile links exhibit. This module generates five of them,
//! following the containerized 4G/5G digital-twin taxonomy (Strata's
//! design doc): everything is piecewise-constant, [`ThroughputTrace`]-
//! compatible, `ChaCha8Rng`-seeded, and a pure function of
//! `(config, seed)` — byte-identical at every thread count.
//!
//! * [`Pathology::MarkovFading`] — Markov-modulated fading: the link
//!   dwells in *good*, *fade*, and *deep-fade* states with seeded dwell
//!   times and state-dependent throughput multipliers, so dips arrive in
//!   correlated runs instead of white noise.
//! * [`Pathology::Blockage`] — mmWave-style blockage: a high-rate
//!   beam that intermittently collapses to a few percent of its base
//!   rate for hundreds of milliseconds when the path is obstructed.
//! * [`Pathology::Handover`] — inter-RAT handovers: hard
//!   **zero-throughput** windows (the trace value is exactly `0.0`)
//!   while the radio re-attaches, between otherwise LTE-like wander.
//! * [`Pathology::Bufferbloat`] — RLC bufferbloat: a modest stable
//!   capacity that the workload saturates; the latency inflation comes
//!   from [`BufferbloatQueue`].
//! * [`Pathology::FlashCrowd`] — flash-crowd airtime contention: a
//!   shared link whose capacity is split across a seeded, time-varying
//!   number of co-located contenders.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::trace::ThroughputTrace;

/// The five correlated impairment classes of the scenario matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pathology {
    /// Markov-modulated good/fade/deep-fade state machine.
    MarkovFading,
    /// mmWave-style blockage bursts.
    Blockage,
    /// Inter-RAT handover gaps (exact zero-throughput windows).
    Handover,
    /// RLC bufferbloat: saturated capacity, queue-growth latency.
    Bufferbloat,
    /// Flash-crowd airtime contention on a shared link.
    FlashCrowd,
}

impl Pathology {
    /// Every pathology, in scenario-matrix order.
    pub const ALL: [Pathology; 5] = [
        Pathology::MarkovFading,
        Pathology::Blockage,
        Pathology::Handover,
        Pathology::Bufferbloat,
        Pathology::FlashCrowd,
    ];

    /// Stable display label (used in BENCH rows and CSV files).
    pub fn label(self) -> &'static str {
        match self {
            Pathology::MarkovFading => "markov-fading",
            Pathology::Blockage => "blockage",
            Pathology::Handover => "handover",
            Pathology::Bufferbloat => "bufferbloat",
            Pathology::FlashCrowd => "flash-crowd",
        }
    }
}

/// Configuration of one impaired-link generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImpairmentConfig {
    /// Which correlated pathology to generate.
    pub pathology: Pathology,
    /// Envelope floor for *healthy* segments, Mbps (outage windows go
    /// below it — down to exactly zero for handovers).
    pub min_mbps: f64,
    /// Envelope ceiling, Mbps.
    pub max_mbps: f64,
    /// Trace length in seconds.
    pub duration_s: f64,
}

impl ImpairmentConfig {
    /// The Section IV envelope (20–100 Mbps, 300 s) under the given
    /// pathology.
    pub fn paper_default(pathology: Pathology) -> Self {
        ImpairmentConfig {
            pathology,
            min_mbps: 20.0,
            max_mbps: 100.0,
            duration_s: 300.0,
        }
    }

    fn validate(&self) {
        assert!(
            self.min_mbps > 0.0 && self.max_mbps > self.min_mbps,
            "bad bounds"
        );
        assert!(self.duration_s > 0.0, "bad duration");
    }

    /// Generates the impaired trace for one user. Same `(config, seed)`
    /// ⇒ identical trace, always.
    pub fn generate(&self, seed: u64) -> ThroughputTrace {
        self.generate_group(1, seed).pop().expect("one user")
    }

    /// Generates one impaired trace per user.
    ///
    /// For the four single-link pathologies each user gets an
    /// independent trace under a seed derived from `(seed, user)`. For
    /// [`Pathology::FlashCrowd`] the group is *co-located*: one shared
    /// capacity trace and one contender timeline are generated from
    /// `seed`, and every user sees the shared capacity divided by the
    /// contender count (plus a small per-user airtime weight), so the
    /// dips are correlated across the whole group — the defining
    /// property of a flash crowd.
    ///
    /// # Panics
    ///
    /// Panics if the envelope is not ordered positive numbers, the
    /// duration is non-positive, or `users` is zero.
    pub fn generate_group(&self, users: usize, seed: u64) -> Vec<ThroughputTrace> {
        self.validate();
        assert!(users > 0, "need at least one user");
        match self.pathology {
            Pathology::FlashCrowd => self.flash_crowd_group(users, seed),
            _ => (0..users)
                .map(|u| {
                    let user_seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(u as u64);
                    let mut rng = ChaCha8Rng::seed_from_u64(user_seed);
                    let segments = match self.pathology {
                        Pathology::MarkovFading => self.markov_fading(&mut rng),
                        Pathology::Blockage => self.blockage(&mut rng),
                        Pathology::Handover => self.handover(&mut rng),
                        Pathology::Bufferbloat => self.bufferbloat(&mut rng),
                        Pathology::FlashCrowd => unreachable!("handled above"),
                    };
                    ThroughputTrace::from_segments(segments)
                })
                .collect(),
        }
    }

    /// Markov-modulated fading. States and transitions:
    /// good → fade; fade → good (p = 0.65) or deep-fade (p = 0.35);
    /// deep-fade → fade (p = 0.7) or good (p = 0.3). Dwell times are
    /// seeded per visit (good 2–8 s, fade 0.4–1.5 s, deep-fade
    /// 0.15–0.8 s), so the good state dominates the timeline while dips
    /// arrive in correlated bursts.
    fn markov_fading(&self, rng: &mut ChaCha8Rng) -> Vec<(f64, f64)> {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Good,
            Fade,
            Deep,
        }
        let base = rng.gen_range(0.7 * self.max_mbps..self.max_mbps);
        let mut state = State::Good;
        let mut segments = Vec::new();
        let mut elapsed = 0.0;
        while elapsed < self.duration_s {
            let (dwell, mult): (f64, f64) = match state {
                State::Good => (rng.gen_range(2.0..8.0), rng.gen_range(0.88..1.0)),
                State::Fade => (rng.gen_range(0.4..1.5), rng.gen_range(0.35..0.55)),
                State::Deep => (rng.gen_range(0.15..0.8), rng.gen_range(0.05..0.12)),
            };
            let mbps = (base * mult).clamp(0.0, self.max_mbps);
            let hold = dwell.min(self.duration_s - elapsed);
            if hold <= 0.0 {
                break;
            }
            segments.push((hold, mbps));
            elapsed += hold;
            state = match state {
                State::Good => State::Fade,
                State::Fade => {
                    if rng.gen_bool(0.35) {
                        State::Deep
                    } else {
                        State::Good
                    }
                }
                State::Deep => {
                    if rng.gen_bool(0.7) {
                        State::Fade
                    } else {
                        State::Good
                    }
                }
            };
        }
        segments
    }

    /// mmWave-style blockage: a high, lightly jittered beam rate with
    /// intermittent obstruction bursts (100–500 ms at 2–8 % of base).
    fn blockage(&self, rng: &mut ChaCha8Rng) -> Vec<(f64, f64)> {
        let base = rng.gen_range(0.75 * self.max_mbps..self.max_mbps);
        let mut segments = Vec::new();
        let mut elapsed = 0.0;
        while elapsed < self.duration_s {
            // A clear-path hold, then possibly a blockage burst.
            let clear: f64 = rng.gen_range(0.8..3.0);
            let jitter = 1.0 + rng.gen_range(-0.06..0.06);
            let hold = clear.min(self.duration_s - elapsed);
            if hold <= 0.0 {
                break;
            }
            segments.push((hold, (base * jitter).min(self.max_mbps)));
            elapsed += hold;
            if elapsed < self.duration_s && rng.gen_bool(0.4) {
                let burst = rng.gen_range(0.1_f64..0.5).min(self.duration_s - elapsed);
                if burst > 0.0 {
                    let collapsed = base * rng.gen_range(0.02..0.08);
                    segments.push((burst, collapsed));
                    elapsed += burst;
                }
            }
        }
        segments
    }

    /// Inter-RAT handovers: LTE-like wander between the envelope bounds,
    /// punctuated by hard zero-throughput gaps (0.25–1.5 s) every
    /// 8–25 s while the radio re-attaches. Gap segments are **exactly**
    /// `0.0` Mbps — no epsilon.
    fn handover(&self, rng: &mut ChaCha8Rng) -> Vec<(f64, f64)> {
        let base = rng.gen_range(self.min_mbps..self.max_mbps);
        let mut current = base;
        let mut segments = Vec::new();
        let mut elapsed = 0.0;
        let mut next_gap = rng.gen_range(8.0..25.0);
        while elapsed < self.duration_s {
            if elapsed >= next_gap {
                let gap = rng.gen_range(0.25_f64..1.5).min(self.duration_s - elapsed);
                if gap > 0.0 {
                    segments.push((gap, 0.0));
                    elapsed += gap;
                }
                next_gap = elapsed + rng.gen_range(8.0..25.0);
                // Post-handover the new cell starts from a fresh operating
                // point.
                current = rng.gen_range(self.min_mbps..self.max_mbps);
                continue;
            }
            let hold = rng
                .gen_range(1.0_f64..4.0)
                .min(next_gap - elapsed)
                .min(self.duration_s - elapsed);
            if hold <= 0.0 {
                break;
            }
            let swing = 1.0 + rng.gen_range(-0.3..0.3);
            current = (0.5 * current + 0.5 * base * swing).clamp(self.min_mbps, self.max_mbps);
            segments.push((hold, current));
            elapsed += hold;
        }
        segments
    }

    /// RLC bufferbloat: a stable but modest capacity near the bottom of
    /// the envelope (long holds, light jitter). The pathology is not the
    /// rate trace itself but what saturation does to latency — drive a
    /// [`BufferbloatQueue`] with the offered load against this capacity.
    fn bufferbloat(&self, rng: &mut ChaCha8Rng) -> Vec<(f64, f64)> {
        let base =
            rng.gen_range(self.min_mbps..self.min_mbps + 0.25 * (self.max_mbps - self.min_mbps));
        let mut segments = Vec::new();
        let mut elapsed = 0.0;
        while elapsed < self.duration_s {
            let hold = rng.gen_range(5.0_f64..15.0).min(self.duration_s - elapsed);
            if hold <= 0.0 {
                break;
            }
            let jitter = 1.0 + rng.gen_range(-0.05..0.05);
            segments.push((
                hold,
                (base * jitter).clamp(self.min_mbps * 0.9, self.max_mbps),
            ));
            elapsed += hold;
        }
        segments
    }

    /// Flash-crowd contention: one shared capacity trace and one
    /// contender timeline; per-user traces divide the shared capacity by
    /// the contender count during crowd windows, with a small seeded
    /// per-user airtime weight.
    fn flash_crowd_group(&self, users: usize, seed: u64) -> Vec<ThroughputTrace> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF1A5_0C0D);
        // Build the shared (capacity, contenders) timeline first.
        let base = rng.gen_range(0.7 * self.max_mbps..self.max_mbps);
        let mut shared: Vec<(f64, f64, u32)> = Vec::new();
        let mut elapsed = 0.0;
        let mut crowded = false;
        while elapsed < self.duration_s {
            let dwell: f64 = if crowded {
                rng.gen_range(2.0..8.0)
            } else {
                rng.gen_range(5.0..20.0)
            };
            let contenders = if crowded { rng.gen_range(3..=8) } else { 1 };
            let jitter = 1.0 + rng.gen_range(-0.08..0.08);
            let hold = dwell.min(self.duration_s - elapsed);
            if hold <= 0.0 {
                break;
            }
            shared.push((hold, (base * jitter).min(self.max_mbps), contenders));
            elapsed += hold;
            crowded = !crowded;
        }
        // Per-user airtime weight: everyone shares the same dips, scaled
        // by a stable seeded weight in [0.85, 1.0].
        (0..users)
            .map(|u| {
                let mut user_rng = ChaCha8Rng::seed_from_u64(
                    seed.wrapping_mul(0x9E37_79B9).wrapping_add(u as u64),
                );
                let weight = user_rng.gen_range(0.85..1.0);
                ThroughputTrace::from_segments(
                    shared
                        .iter()
                        .map(|&(d, cap, contenders)| (d, weight * cap / contenders as f64))
                        .collect(),
                )
            })
            .collect()
    }
}

/// A deep RLC downlink buffer: the fluid queue whose growth under
/// saturation is the bufferbloat latency pathology.
///
/// Offered traffic is enqueued each step; the link drains at its current
/// capacity; whatever remains is backlog, and the sojourn time of a new
/// arrival is `backlog / capacity`. The buffer is deliberately deep
/// (operator RLC buffers routinely hold seconds of data), so latency is
/// *monotone in queue depth* rather than bounded by loss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferbloatQueue {
    backlog_mbit: f64,
    /// Buffer depth cap, megabits (tail-drop beyond it).
    max_backlog_mbit: f64,
}

impl BufferbloatQueue {
    /// A queue holding at most `max_backlog_mbit` megabits.
    ///
    /// # Panics
    ///
    /// Panics if the depth is not positive.
    pub fn new(max_backlog_mbit: f64) -> Self {
        assert!(max_backlog_mbit > 0.0, "buffer depth must be positive");
        BufferbloatQueue {
            backlog_mbit: 0.0,
            max_backlog_mbit,
        }
    }

    /// An RLC-deep default: 40 Mbit ≈ one second of backlog at 40 Mbps.
    pub fn rlc_default() -> Self {
        BufferbloatQueue::new(40.0)
    }

    /// Current backlog, megabits.
    pub fn backlog_mbit(&self) -> f64 {
        self.backlog_mbit
    }

    /// Advances the queue by `dt_s`: enqueues `offered_mbps · dt_s`,
    /// drains `capacity_mbps · dt_s`, tail-drops past the depth cap, and
    /// returns the queueing delay (seconds) a packet arriving *now*
    /// experiences — `backlog / capacity`, monotone in the backlog.
    pub fn step(&mut self, offered_mbps: f64, capacity_mbps: f64, dt_s: f64) -> f64 {
        let offered = offered_mbps.max(0.0) * dt_s.max(0.0);
        let drained = capacity_mbps.max(0.0) * dt_s.max(0.0);
        self.backlog_mbit =
            (self.backlog_mbit + offered - drained).clamp(0.0, self.max_backlog_mbit);
        self.delay_s(capacity_mbps)
    }

    /// The sojourn time (seconds) of a new arrival at the current
    /// backlog and `capacity_mbps`.
    pub fn delay_s(&self, capacity_mbps: f64) -> f64 {
        self.backlog_mbit / capacity_mbps.max(1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper(p: Pathology) -> ImpairmentConfig {
        ImpairmentConfig::paper_default(p)
    }

    #[test]
    fn every_pathology_is_seed_deterministic() {
        for p in Pathology::ALL {
            let a = paper(p).generate_group(4, 11);
            let b = paper(p).generate_group(4, 11);
            assert_eq!(a, b, "{p:?} not deterministic");
            let c = paper(p).generate_group(4, 12);
            assert_ne!(a, c, "{p:?} ignores its seed");
        }
    }

    #[test]
    fn traces_cover_the_duration_and_stay_in_envelope() {
        for p in Pathology::ALL {
            let t = paper(p).generate(3);
            assert!(
                (t.duration() - 300.0).abs() < 1e-6,
                "{p:?} duration {}",
                t.duration()
            );
            assert!(t.min() >= 0.0, "{p:?} negative throughput");
            assert!(t.max() <= 100.0 + 1e-9, "{p:?} above ceiling");
        }
    }

    #[test]
    fn handover_gaps_are_exact_zeros_between_positive_wander() {
        let t = paper(Pathology::Handover).generate(7);
        let zeros = t.segments().iter().filter(|s| s.1 == 0.0).count();
        let positives = t.segments().iter().filter(|s| s.1 > 0.0).count();
        assert!(zeros >= 5, "300 s should contain many handovers");
        assert!(positives > zeros, "mostly attached");
        for &(d, m) in t.segments() {
            assert!(m == 0.0 || m >= 20.0 - 1e-9, "partial outage {m}");
            assert!(d > 0.0);
        }
    }

    #[test]
    fn markov_fading_dips_are_correlated_runs() {
        let t = paper(Pathology::MarkovFading).generate(5);
        // The good state dominates the timeline…
        let good_time: f64 = t
            .segments()
            .iter()
            .filter(|s| s.1 >= 0.5 * 100.0)
            .map(|s| s.0)
            .sum();
        assert!(good_time > 0.5 * t.duration(), "good dwell should dominate");
        // …but deep fades exist and hold for whole segments (correlated,
        // not single-sample noise).
        let deep: Vec<_> = t.segments().iter().filter(|s| s.1 < 0.15 * 100.0).collect();
        assert!(!deep.is_empty(), "no deep fades generated");
        assert!(
            deep.iter().all(|s| s.0 >= 0.15),
            "deep fade dwell too short"
        );
    }

    #[test]
    fn flash_crowd_splits_capacity_across_the_group() {
        let traces = paper(Pathology::FlashCrowd).generate_group(6, 9);
        assert_eq!(traces.len(), 6);
        // All users share the same segment boundaries (co-located).
        for t in &traces[1..] {
            assert_eq!(t.segments().len(), traces[0].segments().len());
        }
        // Crowd windows divide capacity: the minimum is far below the
        // calm-window rate.
        for t in &traces {
            assert!(t.min() < 0.3 * t.max(), "no contention dip");
            assert!(t.min() > 0.0, "contention never zeroes the link");
        }
    }

    #[test]
    fn bufferbloat_queue_grows_under_saturation_and_drains() {
        let mut q = BufferbloatQueue::rlc_default();
        let dt = 1.0 / 60.0;
        let mut last = q.step(60.0, 30.0, dt);
        // Saturated: delay rises monotonically with the backlog.
        for _ in 0..120 {
            let d = q.step(60.0, 30.0, dt);
            assert!(d >= last - 1e-12, "delay fell while saturated");
            last = d;
        }
        assert!(last > 0.2, "two seconds of 2x overload must bloat");
        // Idle: the queue drains back to zero.
        for _ in 0..240 {
            q.step(0.0, 30.0, dt);
        }
        assert_eq!(q.backlog_mbit(), 0.0);
        assert_eq!(q.delay_s(30.0), 0.0);
    }
}
