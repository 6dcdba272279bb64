//! Wireless router models: shared-airtime capacity, per-user throttles and
//! the cross-router interference that dominates the paper's second testbed.
//!
//! The testbed runs 802.11ac routers (≈400 Mbps usable each). Setup 1 uses
//! one router with 8 phones; setup 2 bridges two routers for 15 phones and
//! the paper observes that "the variance of the bandwidth capacity is even
//! larger with two routers working together due to the possible wireless
//! interference" — exactly the regime where estimation-driven baselines
//! (Firefly, PAVQ) collapse. [`WirelessRouter`] models an efficiency
//! process on top of the nominal capacity: a mean-reverting wander plus,
//! when interference is enabled, bursty collision episodes that slash
//! efficiency for tens of slots.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Interference regime of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterferenceMode {
    /// Single router, no co-channel neighbour: mild efficiency wander.
    Isolated,
    /// Two bridged routers sharing spectrum: collision bursts and a lower,
    /// noisier efficiency.
    CoChannel,
}

/// Nominal capacity of one 802.11ac testbed router, Mbps.
pub const ROUTER_CAPACITY_MBPS: f64 = 400.0;

/// A shared wireless medium of [`ROUTER_CAPACITY_MBPS`] nominal capacity
/// with time-varying efficiency.
///
/// # Examples
///
/// ```
/// use cvr_net::router::{InterferenceMode, WirelessRouter, ROUTER_CAPACITY_MBPS};
///
/// let mut router = WirelessRouter::new(InterferenceMode::Isolated, 7);
/// let capacity = router.step_capacity_mbps();
/// assert!(capacity > 0.0 && capacity <= ROUTER_CAPACITY_MBPS);
/// ```
#[derive(Debug, Clone)]
pub struct WirelessRouter {
    mode: InterferenceMode,
    efficiency: f64,
    burst_slots_left: u32,
    rng: ChaCha8Rng,
}

impl WirelessRouter {
    /// Creates a router.
    pub fn new(mode: InterferenceMode, seed: u64) -> Self {
        WirelessRouter {
            mode,
            efficiency: 0.95,
            burst_slots_left: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The interference mode.
    pub fn mode(&self) -> InterferenceMode {
        self.mode
    }

    /// Advances one slot and returns the usable capacity for that slot.
    pub fn step_capacity_mbps(&mut self) -> f64 {
        let (target, noise, burst_prob, burst_depth) = match self.mode {
            InterferenceMode::Isolated => (0.95, 0.01, 0.000_5, 0.75),
            InterferenceMode::CoChannel => (0.80, 0.04, 0.012, 0.35),
        };
        if self.burst_slots_left > 0 {
            self.burst_slots_left -= 1;
            let jitter: f64 = self.rng.gen_range(-0.05..0.05);
            self.efficiency = (burst_depth + jitter).clamp(0.2, 1.0);
        } else {
            let wander: f64 = self.rng.gen_range(-1.0..1.0) * noise;
            self.efficiency =
                (self.efficiency + 0.2 * (target - self.efficiency) + wander).clamp(0.3, 1.0);
            if self.rng.gen_bool(burst_prob) {
                // A collision episode lasting tens of slots.
                self.burst_slots_left = match self.mode {
                    InterferenceMode::Isolated => self.rng.gen_range(10..60),
                    InterferenceMode::CoChannel => self.rng.gen_range(20..80),
                };
            }
        }
        ROUTER_CAPACITY_MBPS * self.efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capacity_stats(mode: InterferenceMode, slots: usize, seed: u64) -> (f64, f64) {
        let mut r = WirelessRouter::new(mode, seed);
        let caps: Vec<f64> = (0..slots).map(|_| r.step_capacity_mbps()).collect();
        let mean = caps.iter().sum::<f64>() / caps.len() as f64;
        let var = caps.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / caps.len() as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn capacity_stays_within_physical_bounds() {
        for mode in [InterferenceMode::Isolated, InterferenceMode::CoChannel] {
            let mut r = WirelessRouter::new(mode, 1);
            for _ in 0..50_000 {
                let c = r.step_capacity_mbps();
                assert!(c > 0.0 && c <= ROUTER_CAPACITY_MBPS);
            }
        }
    }

    #[test]
    fn cochannel_has_lower_mean_and_higher_variance() {
        let (iso_mean, iso_sd) = capacity_stats(InterferenceMode::Isolated, 50_000, 3);
        let (co_mean, co_sd) = capacity_stats(InterferenceMode::CoChannel, 50_000, 3);
        assert!(
            co_mean < iso_mean,
            "co-channel mean {co_mean} vs isolated {iso_mean}"
        );
        assert!(
            co_sd > 2.0 * iso_sd,
            "co-channel sd {co_sd} vs isolated {iso_sd}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = WirelessRouter::new(InterferenceMode::CoChannel, 9);
        let mut b = WirelessRouter::new(InterferenceMode::CoChannel, 9);
        for _ in 0..1000 {
            assert_eq!(a.step_capacity_mbps(), b.step_capacity_mbps());
        }
    }

    #[test]
    fn accessors() {
        let r = WirelessRouter::new(InterferenceMode::Isolated, 0);
        assert_eq!(r.mode(), InterferenceMode::Isolated);
    }
}
