//! Queueing behaviour of the wireless hop: RTT sampling for the Fig. 1b
//! characterisation.
//!
//! Fig. 1b of the paper caps a link at 15 Mbps, sends at increasing rates,
//! and collects 100 000 ping RTTs, observing that the mean RTT is convex
//! and increasing in the sending rate — queueing delay dominates on a
//! one-hop wireless LAN. [`RttSampler`] reproduces that experiment: the
//! mean queueing delay follows the M/M/1 law `r/(B−r)` (scaled to a slot)
//! on top of a propagation floor, and individual samples are
//! exponentially distributed around the mean, as in an M/M/1 queue.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Samples round-trip times for a link with a fixed capacity under a given
/// offered load.
#[derive(Debug, Clone)]
pub struct RttSampler {
    capacity_mbps: f64,
    /// Propagation + processing floor, milliseconds.
    base_rtt_ms: f64,
    /// Scale converting the dimensionless M/M/1 factor into milliseconds.
    queue_scale_ms: f64,
    rng: ChaCha8Rng,
}

impl RttSampler {
    /// Creates a sampler for a link of `capacity_mbps`, seeded
    /// deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mbps` is not positive.
    pub fn new(capacity_mbps: f64, seed: u64) -> Self {
        assert!(capacity_mbps > 0.0, "capacity must be positive");
        RttSampler {
            capacity_mbps,
            base_rtt_ms: 2.0,
            queue_scale_ms: 15.0,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Mean RTT in milliseconds at sending rate `rate_mbps` — convex and
    /// increasing, the Fig. 1b curve.
    pub fn mean_rtt_ms(&self, rate_mbps: f64) -> f64 {
        let rate = rate_mbps.max(0.0);
        let utilisation_term = if rate >= 0.98 * self.capacity_mbps {
            // Saturated: linear extension, as in `cvr-core`'s delay model.
            let knee = 0.98 * self.capacity_mbps;
            let base = knee / (self.capacity_mbps - knee);
            let slope =
                self.capacity_mbps / ((self.capacity_mbps - knee) * (self.capacity_mbps - knee));
            base + slope * (rate - knee)
        } else {
            rate / (self.capacity_mbps - rate)
        };
        self.base_rtt_ms + self.queue_scale_ms * utilisation_term
    }

    /// Draws one RTT sample (ms): the queueing component is exponential
    /// around its mean, the M/M/1 sojourn-time distribution.
    pub fn sample_rtt_ms(&mut self, rate_mbps: f64) -> f64 {
        let mean_queue = self.mean_rtt_ms(rate_mbps) - self.base_rtt_ms;
        let u: f64 = self.rng.gen_range(1e-12..1.0);
        self.base_rtt_ms + mean_queue * (-u.ln())
    }

    /// Collects `n` samples at a fixed sending rate (the Fig. 1b
    /// methodology) and returns their empirical mean.
    pub fn empirical_mean_ms(&mut self, rate_mbps: f64, n: usize) -> f64 {
        (0..n).map(|_| self.sample_rtt_ms(rate_mbps)).sum::<f64>() / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_rtt_is_convex_increasing() {
        let s = RttSampler::new(15.0, 1);
        let rates: Vec<f64> = (0..100).map(|i| i as f64 * 0.2).collect();
        let means: Vec<f64> = rates.iter().map(|&r| s.mean_rtt_ms(r)).collect();
        for w in means.windows(2) {
            assert!(w[1] >= w[0]);
        }
        for w in means.windows(3) {
            assert!((w[2] - w[1]) >= (w[1] - w[0]) - 1e-9);
        }
        // Saturated region stays finite.
        assert!(s.mean_rtt_ms(30.0).is_finite());
    }

    #[test]
    fn empirical_mean_matches_analytic() {
        let mut s = RttSampler::new(15.0, 42);
        let analytic = s.mean_rtt_ms(10.0);
        let empirical = s.empirical_mean_ms(10.0, 100_000);
        assert!(
            (empirical - analytic).abs() / analytic < 0.02,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn samples_never_below_propagation_floor() {
        let mut s = RttSampler::new(15.0, 3);
        for _ in 0..10_000 {
            assert!(s.sample_rtt_ms(7.0) >= 2.0);
        }
    }
}
