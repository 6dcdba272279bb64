//! The TCP-like reliable ACK path of the paper's communication protocol
//! (Section V).
//!
//! The system sends acknowledgements back over TCP so the server can
//! suppress retransmission of tiles the client already holds. Here that
//! path is modelled at the transfer granularity a discrete-event
//! simulator needs: geometric retransmission latency.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A reliable feedback path: the TCP ACK channel.
///
/// Every transfer arrives; loss shows up as latency. With loss probability
/// `p` and retransmission timeout `rto_s`, the number of attempts is
/// geometric, so latency = propagation + (attempts − 1) · RTO.
#[derive(Debug, Clone)]
pub struct AckChannel {
    loss_probability: f64,
    propagation_s: f64,
    rto_s: f64,
    rng: ChaCha8Rng,
}

impl AckChannel {
    /// Creates the reliable channel.
    ///
    /// # Panics
    ///
    /// Panics if `loss_probability` is not in `[0, 1)` (a loss rate of 1
    /// would never deliver), or if delays are negative.
    pub fn new(loss_probability: f64, propagation_s: f64, rto_s: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss_probability),
            "loss must be a probability below 1"
        );
        assert!(
            propagation_s >= 0.0 && rto_s >= 0.0,
            "delays must be non-negative"
        );
        AckChannel {
            loss_probability,
            propagation_s,
            rto_s,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Sends a (small) message at `now_s`; returns its arrival time.
    pub fn send(&mut self, now_s: f64) -> f64 {
        let mut arrival = now_s + self.propagation_s;
        while self.rng.gen_bool(self.loss_probability) {
            arrival += self.rto_s;
        }
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_always_arrives() {
        let mut ch = AckChannel::new(0.4, 0.002, 0.05, 11);
        for i in 0..1000 {
            let t = ch.send(i as f64);
            assert!(t >= i as f64 + 0.002);
        }
    }

    #[test]
    fn ack_latency_grows_with_loss() {
        let mut clean = AckChannel::new(0.0, 0.002, 0.05, 3);
        let mut lossy = AckChannel::new(0.5, 0.002, 0.05, 3);
        let n = 5000;
        let clean_avg: f64 =
            (0..n).map(|i| clean.send(i as f64) - i as f64).sum::<f64>() / n as f64;
        let lossy_avg: f64 =
            (0..n).map(|i| lossy.send(i as f64) - i as f64).sum::<f64>() / n as f64;
        assert!((clean_avg - 0.002).abs() < 1e-12);
        // Expected retransmissions: p/(1−p) = 1 → +50 ms on average.
        assert!(lossy_avg > 0.03);
    }

    #[test]
    #[should_panic(expected = "below 1")]
    fn ack_rejects_certain_loss() {
        let _ = AckChannel::new(1.0, 0.0, 0.1, 0);
    }
}
