//! Rate functions `f_c^R(q)`: the network rate a VR content requires at each
//! quality level.
//!
//! The paper observes (Fig. 1a) that the tile size — and therefore the rate
//! needed to deliver it within one slot — is *convex and increasing* in the
//! quality level. All solvers in this crate rely on that structure, so
//! [`TabulatedRate`] validates strict monotonicity on construction and
//! exposes a convexity check.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::quality::QualityLevel;

/// Maps a quality level to the rate (in Mbps, with the slot duration fixed
/// the rate doubles as the content size) required to deliver the content.
pub trait RateFunction {
    /// Rate required for quality level `q`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `q` exceeds [`RateFunction::max_level`].
    fn rate(&self, q: QualityLevel) -> f64;

    /// The highest level this function is defined for.
    fn max_level(&self) -> QualityLevel;

    /// Marginal rate increase from `q` to `q + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is already the maximum level.
    fn marginal_rate(&self, q: QualityLevel) -> f64 {
        self.rate(q.next()) - self.rate(q)
    }
}

/// A rate function backed by an explicit per-level table.
///
/// # Examples
///
/// ```
/// use cvr_core::rate::{RateFunction, TabulatedRate};
/// use cvr_core::quality::QualityLevel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = TabulatedRate::new(vec![8.0, 14.0, 22.0, 36.0, 58.0, 90.0])?;
/// assert_eq!(f.rate(QualityLevel::new(4)), 36.0);
/// assert!(f.is_convex());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TabulatedRate {
    rates: Vec<f64>,
}

impl TabulatedRate {
    /// Creates a tabulated rate function from per-level rates (level 1 first).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyQualitySet`] for an empty table,
    /// [`ModelError::InvalidParameter`] if any rate is non-positive or
    /// non-finite, and [`ModelError::NonIncreasingRates`] if rates are not
    /// strictly increasing.
    pub fn new(rates: Vec<f64>) -> Result<Self, ModelError> {
        if rates.is_empty() {
            return Err(ModelError::EmptyQualitySet);
        }
        for &r in &rates {
            if !r.is_finite() || r <= 0.0 {
                return Err(ModelError::InvalidParameter {
                    name: "rate",
                    value: r,
                });
            }
        }
        for (i, pair) in rates.windows(2).enumerate() {
            if pair[1] <= pair[0] {
                return Err(ModelError::NonIncreasingRates { index: i + 1 });
            }
        }
        Ok(TabulatedRate { rates })
    }

    /// The paper's operating point: six levels whose *average* rate at the
    /// medium level (4) is 36 Mbps, the per-user budget used in Section IV.
    ///
    /// The geometric growth between levels mirrors the roughly exponential
    /// size growth per CRF step observed in Fig. 1a.
    pub fn paper_profile() -> Self {
        TabulatedRate::new(vec![10.8, 16.2, 24.2, 36.0, 54.4, 81.6])
            .expect("paper profile is valid")
    }

    /// Returns `true` if the marginal rates are non-decreasing, i.e. the
    /// table is convex in the level (the structure Fig. 1a establishes).
    pub fn is_convex(&self) -> bool {
        self.rates
            .windows(3)
            .all(|w| (w[2] - w[1]) >= (w[1] - w[0]) - 1e-12)
    }

    /// Borrow the underlying per-level table.
    pub fn as_slice(&self) -> &[f64] {
        &self.rates
    }
}

impl RateFunction for TabulatedRate {
    fn rate(&self, q: QualityLevel) -> f64 {
        self.rates[q.index()]
    }

    fn max_level(&self) -> QualityLevel {
        QualityLevel::new(self.rates.len() as u8)
    }
}

impl RateFunction for &TabulatedRate {
    fn rate(&self, q: QualityLevel) -> f64 {
        (*self).rate(q)
    }

    fn max_level(&self) -> QualityLevel {
        (*self).max_level()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_is_convex_and_anchored_at_36() {
        let f = TabulatedRate::paper_profile();
        assert!(f.is_convex());
        assert_eq!(f.rate(QualityLevel::new(4)), 36.0);
        assert_eq!(f.max_level(), QualityLevel::new(6));
    }

    #[test]
    fn rejects_empty_nonpositive_and_nonincreasing() {
        assert!(matches!(
            TabulatedRate::new(vec![]),
            Err(ModelError::EmptyQualitySet)
        ));
        assert!(matches!(
            TabulatedRate::new(vec![1.0, 0.0]),
            Err(ModelError::InvalidParameter { .. })
        ));
        assert!(matches!(
            TabulatedRate::new(vec![1.0, f64::NAN]),
            Err(ModelError::InvalidParameter { .. })
        ));
        assert!(matches!(
            TabulatedRate::new(vec![2.0, 2.0]),
            Err(ModelError::NonIncreasingRates { index: 1 })
        ));
    }

    #[test]
    fn marginal_rate_matches_difference() {
        let f = TabulatedRate::new(vec![1.0, 3.0, 7.0]).unwrap();
        assert_eq!(f.marginal_rate(QualityLevel::new(1)), 2.0);
        assert_eq!(f.marginal_rate(QualityLevel::new(2)), 4.0);
    }

    #[test]
    fn convexity_detects_concave_table() {
        // Increasing but concave: increments 4, 2.
        let f = TabulatedRate::new(vec![1.0, 5.0, 7.0]).unwrap();
        assert!(!f.is_convex());
    }

    #[test]
    fn accessors_round_trip() {
        let rates = vec![1.0, 2.5, 5.0];
        let f = TabulatedRate::new(rates.clone()).unwrap();
        assert_eq!(f.as_slice(), rates.as_slice());
    }
}
