//! Quality levels and quality sets.
//!
//! The paper encodes each VR tile at `L` quality levels `Q = {1, …, L}`,
//! where a *larger* level means better visual quality (a smaller H.264
//! Constant Rate Factor). The real-world prototype uses six levels with CRF
//! values `{15, 19, 23, 27, 31, 35}` indexed as levels `{6, 5, 4, 3, 2, 1}`.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;

/// A discrete quality level in `1..=L`.
///
/// Higher is better. Level 1 is always the lowest quality the system can
/// deliver; the maximum depends on the [`QualitySet`] in use.
///
/// # Examples
///
/// ```
/// use cvr_core::quality::QualityLevel;
///
/// let q = QualityLevel::new(3);
/// assert_eq!(q.get(), 3);
/// assert!(QualityLevel::new(4) > q);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QualityLevel(u8);

impl QualityLevel {
    /// The lowest possible quality level.
    pub const MIN: QualityLevel = QualityLevel(1);

    /// Creates a new quality level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero; levels are 1-based as in the paper.
    #[inline]
    pub fn new(level: u8) -> Self {
        assert!(level >= 1, "quality levels are 1-based");
        QualityLevel(level)
    }

    /// Returns the raw 1-based level value.
    #[inline]
    pub fn get(self) -> u8 {
        self.0
    }

    /// Returns the 0-based index of this level, convenient for table lookup.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0) - 1
    }

    /// The next level up, without any upper-bound check.
    pub fn next(self) -> QualityLevel {
        QualityLevel(self.0 + 1)
    }

    /// The quality value as a floating-point number, as used in the QoE
    /// objective (the paper treats the level itself as the quality utility).
    #[inline]
    pub fn value(self) -> f64 {
        f64::from(self.0)
    }
}

impl Default for QualityLevel {
    fn default() -> Self {
        QualityLevel::MIN
    }
}

impl std::fmt::Display for QualityLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<QualityLevel> for u8 {
    fn from(q: QualityLevel) -> u8 {
        q.0
    }
}

/// The set of quality levels a deployment supports, with the CRF value each
/// level maps to.
///
/// # Examples
///
/// ```
/// use cvr_core::quality::QualitySet;
///
/// let qs = QualitySet::paper_default();
/// assert_eq!(qs.len(), 6);
/// assert_eq!(qs.max_level().get(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QualitySet {
    /// CRF value per level; index 0 holds level 1's CRF. Strictly decreasing.
    crf_by_level: Vec<u8>,
}

impl QualitySet {
    /// Creates a quality set from CRF values listed from level 1 (worst) to
    /// level `L` (best). CRF values must be strictly decreasing (a smaller
    /// CRF means a better encode).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyQualitySet`] for an empty list and
    /// [`ModelError::NonIncreasingRates`] if the CRF values do not strictly
    /// decrease with the level.
    pub fn from_crf_values(crf_by_level: Vec<u8>) -> Result<Self, ModelError> {
        if crf_by_level.is_empty() {
            return Err(ModelError::EmptyQualitySet);
        }
        for (i, pair) in crf_by_level.windows(2).enumerate() {
            if pair[1] >= pair[0] {
                return Err(ModelError::NonIncreasingRates { index: i + 1 });
            }
        }
        Ok(QualitySet { crf_by_level })
    }

    /// The six-level quality set used throughout the paper's prototype:
    /// CRF `{35, 31, 27, 23, 19, 15}` for levels `{1, …, 6}`.
    pub fn paper_default() -> Self {
        QualitySet::from_crf_values(vec![35, 31, 27, 23, 19, 15]).expect("paper default is valid")
    }

    /// Number of levels `L`.
    pub fn len(&self) -> usize {
        self.crf_by_level.len()
    }

    /// Returns `true` if the set has no levels (never true for a constructed
    /// set; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.crf_by_level.is_empty()
    }

    /// The highest (best) level in this set.
    pub fn max_level(&self) -> QualityLevel {
        QualityLevel(self.crf_by_level.len() as u8)
    }

    /// Checks that `level` belongs to this set.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LevelOutOfRange`] when it does not.
    pub fn check(&self, level: QualityLevel) -> Result<(), ModelError> {
        if level.index() < self.len() {
            Ok(())
        } else {
            Err(ModelError::LevelOutOfRange {
                level: level.get(),
                max: self.len() as u8,
            })
        }
    }

    /// Iterates over all levels from worst (1) to best (`L`).
    pub fn iter(&self) -> impl Iterator<Item = QualityLevel> + '_ {
        (1..=self.crf_by_level.len() as u8).map(QualityLevel)
    }
}

impl Default for QualitySet {
    fn default() -> Self {
        QualitySet::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_has_six_levels_with_expected_crfs() {
        let qs = QualitySet::paper_default();
        assert_eq!(qs.len(), 6);
        assert!(!qs.is_empty());
        assert_eq!(
            qs,
            QualitySet::from_crf_values(vec![35, 31, 27, 23, 19, 15]).unwrap()
        );
        assert_eq!(qs.iter().last(), Some(qs.max_level()));
    }

    #[test]
    fn level_ordering_matches_quality() {
        assert!(QualityLevel::new(6) > QualityLevel::new(1));
        assert_eq!(QualityLevel::new(3).value(), 3.0);
        assert_eq!(QualityLevel::new(3).next(), QualityLevel::new(4));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_level_panics() {
        let _ = QualityLevel::new(0);
    }

    #[test]
    fn empty_set_rejected() {
        assert_eq!(
            QualitySet::from_crf_values(vec![]),
            Err(ModelError::EmptyQualitySet)
        );
    }

    #[test]
    fn non_decreasing_crf_rejected() {
        let err = QualitySet::from_crf_values(vec![35, 35, 27]).unwrap_err();
        assert_eq!(err, ModelError::NonIncreasingRates { index: 1 });
    }

    #[test]
    fn check_rejects_out_of_range() {
        let qs = QualitySet::paper_default();
        assert!(qs.check(QualityLevel::new(6)).is_ok());
        assert!(matches!(
            qs.check(QualityLevel::new(7)),
            Err(ModelError::LevelOutOfRange { level: 7, max: 6 })
        ));
    }

    #[test]
    fn display_and_default() {
        assert_eq!(QualityLevel::default(), QualityLevel::MIN);
        assert_eq!(QualityLevel::new(4).to_string(), "q4");
        assert_eq!(QualitySet::default(), QualitySet::paper_default());
    }

    #[test]
    fn index_is_zero_based() {
        assert_eq!(QualityLevel::new(1).index(), 0);
        assert_eq!(QualityLevel::new(6).index(), 5);
        assert_eq!(u8::from(QualityLevel::new(5)), 5);
    }
}
