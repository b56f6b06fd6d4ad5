//! Storage of the committed observations: one [`Row`] per observation
//! and [`Column`], a strided view over the rows (see the parent module's
//! "Storage" section).

use super::ONLINE_KINDS;
use crate::kinds::EstimatorKind;
use crate::pipeline_obs::clamp01;

/// Positions of the `f64` fields of a [`Row`]: the aggregates retained
/// past the commit, then one value per [`ONLINE_KINDS`] entry.
pub(super) const F_TIME: usize = 0;
pub(super) const F_ALPHA: usize = 1;
pub(super) const F_SUM_K: usize = 2;
pub(super) const F_DONE_BYTES: usize = 3;
/// Bytes LUO still expects (driver input left + output left + pending
/// spill) — a function of the observation alone, so the window rebuild
/// after a thinning event reads it back instead of re-deriving it.
pub(super) const F_LUO_REMAINING: usize = 4;
pub(super) const F_VALUES: usize = 5;
pub(super) const F_LUO: usize = F_VALUES + 2;
pub(super) const ROW_F64S: usize = F_VALUES + ONLINE_KINDS.len();
const _: () = assert!(matches!(ONLINE_KINDS[F_LUO - F_VALUES], EstimatorKind::Luo));

/// One committed observation: all that is kept of it, contiguous. The
/// `f64` fields sit in one array so that a [`Column`] is a field index
/// and a stride.
#[derive(Debug, Clone, Copy)]
pub(super) struct Row {
    pub(super) serial: u64,
    /// Σ K over the pipeline's nodes in integer precision (the harvest
    /// path's `total_getnext`; `f[F_SUM_K]` is its f64 shadow).
    pub(super) k_u64: u64,
    pub(super) f: [f64; ROW_F64S],
}

/// How a [`Column`] turns the stored field into the served value.
#[derive(Debug, Clone, Copy)]
pub(super) enum Scale {
    /// The field as stored.
    Stored,
    /// An oracle curve: the field over its post-hoc total, clamped.
    Over(f64),
    /// An oracle curve whose total is zero: complete throughout.
    Ones,
}

/// One column of the committed observations — a curve, the observation
/// times, the driver fractions — read in place: a strided view over the
/// rows that allocates nothing. Index with [`Column::get`], walk with
/// [`Column::iter`], score against a truth curve with
/// [`Column::l1_error`] and friends, copy out with [`Column::to_vec`].
#[derive(Clone, Copy)]
pub struct Column<'a> {
    pub(super) rows: &'a [Row],
    pub(super) field: usize,
    pub(super) scale: Scale,
}

impl<'a> Column<'a> {
    /// Number of observations.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    // `inline(always)`: re-selection reads a few marker points per curve
    // through `get`, from another crate; left to the inliner's judgement
    // both stayed calls.
    #[inline(always)]
    fn value_of(&self, row: &Row) -> f64 {
        let v = row.f[self.field];
        match self.scale {
            Scale::Stored => v,
            Scale::Over(total) => clamp01(v / total),
            Scale::Ones => 1.0,
        }
    }

    /// The value at observation `j`.
    ///
    /// # Panics
    /// Panics when `j` is out of range, like slice indexing.
    #[inline(always)]
    pub fn get(&self, j: usize) -> f64 {
        self.value_of(&self.rows[j])
    }

    /// The value at the latest observation.
    #[cfg(test)]
    pub(crate) fn last(&self) -> Option<f64> {
        self.rows.last().map(|r| self.value_of(r))
    }

    /// The values in observation order.
    #[inline]
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = f64> + ExactSizeIterator + 'a {
        let column = *self;
        self.rows.iter().map(move |r| column.value_of(r))
    }

    /// Copy the column out.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

/// Columns compare like the slices they stand for.
impl PartialEq for Column<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl std::fmt::Debug for Column<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
