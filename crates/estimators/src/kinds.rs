//! Estimator identities.

use std::fmt;

/// Every progress estimator implemented by this crate.
///
/// The first eight are *candidate* estimators the selection framework can
/// choose among; the last two are the idealized models of Section 6.7
/// (they use the true totals, unknowable mid-query) used to validate the
/// GetNext and Bytes-Processed models themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EstimatorKind {
    /// DriverNode estimator (\[6\], eq. (4)).
    Dne,
    /// Total-GetNext estimator with bound-clamped E_i (\[6\], eq. (3)).
    Tgn,
    /// Bytes-processed / speed model of Luo et al. (\[13\]).
    Luo,
    /// Worst-case estimator of \[5\] (pessimistic bound; ratio-error ≤ μ).
    Pmax,
    /// Worst-case-optimal estimator of \[5\] (geometric mean of progress
    /// bounds, minimax-optimal for the ratio error).
    Safe,
    /// DNE with batch-sort nodes included among the drivers (paper §5.1).
    BatchDne,
    /// DNE with index-seek nodes included among the drivers (paper §5.1.1).
    DneSeek,
    /// TGN with LUO-style cardinality interpolation (paper §5.2, eq. (8)):
    /// each E_i becomes eq. (2)'s `K_i + (1 - α)·E_i`, α the driver
    /// fraction of eq. (1), so progress is `ΣK / (ΣK + (1 - α)·ΣE)`.
    TgnInt,
    /// TGN over the *unrefined* optimizer estimates (no bound clamping) —
    /// the ablation baseline for the paper's §7 observation that online
    /// cardinality refinement is a key lever.
    TgnRaw,
    /// Idealized GetNext model: TGN with the true N_i (paper §6.7).
    GetNextOracle,
    /// Idealized bytes-processed model with true byte totals (paper §6.7).
    BytesOracle,
}

impl EstimatorKind {
    /// The three estimators from prior work the paper starts from.
    pub const ORIGINAL: [EstimatorKind; 3] =
        [EstimatorKind::Dne, EstimatorKind::Tgn, EstimatorKind::Luo];

    /// The six-estimator set after adding the paper's novel estimators.
    pub const EXTENDED: [EstimatorKind; 6] = [
        EstimatorKind::Dne,
        EstimatorKind::Tgn,
        EstimatorKind::Luo,
        EstimatorKind::BatchDne,
        EstimatorKind::DneSeek,
        EstimatorKind::TgnInt,
    ];

    /// All candidates (Table 8's rows).
    pub const CANDIDATES: [EstimatorKind; 8] = [
        EstimatorKind::Dne,
        EstimatorKind::Tgn,
        EstimatorKind::Luo,
        EstimatorKind::Pmax,
        EstimatorKind::Safe,
        EstimatorKind::BatchDne,
        EstimatorKind::DneSeek,
        EstimatorKind::TgnInt,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            EstimatorKind::Dne => "DNE",
            EstimatorKind::Tgn => "TGN",
            EstimatorKind::Luo => "LUO",
            EstimatorKind::Pmax => "PMAX",
            EstimatorKind::Safe => "SAFE",
            EstimatorKind::BatchDne => "BATCHDNE",
            EstimatorKind::DneSeek => "DNESEEK",
            EstimatorKind::TgnInt => "TGNINT",
            EstimatorKind::TgnRaw => "TGNRAW",
            EstimatorKind::GetNextOracle => "GetNextModel",
            EstimatorKind::BytesOracle => "BytesModel",
        }
    }

    /// Stable dense index within [`EstimatorKind::CANDIDATES`].
    pub fn candidate_index(&self) -> Option<usize> {
        EstimatorKind::CANDIDATES.iter().position(|k| k == self)
    }
}

impl fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_indices_are_dense() {
        for (i, k) in EstimatorKind::CANDIDATES.iter().enumerate() {
            assert_eq!(k.candidate_index(), Some(i));
        }
        assert_eq!(EstimatorKind::GetNextOracle.candidate_index(), None);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = EstimatorKind::CANDIDATES.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EstimatorKind::CANDIDATES.len());
    }
}
