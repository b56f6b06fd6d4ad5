//! Virtual-clock cost model.
//!
//! The simulator charges every GetNext call (and auxiliary work such as
//! hash-table builds, sort passes and spill I/O) against a deterministic
//! virtual clock. The constants below are abstract time units chosen so
//! that:
//!
//! * total time correlates strongly — but not perfectly — with the total
//!   number of GetNext calls, matching the paper's Section 6.7 finding
//!   that the idealized GetNext model has a small (~0.06 L1) residual
//!   error against wall-clock progress;
//! * random I/O (index seeks with poor locality) and spills are much more
//!   expensive than streaming work, so nested iterations and
//!   memory-pressured hash joins produce realistic per-tuple-work variance.
//!
//! A seeded [SplitMix64](https://prng.di.unimi.it/splitmix64.c) generator
//! adds multiplicative jitter and occasional stalls (page faults, buffer
//! pool misses) so that time is not a pure linear function of counters.

/// Minimal, fast, seeded PRNG for per-tick jitter.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Per-operator CPU costs and I/O rates (abstract time units).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// CPU cost of producing one row, indexed by `OperatorKind::type_code()`.
    pub(crate) cpu_per_row: [f64; crate::plan::OP_TYPE_COUNT],
    /// Extra CPU per *input* row for consuming operators (filter eval, hash
    /// probe, aggregation update), indexed by type code.
    pub(crate) cpu_per_input: [f64; crate::plan::OP_TYPE_COUNT],
    /// Cost per byte of sequential read.
    pub(crate) seq_read_per_byte: f64,
    /// Cost per byte written (spills, result output).
    pub(crate) write_per_byte: f64,
    /// Cost of a random I/O (index seek to a non-local key).
    pub(crate) random_io: f64,
    /// Cost of a "local" reseek (key close to the previous one — the case
    /// batch sorts create on purpose).
    pub(crate) local_seek: f64,
    /// Key distance (in rows) below which a reseek counts as local.
    pub(crate) seek_locality_window: i64,
    /// Tables whose total size is at most this many bytes are assumed
    /// buffer-pool resident: every seek into them is local.
    pub(crate) cached_table_bytes: u64,
    /// Multiplicative jitter amplitude (0 = deterministic time).
    pub(crate) jitter: f64,
    /// Probability of a stall per tick and its cost.
    pub(crate) stall_prob: f64,
    pub(crate) stall_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        use crate::plan::OP_TYPE_COUNT;
        // Indices follow OperatorKind::type_code():
        // 0 TableScan, 1 IndexScan, 2 IndexSeek, 3 Filter, 4 HashJoin,
        // 5 MergeJoin, 6 NestedLoopJoin, 7 HashAggregate, 8 StreamAggregate,
        // 9 Sort, 10 BatchSort, 11 Top, 12 ComputeScalar, 13 Project.
        let mut cpu_per_row = [0.5f64; OP_TYPE_COUNT];
        cpu_per_row[0] = 0.6;
        cpu_per_row[1] = 0.8;
        cpu_per_row[2] = 1.0;
        cpu_per_row[3] = 0.2;
        cpu_per_row[4] = 1.2;
        cpu_per_row[5] = 0.9;
        cpu_per_row[6] = 0.4;
        cpu_per_row[7] = 0.8;
        cpu_per_row[8] = 0.5;
        cpu_per_row[9] = 0.3;
        cpu_per_row[10] = 0.35;
        cpu_per_row[11] = 0.2;
        cpu_per_row[12] = 0.3;
        cpu_per_row[13] = 0.15;

        let mut cpu_per_input = [0.0f64; OP_TYPE_COUNT];
        cpu_per_input[3] = 0.25; // filter evaluation
        cpu_per_input[4] = 0.7; // hash probe / build insert
        cpu_per_input[5] = 0.3; // merge advance
        cpu_per_input[7] = 1.3; // hash aggregate update
        cpu_per_input[8] = 0.4; // stream aggregate update
        cpu_per_input[9] = 0.9; // sort insert (log factor charged separately)
        cpu_per_input[10] = 0.5; // batch sort insert

        CostModel {
            cpu_per_row,
            cpu_per_input,
            seq_read_per_byte: 0.004,
            write_per_byte: 0.006,
            random_io: 60.0,
            local_seek: 2.0,
            seek_locality_window: 64,
            cached_table_bytes: 96 * 1024,
            jitter: 0.15,
            stall_prob: 0.0015,
            stall_cost: 250.0,
        }
    }
}

impl CostModel {
    /// A fully deterministic variant (no jitter, no stalls) for tests:
    /// virtual time is a pure function of the work.
    pub fn deterministic() -> Self {
        CostModel { jitter: 0.0, stall_prob: 0.0, ..CostModel::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(7);
        let mean: f64 = (0..10_000).map(|_| c.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let mut d = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = d.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn default_model_sane() {
        let m = CostModel::default();
        assert!(m.random_io > m.local_seek);
        assert!(m.cpu_per_row.iter().all(|&c| c > 0.0));
        let d = CostModel::deterministic();
        assert_eq!(d.jitter, 0.0);
        assert_eq!(d.stall_prob, 0.0);
    }
}
