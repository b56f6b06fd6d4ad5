//! Workload generation: parameterized query-template families standing in
//! for the paper's six workloads.
//!
//! | paper workload | here | shape |
//! |---|---|---|
//! | TPC-H (1000 queries, Zipf z) | [`WorkloadKind::TpchLike`] | 12 templates over the 8-table schema |
//! | TPC-DS (200 random queries) | [`WorkloadKind::TpcdsLike`] | 6 star-join reporting templates |
//! | Real-1 (477 queries, 5–8-way joins + nested sub-queries) | [`WorkloadKind::Real1`] | 5 templates, 5–8 tables, HAVING blocks |
//! | Real-2 (632 queries, ~12 joins) | [`WorkloadKind::Real2`] | snowflake templates joining up to 13 tables |
//!
//! Template parameters (filter constants, ranges, TOP sizes, aggregate
//! choices) are drawn from the *actual data distribution* via histogram
//! quantiles, so requested selectivities are realistic. Everything is
//! seeded.

mod templates;

use crate::query::QuerySpec;
use crate::stats::DbStats;
use prosel_datagen::{realworld, tpcds, tpch};
use prosel_datagen::{Database, GenConfig, PhysicalDesign, TuningLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use templates::{real1_template, real2_template, tpcds_template, tpch_template};

/// Which workload family to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    TpchLike,
    TpcdsLike,
    Real1,
    Real2,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] =
        [WorkloadKind::TpchLike, WorkloadKind::TpcdsLike, WorkloadKind::Real1, WorkloadKind::Real2];

    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::TpchLike => "tpch",
            WorkloadKind::TpcdsLike => "tpcds",
            WorkloadKind::Real1 => "real1",
            WorkloadKind::Real2 => "real2",
        }
    }

    /// Default query count (scaled down from the paper's 1000/200/477/632).
    pub fn default_queries(&self) -> usize {
        match self {
            WorkloadKind::TpchLike => 160,
            WorkloadKind::TpcdsLike => 80,
            WorkloadKind::Real1 => 110,
            WorkloadKind::Real2 => 110,
        }
    }

    fn default_scale(&self) -> f64 {
        match self {
            WorkloadKind::TpchLike => 2.0,
            WorkloadKind::TpcdsLike => 2.0,
            WorkloadKind::Real1 => 1.5,
            WorkloadKind::Real2 => 1.2,
        }
    }
}

/// Full specification of one workload instance.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub kind: WorkloadKind,
    pub seed: u64,
    pub queries: usize,
    pub scale: f64,
    pub skew: f64,
    pub tuning: TuningLevel,
}

impl WorkloadSpec {
    pub fn new(kind: WorkloadKind, seed: u64) -> Self {
        WorkloadSpec {
            kind,
            seed,
            queries: kind.default_queries(),
            scale: kind.default_scale(),
            skew: 1.0,
            tuning: TuningLevel::PartiallyTuned,
        }
    }

    pub fn with_queries(mut self, n: usize) -> Self {
        self.queries = n;
        self
    }

    pub fn with_scale(mut self, s: f64) -> Self {
        self.scale = s;
        self
    }

    pub fn with_skew(mut self, z: f64) -> Self {
        self.skew = z;
        self
    }

    pub fn with_tuning(mut self, t: TuningLevel) -> Self {
        self.tuning = t;
        self
    }

    /// Short identifier used in reports.
    pub fn label(&self) -> String {
        format!("{}_sf{}_z{}_{}", self.kind.name(), self.scale, self.skew, self.tuning.name())
    }
}

/// A fully materialized workload: database, statistics, physical design
/// and the query batch.
pub struct Workload {
    pub spec: WorkloadSpec,
    pub db: Database,
    pub stats: DbStats,
    pub design: PhysicalDesign,
    pub queries: Vec<QuerySpec>,
}

/// Generate the database for a spec. The real-world generators run at
/// skew 0.8 or more.
pub fn build_database(spec: &WorkloadSpec) -> Database {
    let skew = match spec.kind {
        WorkloadKind::Real1 | WorkloadKind::Real2 => spec.skew.max(0.8),
        WorkloadKind::TpchLike | WorkloadKind::TpcdsLike => spec.skew,
    };
    let cfg = GenConfig { scale: spec.scale, skew, seed: spec.seed };
    match spec.kind {
        WorkloadKind::TpchLike => tpch::generate(&cfg),
        WorkloadKind::TpcdsLike => tpcds::generate(&cfg),
        WorkloadKind::Real1 => realworld::generate_real1(&cfg),
        WorkloadKind::Real2 => realworld::generate_real2(&cfg),
    }
}

/// Materialize database + stats + physical design + queries.
pub fn materialize(spec: &WorkloadSpec) -> Workload {
    let db = build_database(spec);
    let stats = DbStats::build(&db);
    let design = PhysicalDesign::derive(&db, spec.tuning);
    let queries = generate_queries(spec, &db, &stats);
    Workload { spec: spec.clone(), db, stats, design, queries }
}

/// Generate the query batch for a spec.
pub fn generate_queries(spec: &WorkloadSpec, db: &Database, stats: &DbStats) -> Vec<QuerySpec> {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x00b5_e55e_dc0f_fee5);
    let mut out = Vec::with_capacity(spec.queries);
    let mut attempts = 0usize;
    while out.len() < spec.queries && attempts < spec.queries * 20 {
        attempts += 1;
        let q = match spec.kind {
            WorkloadKind::TpchLike => tpch_template(&mut rng, stats),
            WorkloadKind::TpcdsLike => tpcds_template(&mut rng, stats),
            WorkloadKind::Real1 => real1_template(&mut rng, stats),
            WorkloadKind::Real2 => real2_template(&mut rng, db, stats),
        };
        if q.validate().is_ok() {
            out.push(q);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_generate_valid_queries() {
        for kind in WorkloadKind::ALL {
            let spec = WorkloadSpec::new(kind, 7).with_queries(30).with_scale(0.5);
            let db = build_database(&spec);
            let stats = DbStats::build(&db);
            let queries = generate_queries(&spec, &db, &stats);
            assert_eq!(queries.len(), 30, "{kind:?}");
            for q in &queries {
                assert!(q.validate().is_ok(), "{kind:?}: {q:?}");
            }
        }
    }

    #[test]
    fn workload_generation_deterministic() {
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 3).with_queries(10).with_scale(0.3);
        let db = build_database(&spec);
        let stats = DbStats::build(&db);
        let a = generate_queries(&spec, &db, &stats);
        let b = generate_queries(&spec, &db, &stats);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn real2_queries_are_deep() {
        let spec = WorkloadSpec::new(WorkloadKind::Real2, 5).with_queries(20).with_scale(0.5);
        let db = build_database(&spec);
        let stats = DbStats::build(&db);
        let queries = generate_queries(&spec, &db, &stats);
        let max_tables = queries.iter().map(|q| q.tables.len()).max().unwrap();
        assert!(max_tables >= 9, "expected deep snowflake joins, got {max_tables}");
    }
}
