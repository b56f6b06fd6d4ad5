//! Workload execution → per-pipeline training/evaluation records.
//!
//! A [`PipelineRecord`] is the unit the paper trains and evaluates on:
//! one pipeline of one executed query, with its feature vector and the
//! observed L1/L2 error of every candidate estimator.

use crate::features;
use prosel_engine::plan::{OperatorKind, PhysicalPlan};
use prosel_engine::{run_plan, Catalog, ExecConfig, Pipeline, QueryRun};
use prosel_estimators::{EstimatorKind, IncrementalObs, PipelineObs, TraceCtx};
use prosel_planner::workload::{materialize, Workload, WorkloadSpec};
use prosel_planner::PlanBuilder;

/// Structural fingerprint of one pipeline: its operator sequence plus the
/// tables it reads.
pub fn fingerprint_parts(plan: &PhysicalPlan, pipeline: &Pipeline) -> String {
    let mut ops = String::new();
    let mut tables: Vec<&str> = Vec::new();
    for &n in &pipeline.nodes {
        let op = &plan.node(n).op;
        if !ops.is_empty() {
            ops.push('-');
        }
        ops.push_str(op.name());
        match op {
            OperatorKind::TableScan { table, .. }
            | OperatorKind::IndexScan { table, .. }
            | OperatorKind::IndexSeek { table, .. } => tables.push(table),
            _ => {}
        }
    }
    tables.sort_unstable();
    format!("{ops}|{}", tables.join(","))
}

/// One labelled example.
#[derive(Debug, Clone)]
pub struct PipelineRecord {
    /// Label of the workload that produced this record.
    pub workload: String,
    pub query_idx: usize,
    pub pipeline_id: usize,
    /// Static ++ dynamic features ([`features::FeatureSchema`] layout).
    pub features: Vec<f32>,
    /// L1 error per candidate ([`EstimatorKind::CANDIDATES`] order).
    pub errors_l1: Vec<f32>,
    /// L2 error per candidate.
    pub errors_l2: Vec<f32>,
    /// True total GetNext calls in the pipeline (used by the paper's
    /// Table 2 selectivity bucketing).
    pub total_getnext: u64,
    /// Pipeline weight within its query (eq. (5)).
    pub weight: f64,
    /// Number of observations the errors average over.
    pub n_obs: usize,
    /// Structural fingerprint of the pipeline (operator sequence plus the
    /// tables it reads) — used to group re-occurring pipeline shapes
    /// (paper Table 2's "operator pipelines that occur at least 6 times").
    pub fingerprint: String,
    /// L1 errors of the idealized models `[GetNextOracle, BytesOracle]`
    /// (paper §6.7; they use true totals and are not selectable).
    pub oracle_l1: [f32; 2],
    /// L2 errors of the idealized models.
    pub oracle_l2: [f32; 2],
}

impl PipelineRecord {
    /// Index of the estimator with the smallest L1 error.
    pub fn best_candidate(&self) -> usize {
        self.errors_l1
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("non-empty errors")
    }

    /// `Err` names a vector whose length training and selection do not
    /// index by: [`features::FeatureSchema`]-wide features, one L1 and one
    /// L2 error per [`EstimatorKind::CANDIDATES`] entry.
    pub fn check_widths(&self) -> Result<(), String> {
        let check = |name: &str, values: &[f32], want: usize| match values.len() {
            len if len == want => Ok(()),
            len => Err(format!("{name} has {len} values, not {want}")),
        };
        let n = EstimatorKind::CANDIDATES.len();
        check("features", &self.features, features::FeatureSchema::get().len())?;
        check("l1", &self.errors_l1, n)?;
        check("l2", &self.errors_l2, n)
    }
}

/// Collection configuration.
#[derive(Debug, Clone)]
pub struct CollectConfig {
    pub exec: ExecConfig,
    /// Pipelines with fewer observations are skipped (too short to
    /// meaningfully estimate progress for — they finish between
    /// observation points).
    pub min_observations: usize,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig { exec: ExecConfig::default(), min_observations: 5 }
    }
}

/// Candidate + oracle error labels of one observation sequence against its
/// truth curve.
#[allow(clippy::type_complexity)]
fn errors_against_truth(
    obs: &IncrementalObs,
    truth: &[f64],
) -> (Vec<f32>, Vec<f32>, [f32; 2], [f32; 2]) {
    let mut errors_l1 = Vec::with_capacity(EstimatorKind::CANDIDATES.len());
    let mut errors_l2 = Vec::with_capacity(EstimatorKind::CANDIDATES.len());
    for kind in EstimatorKind::CANDIDATES {
        let curve = obs.curve_view(kind);
        errors_l1.push(curve.l1_error(truth) as f32);
        errors_l2.push(curve.l2_error(truth) as f32);
    }
    let mut oracle_l1 = [0.0f32; 2];
    let mut oracle_l2 = [0.0f32; 2];
    for (i, kind) in
        [EstimatorKind::GetNextOracle, EstimatorKind::BytesOracle].into_iter().enumerate()
    {
        let curve = obs.curve_view(kind);
        oracle_l1[i] = curve.l1_error(truth) as f32;
        oracle_l2[i] = curve.l2_error(truth) as f32;
    }
    (errors_l1, errors_l2, oracle_l1, oracle_l2)
}

/// Append the records of one finished query run: replay each pipeline's
/// trace through the incremental protocol, then [`record_from_online`] —
/// the labels and features a monitor would have harvested live from the
/// same execution.
pub fn records_from_run(
    run: &QueryRun,
    workload: &str,
    query_idx: usize,
    min_observations: usize,
    out: &mut Vec<PipelineRecord>,
) {
    // The plan and one refinement-bound pass per snapshot, shared by
    // every pipeline.
    let ctx = TraceCtx::new(run);
    for pid in 0..run.pipelines.len() {
        let Some(obs) = PipelineObs::with_ctx(run, pid, &ctx) else { continue };
        let weight = run.pipeline_weight(pid);
        out.extend(record_from_online(
            &run.plan,
            &obs,
            workload,
            query_idx,
            weight,
            min_observations,
        ));
    }
}

/// One labelled record from a *finalized* observation state — the unit
/// both record sources produce: [`records_from_run`] over a replayed
/// trace, and the monitor's harvest path over the live stream (ROADMAP:
/// "mining the logged switch points into training records").
/// `tests/harvest_equivalence.rs` pins that live streaming with thinning
/// and post-hoc replay of the final trace yield bit-identical records.
///
/// `weight` is the pipeline's eq. (5) weight (the monitor holds it from
/// registration). Returns `None` when the pipeline committed fewer than
/// `min_observations` observations (too short to meaningfully estimate
/// progress for).
///
/// # Panics
/// Panics if `obs` is not finalized (labels need the final window).
pub fn record_from_online(
    plan: &PhysicalPlan,
    obs: &IncrementalObs,
    workload: &str,
    query_idx: usize,
    weight: f64,
    min_observations: usize,
) -> Option<PipelineRecord> {
    record_with_statics(plan, None, obs, workload, query_idx, weight, min_observations)
}

/// [`record_from_online`] for a caller that already holds the pipeline's
/// static-feature prefix — the monitor's harvest, whose admission record
/// derived it from the same plan — so it is not extracted again. A
/// `Some` prefix must be what `static_features::extract_pipeline` returns
/// for `obs`'s pipeline; `None` extracts it.
///
/// # Panics
/// Panics if `obs` is not finalized (labels need the final window).
pub fn record_with_statics(
    plan: &PhysicalPlan,
    statics: Option<&[f32]>,
    obs: &IncrementalObs,
    workload: &str,
    query_idx: usize,
    weight: f64,
    min_observations: usize,
) -> Option<PipelineRecord> {
    assert!(obs.finalized(), "harvest needs a finalized observation state");
    if obs.is_empty() || obs.len() < min_observations {
        return None;
    }
    let truth = obs.truth();
    let (errors_l1, errors_l2, oracle_l1, oracle_l2) = errors_against_truth(obs, &truth);
    Some(PipelineRecord {
        workload: workload.to_string(),
        query_idx,
        pipeline_id: obs.pipeline_id(),
        features: features::extract(plan, statics, obs),
        errors_l1,
        errors_l2,
        total_getnext: obs.total_getnext(),
        weight,
        n_obs: obs.len(),
        fingerprint: fingerprint_parts(plan, obs.pipeline()),
        oracle_l1,
        oracle_l2,
    })
}

/// Execute every query of a materialized workload and collect records.
pub fn collect_from_workload(
    w: &Workload,
    cfg: &CollectConfig,
) -> Result<Vec<PipelineRecord>, String> {
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let label = w.spec.label();
    let mut out = Vec::new();
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).map_err(|e| format!("query {qi}: {e}"))?;
        let exec = ExecConfig {
            seed: cfg.exec.seed ^ (qi as u64).wrapping_mul(0x9E37_79B9),
            ..cfg.exec.clone()
        };
        let run = run_plan(&catalog, &plan, &exec);
        records_from_run(&run, &label, qi, cfg.min_observations, &mut out);
    }
    Ok(out)
}

/// Materialize a workload spec and collect its records (convenience).
pub fn collect_workload_records(spec: &WorkloadSpec) -> Result<Vec<PipelineRecord>, String> {
    let w = materialize(spec);
    collect_from_workload(&w, &CollectConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosel_planner::workload::WorkloadKind;

    #[test]
    fn collects_consistent_records() {
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 8).with_queries(10).with_scale(0.4);
        let records = collect_workload_records(&spec).expect("collect");
        assert!(records.len() >= 10, "got {}", records.len());
        let schema_len = features::FeatureSchema::get().len();
        for r in &records {
            assert_eq!(r.features.len(), schema_len);
            assert_eq!(r.errors_l1.len(), EstimatorKind::CANDIDATES.len());
            assert!(r.n_obs >= 5);
            assert!(r.errors_l1.iter().all(|e| e.is_finite() && *e >= 0.0));
            assert!(r.best_candidate() < EstimatorKind::CANDIDATES.len());
        }
    }

    #[test]
    fn collection_is_deterministic() {
        let spec = WorkloadSpec::new(WorkloadKind::TpcdsLike, 9).with_queries(6).with_scale(0.4);
        let a = collect_workload_records(&spec).unwrap();
        let b = collect_workload_records(&spec).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.features, y.features);
            assert_eq!(x.errors_l1, y.errors_l1);
        }
    }
}
