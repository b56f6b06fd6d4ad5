//! Stored reference for the estimator curves.
//!
//! The constants below are FNV-64 digests over the bit patterns of
//! everything post-hoc evaluation yields for a fixed-seed corpus: per
//! pipeline the observation times, `truth`, `driver_fraction`,
//! `total_getnext` and all 11 estimator curves, and per run the
//! `records_from_run` output (features and labels). They were recorded
//! from the batch `PipelineObs` implementation at the commit before it was
//! deleted; evaluation is now replay through `IncrementalObs`, and this
//! suite is what holds that path to the numbers the batch code produced.
//! A digest that moves means a training label or a served estimate moved.

use prosel_core::pipeline_runs::records_from_run;
use prosel_engine::{run_plan, Catalog, ExecConfig, QueryRun};
use prosel_estimators::{EstimatorKind, PipelineObs, TraceCtx, ONLINE_KINDS};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;

/// FNV-1a over a stream of 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits());
        }
    }

    fn f32s(&mut self, v: &[f32]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits() as u64);
        }
    }
}

/// Every estimator kind, oracles included, in a fixed order.
fn all_kinds() -> Vec<EstimatorKind> {
    let mut kinds = ONLINE_KINDS.to_vec();
    kinds.push(EstimatorKind::GetNextOracle);
    kinds.push(EstimatorKind::BytesOracle);
    kinds
}

fn corpus(kind: WorkloadKind, seed: u64, queries: usize, cfg: &ExecConfig) -> Vec<QueryRun> {
    let spec = WorkloadSpec::new(kind, seed).with_queries(queries).with_scale(0.5);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    w.queries
        .iter()
        .enumerate()
        .map(|(qi, q)| {
            let plan = builder.build(q).expect("plan");
            run_plan(&catalog, &plan, &ExecConfig { seed: 0xD16E ^ qi as u64, ..cfg.clone() })
        })
        .collect()
}

/// Digest of every pipeline's evaluation, plus how many pipelines and
/// observations it covered (so an accidentally empty corpus cannot pass).
fn curve_digest(runs: &[QueryRun]) -> (u64, usize, usize) {
    let kinds = all_kinds();
    let mut h = Fnv::new();
    let (mut pipelines, mut observations) = (0, 0);
    for run in runs {
        let ctx = TraceCtx::new(run);
        for pid in 0..run.pipelines.len() {
            let Some(obs) = PipelineObs::with_ctx(run, pid, &ctx) else {
                h.word(u64::MAX);
                continue;
            };
            pipelines += 1;
            observations += obs.len();
            h.word(pid as u64);
            h.f64s(&obs.times().to_vec());
            h.f64s(&obs.truth());
            h.f64s(&obs.driver_fraction().to_vec());
            h.word(obs.total_getnext());
            for &kind in &kinds {
                h.f64s(&obs.curve(kind));
            }
        }
    }
    (h.0, pipelines, observations)
}

fn thinning_cfg() -> ExecConfig {
    ExecConfig { max_snapshots: 32, initial_snapshot_interval: 5.0, ..ExecConfig::default() }
}

#[test]
fn tpch_like_curves_match_the_recorded_digest() {
    let runs = corpus(WorkloadKind::TpchLike, 0xC0FFEE, 24, &ExecConfig::default());
    assert_eq!(curve_digest(&runs), (0x15fc3f3895b3aa36, 62, 4171));
}

#[test]
fn tpcds_like_curves_match_the_recorded_digest() {
    let runs = corpus(WorkloadKind::TpcdsLike, 0xBEEF, 24, &ExecConfig::default());
    assert_eq!(curve_digest(&runs), (0x4194d1df4bbe9260, 76, 3836));
}

#[test]
fn thinned_traces_match_the_recorded_digest() {
    // A 32-snapshot budget forces the engine to thin its buffer again and
    // again, so the traces are sparse and unevenly spaced — the regime
    // where the LUO speed window is most sensitive.
    let got = [(WorkloadKind::TpchLike, 0xC0FFEE), (WorkloadKind::TpcdsLike, 0xBEEF)].map(
        |(kind, seed)| {
            let runs = corpus(kind, seed, 12, &thinning_cfg());
            assert!(
                runs.iter().all(|r| r.trace.snapshots.len() <= 32),
                "{kind:?}: the budget must bound every trace"
            );
            curve_digest(&runs)
        },
    );
    assert_eq!(got, [(0x3eb826c40f5d5062, 31, 317), (0xd6980b0882c8615d, 39, 324)]);
}

#[test]
fn records_match_the_recorded_digest() {
    let mut out = Vec::new();
    for (kind, seed) in [(WorkloadKind::TpchLike, 0xC0FFEE), (WorkloadKind::TpcdsLike, 0xBEEF)] {
        for (qi, run) in corpus(kind, seed, 24, &ExecConfig::default()).iter().enumerate() {
            records_from_run(run, "digest", qi, 5, &mut out);
        }
    }
    let mut h = Fnv::new();
    for r in &out {
        h.word(r.query_idx as u64);
        h.word(r.pipeline_id as u64);
        h.f32s(&r.features);
        h.f32s(&r.errors_l1);
        h.f32s(&r.errors_l2);
        h.f32s(&r.oracle_l1);
        h.f32s(&r.oracle_l2);
        h.word(r.total_getnext);
        h.word(r.weight.to_bits());
        h.word(r.n_obs as u64);
        for b in r.fingerprint.bytes() {
            h.word(b as u64);
        }
    }
    assert_eq!((h.0, out.len()), (0xc66069c68ad32c1f, 66));
}
