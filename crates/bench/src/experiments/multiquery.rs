//! Extension experiment (beyond the paper): progress estimation under
//! multi-query concurrency — the future-work direction the paper names in
//! Section 2 (Luo et al.'s multi-query progress indicators \[12\]).
//!
//! Two concurrency regimes are measured against isolated execution:
//!
//! * **steady** — three similar queries share the machine for their whole
//!   lifetime (fair round-robin row slices). The uniform dilation adds a
//!   near-constant time overhead per row, which *dilutes* each query's own
//!   per-row work variance — counter-based estimators can even improve.
//! * **staggered** — a long target query runs with two short competitors
//!   that finish mid-flight, so the target's processing speed jumps twice.
//!   Counter-based estimators mis-map counters to time across the regime
//!   changes; the speed-based LUO model adapts after a lag.

use crate::report::Table;
use crate::suite::{ExpScale, Suite};
use prosel_engine::{run_concurrent, run_plan, Catalog, ExecConfig, QueryRun};
use prosel_estimators::{evaluate_pipeline_shared, EstimatorKind, TraceCtx};
use prosel_planner::query::{AggKind, AggSpec, FilterSpec, JoinSpec, QuerySpec, TableRef};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;

const KINDS: [EstimatorKind; 4] =
    [EstimatorKind::Dne, EstimatorKind::Tgn, EstimatorKind::Luo, EstimatorKind::TgnInt];

fn mean_errors(runs: &[QueryRun]) -> (Vec<f64>, usize) {
    let mut sums = vec![0.0f64; KINDS.len()];
    let mut n = 0usize;
    for run in runs {
        let ctx = TraceCtx::new(run);
        for pid in 0..run.pipelines.len() {
            if let Some(errs) = evaluate_pipeline_shared(run, pid, &KINDS, &ctx) {
                for (i, e) in errs.iter().enumerate() {
                    sums[i] += e.l1;
                }
                n += 1;
            }
        }
    }
    (sums.into_iter().map(|s| s / n.max(1) as f64).collect(), n)
}

/// A long scan-heavy target query (orders ⋈ lineitem, grouped).
fn target_query() -> QuerySpec {
    QuerySpec {
        tables: vec![TableRef::new("orders"), TableRef::new("lineitem")],
        joins: vec![JoinSpec {
            left_table: 0,
            left_col: "o_orderkey".into(),
            right_col: "l_orderkey".into(),
        }],
        aggregate: Some(AggSpec {
            group_cols: vec![(0, "o_orderpriority".into())],
            aggs: vec![AggKind::Sum { table: 1, col: "l_extendedprice".into() }],
            having: None,
        }),
        order_by: None,
        top: None,
    }
}

/// A short competitor (a slice of lineitem).
fn competitor_query(hi: i64) -> QuerySpec {
    QuerySpec {
        tables: vec![TableRef::new("lineitem").with_filter(FilterSpec::Range {
            col: "l_shipdate".into(),
            lo: 0,
            hi,
        })],
        joins: vec![],
        aggregate: Some(AggSpec {
            group_cols: vec![(0, "l_returnflag".into())],
            aggs: vec![AggKind::Count],
            having: None,
        }),
        order_by: None,
        top: None,
    }
}

pub fn run(_suite: &mut Suite, scale: ExpScale) -> String {
    let queries = match scale {
        ExpScale::Smoke => 24,
        ExpScale::Quick => 60,
        ExpScale::Full => 120,
    };
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 77).with_queries(queries);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> = w.queries.iter().map(|q| builder.build(q).expect("plan")).collect();

    // ---- steady regime: similar queries, whole-lifetime sharing --------
    let solo: Vec<QueryRun> = plans
        .iter()
        .enumerate()
        .map(|(qi, p)| {
            run_plan(&catalog, p, &ExecConfig { seed: qi as u64, ..ExecConfig::default() })
        })
        .collect();
    let mut steady = Vec::new();
    for (gi, group) in plans.chunks(3).enumerate() {
        let cfg = ExecConfig { seed: gi as u64, ..ExecConfig::default() };
        steady.extend(run_concurrent(&catalog, group, &cfg));
    }
    let (solo_err, n_solo) = mean_errors(&solo);
    let (steady_err, _) = mean_errors(&steady);

    // ---- staggered regime: long target + short competitors -------------
    let target = builder.build(&target_query()).expect("target plan");
    let reps = (queries / 6).max(4);
    let mut tgt_solo = Vec::new();
    let mut tgt_conc = Vec::new();
    for rep in 0..reps {
        let exec = ExecConfig { seed: 0x7a6 + rep as u64, ..ExecConfig::default() };
        tgt_solo.push(run_plan(&catalog, &target, &exec));
        let comp_a = builder.build(&competitor_query(600)).expect("competitor");
        let comp_b = builder.build(&competitor_query(1400)).expect("competitor");
        let runs = run_concurrent(&catalog, &[target.clone(), comp_a, comp_b], &exec);
        tgt_conc.push(runs.into_iter().next().expect("target run"));
    }
    let (tsolo_err, n_tgt) = mean_errors(&tgt_solo);
    let (tconc_err, _) = mean_errors(&tgt_conc);

    let mut out = String::new();
    let mut t1 = Table::new(
        "Extension — steady 3-way sharing vs isolation (mean pipeline L1)",
        &["estimator", "solo", "concurrent", "change"],
    );
    let mut t2 = Table::new(
        "Extension — staggered competitors (speed regime changes), target query only",
        &["estimator", "solo", "concurrent", "change"],
    );
    for (i, k) in KINDS.iter().enumerate() {
        t1.row(&[
            k.name().to_string(),
            format!("{:.4}", solo_err[i]),
            format!("{:.4}", steady_err[i]),
            format!("{:+.0}%", (steady_err[i] / solo_err[i].max(1e-9) - 1.0) * 100.0),
        ]);
        t2.row(&[
            k.name().to_string(),
            format!("{:.4}", tsolo_err[i]),
            format!("{:.4}", tconc_err[i]),
            format!("{:+.0}%", (tconc_err[i] / tsolo_err[i].max(1e-9) - 1.0) * 100.0),
        ]);
    }
    out.push_str(&t1.render());
    out.push_str(&format!("pipelines: {n_solo} (whole workload)\n\n"));
    out.push_str(&t2.render());
    out.push_str(&format!(
        "target pipelines: {n_tgt} per setting.\n\
         Interpretation: steady fair sharing adds near-uniform per-row overhead\n\
         and can even smooth counter-based estimators, but competitors that\n\
         finish mid-flight change the target's speed regime and hurt them —\n\
         the scenario multi-query progress estimators [12] are built for.\n",
    ));
    println!("{out}");
    out
}
