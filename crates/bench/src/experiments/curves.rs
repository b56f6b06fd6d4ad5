//! Figures 6 and 7: example progress-over-time curves for the two
//! archetypal hard cases.
//!
//! * Fig. 6 — a nested-loop-join pipeline with a partially blocking batch
//!   sort: estimators based heavily on driver nodes (DNE) race ahead once
//!   the driver input is consumed even though the nested iteration is far
//!   from done; BATCHDNE tracks the batch sort instead.
//! * Fig. 7 — a complex hash-join query with selectivity misestimates:
//!   TGN cannot recover from the cardinality error, while interpolating /
//!   driver-based estimators adjust as the pipeline progresses.

use crate::report::Table;
use crate::suite::{ExpScale, Suite};
use prosel_datagen::TuningLevel;
use prosel_engine::plan::OperatorKind;
use prosel_engine::{run_plan, Catalog, ExecConfig};
use prosel_estimators::{EstimatorKind, PipelineObs, TraceCtx};
use prosel_planner::query::{FilterSpec, JoinSpec, QuerySpec, TableRef};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::{PlanBuilder, PlannerConfig};

fn curve_table(title: &str, obs: &PipelineObs, kinds: &[EstimatorKind], points: usize) -> String {
    let truth = obs.truth();
    let curves: Vec<(EstimatorKind, Vec<f64>)> = kinds.iter().map(|&k| (k, obs.curve(k))).collect();
    let mut header = vec!["time%", "true"];
    for (k, _) in &curves {
        header.push(k.name());
    }
    let mut table = Table::new(title, &header);
    let n = obs.len();
    let step = (n / points).max(1);
    for j in (0..n).step_by(step) {
        let t_frac = truth[j];
        let mut cells = vec![format!("{:.0}%", t_frac * 100.0), format!("{:.3}", t_frac)];
        for (_, c) in &curves {
            cells.push(format!("{:.3}", c[j]));
        }
        table.row(&cells);
    }
    table.render()
}

/// Figure 6: nested-loop join with a batch sort.
pub fn run_fig6(_suite: &mut Suite, _scale: ExpScale) -> String {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 1106)
        .with_queries(1)
        .with_scale(3.0)
        .with_skew(2.0)
        .with_tuning(TuningLevel::FullyTuned);
    let w = materialize(&spec);
    // A filtered orders side driving a nested iteration into lineitem; the
    // planner config forces the batch sort so the figure's scenario is
    // reproduced deliberately.
    let q = QuerySpec {
        tables: vec![
            TableRef::new("orders").with_filter(FilterSpec::Range {
                col: "o_orderdate".into(),
                lo: 0,
                hi: 520, // narrow: the access path is a date-ordered seek,
                         // so the outer is NOT sorted on the join key
            }),
            TableRef::new("lineitem"),
        ],
        joins: vec![JoinSpec {
            left_table: 0,
            left_col: "o_orderkey".into(),
            right_col: "l_orderkey".into(),
        }],
        aggregate: None,
        order_by: None,
        top: None,
    };
    let cfg = PlannerConfig {
        seek_cost: 1.0,             // force the nested loop
        batch_sort_min_outer: 10.0, // force the batch sort
        ..PlannerConfig::default()
    };
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design).with_config(cfg);
    let plan = builder.build(&q).expect("plan");
    assert!(
        plan.nodes.iter().any(|n| matches!(n.op, OperatorKind::BatchSort { .. })),
        "figure 6 requires a batch sort:\n{}",
        plan.render()
    );
    let catalog = Catalog::new(&w.db, &w.design);
    let run = run_plan(&catalog, &plan, &ExecConfig::default());
    // Pick the pipeline containing the batch sort.
    let pid = run
        .pipelines
        .iter()
        .position(|p| !p.batch_sort_nodes.is_empty())
        .expect("batch-sort pipeline");
    let obs = PipelineObs::with_ctx(&run, pid, &TraceCtx::new(&run)).expect("observations");
    let mut out = format!(
        "Figure 6 — nested-loop + batch-sort pipeline ({} obs)\nplan:\n{}\n",
        obs.len(),
        plan.render()
    );
    out.push_str(&curve_table(
        "progress over time",
        &obs,
        &[EstimatorKind::Dne, EstimatorKind::BatchDne, EstimatorKind::Tgn],
        14,
    ));
    out.push_str(
        "paper: the partially blocking batch sort makes driver-node-heavy\n\
         estimators (DNE) overestimate severely; BATCHDNE corrects this.\n",
    );
    println!("{out}");
    out
}

/// Figure 7: complex hash-join query with cardinality misestimates.
pub fn run_fig7(_suite: &mut Suite, _scale: ExpScale) -> String {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 1107)
        .with_queries(1)
        .with_scale(3.0)
        .with_skew(2.0)
        .with_tuning(TuningLevel::Untuned);
    let w = materialize(&spec);
    // Three-way hash join; the cold equality constant on a skewed column
    // is badly misestimated, which is what TGN inherits.
    let q = QuerySpec {
        tables: vec![
            TableRef::new("customer").with_filter(FilterSpec::Cmp {
                col: "c_mktsegment".into(),
                op: prosel_engine::CmpOp::Eq,
                val: 4,
            }),
            TableRef::new("orders"),
            TableRef::new("lineitem").with_filter(FilterSpec::Range {
                col: "l_shipdate".into(),
                lo: 0,
                hi: 2000,
            }),
        ],
        joins: vec![
            JoinSpec { left_table: 0, left_col: "c_custkey".into(), right_col: "o_custkey".into() },
            JoinSpec {
                left_table: 1,
                left_col: "o_orderkey".into(),
                right_col: "l_orderkey".into(),
            },
        ],
        aggregate: None,
        order_by: None,
        top: None,
    };
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plan = builder.build(&q).expect("plan");
    assert!(
        plan.nodes.iter().any(|n| matches!(n.op, OperatorKind::HashJoin { .. })),
        "figure 7 requires hash joins:\n{}",
        plan.render()
    );
    let catalog = Catalog::new(&w.db, &w.design);
    let run = run_plan(&catalog, &plan, &ExecConfig::default());
    let ctx = TraceCtx::new(&run);
    // Use the final (largest) probe pipeline.
    let pid = (0..run.pipelines.len())
        .filter(|&p| PipelineObs::with_ctx(&run, p, &ctx).map_or(0, |o| o.len()) >= 10)
        .max_by_key(|&p| run.pipelines[p].nodes.len())
        .expect("probe pipeline");
    let obs = PipelineObs::with_ctx(&run, pid, &ctx).expect("observations");
    let mut out = format!(
        "Figure 7 — complex hash-join pipeline ({} obs)\nplan:\n{}\n",
        obs.len(),
        plan.render()
    );
    out.push_str(&curve_table(
        "progress over time",
        &obs,
        &[EstimatorKind::Dne, EstimatorKind::Tgn, EstimatorKind::Luo, EstimatorKind::TgnInt],
        14,
    ));
    out.push_str(
        "paper: TGN has no way to recover from selectivity misestimates, while\n\
         interpolating (TGNINT, LUO) and driver-based (DNE) estimators adjust\n\
         as the pipeline consumes its driver input.\n",
    );
    println!("{out}");
    out
}
