//! The two archetypal hard cases from the paper's error analysis (§6.3),
//! reproduced deliberately:
//!
//! 1. a nested iteration behind a *batch sort* — driver-node estimators
//!    (DNE) finish early while the pipeline keeps running;
//! 2. a hash-join pipeline with a badly misestimated filter — TGN inherits
//!    the cardinality error and cannot recover.
//!
//! ```text
//! cargo run --example hard_pipelines --release
//! ```

use prosel::datagen::TuningLevel;
use prosel::engine::plan::OperatorKind;
use prosel::engine::{run_plan, Catalog, ExecConfig};
use prosel::estimators::{l1_error, EstimatorKind, PipelineObs, TraceCtx};
use prosel::planner::query::{FilterSpec, JoinSpec, QuerySpec, TableRef};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::{PlanBuilder, PlannerConfig};

fn print_case(title: &str, obs: &PipelineObs, kinds: &[EstimatorKind]) {
    println!("\n--- {title} ({} observations) ---", obs.len());
    let truth = obs.truth();
    print!("{:>6}", "true%");
    for k in kinds {
        print!("{:>10}", k.name());
    }
    println!();
    let n = obs.len();
    for j in (0..n).step_by((n / 10).max(1)) {
        print!("{:>5.0}%", truth[j] * 100.0);
        for &k in kinds {
            print!("{:>9.1}%", obs.curve(k)[j] * 100.0);
        }
        println!();
    }
    for &k in kinds {
        println!("  {:<9} L1 {:.4}", k.name(), l1_error(&obs.curve(k), &truth));
    }
}

fn main() {
    // ---------------- case 1: batch sort + nested iteration -------------
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 7)
        .with_queries(1)
        .with_scale(3.0)
        .with_skew(2.0)
        .with_tuning(TuningLevel::FullyTuned);
    let w = materialize(&spec);
    let q = QuerySpec {
        tables: vec![
            TableRef::new("orders").with_filter(FilterSpec::Range {
                col: "o_orderdate".into(),
                lo: 0,
                hi: 520, // narrow: date-ordered seek, not sorted on the join key
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
    let cfg = PlannerConfig { seek_cost: 1.0, batch_sort_min_outer: 10.0, ..Default::default() };
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design).with_config(cfg);
    let plan = builder.build(&q).expect("plan");
    assert!(plan.nodes.iter().any(|n| matches!(n.op, OperatorKind::BatchSort { .. })));
    let catalog = Catalog::new(&w.db, &w.design);
    let run = run_plan(&catalog, &plan, &ExecConfig::default());
    let pid = run.pipelines.iter().position(|p| !p.batch_sort_nodes.is_empty()).unwrap();
    let obs = PipelineObs::with_ctx(&run, pid, &TraceCtx::new(&run)).expect("observations");
    print_case(
        "nested iteration behind a batch sort (paper Fig. 6)",
        &obs,
        &[EstimatorKind::Dne, EstimatorKind::BatchDne, EstimatorKind::Tgn],
    );

    // ---------------- case 2: misestimated hash join --------------------
    let spec2 = WorkloadSpec::new(WorkloadKind::TpchLike, 8)
        .with_queries(1)
        .with_scale(3.0)
        .with_skew(2.0)
        .with_tuning(TuningLevel::Untuned);
    let w2 = materialize(&spec2);
    let q2 = QuerySpec {
        tables: vec![
            TableRef::new("customer").with_filter(FilterSpec::Cmp {
                col: "c_mktsegment".into(),
                op: prosel::engine::CmpOp::Eq,
                val: 5, // a cold segment under skew: badly misestimated
            }),
            TableRef::new("orders"),
            TableRef::new("lineitem"),
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
    let builder2 = PlanBuilder::new(&w2.db, &w2.stats, &w2.design);
    let plan2 = builder2.build(&q2).expect("plan");
    let catalog2 = Catalog::new(&w2.db, &w2.design);
    let run2 = run_plan(&catalog2, &plan2, &ExecConfig::default());
    let ctx2 = TraceCtx::new(&run2);
    let pid2 = (0..run2.pipelines.len())
        .filter(|&p| PipelineObs::with_ctx(&run2, p, &ctx2).is_some_and(|o| o.len() >= 10))
        .max_by_key(|&p| run2.pipelines[p].nodes.len())
        .expect("pipeline");
    let obs2 = PipelineObs::with_ctx(&run2, pid2, &ctx2).expect("observations");
    print_case(
        "hash-join pipeline with cardinality misestimates (paper Fig. 7)",
        &obs2,
        &[EstimatorKind::Dne, EstimatorKind::Tgn, EstimatorKind::TgnInt, EstimatorKind::Luo],
    );
}
