//! Plan-shape tests: the builder must produce the right operator
//! structures for each join method, keep column bookkeeping consistent on
//! deep plans, and stay within the engine's tuple-arity limit.

use prosel_datagen::{PhysicalDesign, TuningLevel};
use prosel_engine::plan::{OperatorKind, SeekKind};
use prosel_engine::{run_plan, Catalog, ExecConfig, MAX_COLS};
use prosel_planner::query::{
    AggKind, AggSpec, FilterSpec, JoinSpec, OrderTarget, QuerySpec, TableRef,
};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::{DbStats, PlanBuilder, PlannerConfig};

fn tpch(tuning: TuningLevel) -> (prosel_datagen::Database, DbStats, PhysicalDesign) {
    let db = prosel_datagen::tpch::generate(&prosel_datagen::GenConfig {
        scale: 1.0,
        skew: 1.0,
        seed: 99,
    });
    let stats = DbStats::build(&db);
    let design = PhysicalDesign::derive(&db, tuning);
    (db, stats, design)
}

fn op_names(plan: &prosel_engine::PhysicalPlan) -> Vec<&'static str> {
    plan.nodes.iter().map(|n| n.op.name()).collect()
}

#[test]
fn naive_rescan_join_for_tiny_inner() {
    let (db, stats, design) = tpch(TuningLevel::Untuned);
    let b = PlanBuilder::new(&db, &stats, &design);
    // nation (25 rows) as the inner of supplier ⋈ nation; untuned has no
    // FK index, so with a small outer the rescan nested loop is viable.
    let q = QuerySpec {
        tables: vec![
            TableRef::new("supplier").with_filter(FilterSpec::Range {
                col: "s_acctbal".into(),
                lo: 9000,
                hi: 9999,
            }),
            TableRef::new("region"),
        ],
        joins: vec![JoinSpec {
            left_table: 0,
            left_col: "s_nationkey".into(),
            right_col: "r_regionkey".into(),
        }],
        aggregate: None,
        order_by: None,
        top: None,
    };
    let plan = b.build(&q).unwrap();
    // Either a rescan NLJ (BoundCmp filter) or a cached-seek NLJ; never a
    // hash join for a 5-row inner with a tiny outer.
    assert!(
        op_names(&plan).contains(&"NestedLoopJoin"),
        "expected nested loop:\n{}",
        plan.render()
    );
}

#[test]
fn sort_merge_join_for_large_large_untuned() {
    let (db, stats, design) = tpch(TuningLevel::Untuned);
    // Force hash to look bad by shrinking its cost knobs is not needed:
    // orders ⋈ lineitem at scale 1 exceeds the spill budget, so sort-merge
    // competes. Verify the builder *can* produce it and that the plan runs.
    let b = PlanBuilder::new(&db, &stats, &design).with_config(PlannerConfig {
        hash_build_cost: 50.0, // make hash unattractive
        ..Default::default()
    });
    let q = QuerySpec {
        tables: vec![TableRef::new("orders"), TableRef::new("lineitem")],
        joins: vec![JoinSpec {
            left_table: 0,
            left_col: "o_orderkey".into(),
            right_col: "l_orderkey".into(),
        }],
        aggregate: None,
        order_by: None,
        top: None,
    };
    let plan = b.build(&q).unwrap();
    let names = op_names(&plan);
    assert!(names.contains(&"MergeJoin"), "expected merge join:\n{}", plan.render());
    assert!(names.contains(&"Sort"), "sort-merge needs sorts:\n{}", plan.render());
    let catalog = Catalog::new(&db, &design);
    let run = run_plan(&catalog, &plan, &ExecConfig::default());
    // Every lineitem row joins its order exactly once.
    assert_eq!(run.result_rows, db.table("lineitem").rows() as u64);
}

#[test]
fn index_merge_join_when_both_sides_ordered() {
    let (db, stats, design) = tpch(TuningLevel::FullyTuned);
    let b = PlanBuilder::new(&db, &stats, &design).with_config(PlannerConfig {
        seek_cost: 1e6, // rule out the nested loop
        ..Default::default()
    });
    let q = QuerySpec {
        tables: vec![TableRef::new("orders"), TableRef::new("lineitem")],
        joins: vec![JoinSpec {
            left_table: 0,
            left_col: "o_orderkey".into(),
            right_col: "l_orderkey".into(),
        }],
        aggregate: None,
        order_by: None,
        top: None,
    };
    let plan = b.build(&q).unwrap();
    let names = op_names(&plan);
    assert!(names.contains(&"MergeJoin"), "expected merge join:\n{}", plan.render());
    // Fully tuned: both sides come pre-ordered from indexes — a sortless
    // merge must be possible.
    let sortless = names.iter().filter(|&&n| n == "Sort").count() == 0;
    assert!(sortless, "index-index merge should not need sorts:\n{}", plan.render());
}

#[test]
fn nlj_inner_filters_sit_above_the_seek() {
    let (db, stats, design) = tpch(TuningLevel::FullyTuned);
    let b = PlanBuilder::new(&db, &stats, &design)
        .with_config(PlannerConfig { seek_cost: 0.5, ..Default::default() });
    let q = QuerySpec {
        tables: vec![
            TableRef::new("orders").with_filter(FilterSpec::Range {
                col: "o_orderdate".into(),
                lo: 0,
                hi: 100,
            }),
            TableRef::new("lineitem").with_filter(FilterSpec::Cmp {
                col: "l_returnflag".into(),
                op: prosel_engine::CmpOp::Eq,
                val: 3,
            }),
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
    let plan = b.build(&q).unwrap();
    // Find the NLJ and verify its inner subtree contains a BoundParam seek
    // with a filter above it.
    let nlj = plan
        .nodes
        .iter()
        .position(|n| matches!(n.op, OperatorKind::NestedLoopJoin { .. }))
        .unwrap_or_else(|| panic!("no NLJ:\n{}", plan.render()));
    let mut inner = vec![plan.node(nlj).children[1]];
    let mut walked = 0;
    while walked < inner.len() {
        inner.extend_from_slice(&plan.node(inner[walked]).children);
        walked += 1;
    }
    let inner_ops: Vec<&str> = inner.iter().map(|&n| plan.node(n).op.name()).collect();
    assert!(inner_ops.contains(&"Filter"), "inner filter missing:\n{}", plan.render());
    assert!(
        plan.nodes
            .iter()
            .any(|n| matches!(&n.op, OperatorKind::IndexSeek { seek: SeekKind::BoundParam, .. })),
        "bound-param seek missing:\n{}",
        plan.render()
    );
    // Execute and cross-check against a direct count.
    let catalog = Catalog::new(&db, &design);
    let run = run_plan(&catalog, &plan, &ExecConfig::default());
    let orders = db.table("orders");
    let li = db.table("lineitem");
    let mut expected = 0u64;
    let ok_col = li.col("l_orderkey");
    let rf_col = li.col("l_returnflag");
    let od_col = orders.col("o_orderdate");
    for i in 0..li.rows() {
        let o = li.value(i, ok_col) as usize - 1;
        if li.value(i, rf_col) == 3 && (0..=100).contains(&orders.value(o, od_col)) {
            expected += 1;
        }
    }
    assert_eq!(run.result_rows, expected);
}

#[test]
fn deep_snowflake_plans_fit_tuple_arity() {
    // The widest plans come from Real-2's 12-way joins: every intermediate
    // node must stay within MAX_COLS, which the dead-column projections
    // guarantee.
    let spec = WorkloadSpec::new(WorkloadKind::Real2, 5).with_queries(60);
    let w = materialize(&spec);
    let b = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let mut max_cols = 0;
    let mut projects = 0;
    for q in &w.queries {
        let plan = b.build(q).unwrap();
        for n in &plan.nodes {
            max_cols = max_cols.max(n.out_cols);
            if matches!(n.op, OperatorKind::Project { .. }) {
                projects += 1;
            }
        }
    }
    assert!(max_cols <= MAX_COLS, "arity {max_cols} exceeds MAX_COLS");
    assert!(projects > 0, "dead-column projection never fired");
}

#[test]
fn having_becomes_filter_over_aggregate() {
    let (db, stats, design) = tpch(TuningLevel::PartiallyTuned);
    let b = PlanBuilder::new(&db, &stats, &design);
    let q = QuerySpec {
        tables: vec![TableRef::new("orders"), TableRef::new("lineitem")],
        joins: vec![JoinSpec {
            left_table: 0,
            left_col: "o_orderkey".into(),
            right_col: "l_orderkey".into(),
        }],
        aggregate: Some(AggSpec {
            group_cols: vec![(0, "o_orderkey".into())],
            aggs: vec![AggKind::Sum { table: 1, col: "l_quantity".into() }],
            having: Some((prosel_engine::CmpOp::Gt, 150)),
        }),
        order_by: Some(OrderTarget::AggResult { idx: 0 }),
        top: Some(10),
    };
    let plan = b.build(&q).unwrap();
    let parents = plan.parents();
    // Find the aggregate, and require a Filter as its (transitive) parent
    // before the Sort/Top stack.
    let agg = plan
        .nodes
        .iter()
        .position(|n| {
            matches!(
                n.op,
                OperatorKind::HashAggregate { .. } | OperatorKind::StreamAggregate { .. }
            )
        })
        .expect("aggregate");
    let parent = parents[agg].expect("aggregate has a parent");
    assert!(
        matches!(plan.node(parent).op, OperatorKind::Filter { .. }),
        "HAVING filter must sit directly above the aggregate:\n{}",
        plan.render()
    );
    let catalog = Catalog::new(&db, &design);
    let run = run_plan(&catalog, &plan, &ExecConfig::default());
    assert!(run.result_rows <= 10);
}
