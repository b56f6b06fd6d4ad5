use super::*;
use crate::query::{JoinSpec, TableRef};
use prosel_datagen::tpch::generate;
use prosel_datagen::GenConfig;
use prosel_datagen::TuningLevel;

fn setup() -> (prosel_datagen::Database, DbStats) {
    let db = generate(&GenConfig { scale: 0.3, skew: 1.0, seed: 11 });
    let stats = DbStats::build(&db);
    (db, stats)
}

#[test]
fn single_table_scan_plan() {
    let (db, stats) = setup();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let b = PlanBuilder::new(&db, &stats, &design);
    let spec = QuerySpec::single(TableRef::new("lineitem").with_filter(FilterSpec::Range {
        col: "l_shipdate".into(),
        lo: 100,
        hi: 500,
    }));
    let plan = b.build(&spec).unwrap();
    assert!(plan.validate().is_ok());
    // Untuned: table scan + filter (+ maybe project).
    assert!(matches!(plan.node(0).op, OperatorKind::TableScan { .. }));
    assert!(plan.nodes.iter().any(|n| matches!(n.op, OperatorKind::Filter { .. })));
}

#[test]
fn tuned_design_uses_index_seek_access() {
    let (db, stats) = setup();
    let design = PhysicalDesign::derive(&db, TuningLevel::FullyTuned);
    let b = PlanBuilder::new(&db, &stats, &design);
    let spec = QuerySpec::single(TableRef::new("lineitem").with_filter(FilterSpec::Range {
        col: "l_shipdate".into(),
        lo: 100,
        hi: 200,
    }));
    let plan = b.build(&spec).unwrap();
    assert!(
        plan.nodes.iter().any(|n| matches!(n.op, OperatorKind::IndexSeek { .. })),
        "expected a seek access path:\n{}",
        plan.render()
    );
}

#[test]
fn untuned_join_is_hash_join() {
    let (db, stats) = setup();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let b = PlanBuilder::new(&db, &stats, &design);
    let spec = QuerySpec {
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
    let plan = b.build(&spec).unwrap();
    assert!(
        plan.nodes.iter().any(|n| matches!(n.op, OperatorKind::HashJoin { .. })),
        "expected hash join:\n{}",
        plan.render()
    );
}

#[test]
fn tuned_selective_outer_uses_nlj_with_seek() {
    let (db, stats) = setup();
    let design = PhysicalDesign::derive(&db, TuningLevel::FullyTuned);
    let b = PlanBuilder::new(&db, &stats, &design);
    // Small filtered orders side drives a seek into lineitem.
    let spec = QuerySpec {
        tables: vec![
            TableRef::new("orders").with_filter(FilterSpec::Range {
                col: "o_orderdate".into(),
                lo: 0,
                hi: 60,
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
    let plan = b.build(&spec).unwrap();
    assert!(
        plan.nodes.iter().any(|n| matches!(n.op, OperatorKind::NestedLoopJoin { .. })),
        "expected nested loop:\n{}",
        plan.render()
    );
    assert!(plan
        .nodes
        .iter()
        .any(|n| matches!(n.op, OperatorKind::IndexSeek { seek: SeekKind::BoundParam, .. })));
}

#[test]
fn aggregate_and_order_compose() {
    let (db, stats) = setup();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let b = PlanBuilder::new(&db, &stats, &design);
    let spec = QuerySpec {
        tables: vec![TableRef::new("lineitem")],
        joins: vec![],
        aggregate: Some(AggSpec {
            group_cols: vec![(0, "l_returnflag".into())],
            aggs: vec![AggKind::Count, AggKind::Sum { table: 0, col: "l_quantity".into() }],
            having: None,
        }),
        order_by: Some(OrderTarget::AggResult { idx: 0 }),
        top: Some(5),
    };
    let plan = b.build(&spec).unwrap();
    let kinds: Vec<&str> = plan.nodes.iter().map(|n| n.op.name()).collect();
    assert!(kinds.contains(&"HashAggregate"));
    assert!(kinds.contains(&"Sort"));
    assert!(kinds.contains(&"Top"));
}

#[test]
fn estimates_are_positive_and_finite() {
    let (db, stats) = setup();
    for level in TuningLevel::ALL {
        let design = PhysicalDesign::derive(&db, level);
        let b = PlanBuilder::new(&db, &stats, &design);
        let spec = QuerySpec {
            tables: vec![
                TableRef::new("customer").with_filter(FilterSpec::Cmp {
                    col: "c_mktsegment".into(),
                    op: CmpOp::Eq,
                    val: 1,
                }),
                TableRef::new("orders"),
                TableRef::new("lineitem"),
            ],
            joins: vec![
                JoinSpec {
                    left_table: 0,
                    left_col: "c_custkey".into(),
                    right_col: "o_custkey".into(),
                },
                JoinSpec {
                    left_table: 1,
                    left_col: "o_orderkey".into(),
                    right_col: "l_orderkey".into(),
                },
            ],
            aggregate: Some(AggSpec {
                group_cols: vec![(1, "o_orderdate".into())],
                aggs: vec![AggKind::Sum { table: 2, col: "l_extendedprice".into() }],
                having: None,
            }),
            order_by: None,
            top: None,
        };
        let plan = b.build(&spec).unwrap();
        for n in &plan.nodes {
            assert!(n.est_rows.is_finite() && n.est_rows >= 0.0);
        }
    }
}
