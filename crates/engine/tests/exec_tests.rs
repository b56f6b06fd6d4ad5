//! End-to-end executor tests over small hand-built tables and plans.

use prosel_datagen::schema::{ColumnMeta, ColumnRole, TableMeta};
use prosel_datagen::{Column, Database, PhysicalDesign, Table, TuningLevel};
use prosel_engine::plan::{
    AggFunc, CmpOp, OperatorKind, PhysicalPlan, PlanNode, Predicate, SeekKind,
};
use prosel_engine::{run_plan, Catalog, CostModel, ExecConfig};

/// A tiny database: t(a pk, b), u(k fk->t, v).
fn tiny_db() -> Database {
    let mut db = Database::new("tiny");
    let t_meta = TableMeta::new(
        "t",
        64,
        vec![
            ColumnMeta::new("a", ColumnRole::PrimaryKey),
            ColumnMeta::new("b", ColumnRole::Value { min: 0, max: 100 }),
        ],
    );
    db.add(Table::new(
        t_meta,
        vec![
            Column { name: "a".into(), data: (1..=10).collect() },
            Column { name: "b".into(), data: (1..=10).map(|x| x * 10).collect() },
        ],
    ));
    let u_meta = TableMeta::new(
        "u",
        48,
        vec![
            ColumnMeta::new("k", ColumnRole::ForeignKey { table: "t".into() }),
            ColumnMeta::new("v", ColumnRole::Value { min: 0, max: 100 }),
        ],
    );
    // Key 3 appears 5 times (skew), keys 1,2 once, others absent.
    db.add(Table::new(
        u_meta,
        vec![
            Column { name: "k".into(), data: vec![3, 3, 3, 3, 3, 1, 2] },
            Column { name: "v".into(), data: vec![7, 7, 7, 7, 7, 1, 2] },
        ],
    ));
    db
}

fn node(op: OperatorKind, children: Vec<usize>, est: f64, out_cols: usize) -> PlanNode {
    PlanNode { op, children, est_rows: est, est_row_bytes: 8.0 * out_cols as f64, out_cols }
}

fn det_cfg() -> ExecConfig {
    ExecConfig { cost: CostModel::deterministic(), ..ExecConfig::default() }
}

fn full_design(db: &Database) -> PhysicalDesign {
    let mut d = PhysicalDesign::derive(db, TuningLevel::FullyTuned);
    // Ensure an index on u.k exists for seek tests.
    if !d.has_index("u", "k") {
        d.indexes.push(prosel_datagen::IndexDef::new("u", "k"));
    }
    d
}

#[test]
fn table_scan_counts_rows() {
    let db = tiny_db();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let cat = Catalog::new(&db, &design);
    let plan = PhysicalPlan {
        nodes: vec![node(
            OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] },
            vec![],
            10.0,
            2,
        )],
        root: 0,
    };
    let run = run_plan(&cat, &plan, &det_cfg());
    assert_eq!(run.result_rows, 10);
    assert_eq!(run.trace.final_k[0], 10);
    assert_eq!(run.trace.final_bytes_read[0], 10 * 64);
    assert!(run.trace.total_time > 0.0);
}

#[test]
fn filter_selectivity() {
    let db = tiny_db();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let cat = Catalog::new(&db, &design);
    let plan = PhysicalPlan {
        nodes: vec![
            node(OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] }, vec![], 10.0, 2),
            node(
                OperatorKind::Filter { pred: Predicate::ColCmp { col: 1, op: CmpOp::Gt, val: 50 } },
                vec![0],
                5.0,
                2,
            ),
        ],
        root: 1,
    };
    let run = run_plan(&cat, &plan, &det_cfg());
    // b in {60..100} => 5 rows pass.
    assert_eq!(run.result_rows, 5);
    assert_eq!(run.trace.final_k[1], 5);
    assert_eq!(run.trace.final_k[0], 10);
}

#[test]
fn hash_join_matches_and_pipelines() {
    let db = tiny_db();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let cat = Catalog::new(&db, &design);
    // probe = scan u (7 rows), build = scan t (10 rows); join on u.k == t.a.
    let plan = PhysicalPlan {
        nodes: vec![
            node(OperatorKind::TableScan { table: "u".into(), cols: vec![0, 1] }, vec![], 7.0, 2),
            node(OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] }, vec![], 10.0, 2),
            node(OperatorKind::HashJoin { probe_key: 0, build_key: 0 }, vec![0, 1], 7.0, 4),
        ],
        root: 2,
    };
    let run = run_plan(&cat, &plan, &det_cfg());
    // Every u row joins exactly one t row.
    assert_eq!(run.result_rows, 7);
    assert_eq!(run.trace.final_k[2], 7);
    // Two pipelines: build side first, probe side second.
    assert_eq!(run.pipelines.len(), 2);
    let (b_start, b_end) = run.trace.pipeline_windows[run.pipelines[0].id];
    let (p_start, _p_end) = run.trace.pipeline_windows[run.pipelines[1].id];
    assert!(b_start < p_start, "build pipeline must start first");
    assert!(b_end <= run.trace.total_time);
}

#[test]
fn hash_join_spills_under_tiny_budget() {
    let db = tiny_db();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let cat = Catalog::new(&db, &design);
    let plan = PhysicalPlan {
        nodes: vec![
            node(OperatorKind::TableScan { table: "u".into(), cols: vec![0, 1] }, vec![], 7.0, 2),
            node(OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] }, vec![], 10.0, 2),
            node(OperatorKind::HashJoin { probe_key: 0, build_key: 0 }, vec![0, 1], 7.0, 4),
        ],
        root: 2,
    };
    let cfg = ExecConfig {
        memory_budget_bytes: 32, // force spilling almost everything
        cost: CostModel::deterministic(),
        ..ExecConfig::default()
    };
    let run = run_plan(&cat, &plan, &cfg);
    // Same results despite spilling…
    assert_eq!(run.result_rows, 7);
    // …but spill I/O shows up at the join node.
    assert!(run.trace.final_bytes_written[2] > 0, "expected spill writes");
    assert!(run.trace.final_bytes_read[2] > 0, "expected spill re-reads");
}

#[test]
fn nested_loop_with_index_seek() {
    let db = tiny_db();
    let design = full_design(&db);
    let cat = Catalog::new(&db, &design);
    // outer = scan t, inner = seek u on k == binding.
    let plan = PhysicalPlan {
        nodes: vec![
            node(OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] }, vec![], 10.0, 2),
            node(
                OperatorKind::IndexSeek {
                    table: "u".into(),
                    key_col: 0,
                    cols: vec![0, 1],
                    seek: SeekKind::BoundParam,
                },
                vec![],
                7.0,
                2,
            ),
            node(OperatorKind::NestedLoopJoin { outer_key: 0 }, vec![0, 1], 7.0, 4),
        ],
        root: 2,
    };
    let run = run_plan(&cat, &plan, &det_cfg());
    assert_eq!(run.result_rows, 7);
    // Seek emitted 7 rows total across rebinds.
    assert_eq!(run.trace.final_k[1], 7);
    // Single pipeline; seek is nl-inner, not a driver.
    assert_eq!(run.pipelines.len(), 1);
    assert_eq!(run.pipelines[0].driver_nodes, vec![0]);
    assert_eq!(run.pipelines[0].index_seek_nodes, vec![1]);
}

#[test]
fn naive_nested_loop_rescans() {
    let db = tiny_db();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let cat = Catalog::new(&db, &design);
    // Inner = Filter(k == binding) over full rescan of u.
    let plan = PhysicalPlan {
        nodes: vec![
            node(OperatorKind::TableScan { table: "t".into(), cols: vec![0] }, vec![], 10.0, 1),
            node(OperatorKind::TableScan { table: "u".into(), cols: vec![0, 1] }, vec![], 70.0, 2),
            node(
                OperatorKind::Filter { pred: Predicate::BoundCmp { col: 0, op: CmpOp::Eq } },
                vec![1],
                7.0,
                2,
            ),
            node(OperatorKind::NestedLoopJoin { outer_key: 0 }, vec![0, 2], 7.0, 3),
        ],
        root: 3,
    };
    let run = run_plan(&cat, &plan, &det_cfg());
    assert_eq!(run.result_rows, 7);
    // The inner scan was re-scanned per outer row: 10 * 7 rows.
    assert_eq!(run.trace.final_k[1], 70);
}

#[test]
fn merge_join_on_sorted_inputs() {
    let db = tiny_db();
    let design = full_design(&db);
    let cat = Catalog::new(&db, &design);
    // IndexScan t ordered by a; IndexScan u ordered by k. Merge on a == k.
    let t_plan = PhysicalPlan {
        nodes: vec![
            node(
                OperatorKind::IndexScan { table: "t".into(), key_col: 0, cols: vec![0, 1] },
                vec![],
                10.0,
                2,
            ),
            node(
                OperatorKind::IndexScan { table: "u".into(), key_col: 0, cols: vec![0, 1] },
                vec![],
                7.0,
                2,
            ),
            node(OperatorKind::MergeJoin { left_key: 0, right_key: 0 }, vec![0, 1], 7.0, 4),
        ],
        root: 2,
    };
    let run = run_plan(&cat, &t_plan, &det_cfg());
    assert_eq!(run.result_rows, 7);
    // Merge join keeps everything in one pipeline with two drivers.
    assert_eq!(run.pipelines.len(), 1);
    assert_eq!(run.pipelines[0].driver_nodes, vec![0, 1]);
}

#[test]
fn sort_breaks_pipeline_and_orders() {
    let db = tiny_db();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let cat = Catalog::new(&db, &design);
    let plan = PhysicalPlan {
        nodes: vec![
            node(OperatorKind::TableScan { table: "u".into(), cols: vec![0, 1] }, vec![], 7.0, 2),
            node(OperatorKind::Sort { key_cols: vec![0] }, vec![0], 7.0, 2),
            node(OperatorKind::Top { n: 3 }, vec![1], 3.0, 2),
        ],
        root: 2,
    };
    let run = run_plan(&cat, &plan, &det_cfg());
    assert_eq!(run.result_rows, 3);
    assert_eq!(run.pipelines.len(), 2);
    // Sort is the driver node of the output pipeline.
    assert!(run.pipelines[1].driver_nodes.contains(&1));
    // Scan ran to completion even though Top stopped early (sort is blocking).
    assert_eq!(run.trace.final_k[0], 7);
    // Sort only emitted 3 rows.
    assert_eq!(run.trace.final_k[1], 3);
}

#[test]
fn batch_sort_preserves_rows_and_pipeline() {
    let db = tiny_db();
    let design = full_design(&db);
    let cat = Catalog::new(&db, &design);
    let plan = PhysicalPlan {
        nodes: vec![
            node(OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] }, vec![], 10.0, 2),
            node(OperatorKind::BatchSort { key_col: 0, batch: 4 }, vec![0], 10.0, 2),
            node(
                OperatorKind::IndexSeek {
                    table: "u".into(),
                    key_col: 0,
                    cols: vec![1],
                    seek: SeekKind::BoundParam,
                },
                vec![],
                7.0,
                1,
            ),
            node(OperatorKind::NestedLoopJoin { outer_key: 0 }, vec![1, 2], 7.0, 3),
        ],
        root: 3,
    };
    let run = run_plan(&cat, &plan, &det_cfg());
    assert_eq!(run.result_rows, 7);
    assert_eq!(run.pipelines.len(), 1);
    assert_eq!(run.pipelines[0].batch_sort_nodes, vec![1]);
    // Batch sort forwarded all 10 outer rows.
    assert_eq!(run.trace.final_k[1], 10);
}

#[test]
fn hash_aggregate_groups() {
    let db = tiny_db();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let cat = Catalog::new(&db, &design);
    let plan = PhysicalPlan {
        nodes: vec![
            node(OperatorKind::TableScan { table: "u".into(), cols: vec![0, 1] }, vec![], 7.0, 2),
            node(
                OperatorKind::HashAggregate {
                    group_cols: vec![0],
                    aggs: vec![AggFunc::Count, AggFunc::Sum { col: 1 }],
                },
                vec![0],
                3.0,
                3,
            ),
        ],
        root: 1,
    };
    let run = run_plan(&cat, &plan, &det_cfg());
    // Groups: k=1, k=2, k=3.
    assert_eq!(run.result_rows, 3);
    assert_eq!(run.trace.final_k[1], 3);
    assert_eq!(run.pipelines.len(), 2);
}

#[test]
fn stream_aggregate_equals_hash_aggregate_on_sorted_input() {
    let db = tiny_db();
    let design = full_design(&db);
    let cat = Catalog::new(&db, &design);
    let plan = PhysicalPlan {
        nodes: vec![
            node(
                OperatorKind::IndexScan { table: "u".into(), key_col: 0, cols: vec![0, 1] },
                vec![],
                7.0,
                2,
            ),
            node(
                OperatorKind::StreamAggregate {
                    group_cols: vec![0],
                    aggs: vec![AggFunc::Count, AggFunc::Max { col: 1 }],
                },
                vec![0],
                3.0,
                3,
            ),
        ],
        root: 1,
    };
    let run = run_plan(&cat, &plan, &det_cfg());
    assert_eq!(run.result_rows, 3);
    // Stream agg keeps one pipeline (it is not blocking).
    assert_eq!(run.pipelines.len(), 1);
}

#[test]
fn top_terminates_scan_early() {
    let db = tiny_db();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let cat = Catalog::new(&db, &design);
    let plan = PhysicalPlan {
        nodes: vec![
            node(OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] }, vec![], 10.0, 2),
            node(OperatorKind::Top { n: 4 }, vec![0], 4.0, 2),
        ],
        root: 1,
    };
    let run = run_plan(&cat, &plan, &det_cfg());
    assert_eq!(run.result_rows, 4);
    // The scan never finished: true N < table size.
    assert_eq!(run.trace.final_k[0], 4);
}

#[test]
fn compute_scalar_adds_columns() {
    let db = tiny_db();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let cat = Catalog::new(&db, &design);
    let plan = PhysicalPlan {
        nodes: vec![
            node(OperatorKind::TableScan { table: "t".into(), cols: vec![0] }, vec![], 10.0, 1),
            node(OperatorKind::ComputeScalar { added_cols: 2 }, vec![0], 10.0, 3),
        ],
        root: 1,
    };
    let run = run_plan(&cat, &plan, &det_cfg());
    assert_eq!(run.result_rows, 10);
    assert_eq!(run.trace.final_k[1], 10);
}

#[test]
fn execution_is_deterministic() {
    let db = tiny_db();
    let design = full_design(&db);
    let cat = Catalog::new(&db, &design);
    let plan = PhysicalPlan {
        nodes: vec![
            node(OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] }, vec![], 10.0, 2),
            node(
                OperatorKind::IndexSeek {
                    table: "u".into(),
                    key_col: 0,
                    cols: vec![1],
                    seek: SeekKind::BoundParam,
                },
                vec![],
                7.0,
                1,
            ),
            node(OperatorKind::NestedLoopJoin { outer_key: 0 }, vec![0, 1], 7.0, 3),
        ],
        root: 2,
    };
    let cfg = ExecConfig { seed: 77, ..ExecConfig::default() };
    let a = run_plan(&cat, &plan, &cfg);
    let b = run_plan(&cat, &plan, &cfg);
    assert_eq!(a.trace.total_time, b.trace.total_time);
    assert_eq!(a.trace.final_k, b.trace.final_k);
    let c = run_plan(&cat, &plan, &ExecConfig { seed: 78, ..ExecConfig::default() });
    assert_ne!(a.trace.total_time, c.trace.total_time);
}

#[test]
fn snapshots_are_monotone_in_k() {
    let db = tiny_db();
    let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
    let cat = Catalog::new(&db, &design);
    let plan = PhysicalPlan {
        nodes: vec![node(
            OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
            vec![],
            10.0,
            1,
        )],
        root: 0,
    };
    let cfg = ExecConfig {
        cost: CostModel::deterministic(),
        initial_snapshot_interval: 1.0,
        ..ExecConfig::default()
    };
    let run = run_plan(&cat, &plan, &cfg);
    for w in run.trace.snapshots.windows(2) {
        assert!(w[0].k[0] <= w[1].k[0]);
        assert!(w[0].bytes_read[0] <= w[1].bytes_read[0]);
    }
    assert_eq!(run.trace.snapshots.last().unwrap().k[0], 10);
}
