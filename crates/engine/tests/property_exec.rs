//! Property-based execution tests: randomly parameterized plans over a
//! fixed table must uphold the engine's counter and trace invariants.

use proptest::prelude::*;
use prosel_datagen::schema::{ColumnMeta, ColumnRole, TableMeta};
use prosel_datagen::{Column, Database, PhysicalDesign, Table, TuningLevel};
use prosel_engine::plan::{AggFunc, CmpOp, OperatorKind, PhysicalPlan, PlanNode, Predicate};
use prosel_engine::{run_plan, Catalog, CostModel, ExecConfig};

fn db(rows: usize) -> Database {
    let mut db = Database::new("prop");
    let meta = TableMeta::new(
        "t",
        64,
        vec![
            ColumnMeta::new("id", ColumnRole::PrimaryKey),
            ColumnMeta::new("g", ColumnRole::Category { cardinality: 7 }),
            ColumnMeta::new("v", ColumnRole::Value { min: 0, max: 999 }),
        ],
    );
    db.add(Table::new(
        meta,
        vec![
            Column { name: "id".into(), data: (1..=rows as i64).collect() },
            Column { name: "g".into(), data: (0..rows as i64).map(|i| i % 7).collect() },
            Column { name: "v".into(), data: (0..rows as i64).map(|i| (i * 37) % 1000).collect() },
        ],
    ));
    db
}

fn node(op: OperatorKind, children: Vec<usize>, est: f64, cols: usize) -> PlanNode {
    PlanNode { op, children, est_rows: est, est_row_bytes: 8.0 * cols as f64, out_cols: cols }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// scan → filter(v in [lo,hi]) → optional agg/top: counters must be
    /// exact and the trace self-consistent, for arbitrary predicates and
    /// estimate values (estimates never change truth). Small snapshot
    /// buffers and intervals make the engine thin, sometimes just before
    /// `finish`; the last snapshot must still be the terminal state.
    #[test]
    fn random_filter_plans_uphold_invariants(
        rows in 50usize..400,
        lo in 0i64..1000,
        span in 0i64..1000,
        est in 1.0f64..10_000.0,
        top in proptest::option::of(1u64..50),
        seed in any::<u64>(),
        max_snapshots in 0usize..24,
        interval in 0.25f64..8.0,
    ) {
        let hi = (lo + span).min(999);
        let database = db(rows);
        let design = PhysicalDesign::derive(&database, TuningLevel::Untuned);
        let catalog = Catalog::new(&database, &design);

        let mut nodes = vec![
            node(OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1, 2] }, vec![], rows as f64, 3),
            node(
                OperatorKind::Filter { pred: Predicate::ColRange { col: 2, lo, hi } },
                vec![0],
                est,
                3,
            ),
        ];
        let mut root = 1;
        if let Some(n) = top {
            nodes.push(node(OperatorKind::Top { n }, vec![root], n as f64, 3));
            root = 2;
        }
        let plan = PhysicalPlan { nodes, root };
        let cfg = ExecConfig {
            seed,
            cost: CostModel::default(),
            max_snapshots,
            initial_snapshot_interval: interval,
            ..ExecConfig::default()
        };
        let run = run_plan(&catalog, &plan, &cfg);

        // Ground truth by direct evaluation.
        let expected_all = database
            .table("t")
            .column(2)
            .iter()
            .filter(|&&v| v >= lo && v <= hi)
            .count() as u64;
        let expected = top.map_or(expected_all, |n| expected_all.min(n));
        prop_assert_eq!(run.result_rows, expected);
        prop_assert_eq!(run.trace.final_k[root], expected);
        // The scan never exceeds the table size and the filter never
        // exceeds the scan.
        prop_assert!(run.trace.final_k[0] <= rows as u64);
        prop_assert!(run.trace.final_k[1] <= run.trace.final_k[0]);
        prop_assert!(run.trace.snapshots.len() <= max_snapshots.max(16));
        // Snapshots are monotone and end at the terminal state: the final
        // counters, with the root's count equal to the result rows, at
        // the end of execution.
        for w in run.trace.snapshots.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
            for i in 0..plan_len(&run) {
                prop_assert!(w[0].k[i] <= w[1].k[i]);
            }
        }
        let last = run.trace.snapshots.last().unwrap();
        prop_assert_eq!(last.k.as_ref(), run.trace.final_k.as_slice());
        prop_assert_eq!(last.k[root], run.result_rows);
        prop_assert_eq!(last.time, run.trace.total_time);
        // Pipeline windows fall within [0, total_time].
        for &(a, b) in &run.trace.pipeline_windows {
            if a.is_finite() {
                prop_assert!(a >= 0.0 && b <= run.trace.total_time + 1e-9 && a <= b);
            }
        }
    }

    /// Aggregations: group counts must equal the distinct groups that
    /// survive the filter, independent of cost-model jitter.
    #[test]
    fn random_aggregate_plans_count_groups(
        rows in 50usize..400,
        cut in 0i64..1000,
        seed in any::<u64>(),
    ) {
        let database = db(rows);
        let design = PhysicalDesign::derive(&database, TuningLevel::Untuned);
        let catalog = Catalog::new(&database, &design);
        let plan = PhysicalPlan {
            nodes: vec![
                node(OperatorKind::TableScan { table: "t".into(), cols: vec![1, 2] }, vec![], rows as f64, 2),
                node(
                    OperatorKind::Filter { pred: Predicate::ColCmp { col: 1, op: CmpOp::Lt, val: cut } },
                    vec![0],
                    rows as f64 / 2.0,
                    2,
                ),
                node(
                    OperatorKind::HashAggregate {
                        group_cols: vec![0],
                        aggs: vec![AggFunc::Count, AggFunc::Sum { col: 1 }],
                    },
                    vec![1],
                    7.0,
                    3,
                ),
            ],
            root: 2,
        };
        let run = run_plan(&catalog, &plan, &ExecConfig { seed, ..ExecConfig::default() });
        let t = database.table("t");
        let mut groups = std::collections::HashSet::new();
        for i in 0..rows {
            if t.value(i, 2) < cut {
                groups.insert(t.value(i, 1));
            }
        }
        prop_assert_eq!(run.result_rows, groups.len() as u64);
    }
}

fn plan_len(run: &prosel_engine::QueryRun) -> usize {
    run.plan.len()
}
