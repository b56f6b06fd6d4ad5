//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use prosel::datagen::Zipf;
use prosel::engine::plan::{CmpOp, OperatorKind, PhysicalPlan, PlanNode, Predicate};
use prosel::engine::{run_plan, run_plan_tapped, Catalog, ExecConfig, SortedIndex, Tuple};
use prosel::estimators::refine::{bounds, clamp_estimate};
use prosel::estimators::{l1_error, l2_error, EstimatorKind, PipelineObs};
use prosel::mart::{BoostParams, Dataset, Mart};
use prosel::monitor::MonitorBuilder;
use prosel::planner::stats::ColumnStats;
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tuple built column by column, the way operators build their output.
fn tuple(vals: &[i64]) -> Tuple {
    let mut t = Tuple::new();
    for &v in vals {
        t.push(v);
    }
    t
}

proptest! {
    // ---------------- Zipf ------------------------------------------------
    #[test]
    fn zipf_samples_in_domain(n in 1u64..5000, theta in 0.0f64..3.0, seed in any::<u64>()) {
        let z = Zipf::new(n, theta);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let v = z.sample(&mut rng);
            prop_assert!(v >= 1 && v <= n);
            let p = z.sample_permuted(&mut rng);
            prop_assert!(p >= 1 && p <= n);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one(n in 1u64..400, theta in 0.0f64..3.0) {
        let z = Zipf::new(n, theta);
        let total: f64 = (1..=n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }

    // ---------------- Tuples ----------------------------------------------
    #[test]
    fn tuple_roundtrip(vals in proptest::collection::vec(any::<i64>(), 0..24)) {
        let t = tuple(&vals);
        prop_assert_eq!(t.as_slice().len(), vals.len());
        prop_assert_eq!(t.as_slice(), vals.as_slice());
        prop_assert_eq!(t.width_bytes(), vals.len() as u64 * 8);
    }

    #[test]
    fn tuple_concat_is_append(
        a in proptest::collection::vec(any::<i64>(), 0..12),
        b in proptest::collection::vec(any::<i64>(), 0..12),
    ) {
        let t = tuple(&a).concat(&tuple(&b));
        let mut expect = a.clone();
        expect.extend_from_slice(&b);
        prop_assert_eq!(t.as_slice(), expect.as_slice());
    }

    // ---------------- Sorted index ----------------------------------------
    #[test]
    fn sorted_index_equal_range_matches_scan(col in proptest::collection::vec(-50i64..50, 1..300), probe in -60i64..60) {
        let idx = SortedIndex::build(&col);
        let (lo, hi) = idx.equal_range(probe);
        let expected = col.iter().filter(|&&v| v == probe).count();
        prop_assert_eq!(hi - lo, expected);
        for pos in lo..hi {
            prop_assert_eq!(col[idx.rowid_at(pos) as usize], probe);
        }
    }

    #[test]
    fn sorted_index_range_matches_scan(
        col in proptest::collection::vec(-50i64..50, 1..300),
        a in -60i64..60,
        b in -60i64..60,
    ) {
        let (lo_k, hi_k) = (a.min(b), a.max(b));
        let idx = SortedIndex::build(&col);
        let (lo, hi) = idx.range(lo_k, hi_k);
        let expected = col.iter().filter(|&&v| v >= lo_k && v <= hi_k).count();
        prop_assert_eq!(hi - lo, expected);
    }

    // ---------------- Predicates -------------------------------------------
    #[test]
    fn cmp_op_total(a in any::<i64>(), b in any::<i64>()) {
        // Exactly one of <, ==, > holds, and the ops agree with it.
        let lt = CmpOp::Lt.eval(a, b);
        let eq = CmpOp::Eq.eval(a, b);
        let gt = CmpOp::Gt.eval(a, b);
        prop_assert_eq!([lt, eq, gt].iter().filter(|&&x| x).count(), 1);
        prop_assert_eq!(CmpOp::Le.eval(a, b), lt || eq);
        prop_assert_eq!(CmpOp::Ge.eval(a, b), gt || eq);
        prop_assert_eq!(CmpOp::Ne.eval(a, b), !eq);
    }

    #[test]
    fn predicate_and_or_consistent(v in any::<i64>(), lo in -100i64..0, hi in 0i64..100) {
        let range = Predicate::ColRange { col: 0, lo, hi };
        let above = Predicate::ColCmp { col: 0, op: CmpOp::Gt, val: hi };
        let both = Predicate::And(Box::new(range.clone()), Box::new(above.clone()));
        let either = Predicate::Or(Box::new(range.clone()), Box::new(above.clone()));
        let row = [v];
        prop_assert_eq!(both.eval(&row, 0), range.eval(&row, 0) && above.eval(&row, 0));
        prop_assert_eq!(either.eval(&row, 0), range.eval(&row, 0) || above.eval(&row, 0));
        // Range ∧ strictly-above is unsatisfiable.
        prop_assert!(!both.eval(&row, 0));
    }

    // ---------------- Refinement bounds ------------------------------------
    #[test]
    fn bounds_bracket_and_clamp(k0 in 0u64..100, k1 in 0u64..100, est in 0.0f64..500.0) {
        let plan = PhysicalPlan {
            nodes: vec![
                PlanNode {
                    op: OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
                    children: vec![],
                    est_rows: 100.0,
                    est_row_bytes: 8.0,
                    out_cols: 1,
                },
                PlanNode {
                    op: OperatorKind::Filter {
                        pred: Predicate::ColCmp { col: 0, op: CmpOp::Gt, val: 0 },
                    },
                    children: vec![0],
                    est_rows: est,
                    est_row_bytes: 8.0,
                    out_cols: 1,
                },
            ],
            root: 1,
        };
        // Filter output can never exceed its input.
        let k1 = k1.min(k0);
        let (lb, ub) = bounds(&plan, &[k0, k1]);
        for i in 0..2 {
            prop_assert!(lb[i] <= ub[i] + 1e-9, "lb {} > ub {}", lb[i], ub[i]);
        }
        let clamped = clamp_estimate(est, lb[1], ub[1]);
        prop_assert!(clamped >= lb[1] - 1e-9 && clamped <= ub[1] + 1e-9);
        // The clamped estimate never contradicts what has been observed.
        prop_assert!(clamped >= k1 as f64 - 1e-9);
    }

    // ---------------- Error metrics ----------------------------------------
    #[test]
    fn l1_l2_metric_properties(curve in proptest::collection::vec(0.0f64..1.0, 1..60)) {
        let truth: Vec<f64> = curve.iter().map(|v| (v * 0.9).min(1.0)).collect();
        let l1 = l1_error(&curve, &truth);
        let l2 = l2_error(&curve, &truth);
        prop_assert!((0.0..=1.0).contains(&l1));
        prop_assert!(l2 >= l1 - 1e-9, "l2 {l2} < l1 {l1}"); // RMS >= mean(|.|)
        prop_assert!((l1_error(&curve, &curve)).abs() < 1e-12);
    }

    // ---------------- Statistics --------------------------------------------
    #[test]
    fn histogram_total_close_to_rows(col in proptest::collection::vec(-1000i64..1000, 10..2000)) {
        let stats = ColumnStats::build(&col);
        let total = stats.histogram.estimate_range(stats.min, stats.max);
        let rows = col.len() as f64;
        prop_assert!(
            (total - rows).abs() / rows < 0.25,
            "range(min,max) {total} vs rows {rows}"
        );
        prop_assert!(stats.ndv >= 1.0 && stats.ndv <= rows + 1.0);
    }

    // ---------------- MART ---------------------------------------------------
    #[test]
    fn mart_predictions_finite_and_bounded(seed in any::<u64>()) {
        let mut d = Dataset::new(2);
        let mut s = seed;
        for i in 0..200 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (s >> 33) as f32 / (1u64 << 31) as f32;
            d.push(&[x, i as f32], x.clamp(0.0, 1.0));
        }
        let model = Mart::train(&d, &BoostParams::fast());
        for i in 0..200 {
            let p = model.predict(d.row(i));
            prop_assert!(p.is_finite());
            // LS boosting of targets in [0,1] stays within a soft margin.
            prop_assert!((-0.5..=1.5).contains(&p), "prediction {p}");
        }
    }
}

// Online-estimation properties: each case executes a real (small) workload
// query, so the case count is kept low — breadth comes from the randomized
// workload seeds, plans and snapshot budgets.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn clamped_estimates_stay_within_bounds_on_prefixes(
        workload_seed in 0u64..1000,
        query_pick in 0usize..4,
        snap_interval in 20.0f64..120.0,
    ) {
        // Random workload, random observation cadence: at *every* snapshot
        // prefix, every per-node estimate clamped by `refine::bounds` must
        // land inside those bounds and never contradict the observed K.
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, workload_seed)
            .with_queries(4)
            .with_scale(0.3);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let plan = builder.build(&w.queries[query_pick]).expect("plan");
        let run = run_plan(
            &catalog,
            &plan,
            &ExecConfig {
                seed: workload_seed,
                initial_snapshot_interval: snap_interval,
                ..ExecConfig::default()
            },
        );
        for snap in &run.trace.snapshots {
            let (lb, ub) = bounds(&run.plan, &snap.k);
            for n in 0..run.plan.len() {
                prop_assert!(lb[n] <= ub[n] + 1e-9, "lb {} > ub {}", lb[n], ub[n]);
                let c = clamp_estimate(run.plan.node(n).est_rows, lb[n], ub[n]);
                prop_assert!(c >= lb[n] - 1e-9 && c <= ub[n] + 1e-9, "clamp escaped bounds");
                prop_assert!(c >= snap.k[n] as f64 - 1e-9, "clamp below observed K");
            }
        }
    }

    #[test]
    fn incremental_append_equals_batch_curves(
        workload_seed in 0u64..1000,
        tpcds in any::<bool>(),
        max_snapshots in 24usize..200,
    ) {
        // Online/offline equivalence over random workload specs and
        // snapshot budgets (small budgets force thinning): the curves
        // built live, through every thinning, must equal post-hoc replay
        // of the final trace exactly — bit for bit — for every estimator
        // kind.
        let kind = if tpcds { WorkloadKind::TpcdsLike } else { WorkloadKind::TpchLike };
        let spec = WorkloadSpec::new(kind, workload_seed).with_queries(2).with_scale(0.3);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        for (qi, q) in w.queries.iter().enumerate() {
            let plan = builder.build(q).expect("plan");
            let cfg = ExecConfig {
                seed: workload_seed ^ qi as u64,
                max_snapshots,
                ..ExecConfig::default()
            };
            let (tap, rx) = std::sync::mpsc::channel();
            let mut monitor = MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
            monitor.register(qi, &plan);
            let run = run_plan_tapped(&catalog, &plan, &cfg, qi, tap);
            monitor.drain(&rx);
            let mut kinds = prosel::estimators::ONLINE_KINDS.to_vec();
            kinds.push(EstimatorKind::GetNextOracle);
            kinds.push(EstimatorKind::BytesOracle);
            let ctx = prosel::estimators::TraceCtx::new(&run);
            for pid in 0..run.pipelines.len() {
                let inc = monitor.observation(qi, pid).expect("pipeline");
                match PipelineObs::with_ctx(&run, pid, &ctx) {
                    None => prop_assert!(inc.is_empty(), "online-only observations on p{pid}"),
                    Some(replayed) => {
                        prop_assert_eq!(inc.times(), replayed.times(), "obs set p{}", pid);
                        for k in kinds.iter().copied() {
                            let online = inc.curve(k);
                            let offline = replayed.curve(k);
                            prop_assert_eq!(online.len(), offline.len());
                            for (a, b) in online.iter().zip(&offline) {
                                prop_assert!(
                                    a.to_bits() == b.to_bits(),
                                    "{} differs on p{}: {:?} vs {:?}", k, pid, a, b
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn monitor_invariants_hold_live(
        workload_seed in 0u64..1000,
        query_pick in 0usize..3,
        use_oracle_check in any::<bool>(),
    ) {
        // Monitor invariants on a random query: reported progress stays in
        // [0,1], is monotone non-decreasing under the monotone DNE
        // estimator, and pins to exactly 1.0 once the engine reports the
        // final snapshot.
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, workload_seed)
            .with_queries(3)
            .with_scale(0.3);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let plan = builder.build(&w.queries[query_pick]).expect("plan");
        let (tap, rx) = std::sync::mpsc::channel();
        let mut monitor = MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
        monitor.register(0, &plan);
        let run = run_plan_tapped(
            &catalog,
            &plan,
            &ExecConfig { seed: workload_seed, ..ExecConfig::default() },
            0,
            tap,
        );
        let mut prev = 0.0f64;
        while let Ok(ev) = rx.try_recv() {
            monitor.ingest(ev);
            let p = monitor.query_progress(0).expect("registered");
            prop_assert!((0.0..=1.0).contains(&p), "progress {} out of range", p);
            prop_assert!(p >= prev - 1e-12, "progress regressed {} -> {}", prev, p);
            prev = p;
        }
        prop_assert_eq!(monitor.query_progress(0), Some(1.0));
        // Monotone estimators stay monotone on the committed curves too.
        let check: &[EstimatorKind] = if use_oracle_check {
            &[EstimatorKind::Dne, EstimatorKind::GetNextOracle]
        } else {
            &[EstimatorKind::Dne]
        };
        for pid in 0..run.pipelines.len() {
            let inc = monitor.observation(0, pid).expect("pipeline");
            for &k in check {
                let c = inc.curve(k);
                for pair in c.windows(2) {
                    prop_assert!(pair[0] <= pair[1] + 1e-12, "{} regressed on p{}", k, pid);
                }
            }
        }
    }
}
