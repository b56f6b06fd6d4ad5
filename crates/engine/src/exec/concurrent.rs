//! Multi-query execution: the paper's named future-work extension
//! (Section 2, citing Luo et al.'s multi-query progress indicators \[12\]).
//!
//! Queries share one virtual machine under **time-quantum round-robin**:
//! each query runs on its own thread, but execution is strictly
//! serialized — a `TurnScheduler` hands the (virtual) CPU to one query
//! at a time, preempting it after a fixed quantum of 512 charged
//! operations (ticks, byte transfers, seeks), even in the middle of
//! blocking phases (hash builds, sort drains). While preempted, a query's
//! counters freeze but the shared clock advances, so its trace shows
//! exactly the stalls a concurrent system produces.
//!
//! The quantum is a constant, not a setting: every experiment, example
//! and integration test of concurrent progress ran at 512, and it sets
//! the granularity of the stalls their traces (and the experiments
//! golden) record. Each query runs through the same loop as
//! [`run_plan`](super::run_plan); only the turn-taking is added.
//!
//! Execution remains fully deterministic: the turn order is fixed and the
//! threads never run concurrently, so a given (plans, config) pair always
//! yields the same traces.

use crate::catalog::Catalog;
use crate::context::ExecConfig;
use crate::exec::execute;
use crate::plan::PhysicalPlan;
use crate::trace::{QueryRun, TraceTap};
use std::sync::{Arc, Condvar, Mutex};

#[derive(Debug)]
struct SchedState {
    /// Whose turn it is.
    turn: usize,
    /// Which queries are still running.
    live: Vec<bool>,
    /// Shared virtual clock: the time the last-running query reached.
    global: f64,
}

/// Strict round-robin turn scheduler over a shared virtual clock.
#[derive(Debug)]
pub(crate) struct TurnScheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl TurnScheduler {
    fn new(n: usize) -> Self {
        TurnScheduler {
            state: Mutex::new(SchedState { turn: 0, live: vec![true; n], global: 0.0 }),
            cv: Condvar::new(),
        }
    }

    fn rotate(state: &mut SchedState, from: usize) {
        let n = state.live.len();
        for step in 1..=n {
            let cand = (from + step) % n;
            if state.live[cand] {
                state.turn = cand;
                return;
            }
        }
        // Nobody else is live; keep the turn (caller may be finishing).
        state.turn = from;
    }

    /// Block until it is `me`'s turn; returns the shared clock to resume
    /// from.
    pub(crate) fn wait_turn(&self, me: usize) -> f64 {
        let mut st = self.state.lock().expect("scheduler poisoned");
        while st.turn != me {
            st = self.cv.wait(st).expect("scheduler poisoned");
        }
        st.global
    }

    /// Yield after a quantum: publish `clock`, pass the turn on, and block
    /// until scheduled again. Returns the clock to resume from.
    pub(crate) fn yield_turn(&self, me: usize, clock: f64) -> f64 {
        let mut st = self.state.lock().expect("scheduler poisoned");
        st.global = st.global.max(clock);
        Self::rotate(&mut st, me);
        if st.turn == me {
            return st.global; // alone: keep running
        }
        self.cv.notify_all();
        while st.turn != me {
            st = self.cv.wait(st).expect("scheduler poisoned");
        }
        st.global
    }

    /// Mark `me` finished and hand the machine to the next live query.
    pub(crate) fn finish(&self, me: usize, clock: f64) {
        let mut st = self.state.lock().expect("scheduler poisoned");
        st.global = st.global.max(clock);
        st.live[me] = false;
        Self::rotate(&mut st, me);
        self.cv.notify_all();
    }
}

/// Execute `plans` concurrently on one shared virtual clock; returns one
/// [`QueryRun`] per plan (same order). All traces use the shared time
/// axis, so progress curves of different queries are comparable. Query
/// `i` runs with `exec`'s settings and a seed derived from `exec.seed`
/// and `i`.
///
/// # Panics
/// Panics if any plan fails [`PhysicalPlan::validate`], before any query
/// starts.
pub fn run_concurrent(
    catalog: &Catalog<'_>,
    plans: &[PhysicalPlan],
    exec: &ExecConfig,
) -> Vec<QueryRun> {
    run_concurrent_inner(catalog, plans, exec, None)
}

/// [`run_concurrent`] with a live observation stream: every query sends
/// its snapshot / thinning / termination events to (a clone of) `tap`,
/// tagged with the query's index in `plans`. Because execution is
/// strictly serialized by the turn scheduler, the interleaved event
/// stream is deterministic, and tapping does not alter execution — the
/// returned runs are identical to an untapped invocation.
pub fn run_concurrent_tapped(
    catalog: &Catalog<'_>,
    plans: &[PhysicalPlan],
    exec: &ExecConfig,
    tap: impl Into<TraceTap>,
) -> Vec<QueryRun> {
    run_concurrent_inner(catalog, plans, exec, Some(tap.into()))
}

fn run_concurrent_inner(
    catalog: &Catalog<'_>,
    plans: &[PhysicalPlan],
    exec: &ExecConfig,
    tap: Option<TraceTap>,
) -> Vec<QueryRun> {
    // Every plan is checked before any thread starts: a query that
    // panicked before taking its first turn would leave the others
    // waiting for it forever.
    for (qi, plan) in plans.iter().enumerate() {
        if let Err(e) = plan.validate() {
            panic!("invalid plan {qi}: {e}");
        }
    }
    let sched = Arc::new(TurnScheduler::new(plans.len()));

    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(qi, plan)| {
                let turn = Some((Arc::clone(&sched), qi));
                let tap = tap.clone().map(|tap| (tap, qi));
                let cfg = ExecConfig {
                    seed: exec.seed ^ (qi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..exec.clone()
                };
                scope.spawn(move || execute(catalog, plan, &cfg, tap, turn))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query thread panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::exec::run_plan;
    use crate::plan::{AggFunc, OperatorKind, PlanNode};
    use prosel_datagen::schema::{ColumnMeta, ColumnRole, TableMeta};
    use prosel_datagen::{Column, Database, PhysicalDesign, Table, TuningLevel};

    fn db(rows: usize) -> Database {
        let mut db = Database::new("c");
        let meta = TableMeta::new(
            "t",
            64,
            vec![
                ColumnMeta::new("id", ColumnRole::PrimaryKey),
                ColumnMeta::new("v", ColumnRole::Value { min: 0, max: 9 }),
            ],
        );
        db.add(Table::new(
            meta,
            vec![
                Column { name: "id".into(), data: (1..=rows as i64).collect() },
                Column { name: "v".into(), data: (0..rows as i64).map(|i| i % 10).collect() },
            ],
        ));
        db
    }

    fn scan_plan(rows: usize) -> PhysicalPlan {
        PhysicalPlan {
            nodes: vec![PlanNode {
                op: OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] },
                children: vec![],
                est_rows: rows as f64,
                est_row_bytes: 16.0,
                out_cols: 2,
            }],
            root: 0,
        }
    }

    /// Aggregate-rooted plan: everything happens in blocking phases, which
    /// the quantum scheduler must still preempt.
    fn agg_plan(rows: usize) -> PhysicalPlan {
        PhysicalPlan {
            nodes: vec![
                PlanNode {
                    op: OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] },
                    children: vec![],
                    est_rows: rows as f64,
                    est_row_bytes: 16.0,
                    out_cols: 2,
                },
                PlanNode {
                    op: OperatorKind::HashAggregate {
                        group_cols: vec![1],
                        aggs: vec![AggFunc::Count],
                    },
                    children: vec![0],
                    est_rows: 10.0,
                    est_row_bytes: 16.0,
                    out_cols: 2,
                },
            ],
            root: 1,
        }
    }

    #[test]
    fn concurrent_results_match_isolated_results() {
        let database = db(500);
        let design = PhysicalDesign::derive(&database, TuningLevel::Untuned);
        let catalog = Catalog::new(&database, &design);
        let plans = vec![scan_plan(500), agg_plan(500), scan_plan(500)];
        let runs = run_concurrent(&catalog, &plans, &ExecConfig::default());
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].result_rows, 500);
        assert_eq!(runs[1].result_rows, 10);
        assert_eq!(runs[2].result_rows, 500);
        assert_eq!(runs[1].trace.final_k[0], 500);
    }

    #[test]
    fn concurrent_queries_stretch_each_other() {
        let database = db(2000);
        let design = PhysicalDesign::derive(&database, TuningLevel::Untuned);
        let catalog = Catalog::new(&database, &design);
        let cfg = ExecConfig { cost: CostModel::deterministic(), ..ExecConfig::default() };
        let solo = run_plan(&catalog, &scan_plan(2000), &cfg);
        let runs = run_concurrent(&catalog, &[scan_plan(2000), scan_plan(2000)], &cfg);
        let ratio = runs[0].trace.total_time / solo.trace.total_time;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "expected ~2x stretch from a same-sized competitor, got {ratio:.2}"
        );
        let diff = (runs[0].trace.total_time - runs[1].trace.total_time).abs();
        assert!(diff / runs[0].trace.total_time < 0.15);
    }

    #[test]
    fn blocking_phases_are_preempted_too() {
        // An aggregate-rooted query (all work inside open()) running with a
        // scan must take ~ (agg work + scan work), not run atomically.
        let database = db(4000);
        let design = PhysicalDesign::derive(&database, TuningLevel::Untuned);
        let catalog = Catalog::new(&database, &design);
        let cfg = ExecConfig {
            cost: CostModel::deterministic(),
            // Dense snapshots so the preemption gap dominates the
            // inter-snapshot window.
            initial_snapshot_interval: 10.0,
            ..ExecConfig::default()
        };
        let solo_agg = run_plan(&catalog, &agg_plan(4000), &cfg);
        let runs = run_concurrent(&catalog, &[agg_plan(4000), scan_plan(4000)], &cfg);
        let stretch = runs[0].trace.total_time / solo_agg.trace.total_time;
        assert!(
            stretch > 1.4,
            "blocking query must be slowed by its competitor, stretch {stretch:.2}"
        );
        // And its trace must contain preemption stalls: consecutive
        // snapshots where time advances with (almost) no counter movement.
        let t = &runs[0].trace;
        // A competitor quantum of 512 charges is ~220 time units;
        // snapshots are 10 apart, so a window spanning a stall is many
        // times the normal spacing with almost no counter movement.
        let stalled = t.snapshots.windows(2).any(|w| {
            let dk: u64 = (0..w[0].k.len()).map(|i| w[1].k[i] - w[0].k[i]).sum();
            w[1].time > w[0].time + 40.0 && dk < 16
        });
        assert!(stalled, "expected preemption stalls in the blocking query's trace");
    }

    #[test]
    fn deterministic_across_runs() {
        let database = db(1500);
        let design = PhysicalDesign::derive(&database, TuningLevel::Untuned);
        let catalog = Catalog::new(&database, &design);
        let plans = [agg_plan(1500), scan_plan(1500)];
        let cfg = ExecConfig::default();
        let a = run_concurrent(&catalog, &plans, &cfg);
        let b = run_concurrent(&catalog, &plans, &cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace.total_time, y.trace.total_time);
            assert_eq!(x.trace.final_k, y.trace.final_k);
            assert_eq!(x.trace.snapshots.len(), y.trace.snapshots.len());
        }
    }
}
