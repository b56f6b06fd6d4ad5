//! Dynamic features (paper §4.4): execution feedback observed up to the
//! 20%-of-driver-input marker.
//!
//! Consistent observation points across queries are impossible ("if we
//! knew which fraction was done, progress estimation would be trivial"),
//! so markers `t{x}` are defined as the first observation where x% of the
//! driver-node input has been consumed. Two families:
//!
//! * **Pairwise differences** `|A(t{x}) − B(t{x})|` for the pairs
//!   DNE/TGN, DNE/TGNINT, TGN/TGNINT — divergence between estimators
//!   early in the pipeline signals per-tuple-work variance;
//! * **Time correlations** `Cor_{est,i,x}` for the six practical
//!   estimators: how the elapsed-time fraction at the i/4-sub-markers of
//!   x relates to the estimator's value — the only features that
//!   incorporate the actual passage of time.

use crate::features::schema::{COR_ESTIMATORS, COR_POINTS, DIFF_PAIRS, DYNAMIC_LEN, X_MARKERS};
use prosel_estimators::{Column, EstimatorKind, IncrementalObs};

fn kind_by_name(name: &str) -> EstimatorKind {
    match name {
        "DNE" => EstimatorKind::Dne,
        "TGN" => EstimatorKind::Tgn,
        "LUO" => EstimatorKind::Luo,
        "BATCHDNE" => EstimatorKind::BatchDne,
        "DNESEEK" => EstimatorKind::DneSeek,
        "TGNINT" => EstimatorKind::TgnInt,
        other => unreachable!("unknown estimator {other}"),
    }
}

/// Position of `name` in [`COR_ESTIMATORS`] (the order curves are held in).
fn cor_index(name: &str) -> usize {
    COR_ESTIMATORS.iter().position(|&n| n == name).expect("a correlation estimator")
}

/// The driver-input share that defines marker `t{x·i/4}`, for every x in
/// [`X_MARKERS`] and `i = 1..=4` (`[xi][i-1]`; `i = 4` is `t{x}` itself).
const SHARES: [[f64; COR_POINTS]; X_MARKERS.len()] = {
    let mut shares = [[0.0; COR_POINTS]; X_MARKERS.len()];
    let mut xi = 0;
    while xi < X_MARKERS.len() {
        let mut i = 0;
        while i < COR_POINTS {
            shares[xi][i] = (X_MARKERS[xi] as f64 * (i + 1) as f64 / COR_POINTS as f64) / 100.0;
            i += 1;
        }
        xi += 1;
    }
    shares
};

/// Every marker of [`SHARES`]: the first observation where the driver
/// fraction reaches that share, clamped to the last observation when
/// never reached — and whether every one was reached.
///
/// One forward pass: per x the four shares ascend with `i`, and the first
/// index reaching a larger share is never before the first index reaching
/// a smaller one, so a cursor per x resolves them in order — whatever the
/// shape of the fraction curve — and the scan stops once `t{20}` is found.
fn markers(df: Column<'_>) -> ([[usize; COR_POINTS]; X_MARKERS.len()], bool) {
    let mut at = [[df.len().saturating_sub(1); COR_POINTS]; X_MARKERS.len()];
    let mut next = [0usize; X_MARKERS.len()];
    let mut open = X_MARKERS.len();
    for (j, a) in df.iter().enumerate() {
        for (xi, shares) in SHARES.iter().enumerate() {
            while next[xi] < COR_POINTS && a >= shares[next[xi]] {
                at[xi][next[xi]] = j;
                next[xi] += 1;
                if next[xi] == COR_POINTS {
                    open -= 1;
                }
            }
        }
        if open == 0 {
            break;
        }
    }
    (at, open == 0)
}

/// Extract the dynamic feature suffix.
///
/// One definition serves post-hoc replay and the live monitor: on a
/// prefix of a run, markers not yet reached clamp to the latest
/// observation, giving the *provisional* dynamic features the online
/// re-selection uses until the real markers arrive.
pub fn extract(obs: &IncrementalObs) -> Vec<f32> {
    let mut out = Vec::with_capacity(DYNAMIC_LEN);
    extract_into(obs, &mut out);
    out
}

/// [`extract`], appending the [`DYNAMIC_LEN`] features to `out` — no
/// allocation of its own when `out` has the room (the maintained curves
/// are read in place, a few marker points each).
///
/// Returns whether every marker `t{x·i/4}` was reached. The vector is then
/// *final*: it reads only committed rows up to the last marker, their
/// times and the window start, none of which a later observation changes
/// — only a [`IncrementalObs::thin`] (which re-indexes the rows and
/// rebuilds LUO) or [`IncrementalObs::finalize`] (which re-seats the
/// window) can.
pub fn extract_into(obs: &IncrementalObs, out: &mut Vec<f32>) -> bool {
    let curves = COR_ESTIMATORS.map(|name| obs.curve_view(kind_by_name(name)));
    let start = obs.window().0;
    let times = obs.times();
    let (at, reached) = markers(obs.driver_fraction());

    // Pairwise differences at t{x}.
    for (a, b) in DIFF_PAIRS {
        let (ca, cb) = (&curves[cor_index(a)], &curves[cor_index(b)]);
        for t in &at {
            let j = t[COR_POINTS - 1];
            out.push((ca.get(j) - cb.get(j)).abs() as f32);
        }
    }

    // Time correlations: for i = 1..=4, the elapsed-time fraction at
    // t{i·x/4} relative to t{x}, scaled by the inverse of the estimator's
    // value at t{x} (the paper's CorEST,i,x with the t{x} reference). The
    // time fractions are the same for every estimator and the inverses
    // for every i, so each is computed once.
    let mut elapsed = [[0.0f64; X_MARKERS.len()]; COR_POINTS];
    for (i, row) in elapsed.iter_mut().enumerate() {
        for (t, fraction) in at.iter().zip(row) {
            let t_x = (times.get(t[COR_POINTS - 1]) - start).max(1e-9);
            let t_i = (times.get(t[i]) - start).max(0.0);
            *fraction = t_i / t_x;
        }
    }
    for c in &curves {
        let inverse = at.map(|t| 1.0 / c.get(t[COR_POINTS - 1]).max(1e-3)); // guard 1/est
        for row in &elapsed {
            for (fraction, inverse) in row.iter().zip(&inverse) {
                out.push((fraction * inverse).clamp(0.0, 1e4) as f32);
            }
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::schema::FeatureSchema;
    use prosel_engine::trace::thin_half;
    use prosel_engine::{run_plan, Catalog, ExecConfig};
    use prosel_estimators::soa::BoundsKernel;
    use prosel_estimators::{PipelineObs, SnapshotCtx, TraceCtx};
    use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
    use prosel_planner::PlanBuilder;
    use std::sync::Arc;

    /// First observation index where the driver fraction reaches `frac`
    /// (clamped to the last observation when never reached) — one scan
    /// per use, the definition [`markers`] resolves in a single pass.
    fn marker(obs: &IncrementalObs, frac: f64) -> usize {
        let df = obs.driver_fraction();
        df.iter().position(|a| a >= frac).unwrap_or(df.len().saturating_sub(1))
    }

    /// The per-feature definition [`extract_into`] must reproduce bit for
    /// bit.
    fn extract_reference(obs: &IncrementalObs) -> Vec<f32> {
        let curve_of = |name: &str| obs.curve(kind_by_name(name));
        let start = obs.window().0;
        let times = obs.times();
        let mut out = Vec::new();
        for (a, b) in DIFF_PAIRS {
            let (ca, cb) = (curve_of(a), curve_of(b));
            for x in X_MARKERS {
                let j = marker(obs, x as f64 / 100.0);
                out.push((ca[j] - cb[j]).abs() as f32);
            }
        }
        for name in COR_ESTIMATORS {
            let c = curve_of(name);
            for i in 1..=COR_POINTS {
                for x in X_MARKERS {
                    let jx = marker(obs, x as f64 / 100.0);
                    let ji = marker(obs, (x as f64 * i as f64 / COR_POINTS as f64) / 100.0);
                    let t_x = (times.get(jx) - start).max(1e-9);
                    let t_i = (times.get(ji) - start).max(0.0);
                    let est = c[jx].max(1e-3);
                    let v = (t_i / t_x) * (1.0 / est);
                    out.push(v.clamp(0.0, 1e4) as f32);
                }
            }
        }
        out
    }

    /// `extract_into` appends exactly the reference vector, leaving what
    /// `out` already held alone.
    fn assert_matches_reference(obs: &IncrementalObs, label: &str) {
        let mut got = vec![7.0f32; 3];
        extract_into(obs, &mut got);
        let want = extract_reference(obs);
        assert_eq!(got[..3], [7.0; 3], "{label}: prefix clobbered");
        assert_eq!(got.len() - 3, want.len(), "{label}");
        for (i, (g, w)) in got[3..].iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}: feature {i}: {g} vs {w}");
        }
    }

    /// The live-prefix walk also checks the finality report: once an
    /// extraction says every marker was reached, every later prefix with
    /// no thinning in between extracts the bit-identical vector.
    #[test]
    fn single_pass_extraction_matches_the_per_feature_definition() {
        let (mut replayed, mut prefixes, mut thinned, mut held_final) = (0, 0, 0, 0);
        for (kind, seed) in [(WorkloadKind::TpchLike, 6), (WorkloadKind::TpcdsLike, 9)] {
            let spec = WorkloadSpec::new(kind, seed).with_queries(5).with_scale(0.4);
            let w = materialize(&spec);
            let catalog = Catalog::new(&w.db, &w.design);
            let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
            for (qi, q) in w.queries.iter().enumerate() {
                let plan = builder.build(q).unwrap();
                let cfg = ExecConfig { seed: qi as u64, ..ExecConfig::default() };
                let run = run_plan(&catalog, &plan, &cfg);
                let trace_ctx = TraceCtx::new(&run);
                let plan = Arc::new(run.plan.clone());
                let kernel = BoundsKernel::new(&plan);
                let mut ctx = SnapshotCtx::empty();
                for pid in 0..run.pipelines.len() {
                    let label = format!("{kind:?} q{qi} p{pid}");
                    if let Some(obs) = PipelineObs::with_ctx(&run, pid, &trace_ctx) {
                        assert_matches_reference(&obs, &label);
                        replayed += 1;
                    }
                    // The live view: every mid-run prefix, with the
                    // observation buffer halved every 24 snapshots.
                    let mut live = IncrementalObs::new(Arc::clone(&plan), &run.pipelines[pid]);
                    let mut serials = Vec::new();
                    let mut frozen: Option<Vec<f32>> = None;
                    let (start, end) = run.trace.pipeline_windows[pid];
                    for (j, snap) in run.trace.snapshots.iter().enumerate() {
                        ctx.recompute(&kernel, &snap.k);
                        serials.push(j as u64);
                        let window = (start, end.min(snap.time));
                        live.offer_view(j as u64, snap.as_view(), window, &ctx);
                        if j % 24 == 23 {
                            thin_half(&mut serials);
                            live.thin(&serials);
                            thinned += !live.is_empty() as usize;
                            frozen = None;
                        }
                        if !live.is_empty() {
                            assert_matches_reference(&live, &format!("{label} prefix {j}"));
                            prefixes += 1;
                            let mut v = Vec::new();
                            let reached = extract_into(&live, &mut v);
                            match &frozen {
                                Some(held) => {
                                    assert!(reached, "{label} prefix {j}: final, then not");
                                    let bits = |v: &[f32]| {
                                        v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                                    };
                                    assert_eq!(bits(&v), bits(held), "{label} prefix {j}");
                                    held_final += 1;
                                }
                                None if reached => frozen = Some(v),
                                None => {}
                            }
                        }
                    }
                }
            }
        }
        assert!(
            replayed > 10 && prefixes > 500 && thinned > 10 && held_final > 1000,
            "{replayed} {prefixes} {thinned} {held_final}"
        );
    }

    #[test]
    fn dynamic_vector_matches_schema_suffix() {
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 6).with_queries(6).with_scale(0.4);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let s = FeatureSchema::get();
        let mut seen = 0;
        for (qi, q) in w.queries.iter().enumerate() {
            let plan = builder.build(q).unwrap();
            let run =
                run_plan(&catalog, &plan, &ExecConfig { seed: qi as u64, ..ExecConfig::default() });
            let ctx = TraceCtx::new(&run);
            for pid in 0..run.pipelines.len() {
                if let Some(obs) = PipelineObs::with_ctx(&run, pid, &ctx) {
                    let v = extract(&obs);
                    assert_eq!(v.len(), s.len() - s.static_len());
                    assert!(v.iter().all(|x| x.is_finite()));
                    seen += 1;
                }
            }
        }
        assert!(seen > 5);
    }

    #[test]
    fn markers_are_monotone() {
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 6).with_queries(3).with_scale(0.4);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let plan = builder.build(&w.queries[0]).unwrap();
        let run = run_plan(&catalog, &plan, &ExecConfig::default());
        if let Some(obs) = PipelineObs::with_ctx(&run, 0, &TraceCtx::new(&run)) {
            let mut prev = 0usize;
            for x in X_MARKERS {
                let j = marker(&obs, x as f64 / 100.0);
                assert!(j >= prev, "marker not monotone at x={x}");
                prev = j;
            }
        }
    }
}
