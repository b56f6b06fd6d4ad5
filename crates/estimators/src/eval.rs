//! Error metrics and per-pipeline / per-query evaluation.
//!
//! The paper's primary metric is the average absolute (L1) difference
//! between estimated and true progress over all observations of a
//! pipeline, with L2 reported to penalize large deviations (Section 6,
//! "Error Metric"); the ratio error is retained for the worst-case
//! estimator discussion.

use crate::ctx::TraceCtx;
use crate::incremental::Column;
use crate::kinds::EstimatorKind;
use crate::pipeline_obs::PipelineObs;
use prosel_engine::trace::QueryRun;

/// Mean absolute error between two aligned curves.
pub fn l1_error(est: &[f64], truth: &[f64]) -> f64 {
    l1_of(est.iter().copied(), truth)
}

/// Root-mean-square error between two aligned curves.
pub fn l2_error(est: &[f64], truth: &[f64]) -> f64 {
    l2_of(est.iter().copied(), truth)
}

fn l1_of(est: impl ExactSizeIterator<Item = f64>, truth: &[f64]) -> f64 {
    assert_eq!(est.len(), truth.len());
    if truth.is_empty() {
        return 0.0;
    }
    est.zip(truth).map(|(a, b)| (a - b).abs()).sum::<f64>() / truth.len() as f64
}

fn l2_of(est: impl ExactSizeIterator<Item = f64>, truth: &[f64]) -> f64 {
    assert_eq!(est.len(), truth.len());
    if truth.is_empty() {
        return 0.0;
    }
    (est.zip(truth).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / truth.len() as f64).sqrt()
}

/// Minimum magnitude a point must have to enter the ratio: below this the
/// ratio is dominated by measurement noise, not estimator quality.
const RATIO_FLOOR: f64 = 1e-6;

/// Maximum ratio error `max(est/true, true/est)` over the observations,
/// ignoring points where either side is ~0 (the ratio error
/// overemphasizes the start of a query — the reason the paper prefers L1).
///
/// Online use hits the degenerate points on *every* query: the first
/// snapshot has true progress 0 (and most estimators report 0), which
/// would otherwise divide by zero. Those points are skipped, as are
/// non-finite inputs, so the result is always a finite value ≥ 1 — for an
/// empty or fully-degenerate curve pair the neutral 1.0.
fn ratio_of(est: impl ExactSizeIterator<Item = f64>, truth: &[f64]) -> f64 {
    assert_eq!(est.len(), truth.len());
    let mut worst = 1.0f64;
    for (e, &t) in est.zip(truth) {
        if e.is_finite() && t.is_finite() && e > RATIO_FLOOR && t > RATIO_FLOOR {
            worst = worst.max((e / t).max(t / e));
        }
    }
    worst
}

/// The error metrics over a column read in place — what scoring every
/// curve of every pipeline uses instead of copying each curve out first.
impl Column<'_> {
    /// [`l1_error`] of this column against `truth`.
    pub fn l1_error(&self, truth: &[f64]) -> f64 {
        l1_of(self.iter(), truth)
    }

    /// [`l2_error`] of this column against `truth`.
    pub fn l2_error(&self, truth: &[f64]) -> f64 {
        l2_of(self.iter(), truth)
    }

    /// Worst-case ratio error `max(est/true, true/est)` of this column
    /// against `truth`, skipping points where either side is ~0 or not
    /// finite (≥ 1, finite).
    pub fn ratio_error(&self, truth: &[f64]) -> f64 {
        ratio_of(self.iter(), truth)
    }
}

/// Errors of one estimator on one pipeline.
#[derive(Debug, Clone, Copy)]
pub struct EstimatorError {
    pub kind: EstimatorKind,
    pub l1: f64,
    pub l2: f64,
    /// Worst-case ratio error ([`Column::ratio_error`]; ≥ 1, finite).
    pub ratio: f64,
}

/// Evaluate `kinds` on pipeline `pid` of a run, against the run's shared
/// [`TraceCtx`]. `None` when the pipeline has no observations.
pub fn evaluate_pipeline_shared(
    run: &QueryRun,
    pid: usize,
    kinds: &[EstimatorKind],
    ctx: &TraceCtx,
) -> Option<Vec<EstimatorError>> {
    let obs = PipelineObs::with_ctx(run, pid, ctx)?;
    let truth = obs.truth();
    Some(
        kinds
            .iter()
            .map(|&kind| {
                let curve = obs.curve_view(kind);
                EstimatorError {
                    kind,
                    l1: curve.l1_error(&truth),
                    l2: curve.l2_error(&truth),
                    ratio: curve.ratio_error(&truth),
                }
            })
            .collect(),
    )
}

/// Query-level progress aligned with *all* snapshots of the run: the
/// E_i-weighted sum of eq. (5) over per-pipeline estimates. `curve_of`
/// maps an observed pipeline to its estimate at each of its observations.
///
/// Per pipeline and snapshot — before the window: 0; inside (where every
/// snapshot is one of the pipeline's observations): the estimate; once
/// the pipeline has finished (snapshot time at or past the window end):
/// pinned to its full weight. The monitor observes pipeline completion
/// directly, so a driver that was never exhausted (e.g. the inner side of
/// an early-terminating merge join) must not leave the pipeline's
/// contribution stuck below its weight forever. (A pipeline too fast to
/// observe thus contributes its full weight from the moment it finished.)
pub fn combine_pipeline_curves(
    run: &QueryRun,
    mut curve_of: impl FnMut(usize, &PipelineObs) -> Vec<f64>,
) -> Vec<f64> {
    let snapshots = &run.trace.snapshots;
    let mut acc = vec![0.0f64; snapshots.len()];
    let mut total_weight = 0.0;
    // One bound pass per snapshot, shared by every pipeline below.
    let ctx = TraceCtx::new(run);
    for pid in 0..run.pipelines.len() {
        let weight = run.pipeline_weight(pid);
        if weight <= 0.0 {
            continue;
        }
        total_weight += weight;
        let (start, end) = run.trace.pipeline_windows[pid];
        let curve = PipelineObs::with_ctx(run, pid, &ctx).map(|obs| curve_of(pid, &obs));
        let mut estimates = curve.iter().flatten();
        for (a, s) in acc.iter_mut().zip(snapshots) {
            if s.time >= end {
                *a += weight;
            } else if s.time >= start {
                *a += weight * estimates.next().expect("a snapshot inside the window is observed");
            }
        }
    }
    if total_weight > 0.0 {
        for v in &mut acc {
            *v = (*v / total_weight).clamp(0.0, 1.0);
        }
    }
    acc
}

/// [`combine_pipeline_curves`] with one estimator per pipeline: `choose`
/// maps a pipeline id to the estimator used for it.
pub fn query_progress_curve(run: &QueryRun, choose: impl Fn(usize) -> EstimatorKind) -> Vec<f64> {
    combine_pipeline_curves(run, |pid, obs| obs.curve(choose(pid)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio_error(est: &[f64], truth: &[f64]) -> f64 {
        ratio_of(est.iter().copied(), truth)
    }

    #[test]
    fn l1_l2_basics() {
        let truth = vec![0.0, 0.5, 1.0];
        assert_eq!(l1_error(&truth, &truth), 0.0);
        assert_eq!(l2_error(&truth, &truth), 0.0);
        let off = vec![0.1, 0.6, 0.9];
        assert!((l1_error(&off, &truth) - 0.1).abs() < 1e-12);
        assert!((l2_error(&off, &truth) - 0.1).abs() < 1e-12);
        assert!(
            l2_error(&[0.0, 0.3, 0.0], &[0.0, 0.0, 0.0])
                > l1_error(&[0.0, 0.3, 0.0], &[0.0, 0.0, 0.0])
        );
    }

    #[test]
    fn ratio_ignores_near_zero() {
        let est = vec![0.0, 0.5];
        let truth = vec![0.000001, 0.25];
        assert!((ratio_error(&est, &truth) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_first_snapshot_boundary() {
        // The online path evaluates from the very first snapshot, where
        // true progress is exactly 0 — the ratio must not divide by it.
        let est = vec![0.1, 0.5];
        let truth = vec![0.0, 0.25];
        let r = ratio_error(&est, &truth);
        assert!(r.is_finite());
        assert!((r - 2.0).abs() < 1e-9, "t=0 point must be skipped, got {r}");
        // Both sides zero at t=0 (the common case online).
        assert_eq!(ratio_error(&[0.0], &[0.0]), 1.0);
    }

    #[test]
    fn ratio_empty_and_degenerate_is_neutral() {
        assert_eq!(ratio_error(&[], &[]), 1.0);
        // All points below the floor: nothing to measure.
        assert_eq!(ratio_error(&[1e-9, 0.0], &[0.0, 1e-12]), 1.0);
    }

    #[test]
    fn ratio_skips_non_finite_points() {
        let r = ratio_error(&[f64::NAN, f64::INFINITY, 0.5], &[0.5, 0.5, 0.25]);
        assert!(r.is_finite());
        assert!((r - 2.0).abs() < 1e-9, "non-finite points must be skipped, got {r}");
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = l1_error(&[0.0], &[0.0, 1.0]);
    }
}
