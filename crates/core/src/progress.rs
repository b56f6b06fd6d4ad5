//! End-to-end progress monitoring: the full architecture of the paper's
//! Figure 3 over a completed (or replayed) query run.
//!
//! For every pipeline the monitor selects an estimator — from static
//! features while fewer than 20% of the pipeline's driver input has been
//! consumed, then revised once the dynamic features are available — and
//! combines the per-pipeline estimates into query-level progress as the
//! E_i-weighted sum of eq. (5).

use crate::features;
use crate::selection::EstimatorSelector;
use crate::training::FeatureMode;
use prosel_engine::QueryRun;
use prosel_estimators::{combine_pipeline_curves, EstimatorKind};

/// One point of a monitored query's progress history.
#[derive(Debug, Clone, Copy)]
pub struct ProgressPoint {
    /// Virtual time of the observation.
    pub time: f64,
    /// Estimated query progress in [0, 1].
    pub estimate: f64,
    /// True progress (elapsed-time fraction) — for evaluation.
    pub truth: f64,
}

/// Per-pipeline choice trace.
#[derive(Debug, Clone)]
pub struct PipelineChoice {
    pub pipeline_id: usize,
    /// Estimator chosen from static features at pipeline start.
    pub initial: EstimatorKind,
    /// Estimator after the 20%-marker revision (if the pipeline lived
    /// long enough to produce dynamic features).
    pub revised: EstimatorKind,
}

/// Query progress monitor built on a trained [`EstimatorSelector`].
pub struct ProgressMonitor<'a> {
    selector: &'a EstimatorSelector,
}

impl<'a> ProgressMonitor<'a> {
    pub fn new(selector: &'a EstimatorSelector) -> Self {
        ProgressMonitor { selector }
    }

    /// Replay a run, producing the query-level progress curve the monitor
    /// would have reported, plus the per-pipeline estimator choices.
    pub fn monitor(&self, run: &QueryRun) -> (Vec<ProgressPoint>, Vec<PipelineChoice>) {
        let mut choices = Vec::new();
        let estimates = combine_pipeline_curves(run, |pid, obs| {
            let feats = features::extract(&run.plan, obs);

            // Static choice applies until the 20% driver marker; then the
            // dynamic features are fully determined and the choice is
            // revised (paper §4.4: dynamic features use x ≤ 20).
            let static_choice = self.selector.select_static(&feats);
            let revised_choice = match self.selector.config().mode {
                FeatureMode::Static => static_choice,
                FeatureMode::StaticDynamic => self.selector.select(&feats),
            };
            choices.push(PipelineChoice {
                pipeline_id: pid,
                initial: static_choice,
                revised: revised_choice,
            });

            let marker = obs
                .driver_fraction()
                .iter()
                .position(|a| a >= 0.20)
                .unwrap_or(obs.len().saturating_sub(1));
            let mut curve = obs.curve(static_choice);
            for (c, revised) in
                curve.iter_mut().zip(obs.curve_view(revised_choice).iter()).skip(marker)
            {
                *c = revised;
            }
            curve
        });

        let points = estimates
            .into_iter()
            .enumerate()
            .map(|(j, estimate)| ProgressPoint {
                time: run.trace.snapshots[j].time,
                estimate,
                truth: run.trace.true_progress(j),
            })
            .collect();
        (points, choices)
    }

    /// Mean absolute error of the monitored curve against true progress.
    pub fn l1_of_points(points: &[ProgressPoint]) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        points.iter().map(|p| (p.estimate - p.truth).abs()).sum::<f64>() / points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline_runs::{collect_from_workload, CollectConfig};
    use crate::selection::{EstimatorSelector, SelectorConfig};
    use crate::training::TrainingSet;
    use prosel_engine::{run_plan, Catalog, ExecConfig};
    use prosel_mart::BoostParams;
    use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
    use prosel_planner::PlanBuilder;

    fn fast_selector(w: &prosel_planner::workload::Workload) -> EstimatorSelector {
        let records = collect_from_workload(w, &CollectConfig::default()).unwrap();
        let train = TrainingSet::from_records(&records);
        let cfg = SelectorConfig::default().with_boost(BoostParams::fast());
        EstimatorSelector::train(&train, &cfg)
    }

    #[test]
    fn monitor_produces_sane_curves() {
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 21).with_queries(25).with_scale(0.5);
        let w = materialize(&spec);
        let selector = fast_selector(&w);
        let monitor = ProgressMonitor::new(&selector);

        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let plan = builder.build(&w.queries[0]).unwrap();
        let run = run_plan(&catalog, &plan, &ExecConfig::default());
        let (points, choices) = monitor.monitor(&run);
        assert!(!points.is_empty());
        assert!(!choices.is_empty());
        for p in &points {
            assert!((0.0..=1.0).contains(&p.estimate));
            assert!((0.0..=1.0).contains(&p.truth));
        }
        // The curve should end complete and be reasonably accurate on a
        // query from the training distribution.
        assert!(points.last().unwrap().estimate > 0.9);
        let l1 = ProgressMonitor::l1_of_points(&points);
        assert!(l1 < 0.35, "monitored l1 {l1}");
    }

    #[test]
    fn every_monitored_run_ends_at_exactly_one() {
        // A pipeline whose window has ended is pinned to its full weight
        // even when its estimator never reached 1 (a driver left
        // unexhausted by early termination) and a later snapshot still
        // counts among its observations.
        let train = WorkloadSpec::new(WorkloadKind::TpchLike, 21).with_queries(25).with_scale(0.5);
        let selector = fast_selector(&materialize(&train));
        let monitor = ProgressMonitor::new(&selector);
        for kind in [WorkloadKind::TpchLike, WorkloadKind::TpcdsLike] {
            let w = materialize(&WorkloadSpec::new(kind, 0xD1FF).with_queries(30).with_scale(0.5));
            let catalog = Catalog::new(&w.db, &w.design);
            let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
            for (qi, q) in w.queries.iter().enumerate() {
                let plan = builder.build(q).unwrap();
                let run = run_plan(&catalog, &plan, &ExecConfig::default());
                let (points, _) = monitor.monitor(&run);
                let last = points.last().expect("snapshots").estimate;
                assert_eq!(last, 1.0, "{kind:?} q{qi}: a finished query reads {last}");
            }
        }
    }
}
