//! Fixtures shared by the shard and service test modules.

use prosel_core::features::FeatureSchema;
use prosel_core::pipeline_runs::PipelineRecord;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::TrainingSet;
use prosel_engine::plan::{OperatorKind, PhysicalPlan, PlanNode};
use prosel_engine::trace::{Snapshot, TraceEvent};
use prosel_estimators::EstimatorKind;
use prosel_mart::BoostParams;

/// Builder over the fixed DNE policy most tests monitor with.
pub(crate) fn dne() -> crate::MonitorBuilder {
    crate::MonitorBuilder::fixed(EstimatorKind::Dne)
}

/// A selector whose constant error models make it always pick `kind`
/// (features are irrelevant — every record reports `kind` as the
/// cheapest estimator).
pub(crate) fn selector_favoring(kind: EstimatorKind) -> EstimatorSelector {
    let dims = FeatureSchema::get().len();
    let idx = kind.candidate_index().expect("candidate");
    let records: Vec<PipelineRecord> = (0..24)
        .map(|i| {
            let mut errors = vec![0.9f32; 8];
            errors[idx] = 0.05;
            PipelineRecord {
                workload: "syn".into(),
                query_idx: i,
                pipeline_id: 0,
                features: vec![0.0; dims],
                errors_l1: errors.clone(),
                errors_l2: errors,
                total_getnext: 10,
                weight: 1.0,
                n_obs: 10,
                fingerprint: "syn".into(),
                oracle_l1: [0.0; 2],
                oracle_l2: [0.0; 2],
            }
        })
        .collect();
    let cfg = SelectorConfig {
        candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn],
        boost: BoostParams { iterations: 4, ..BoostParams::fast() },
        ..SelectorConfig::default()
    };
    EstimatorSelector::train(&TrainingSet::from_records(&records), &cfg)
}

/// A one-node plan: a 100-row table scan.
pub(crate) fn scan_plan() -> PhysicalPlan {
    PhysicalPlan {
        nodes: vec![PlanNode {
            op: OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
            children: vec![],
            est_rows: 100.0,
            est_row_bytes: 8.0,
            out_cols: 1,
        }],
        root: 0,
    }
}

/// Snapshot `seq` of [`scan_plan`] running as `query`: `k` rows scanned
/// by `time`.
pub(crate) fn snapshot_event(query: usize, seq: u64, time: f64, k: u64) -> TraceEvent {
    TraceEvent::Snapshot {
        query,
        seq,
        // Tests stamp wall == virtual time (one tick per second).
        wall: time,
        snapshot: raw_snapshot(time, k),
        windows: vec![(1.0, time)].into_boxed_slice(),
    }
}

/// The counters of [`scan_plan`] after `k` rows.
pub(crate) fn raw_snapshot(time: f64, k: u64) -> Snapshot {
    Snapshot {
        time,
        k: vec![k].into_boxed_slice(),
        bytes_read: vec![k * 8].into_boxed_slice(),
        bytes_written: vec![0].into_boxed_slice(),
        materialized: vec![0].into_boxed_slice(),
    }
}
