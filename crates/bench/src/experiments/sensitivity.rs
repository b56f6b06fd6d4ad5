//! Tables 2–5: sensitivity of estimator selection to systematic
//! differences between training and test workloads — selectivity
//! (GetNext volume), physical design, data skew, data size.
//!
//! Methodology per the paper's Section 6.1: three buckets of pipelines;
//! each experiment trains the selector (among DNE/TGN/LUO) on two buckets
//! and tests on the third, reporting the fraction of test pipelines for
//! which each individual estimator is optimal, and the fraction for which
//! selection picks the optimal one.

use crate::report::Table;
use crate::suite::{ExpScale, Suite};
use prosel_core::pipeline_runs::PipelineRecord;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::{FeatureMode, TrainingSet};
use prosel_datagen::TuningLevel;
use prosel_estimators::EstimatorKind;
use prosel_planner::workload::{WorkloadKind, WorkloadSpec};
use std::collections::BTreeMap;

fn tpch_queries(scale: ExpScale) -> usize {
    match scale {
        ExpScale::Smoke => 60,
        ExpScale::Quick => 250,
        ExpScale::Full => 1000,
    }
}

/// Leave-one-bucket-out evaluation over three record buckets.
fn three_bucket_experiment(
    title: &str,
    bucket_names: [&str; 3],
    buckets: [Vec<PipelineRecord>; 3],
) -> String {
    let three = EstimatorKind::ORIGINAL;
    let mut cols: Vec<Vec<f64>> = Vec::new(); // per test bucket: [dne, tgn, luo, sel]
    for ti in 0..3 {
        let test = TrainingSet::from_records(&buckets[ti]);
        let mut train_records = Vec::new();
        for (bi, b) in buckets.iter().enumerate() {
            if bi != ti {
                train_records.extend_from_slice(b);
            }
        }
        let train = TrainingSet::from_records(&train_records);
        let cfg = SelectorConfig {
            candidates: three.to_vec(),
            mode: FeatureMode::StaticDynamic,
            boost: crate::suite::harness_boost(),
        };
        let sel = EstimatorSelector::train(&train, &cfg);
        let report = sel.evaluate(&test);
        let mut col: Vec<f64> = three.iter().map(|&k| test.pct_optimal(k, &three, 1e-4)).collect();
        col.push(report.pct_optimal);
        cols.push(col);
    }
    let mut table =
        Table::new(title, &["estimator", bucket_names[0], bucket_names[1], bucket_names[2]]);
    for (i, name) in ["DNE", "TGN", "LUO", "EST. SEL."].iter().enumerate() {
        table.row_pct(name, &[cols[0][i], cols[1][i], cols[2][i]]);
    }
    let out = table.render();
    println!("{out}");
    out
}

/// Table 2's buckets: shapes (fingerprints) occurring at least 6 times,
/// each split by total GetNext volume into a small, a medium and a large
/// third. Shapes are visited in fingerprint order, so the buckets — and
/// with them the row-subsample stream of the models trained on them —
/// are a function of `records` alone.
fn selectivity_buckets(records: &[PipelineRecord]) -> [Vec<PipelineRecord>; 3] {
    let mut groups: BTreeMap<&str, Vec<&PipelineRecord>> = BTreeMap::new();
    for r in records {
        groups.entry(&r.fingerprint).or_default().push(r);
    }
    let mut buckets: [Vec<PipelineRecord>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for mut rs in groups.into_values() {
        if rs.len() < 6 {
            continue;
        }
        rs.sort_by_key(|r| r.total_getnext);
        let n = rs.len();
        for (i, r) in rs.into_iter().enumerate() {
            let b = (i * 3 / n).min(2);
            buckets[b].push(r.clone());
        }
    }
    buckets
}

/// Table 2 — selectivity shift: pipelines of recurring shapes bucketed by
/// total GetNext volume (small / medium / large) within each shape.
pub fn run_table2(suite: &mut Suite, scale: ExpScale) -> String {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 11).with_queries(tpch_queries(scale));
    let buckets = selectivity_buckets(suite.records(&spec));
    three_bucket_experiment(
        "Table 2 — % optimal under selectivity (GetNext volume) train/test shift",
        ["small", "medium", "large"],
        buckets,
    )
}

/// Table 3 — physical design shift: train on two TPC-H designs, test on
/// the third.
pub fn run_table3(suite: &mut Suite, scale: ExpScale) -> String {
    let mut buckets: Vec<Vec<PipelineRecord>> = Vec::new();
    for tuning in [TuningLevel::FullyTuned, TuningLevel::PartiallyTuned, TuningLevel::Untuned] {
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 11)
            .with_queries(tpch_queries(scale))
            .with_tuning(tuning);
        buckets.push(suite.records(&spec).to_vec());
    }
    let [a, b, c]: [Vec<PipelineRecord>; 3] = buckets.try_into().unwrap();
    three_bucket_experiment(
        "Table 3 — % optimal under physical-design train/test shift",
        ["fully tuned", "partially tuned", "untuned"],
        [a, b, c],
    )
}

/// Table 4 — skew shift: TPC-H generated with Z = 0, 1, 2.
pub fn run_table4(suite: &mut Suite, scale: ExpScale) -> String {
    let mut buckets: Vec<Vec<PipelineRecord>> = Vec::new();
    for z in [0.0, 1.0, 2.0] {
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 11)
            .with_queries(tpch_queries(scale))
            .with_skew(z);
        buckets.push(suite.records(&spec).to_vec());
    }
    let [a, b, c]: [Vec<PipelineRecord>; 3] = buckets.try_into().unwrap();
    three_bucket_experiment(
        "Table 4 — % optimal under data-skew train/test shift",
        ["Z = 0", "Z = 1", "Z = 2"],
        [a, b, c],
    )
}

/// Table 5 — size shift: TPC-H at (scaled-down) SF 2, 5, 10.
pub fn run_table5(suite: &mut Suite, scale: ExpScale) -> String {
    let mut buckets: Vec<Vec<PipelineRecord>> = Vec::new();
    for sf in [2.0, 5.0, 10.0] {
        // Fewer queries at the larger scale factors to bound runtime.
        let q = (tpch_queries(scale) as f64 * (2.0f64 / sf).min(1.0)).max(40.0) as usize;
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 11).with_queries(q).with_scale(sf);
        buckets.push(suite.records(&spec).to_vec());
    }
    let [a, b, c]: [Vec<PipelineRecord>; 3] = buckets.try_into().unwrap();
    three_bucket_experiment(
        "Table 5 — % optimal under data-size train/test shift",
        ["small (SF2)", "medium (SF5)", "large (SF10)"],
        [a, b, c],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(fingerprint: &str, query_idx: usize, total_getnext: u64) -> PipelineRecord {
        PipelineRecord {
            workload: "syn".into(),
            query_idx,
            pipeline_id: 0,
            features: Vec::new(),
            errors_l1: vec![0.0; 8],
            errors_l2: vec![0.0; 8],
            total_getnext,
            weight: 1.0,
            n_obs: 10,
            fingerprint: fingerprint.into(),
            oracle_l1: [0.0; 2],
            oracle_l2: [0.0; 2],
        }
    }

    #[test]
    fn selectivity_buckets_are_a_function_of_the_records() {
        // 40 shapes of 9 records each, plus rare shapes that are dropped.
        let mut records = Vec::new();
        for i in 0..380usize {
            let shape = if i < 360 { format!("shape-{}", i * 7 % 40) } else { format!("rare-{i}") };
            records.push(record(&shape, i, (i * 37 % 101) as u64));
        }
        let key = |buckets: [Vec<PipelineRecord>; 3]| {
            buckets.map(|b| b.iter().map(|r| r.query_idx).collect::<Vec<usize>>())
        };
        let first = key(selectivity_buckets(&records));
        for _ in 0..4 {
            assert_eq!(key(selectivity_buckets(&records)), first);
        }
        assert_eq!(first.each_ref().map(Vec::len), [120, 120, 120]);
        // Shapes in fingerprint order; within a shape, ascending volume.
        let small: Vec<&PipelineRecord> = first[0].iter().map(|&q| &records[q]).collect();
        assert!(small.windows(2).all(|w| {
            (&w[0].fingerprint, w[0].total_getnext) <= (&w[1].fingerprint, w[1].total_getnext)
        }));
    }
}
