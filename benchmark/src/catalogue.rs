//! Every metric this benchmark prints, by name, with its unit and
//! direction. `BENCHMARK.json` lists exactly these (a unit test holds the
//! two together), and a run that fails to produce one of them fails.

use std::collections::BTreeMap;

use crate::json;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher: false }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher: true }
}

/// What a user of the service sees; every workload reports all of them
/// (`--trace 0`). Bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
    lower("emit_to_visible_p50_us", "us"),
    lower("read_p50_ns", "ns"),
    higher("events_per_s", "1/s"),
    lower("register_p50_us", "us"),
    higher("queries_per_s", "1/s"),
    lower("train_s", "s"),
    lower("feedback_round_s", "s"),
    lower("selection_l1", "l1"),
    lower("selection_l1_after_feedback", "l1"),
    lower("served_l1", "l1"),
];

/// Single layers (layer = crate), reported by the traced run
/// (`--trace 1`), never gated.
pub const PER_LAYER: &[MetricDef] = &[
    lower("datagen.build_db_ms", "ms"),
    lower("planner.stats_ms", "ms"),
    lower("planner.plan_build_us", "us"),
    lower("engine.exec_us_per_query", "us"),
    lower("engine.tapped_exec_us_per_query", "us"),
    lower("engine.delta_encode_ns", "ns"),
    lower("engine.delta_decode_ns", "ns"),
    lower("engine.full_decode_ns", "ns"),
    lower("engine.tap_bytes_per_event", "B"),
    lower("engine.events_per_query", "count"),
    higher("engine.delta_event_share", "ratio"),
    lower("estimators.kernel_compile_us", "us"),
    lower("estimators.bounds_full_ns", "ns"),
    lower("estimators.bounds_suffix_ns", "ns"),
    lower("estimators.dirty_suffix_share", "ratio"),
    lower("estimators.offer_ns_per_pipeline", "ns"),
    lower("estimators.batch_eval_us_per_run", "us"),
    lower("estimators.replay_us_per_run", "us"),
    lower("core.static_features_us", "us"),
    lower("core.dynamic_features_ns", "ns"),
    lower("core.select_ns", "ns"),
    lower("core.records_us_per_run", "us"),
    lower("core.record_online_us", "us"),
    lower("core.selector_train_s", "s"),
    lower("core.selector_eval_ms", "ms"),
    lower("core.selector_encode_ms", "ms"),
    lower("core.selector_decode_ms", "ms"),
    lower("core.selector_text_bytes", "B"),
    lower("core.best_fixed_l1", "l1"),
    lower("core.oracle_l1", "l1"),
    lower("core.selection_l1_vs_best_fixed", "ratio"),
    lower("mart.train_ms_per_model", "ms"),
    lower("mart.warm_start_ms", "ms"),
    lower("mart.predict_ns", "ns"),
    lower("mart.trees", "count"),
    lower("monitor.shard_ingest_ns", "ns"),
    lower("monitor.shard_ingest_full_ns", "ns"),
    lower("monitor.shard_ingest_delta_ns", "ns"),
    lower("monitor.unexplained_share", "ratio"),
    lower("monitor.eta_offer_ns", "ns"),
    lower("monitor.tap_send_ns", "ns"),
    lower("monitor.tap_send_batch_ns_per_event", "ns"),
    lower("monitor.ingest_rtt_idle_us", "us"),
    lower("monitor.quiesce_us_per_kevent", "us"),
    lower("monitor.register_us", "us"),
    lower("monitor.unregister_us", "us"),
    lower("monitor.register_batch_us_per_query", "us"),
    lower("monitor.read_progress_ns", "ns"),
    lower("monitor.read_eta_ns", "ns"),
    lower("monitor.read_deadline_ns", "ns"),
    lower("monitor.read_status_ns", "ns"),
    lower("monitor.read_progress_24k_ns", "ns"),
    lower("monitor.swap_us", "us"),
    lower("monitor.metrics_scrape_us", "us"),
    lower("monitor.harvest_us_per_query", "us"),
    higher("monitor.batch_len_p50", "count"),
    lower("monitor.parks_per_kevent", "count"),
    lower("monitor.steals_per_kevent", "count"),
    lower("monitor.queue_depth_max", "count"),
    higher("monitor.delta_decodes", "count"),
    lower("monitor.sampled_ingest_p50_ns", "ns"),
    lower("monitor.sampled_snapshot_eval_p50_ns", "ns"),
    lower("learn.absorb_us", "us"),
    lower("learn.retrain_ms", "ms"),
    lower("learn.checkpoint_ms", "ms"),
    lower("learn.restore_ms", "ms"),
    lower("learn.frame_encode_us", "us"),
    lower("learn.frame_decode_us", "us"),
    lower("obs.counter_inc_ns", "ns"),
    lower("obs.histogram_record_ns", "ns"),
    lower("obs.snapshot_us", "us"),
    lower("obs.render_us", "us"),
    lower("obs.parse_us", "us"),
    lower("read_p99_ns", "ns"),
    lower("tail.emit_to_visible_p90_us", "us"),
    lower("tail.emit_to_visible_p99_us", "us"),
    lower("tail.read_p999_ns", "ns"),
    lower("tail.register_p99_us", "us"),
    higher("tail.visible_samples", "count"),
    higher("tail.read_samples", "count"),
    higher("tail.register_samples", "count"),
    lower("bench.gen_lag_p50_us", "us"),
    lower("bench.gen_lag_p99_us", "us"),
    lower("bench.invalid_segments", "count"),
    lower("bench.host_slowdown", "ratio"),
    lower("bench.retag_ns", "ns"),
    lower("bench.timer_ns", "ns"),
    lower("bench.shadow_ns_per_event", "ns"),
    lower("bench.trace_overhead_pct", "%"),
    higher("bench.spans", "count"),
];

/// What one run of one workload produced, traced or not.
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub notes: Vec<String>,
    /// Per-segment statistics (untraced) or the self-time table (traced),
    /// for the human reader.
    pub table: String,
}

/// The one-line result the driver reads: exactly the metrics of `defs`,
/// each with its value and unit.
pub fn result_line(
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    for name in values.keys() {
        assert!(defs.iter().any(|d| d.name == *name), "metric {name} is not in the catalogue");
    }
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v =
                values.get(d.name).unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, json::num(*v), d.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::workloads::WORKLOADS;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn legal(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn section<'a>(doc: &'a Value, key: &str) -> Vec<&'a Value> {
        doc.get(key).map(Value::as_arr).unwrap_or(&[]).iter().collect()
    }

    fn check_section(doc: &Value, key: &str, defs: &[MetricDef], bounded: bool) {
        let listed = section(doc, key);
        let names: Vec<&str> =
            listed.iter().map(|m| m.get("name").and_then(Value::as_str).expect("name")).collect();
        let ours: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(names, ours, "{key} of BENCHMARK.json and the catalogue list the same metrics");
        for (m, d) in listed.iter().zip(defs) {
            assert!(legal(d.name), "{} is not a legal metric name", d.name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit), "{}", d.name);
            let better = if d.higher { "higher" } else { "lower" };
            assert_eq!(m.get("better").and_then(Value::as_str), Some(better), "{}", d.name);
            let bound = m.get("bound").and_then(Value::as_f64);
            if bounded {
                let b = bound.unwrap_or_else(|| panic!("{} has no bound", d.name));
                assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
            } else {
                assert_eq!(bound, None, "{} is not gated", d.name);
            }
        }
    }

    #[test]
    fn benchmark_json_and_the_catalogue_agree() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        check_section(&doc, "end_to_end", END_TO_END, true);
        check_section(&doc, "per_layer", PER_LAYER, false);
        let workloads: Vec<&str> = section(&doc, "workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher));
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        all.extend(WORKLOADS);
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "every name is used once");
    }

    #[test]
    fn the_result_line_carries_exactly_the_catalogue() {
        let values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().enumerate().map(|(i, d)| (d.name, i as f64 + 0.5)).collect();
        let line = result_line(END_TO_END, &values, true, 10, 0);
        let doc = json::parse(&line).expect("the result line is JSON");
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        let Some(Value::Obj(metrics)) = doc.get("metrics") else { panic!("metrics object") };
        assert_eq!(metrics.len(), END_TO_END.len());
        for d in END_TO_END {
            assert!(legal(d.name));
            assert_eq!(metrics[d.name].get("unit").and_then(Value::as_str), Some(d.unit));
        }
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_fails_the_run() {
        result_line(END_TO_END, &BTreeMap::new(), true, 1, 0);
    }
}
