//! The shard core, taken apart.
//!
//! Inside the service the per-event work runs on a worker thread and
//! cannot be wrapped from outside. The traced run therefore replays a
//! prefix of the workload's own traffic on the benchmark thread through
//! the layers' public functions, in the order the shard calls them —
//! `DeltaDecoder` → `SnapshotCtx::refresh_from` → `IncrementalObs::
//! offer_view` per pipeline → `dynamic_features::extract` +
//! `EstimatorSelector::select` → `SpeedTracker::offer` — under one root
//! span per event, and next to it feeds the identical stream to a real
//! single-threaded `ProgressMonitor`. The layers' times should sum to the
//! monitor's; the share they do not explain is reported, not hidden, and
//! the progress the shadow computes must equal the monitor's bit for bit.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use prosel::core::features::{dynamic_features, static_features};
use prosel::core::selection::EstimatorSelector;
use prosel::engine::plan::PhysicalPlan;
use prosel::engine::trace::{CounterKind, DeltaDecoder, TraceEvent};
use prosel::engine::{decompose, pipeline_weight, thin_half};
use prosel::estimators::soa::BoundsKernel;
use prosel::estimators::{EstimatorKind, IncrementalObs, SnapshotCtx};
use prosel::monitor::{MonitorConfig, SpeedTracker};

use crate::fixtures::Template;
use crate::layers::Metrics;
use crate::serve::build_reference;
use crate::spans::Tracer;

/// One delivery of the replayed prefix.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub query: u32,
    pub template: u16,
    pub idx: u16,
}

struct Pipe {
    obs: IncrementalObs,
    static_feats: Vec<f32>,
    choice: EstimatorKind,
    since_select: usize,
}

struct Query {
    decoder: DeltaDecoder,
    ctx: SnapshotCtx,
    kernel: BoundsKernel,
    pipes: Vec<Pipe>,
    weights: Vec<f64>,
    total_weight: f64,
    live: Vec<u64>,
    serial_next: u64,
    eta: SpeedTracker,
    finished: bool,
}

impl Query {
    /// What `ProgressMonitor::try_register` does with a plan.
    fn register(
        plan: &Arc<PhysicalPlan>,
        selector: &EstimatorSelector,
        eta_window: usize,
    ) -> Query {
        let pipelines = decompose(plan);
        let weights: Vec<f64> = pipelines.iter().map(|p| pipeline_weight(plan, p)).collect();
        let pipes = pipelines
            .iter()
            .map(|p| {
                let static_feats = static_features::extract_parts(plan, &pipelines, p.id);
                let choice = selector.select_static(&static_feats);
                Pipe {
                    obs: IncrementalObs::new(Arc::clone(plan), p),
                    static_feats,
                    choice,
                    since_select: 0,
                }
            })
            .collect();
        Query {
            decoder: DeltaDecoder::new(),
            ctx: SnapshotCtx::empty(),
            kernel: BoundsKernel::new(plan),
            pipes,
            total_weight: weights.iter().filter(|&&w| w > 0.0).sum(),
            weights,
            live: Vec::new(),
            serial_next: 0,
            eta: SpeedTracker::new(eta_window),
            finished: false,
        }
    }

    fn progress(&self) -> f64 {
        if self.finished {
            return 1.0;
        }
        if self.total_weight <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (pipe, &w) in self.pipes.iter().zip(&self.weights) {
            if w > 0.0 {
                if let Some(v) = pipe.obs.value(pipe.choice) {
                    acc += w * v;
                }
            }
        }
        (acc / self.total_weight).clamp(0.0, 1.0)
    }
}

#[derive(Default, Clone, Copy)]
struct Acc {
    ns: u64,
    n: u64,
}

impl Acc {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.n += 1;
    }

    fn mean(&self) -> f64 {
        self.ns as f64 / self.n.max(1) as f64
    }
}

/// Replay `ops` through the layers and through a `ProgressMonitor`;
/// returns how many events the two disagreed on (must be 0).
pub fn replay(
    ops: &[Op],
    templates: &[Template],
    selector: &Arc<EstimatorSelector>,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> u64 {
    let config = MonitorConfig::default();
    let mut reference = build_reference(selector);
    let mut queries: HashMap<u32, Query> = HashMap::new();
    let (mut full_decode, mut delta_decode, mut bounds_full, mut bounds_suffix) =
        (Acc::default(), Acc::default(), Acc::default(), Acc::default());
    let (mut offer, mut features, mut select, mut eta) =
        (Acc::default(), Acc::default(), Acc::default(), Acc::default());
    let (mut ingest_all, mut ingest_full, mut ingest_delta) =
        (Acc::default(), Acc::default(), Acc::default());
    let (mut suffix_positions, mut suffix_width) = (0u64, 0u64);
    let mut shadow_ns = 0u64;
    let mut mismatches = 0u64;

    for op in ops {
        let tpl = &templates[op.template as usize];
        let (q, qid) = (op.query as usize, op.query);
        if op.idx == 0 {
            reference.mon.register(q, Arc::clone(&tpl.plan));
            queries.insert(qid, Query::register(&tpl.plan, selector, config.eta_window));
        }
        let ev = tpl.event(op.idx as usize, q, op.idx as f64 * 1e-3);

        // The real shard core over this event.
        let kind = match &ev {
            TraceEvent::Snapshot { .. } => 1,
            TraceEvent::Delta { .. } => 2,
            _ => 0,
        };
        let (_, ns) =
            tracer.timed("monitor.shard_ingest", qid, || reference.mon.ingest(ev.clone()));
        ingest_all.add(ns);
        match kind {
            1 => ingest_full.add(ns),
            2 => ingest_delta.add(ns),
            _ => {}
        }

        // The same event, layer by layer.
        let qs = queries.get_mut(&qid).expect("registered at idx 0");
        let root = tracer.enter("bench.shadow_event", qid);
        let event_start = Instant::now();
        let mut observed = None;
        match &ev {
            TraceEvent::Snapshot { wall, snapshot, windows, .. } => {
                let (_, ns) = tracer
                    .timed("engine.full_decode", qid, || qs.decoder.apply_full(snapshot, windows));
                full_decode.add(ns);
                let Query { decoder, ctx, kernel, .. } = &mut *qs;
                let (_, ns) = tracer.timed("estimators.bounds_full", qid, || {
                    ctx.refresh_from(kernel, decoder.view().k, 0)
                });
                bounds_full.add(ns);
                observed = Some(*wall);
            }
            TraceEvent::Delta { wall, time, changes, window_updates, .. } => {
                let (ok, ns) = tracer.timed("engine.delta_decode", qid, || {
                    qs.decoder.apply_delta(*time, changes, window_updates)
                });
                assert!(ok, "captured deltas apply to their own baseline");
                delta_decode.add(ns);
                let Query { decoder, ctx, kernel, .. } = &mut *qs;
                let dirty_from = changes
                    .iter()
                    .filter(|u| matches!(u.counter, CounterKind::GetNext))
                    .map(|u| kernel.position_of(u.node as usize))
                    .min()
                    .unwrap_or(usize::MAX);
                suffix_positions += kernel.width().saturating_sub(dirty_from) as u64;
                suffix_width += kernel.width() as u64;
                let (_, ns) = tracer.timed("estimators.bounds_suffix", qid, || {
                    ctx.refresh_from(kernel, decoder.view().k, dirty_from)
                });
                bounds_suffix.add(ns);
                observed = Some(*wall);
            }
            TraceEvent::Thinned { .. } => {
                thin_half(&mut qs.live);
                for pipe in &mut qs.pipes {
                    pipe.obs.thin(&qs.live);
                }
            }
            TraceEvent::Finished { windows, .. } => {
                qs.finished = true;
                for pipe in &mut qs.pipes {
                    let pid = pipe.obs.pipeline_id();
                    pipe.obs.finalize(windows[pid]);
                }
            }
        }
        if let Some(wall) = observed {
            let serial = qs.serial_next;
            qs.serial_next += 1;
            qs.live.push(serial);
            let Query { decoder, ctx, pipes, .. } = &mut *qs;
            let view = decoder.view();
            let windows = decoder.windows();
            for pipe in pipes.iter_mut() {
                let pid = pipe.obs.pipeline_id();
                let (committed, ns) = tracer.timed("estimators.offer", qid, || {
                    pipe.obs.offer_view(serial, view, windows[pid], ctx)
                });
                offer.add(ns);
                if committed == 0 {
                    continue;
                }
                pipe.since_select += committed;
                if config.reselect_every > 0
                    && pipe.since_select >= config.reselect_every
                    && !pipe.obs.is_empty()
                {
                    pipe.since_select = 0;
                    let (feats, ns) = tracer.timed("core.dynamic_features", qid, || {
                        let mut feats = pipe.static_feats.clone();
                        feats.extend(dynamic_features::extract(&pipe.obs));
                        feats
                    });
                    features.add(ns);
                    let (next, ns) = tracer.timed("core.select", qid, || selector.select(&feats));
                    select.add(ns);
                    pipe.choice = next;
                }
            }
            let progress = qs.progress();
            let (_, ns) = tracer.timed("monitor.eta_offer", qid, || qs.eta.offer(wall, progress));
            eta.add(ns);
        }
        shadow_ns += event_start.elapsed().as_nanos() as u64;
        tracer.exit(root);

        let ours = qs.progress();
        if reference.mon.query_progress(q).map(f64::to_bits) != Some(ours.to_bits()) {
            mismatches += 1;
        }
        if matches!(ev, TraceEvent::Finished { .. }) {
            let _ = reference.mon.unregister(q);
            queries.remove(&qid);
        }
    }

    let explained = full_decode.ns
        + delta_decode.ns
        + bounds_full.ns
        + bounds_suffix.ns
        + offer.ns
        + features.ns
        + select.ns
        + eta.ns;
    m.insert("monitor.shard_ingest_ns", ingest_all.mean());
    m.insert("monitor.shard_ingest_full_ns", ingest_full.mean());
    m.insert("monitor.shard_ingest_delta_ns", ingest_delta.mean());
    m.insert("monitor.unexplained_share", 1.0 - explained as f64 / ingest_all.ns.max(1) as f64);
    m.insert("monitor.eta_offer_ns", eta.mean());
    m.insert("estimators.bounds_full_ns", bounds_full.mean());
    m.insert("estimators.bounds_suffix_ns", bounds_suffix.mean());
    m.insert("estimators.dirty_suffix_share", suffix_positions as f64 / suffix_width.max(1) as f64);
    m.insert("estimators.offer_ns_per_pipeline", offer.mean());
    m.insert("core.dynamic_features_ns", features.mean());
    m.insert("core.select_ns", select.mean());
    m.insert("bench.shadow_ns_per_event", shadow_ns as f64 / ops.len().max(1) as f64);
    mismatches
}
