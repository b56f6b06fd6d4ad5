//! Observation traces: what a progress estimator is allowed to see.
//!
//! A running query is observed at (approximately) evenly spaced points of
//! virtual time. Each [`Snapshot`] records, per plan node, the counters
//! the paper's estimators consume: K_i (GetNext calls so far), bytes
//! logically read (R_i) and written (W_i). The trace also records the
//! final totals (the true N_i, unknowable mid-query) and per-pipeline
//! activity windows, which define "true progress" for error measurement.

use crate::pipeline::Pipeline;
use crate::plan::PhysicalPlan;

/// Counter state at one observation point.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Virtual time of this observation.
    pub time: f64,
    /// GetNext calls so far per node (K_i^t).
    pub k: Box<[u64]>,
    /// Bytes logically read so far per node.
    pub bytes_read: Box<[u64]>,
    /// Bytes logically written so far per node.
    pub bytes_written: Box<[u64]>,
    /// Materialized output sizes per node (rows), reported by blocking
    /// operators when their build phase completes — the paper's §3.4
    /// "exact input sizes known when the pipeline starts". Zero until the
    /// operator materializes.
    pub materialized: Box<[u64]>,
}

impl Snapshot {
    /// Borrow this snapshot as a [`SnapshotView`] (no copies).
    pub fn as_view(&self) -> SnapshotView<'_> {
        SnapshotView {
            time: self.time,
            k: &self.k,
            bytes_read: &self.bytes_read,
            bytes_written: &self.bytes_written,
            materialized: &self.materialized,
        }
    }
}

/// A borrowed view of one observation point — the same counters as
/// [`Snapshot`] without owning the slabs. Consumers that reconstruct
/// snapshots from [`TraceEvent::Delta`] events hand estimator code a view
/// over their per-query scratch buffers instead of allocating a fresh
/// `Box<[u64]>` quartet per event.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    /// Virtual time of this observation.
    pub time: f64,
    /// GetNext calls so far per node (K_i^t).
    pub k: &'a [u64],
    /// Bytes logically read so far per node.
    pub bytes_read: &'a [u64],
    /// Bytes logically written so far per node.
    pub bytes_written: &'a [u64],
    /// Materialized output sizes per node (rows); see
    /// [`Snapshot::materialized`].
    pub materialized: &'a [u64],
}

/// The full observable history of one query execution.
#[derive(Debug, Clone)]
pub struct ObservationTrace {
    pub snapshots: Vec<Snapshot>,
    /// True totals N_i (available only after termination).
    pub final_k: Vec<u64>,
    pub final_bytes_read: Vec<u64>,
    pub final_bytes_written: Vec<u64>,
    /// Final materialized output sizes (rows) of blocking operators; zero
    /// for operators that never materialize.
    pub final_materialized: Vec<u64>,
    /// Total virtual execution time.
    pub total_time: f64,
    /// Per-pipeline `(first_tick_time, last_tick_time)` activity windows,
    /// indexed by pipeline id. Pipelines that never produced a tick have
    /// `(f64::INFINITY, f64::NEG_INFINITY)`.
    pub pipeline_windows: Vec<(f64, f64)>,
}

impl ObservationTrace {
    /// True query-level progress (elapsed-time fraction) at snapshot `j`.
    pub fn true_progress(&self, j: usize) -> f64 {
        if self.total_time <= 0.0 {
            return 1.0;
        }
        (self.snapshots[j].time / self.total_time).clamp(0.0, 1.0)
    }
}

/// One event of a live observation stream ([`TraceTap`]).
///
/// A tapped execution emits, in deterministic order, exactly the
/// information a post-hoc consumer would find in the final
/// [`ObservationTrace`] — but incrementally, as execution proceeds. The
/// `windows` of each event are the pipeline activity windows *as known at
/// that point*: `(f64::INFINITY, f64::NEG_INFINITY)` for pipelines that
/// have not started, and a growing `last` for active ones.
///
/// Snapshot and termination events additionally carry a `wall` stamp —
/// wall-clock seconds from the run's [`crate::clock::Clock`]
/// ([`crate::context::ExecConfig::wall_clock`]), taken at emission. Wall
/// stamps are what remaining-time (ETA) consumers divide progress deltas
/// by; they never affect execution and the virtual-time trace is identical
/// whatever clock is injected.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A snapshot was recorded (also emitted for the terminal snapshot
    /// taken when the query finishes). `seq` counts every snapshot this
    /// query has emitted (thinned ones included), so a consumer can tell
    /// whether it has seen the stream from the start — required to mirror
    /// the bounded buffer through `Thinned` events.
    Snapshot { query: usize, seq: u64, wall: f64, snapshot: Snapshot, windows: Box<[(f64, f64)]> },
    /// A snapshot was recorded, transmitted as a sparse diff against the
    /// previous emission instead of full counter vectors: `changes` lists
    /// the **absolute new values** of exactly the (node, counter) pairs
    /// that changed, and `window_updates` the pipelines whose activity
    /// window moved. `seq` follows the same numbering as
    /// [`TraceEvent::Snapshot`] — a delta stands for one snapshot. The
    /// first emission of a query is always a full `Snapshot` (the
    /// baseline); see [`DeltaEncoder`]/[`DeltaDecoder`] for the wire
    /// protocol. Because values are absolute, the encoding is insensitive
    /// to buffer thinning on either side.
    Delta {
        query: usize,
        seq: u64,
        wall: f64,
        /// Virtual time of the underlying observation (always changes, so
        /// it rides in the header rather than as a counter update).
        time: f64,
        changes: Box<[CounterUpdate]>,
        window_updates: Box<[(u32, (f64, f64))]>,
    },
    /// The bounded snapshot buffer was thinned: of the snapshots retained
    /// so far, only those at odd positions survive, and the sampling
    /// interval doubles. Consumers mirroring the trace must apply the same
    /// rule to stay aligned with the final [`ObservationTrace`].
    Thinned { query: usize },
    /// The query terminated; `windows` are the final activity windows.
    Finished { query: usize, wall: f64, windows: Box<[(f64, f64)]>, total_time: f64 },
}

/// Which per-node counter a [`CounterUpdate`] addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CounterKind {
    /// GetNext calls (K_i).
    GetNext,
    /// Bytes logically read (R_i).
    BytesRead,
    /// Bytes logically written (W_i).
    BytesWritten,
    /// Materialized output size (rows).
    Materialized,
}

/// One sparse counter update inside a [`TraceEvent::Delta`]: the counter
/// `counter` of plan node `node` now holds `value` (absolute, not a
/// difference — replaying updates is idempotent and thinning-safe).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterUpdate {
    /// Plan node index.
    pub node: u32,
    /// Which counter changed.
    pub counter: CounterKind,
    /// The absolute new counter value.
    pub value: u64,
}

impl TraceEvent {
    /// The query this event belongs to.
    pub fn query(&self) -> usize {
        match self {
            TraceEvent::Snapshot { query, .. }
            | TraceEvent::Delta { query, .. }
            | TraceEvent::Thinned { query }
            | TraceEvent::Finished { query, .. } => *query,
        }
    }

    /// Approximate serialized size of this event's payload in bytes — the
    /// accounting the benches and the traffic soak use to compare full
    /// snapshots against delta compression. Header fields (query, seq,
    /// wall, time) count 8 bytes each; each counter slot 8 bytes; each
    /// sparse [`CounterUpdate`] 13 bytes (4 node + 1 kind + 8 value); each
    /// window pair 16 bytes (plus a 4-byte pipeline index when sparse).
    pub fn payload_bytes(&self) -> usize {
        match self {
            TraceEvent::Snapshot { snapshot, windows, .. } => {
                32 + 8 * 4 * snapshot.k.len() + 16 * windows.len()
            }
            TraceEvent::Delta { changes, window_updates, .. } => {
                32 + 13 * changes.len() + 20 * window_updates.len()
            }
            TraceEvent::Thinned { .. } => 8,
            TraceEvent::Finished { windows, .. } => 32 + 16 * windows.len(),
        }
    }
}

/// Producer half of the snapshot-delta wire protocol.
///
/// Retains the last-emitted counters and windows for one query. The first
/// call to [`DeltaEncoder::encode`] returns `None` — the caller must emit
/// a full [`TraceEvent::Snapshot`] as the baseline — and every later call
/// returns the sparse diff against the previous emission. Counter values
/// are transmitted **absolute**, so a decoder that missed nothing
/// reconstructs the exact snapshot stream bit-for-bit, and engine-side
/// buffer thinning (which never rewinds counters) cannot desynchronize
/// the pair.
#[derive(Debug, Default)]
pub struct DeltaEncoder {
    primed: bool,
    k: Vec<u64>,
    bytes_read: Vec<u64>,
    bytes_written: Vec<u64>,
    materialized: Vec<u64>,
    windows: Vec<(f64, f64)>,
}

impl DeltaEncoder {
    /// A fresh, unprimed encoder.
    pub fn new() -> DeltaEncoder {
        DeltaEncoder::default()
    }

    /// Diff `snap`/`windows` against the previous emission and advance the
    /// baseline. Returns `None` on the first call (emit a full snapshot);
    /// `Some((changes, window_updates))` afterwards.
    #[allow(clippy::type_complexity)]
    pub fn encode(
        &mut self,
        snap: &Snapshot,
        windows: &[(f64, f64)],
    ) -> Option<(Box<[CounterUpdate]>, Box<[(u32, (f64, f64))]>)> {
        if !self.primed {
            self.k = snap.k.to_vec();
            self.bytes_read = snap.bytes_read.to_vec();
            self.bytes_written = snap.bytes_written.to_vec();
            self.materialized = snap.materialized.to_vec();
            self.windows = windows.to_vec();
            self.primed = true;
            return None;
        }
        let mut changes = Vec::new();
        let cols: [(&[u64], &mut Vec<u64>, CounterKind); 4] = [
            (&snap.k, &mut self.k, CounterKind::GetNext),
            (&snap.bytes_read, &mut self.bytes_read, CounterKind::BytesRead),
            (&snap.bytes_written, &mut self.bytes_written, CounterKind::BytesWritten),
            (&snap.materialized, &mut self.materialized, CounterKind::Materialized),
        ];
        for (now, last, kind) in cols {
            for (node, (&v, slot)) in now.iter().zip(last.iter_mut()).enumerate() {
                if v != *slot {
                    changes.push(CounterUpdate { node: node as u32, counter: kind, value: v });
                    *slot = v;
                }
            }
        }
        let mut window_updates = Vec::new();
        for (pid, (&w, slot)) in windows.iter().zip(self.windows.iter_mut()).enumerate() {
            if w != *slot {
                window_updates.push((pid as u32, w));
                *slot = w;
            }
        }
        Some((changes.into_boxed_slice(), window_updates.into_boxed_slice()))
    }
}

/// Consumer half of the snapshot-delta wire protocol: per-query scratch
/// state holding the current counter vectors and activity windows. Full
/// snapshots overwrite the scratch in place (`copy_from_slice`, no
/// allocation after the first event); deltas patch it sparsely. The
/// scratch doubles as the monitor shard's reusable counter buffers — the
/// estimator path reads it through [`DeltaDecoder::view`] without copying.
#[derive(Debug, Default, Clone)]
pub struct DeltaDecoder {
    primed: bool,
    time: f64,
    k: Vec<u64>,
    bytes_read: Vec<u64>,
    bytes_written: Vec<u64>,
    materialized: Vec<u64>,
    windows: Vec<(f64, f64)>,
}

impl DeltaDecoder {
    /// A fresh, unprimed decoder.
    pub fn new() -> DeltaDecoder {
        DeltaDecoder::default()
    }

    /// Whether a baseline full snapshot has been applied yet. Deltas
    /// arriving before that are a protocol violation.
    pub fn primed(&self) -> bool {
        self.primed
    }

    /// Apply a full snapshot, replacing the scratch contents in place.
    pub fn apply_full(&mut self, snap: &Snapshot, windows: &[(f64, f64)]) {
        self.apply_full_diff(snap, windows, |_, _| {});
    }

    /// [`Self::apply_full`], reporting what a [`TraceEvent::Delta`] for the
    /// same snapshot would have listed: `moved(node, counter)` for every
    /// counter whose value differs from the scratch's — the copy walks
    /// them anyway. A column that changes length (the baseline snapshot)
    /// reports every node.
    pub fn apply_full_diff(
        &mut self,
        snap: &Snapshot,
        windows: &[(f64, f64)],
        mut moved: impl FnMut(usize, CounterKind),
    ) {
        self.time = snap.time;
        let cols: [(&mut Vec<u64>, &[u64], CounterKind); 4] = [
            (&mut self.k, &snap.k, CounterKind::GetNext),
            (&mut self.bytes_read, &snap.bytes_read, CounterKind::BytesRead),
            (&mut self.bytes_written, &snap.bytes_written, CounterKind::BytesWritten),
            (&mut self.materialized, &snap.materialized, CounterKind::Materialized),
        ];
        for (dst, src, kind) in cols {
            if dst.len() != src.len() {
                dst.clear();
                dst.extend_from_slice(src);
                (0..src.len()).for_each(|node| moved(node, kind));
                continue;
            }
            for (node, (slot, &v)) in dst.iter_mut().zip(src).enumerate() {
                if *slot != v {
                    *slot = v;
                    moved(node, kind);
                }
            }
        }
        self.windows.clear();
        self.windows.extend_from_slice(windows);
        self.primed = true;
    }

    /// Patch the scratch with one delta. Returns `false` (leaving the
    /// scratch untouched) when the decoder is unprimed or an update
    /// addresses a node/pipeline outside the known arity — the caller
    /// should treat the stream as corrupt.
    pub fn apply_delta(
        &mut self,
        time: f64,
        changes: &[CounterUpdate],
        window_updates: &[(u32, (f64, f64))],
    ) -> bool {
        if !self.primed
            || changes.iter().any(|u| u.node as usize >= self.k.len())
            || window_updates.iter().any(|&(pid, _)| pid as usize >= self.windows.len())
        {
            return false;
        }
        self.time = time;
        for u in changes {
            let col = match u.counter {
                CounterKind::GetNext => &mut self.k,
                CounterKind::BytesRead => &mut self.bytes_read,
                CounterKind::BytesWritten => &mut self.bytes_written,
                CounterKind::Materialized => &mut self.materialized,
            };
            col[u.node as usize] = u.value;
        }
        for &(pid, w) in window_updates {
            self.windows[pid as usize] = w;
        }
        true
    }

    /// Borrow the current reconstructed counters as a [`SnapshotView`].
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView {
            time: self.time,
            k: &self.k,
            bytes_read: &self.bytes_read,
            bytes_written: &self.bytes_written,
            materialized: &self.materialized,
        }
    }

    /// The current reconstructed activity windows.
    pub fn windows(&self) -> &[(f64, f64)] {
        &self.windows
    }
}

/// A consumer of live [`TraceEvent`]s that is not a plain channel — e.g. a
/// sharded monitor service that routes each event to the worker owning its
/// query. Implementations must be cheap and non-blocking on the send path:
/// the engine calls [`TapSink::send`] inline while executing the query.
pub trait TapSink: Send + Sync {
    /// Deliver one event. `Err` signals the consumer is gone; the engine
    /// then detaches the tap and stops paying for event construction.
    fn send(&self, ev: TraceEvent) -> Result<(), TraceEvent>;

    /// Deliver many events at once. The default forwards one by one;
    /// sinks with per-delivery overhead (queue locks, wakeups) override it
    /// to amortize — e.g. a sharded monitor takes one lock per *shard* per
    /// batch instead of one per event. `Err` returns every event that
    /// could not be delivered (order preserved among the returned ones);
    /// unlike [`TapSink::send`], a partial failure is not "consumer gone"
    /// — the caller decides whether to retry, drop, or detach.
    fn send_batch(&self, events: Vec<TraceEvent>) -> Result<(), Vec<TraceEvent>> {
        let mut returned = Vec::new();
        for ev in events {
            if let Err(ev) = self.send(ev) {
                returned.push(ev);
            }
        }
        if returned.is_empty() {
            Ok(())
        } else {
            Err(returned)
        }
    }
}

/// A plain mpsc sender is a tap sink: `Err` once the receiver hung up.
impl TapSink for std::sync::mpsc::Sender<TraceEvent> {
    fn send(&self, ev: TraceEvent) -> Result<(), TraceEvent> {
        std::sync::mpsc::Sender::send(self, ev).map_err(|e| e.0)
    }
}

/// Sending half of a live observation stream: one shared [`TapSink`].
/// Cloneable; pass one to [`crate::exec::run_plan_tapped`] or
/// [`crate::exec::run_concurrent_tapped`]. An mpsc channel's sender
/// converts via `From`; a routed sink ([`TraceTap::from_sink`]) fans one
/// tapped run out to the consumer that owns each event (e.g. a monitor
/// shard selected by query id) without cloning every event to every
/// consumer.
#[derive(Clone)]
pub struct TraceTap(std::sync::Arc<dyn TapSink>);

impl TraceTap {
    /// Wrap a routing sink (see [`TapSink`]).
    pub fn from_sink(sink: std::sync::Arc<dyn TapSink>) -> TraceTap {
        TraceTap(sink)
    }

    /// Deliver one event; `Err` returns the event when the consumer is
    /// gone (receiver dropped / sink closed).
    pub fn send(&self, ev: TraceEvent) -> Result<(), TraceEvent> {
        self.0.send(ev)
    }

    /// Deliver many events at once (see [`TapSink::send_batch`]); `Err`
    /// returns the undeliverable events.
    pub fn send_batch(&self, events: Vec<TraceEvent>) -> Result<(), Vec<TraceEvent>> {
        self.0.send_batch(events)
    }
}

impl From<std::sync::mpsc::Sender<TraceEvent>> for TraceTap {
    fn from(tx: std::sync::mpsc::Sender<TraceEvent>) -> TraceTap {
        TraceTap(std::sync::Arc::new(tx))
    }
}

impl std::fmt::Debug for TraceTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceTap")
    }
}

/// The bounded-buffer thinning rule, shared by the engine's snapshot
/// buffer ([`crate::context::ExecContext`]) and every consumer mirroring
/// it through [`TraceEvent::Thinned`] events: of the entries retained so
/// far, only those at **odd positions** survive (the sampling interval
/// doubling is the producer's business). Centralized here so the engine
/// and its mirrors cannot drift.
pub fn thin_half<T>(buf: &mut Vec<T>) {
    let mut i = 0usize;
    buf.retain(|_| {
        let keep = i % 2 == 1;
        i += 1;
        keep
    });
}

/// A completed query execution: plan, pipelines, trace.
#[derive(Debug, Clone)]
pub struct QueryRun {
    pub plan: PhysicalPlan,
    pub pipelines: Vec<Pipeline>,
    pub trace: ObservationTrace,
    /// Number of result rows produced at the root.
    pub result_rows: u64,
}

impl QueryRun {
    /// Weight of pipeline `pid` for query-level progress (eq. (5)):
    /// ΣE_i within the pipeline over ΣE_i in the whole plan.
    pub fn pipeline_weight(&self, pid: usize) -> f64 {
        crate::pipeline::pipeline_weight(&self.plan, &self.pipelines[pid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> ObservationTrace {
        ObservationTrace {
            snapshots: (0..=10)
                .map(|i| Snapshot {
                    time: i as f64 * 10.0,
                    k: vec![i as u64].into_boxed_slice(),
                    bytes_read: vec![0].into_boxed_slice(),
                    bytes_written: vec![0].into_boxed_slice(),
                    materialized: vec![0].into_boxed_slice(),
                })
                .collect(),
            final_k: vec![10],
            final_bytes_read: vec![0],
            final_bytes_written: vec![0],
            final_materialized: vec![0],
            total_time: 100.0,
            pipeline_windows: vec![(0.0, 40.0), (40.0, 100.0), (f64::INFINITY, f64::NEG_INFINITY)],
        }
    }

    #[test]
    fn true_progress_is_time_fraction() {
        let t = toy_trace();
        assert_eq!(t.true_progress(0), 0.0);
        assert_eq!(t.true_progress(5), 0.5);
        assert_eq!(t.true_progress(10), 1.0);
    }

    #[test]
    fn thin_half_keeps_odd_positions() {
        let mut v: Vec<u64> = (0..9).collect();
        thin_half(&mut v);
        assert_eq!(v, vec![1, 3, 5, 7]);
        thin_half(&mut v);
        assert_eq!(v, vec![3, 7]);
        let mut empty: Vec<u64> = Vec::new();
        thin_half(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn channel_tap_roundtrips_and_detects_hangup() {
        let (tx, rx) = std::sync::mpsc::channel();
        let tap: TraceTap = tx.into();
        assert!(tap.send(TraceEvent::Thinned { query: 3 }).is_ok());
        assert_eq!(rx.recv().unwrap().query(), 3);
        drop(rx);
        let back = tap.send(TraceEvent::Thinned { query: 4 }).unwrap_err();
        assert_eq!(back.query(), 4);
    }

    #[test]
    fn sink_tap_routes_through_the_trait() {
        struct Count(std::sync::Mutex<Vec<usize>>);
        impl TapSink for Count {
            fn send(&self, ev: TraceEvent) -> Result<(), TraceEvent> {
                self.0.lock().unwrap().push(ev.query());
                Ok(())
            }
        }
        let sink = std::sync::Arc::new(Count(std::sync::Mutex::new(Vec::new())));
        let tap = TraceTap::from_sink(sink.clone());
        for q in [5usize, 9, 5] {
            tap.clone().send(TraceEvent::Thinned { query: q }).unwrap();
        }
        assert_eq!(*sink.0.lock().unwrap(), vec![5, 9, 5]);
    }
}
