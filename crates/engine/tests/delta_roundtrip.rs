//! Property tests for the snapshot-delta tap wire format: a delta stream
//! (full baseline + sparse [`TraceEvent::Delta`] diffs) must reconstruct
//! the exact full-snapshot stream, bit for bit, on arbitrary counter
//! sequences and on real tapped executions.

use proptest::prelude::*;
use prosel_datagen::schema::{ColumnMeta, ColumnRole, TableMeta};
use prosel_datagen::{Column, Database, PhysicalDesign, Table, TuningLevel};
use prosel_engine::plan::{OperatorKind, PhysicalPlan, PlanNode, Predicate};
use prosel_engine::trace::{DeltaDecoder, DeltaEncoder, Snapshot, SnapshotView, TraceEvent};
use prosel_engine::{run_plan_tapped, Catalog, ExecConfig};

/// Copy a decoder's view into an owned [`Snapshot`], to compare with one.
fn owned(view: SnapshotView<'_>) -> Snapshot {
    Snapshot {
        time: view.time,
        k: view.k.into(),
        bytes_read: view.bytes_read.into(),
        bytes_written: view.bytes_written.into(),
        materialized: view.materialized.into(),
    }
}

/// One randomly grown observation stream: cumulative (monotone) counters
/// for a random node count plus evolving pipeline activity windows. The
/// proptest shim composes strategies by direct `new_value` calls rather
/// than `prop_flat_map`, so this is a hand-rolled composite.
struct StreamStrategy;

impl Strategy for StreamStrategy {
    type Value = (Vec<Snapshot>, Vec<Vec<(f64, f64)>>);

    fn new_value(&self, rng: &mut proptest::TestRng) -> Self::Value {
        let n_nodes = (1usize..6).new_value(rng);
        let n_pipes = (1usize..4).new_value(rng);
        let n_steps = (1usize..10).new_value(rng);
        let mut k = vec![0u64; n_nodes];
        let mut br = vec![0u64; n_nodes];
        let mut bw = vec![0u64; n_nodes];
        let mut mat = vec![0u64; n_nodes];
        let mut win = vec![(f64::INFINITY, f64::NEG_INFINITY); n_pipes];
        let mut snaps = Vec::new();
        let mut wins = Vec::new();
        for t in 0..n_steps {
            let time = (t + 1) as f64;
            for i in 0..n_nodes {
                // Zero increments are common so deltas are genuinely sparse.
                k[i] += (0u64..4).new_value(rng) * (0u64..30).new_value(rng);
                br[i] += (0u64..4).new_value(rng) * (0u64..200).new_value(rng);
                bw[i] += (0u64..2).new_value(rng) * (0u64..200).new_value(rng);
                mat[i] += (0u64..2).new_value(rng) * (0u64..40).new_value(rng);
            }
            for w in win.iter_mut().take(n_pipes) {
                match (0u8..3).new_value(rng) {
                    0 => {}
                    _ if !w.0.is_finite() => *w = (time, time),
                    _ => w.1 = time,
                }
            }
            snaps.push(Snapshot {
                time,
                k: k.clone().into_boxed_slice(),
                bytes_read: br.clone().into_boxed_slice(),
                bytes_written: bw.clone().into_boxed_slice(),
                materialized: mat.clone().into_boxed_slice(),
            });
            wins.push(win.clone());
        }
        (snaps, wins)
    }
}

fn stream_strategy() -> StreamStrategy {
    StreamStrategy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode reconstructs every snapshot and window vector
    /// exactly, deltas list only pairs that actually changed, and
    /// replaying a delta is idempotent (absolute values — the property
    /// that makes the format insensitive to buffer thinning).
    #[test]
    fn delta_roundtrip_is_exact(stream in stream_strategy()) {
        let (snaps, wins) = stream;
        let mut enc = DeltaEncoder::new();
        let mut dec = DeltaDecoder::new();
        for (j, (snap, windows)) in snaps.iter().zip(&wins).enumerate() {
            match enc.encode(snap, windows) {
                None => {
                    // First emission: full baseline.
                    prop_assert_eq!(j, 0);
                    dec.apply_full(snap, windows);
                }
                Some((changes, window_updates)) => {
                    let prev = snaps[j - 1].clone();
                    for c in changes.iter() {
                        // Sparse: every listed pair genuinely changed.
                        let n = c.node as usize;
                        let old = match c.counter {
                            prosel_engine::trace::CounterKind::GetNext => prev.k[n],
                            prosel_engine::trace::CounterKind::BytesRead => prev.bytes_read[n],
                            prosel_engine::trace::CounterKind::BytesWritten => prev.bytes_written[n],
                            prosel_engine::trace::CounterKind::Materialized => prev.materialized[n],
                        };
                        prop_assert_ne!(old, c.value);
                    }
                    prop_assert!(dec.apply_delta(snap.time, &changes, &window_updates));
                    // Idempotent: absolute values, so replay changes nothing.
                    prop_assert!(dec.apply_delta(snap.time, &changes, &window_updates));
                }
            }
            let got = owned(dec.view());
            prop_assert_eq!(&got, snap);
            prop_assert_eq!(got.time.to_bits(), snap.time.to_bits());
            prop_assert_eq!(dec.windows().len(), windows.len());
            for (a, b) in dec.windows().iter().zip(windows) {
                prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }

    /// A delta against an unprimed decoder, or with out-of-range indices,
    /// is refused and leaves the decoder untouched.
    #[test]
    fn malformed_deltas_are_refused(stream in stream_strategy()) {
        use prosel_engine::trace::{CounterKind, CounterUpdate};
        let (snaps, wins) = stream;
        let snap = &snaps[0];
        let windows = &wins[0];
        let mut dec = DeltaDecoder::new();
        prop_assert!(!dec.primed());
        prop_assert!(!dec.apply_delta(1.0, &[], &[]));
        dec.apply_full(snap, windows);
        let bad_node = CounterUpdate {
            node: snap.k.len() as u32,
            counter: CounterKind::GetNext,
            value: 1,
        };
        let before = owned(dec.view());
        prop_assert!(!dec.apply_delta(2.0, &[bad_node], &[]));
        prop_assert!(!dec.apply_delta(2.0, &[], &[(windows.len() as u32, (0.0, 1.0))]));
        prop_assert_eq!(owned(dec.view()), before);
    }
}

fn db(rows: usize) -> Database {
    let mut db = Database::new("delta");
    let meta = TableMeta::new(
        "t",
        64,
        vec![
            ColumnMeta::new("id", ColumnRole::PrimaryKey),
            ColumnMeta::new("v", ColumnRole::Value { min: 0, max: 999 }),
        ],
    );
    db.add(Table::new(
        meta,
        vec![
            Column { name: "id".into(), data: (1..=rows as i64).collect() },
            Column { name: "v".into(), data: (0..rows as i64).map(|i| (i * 37) % 1000).collect() },
        ],
    ));
    db
}

/// Run one tapped execution and collect its event stream.
fn tapped_events(cfg: &ExecConfig) -> Vec<TraceEvent> {
    let database = db(300);
    let design = PhysicalDesign::derive(&database, TuningLevel::Untuned);
    let catalog = Catalog::new(&database, &design);
    let mk = |op, children, est: f64, cols: usize| PlanNode {
        op,
        children,
        est_rows: est,
        est_row_bytes: 8.0 * cols as f64,
        out_cols: cols,
    };
    // scan → filter → sort → top: two pipelines, so window updates and
    // per-node counter sparsity both get exercised.
    let plan = PhysicalPlan {
        nodes: vec![
            mk(OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] }, vec![], 300.0, 2),
            mk(
                OperatorKind::Filter { pred: Predicate::ColRange { col: 1, lo: 100, hi: 800 } },
                vec![0],
                200.0,
                2,
            ),
            mk(OperatorKind::Sort { key_cols: vec![1] }, vec![1], 200.0, 2),
            mk(OperatorKind::Top { n: 40 }, vec![2], 40.0, 2),
        ],
        root: 3,
    };
    let (tx, rx) = std::sync::mpsc::channel();
    run_plan_tapped(&catalog, &plan, cfg, 11, tx);
    rx.try_iter().collect()
}

/// The tapped stream with delta compression enabled reconstructs, event
/// for event, the exact stream emitted with compression disabled.
#[test]
fn tapped_delta_stream_reconstructs_full_stream() {
    use prosel_engine::clock::ManualClock;
    use std::sync::Arc;
    // A stepping manual clock makes wall stamps a pure function of the
    // emission sequence, so the two runs compare bitwise.
    let base = ExecConfig {
        seed: 9,
        wall_clock: Arc::new(ManualClock::stepping(0.0, 0.25)),
        ..ExecConfig::default()
    };
    let full = tapped_events(&base);
    let delta = tapped_events(&ExecConfig {
        wall_clock: Arc::new(ManualClock::stepping(0.0, 0.25)),
        delta_threshold: 1,
        ..base
    });
    assert_eq!(full.len(), delta.len());
    let n_deltas = delta.iter().filter(|e| matches!(e, TraceEvent::Delta { .. })).count();
    assert!(n_deltas > 0, "threshold 1 on a 4-node plan must emit deltas past the baseline");
    let mut dec = DeltaDecoder::new();
    for (f, d) in full.iter().zip(&delta) {
        match (f, d) {
            (
                TraceEvent::Snapshot { query, seq, wall, snapshot, windows },
                TraceEvent::Delta {
                    query: dq,
                    seq: dseq,
                    wall: dwall,
                    time,
                    changes,
                    window_updates,
                },
            ) => {
                assert_eq!((query, seq), (dq, dseq));
                assert_eq!(wall.to_bits(), dwall.to_bits());
                assert!(dec.apply_delta(*time, changes, window_updates));
                assert_eq!(&owned(dec.view()), snapshot);
                assert_eq!(dec.windows(), windows.as_ref());
                // Compression must not cost bytes: the sparse encoding of
                // a snapshot never exceeds the full one.
                assert!(d.payload_bytes() <= f.payload_bytes());
            }
            (TraceEvent::Snapshot { snapshot, windows, .. }, _) => {
                // Baseline (or any uncompressed emission): identical events.
                assert_eq!(f, d);
                dec.apply_full(snapshot, windows);
            }
            _ => assert_eq!(f, d),
        }
    }
    assert!(dec.primed());
}
