//! One codec net over every persisted artifact: model text, selector
//! text, learner checkpoints, publication frames, harvest states and
//! metric expositions.
//!
//! Each artifact must decode and re-encode to the identical bytes and
//! refuse every strict byte prefix. The four sealed artifacts must also
//! refuse every single-byte substitution (`^ 0x01`, `^ 0x20`, `'+'`) at
//! every position — header, meta line and footer included, which the
//! checksum does not cover. Model and selector text carry no checksum, so
//! a substitution there may decode to a different model; it must not
//! panic the decoder.

use prosel_core::features::FeatureSchema;
use prosel_core::pipeline_runs::PipelineRecord;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::textio::{open, seal};
use prosel_core::training::TrainingSet;
use prosel_estimators::EstimatorKind;
use prosel_learn::{BufferConfig, LearnConfig, OnlineLearner, SelectorHub, SelectorSubscriber};
use prosel_mart::{model_io, BoostParams, TreeParams};
use prosel_monitor::{HarvestState, HarvestedQuery, ShardStats};
use prosel_obs::{Histogram, MetricsSnapshot, Sample, SampleValue};
use std::panic::{catch_unwind, RefUnwindSafe};
use std::sync::Arc;

fn records(n: usize) -> Vec<PipelineRecord> {
    let dims = FeatureSchema::get().len();
    (0..n)
        .map(|i| {
            let x = (i % 4) as f32;
            let mut features = vec![0.0f32; dims];
            features[0] = x;
            let mut errors = vec![0.5f32; EstimatorKind::CANDIDATES.len()];
            errors[0] = if x < 2.0 { 0.1 } else { 0.4 };
            errors[1] = if x < 2.0 { 0.4 } else { 0.1 };
            PipelineRecord {
                workload: format!("w {}", i % 2),
                query_idx: i,
                pipeline_id: 0,
                features,
                errors_l1: errors.clone(),
                errors_l2: errors,
                total_getnext: 10,
                weight: 0.5,
                n_obs: 6,
                fingerprint: "scan|t".into(),
                oracle_l1: [0.0, 0.25],
                oracle_l2: [0.125, 0.0],
            }
        })
        .collect()
}

/// Two candidates, two small trees each.
fn tiny_selector() -> EstimatorSelector {
    let cfg = SelectorConfig {
        candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn],
        boost: BoostParams {
            iterations: 2,
            tree: TreeParams { max_leaves: 3, min_samples_leaf: 2 },
            ..BoostParams::fast()
        },
        ..SelectorConfig::default()
    };
    EstimatorSelector::train(&TrainingSet::from_records(&records(16)), &cfg)
}

/// A learner holding two buffered records and one held out.
fn tiny_learner() -> OnlineLearner {
    let mut learner = OnlineLearner::new(
        Arc::new(tiny_selector()),
        LearnConfig {
            buffer: BufferConfig { capacity: 4, group_quota: 2, ..BufferConfig::default() },
            retrain_every: 0,
            holdout_every: 3,
            min_records: 1,
            warm_trees: 1,
            ..LearnConfig::default()
        },
    );
    learner.absorb(&HarvestedQuery {
        query: 0,
        selector_epoch: 0,
        total_time: 1.0,
        records: records(3),
        switches: Vec::new(),
    });
    learner
}

/// `text` with byte `i` replaced, for every position and each of the
/// three substitutions that change it.
fn substitutions(text: &str) -> impl Iterator<Item = (usize, String)> + '_ {
    (0..text.len()).flat_map(move |i| {
        let b = text.as_bytes()[i];
        [b ^ 0x01, b ^ 0x20, b'+'].into_iter().filter(move |&s| s != b).map(move |s| {
            let mut bytes = text.as_bytes().to_vec();
            bytes[i] = s;
            (i, String::from_utf8(bytes).expect("an ASCII byte stays ASCII"))
        })
    })
}

/// Run the net on one artifact. `decode` re-encodes what it accepts.
fn check(
    name: &str,
    text: &str,
    sealed: bool,
    decode: impl Fn(&str) -> Result<String, String> + RefUnwindSafe,
) {
    assert!(text.is_ascii(), "{name}: the net substitutes bytes of ASCII text");
    assert_eq!(decode(text).as_deref(), Ok(text), "{name}: round trip");
    for cut in 0..text.len() {
        assert!(decode(&text[..cut]).is_err(), "{name}: prefix of {cut} bytes accepted");
    }
    for (i, altered) in substitutions(text) {
        let outcome = catch_unwind(|| decode(&altered));
        let what = format!("{name}: byte {i} {:?} -> {:?}", &text[i..=i], &altered[i..=i]);
        match outcome {
            Err(_) => panic!("{what} panicked the decoder"),
            Ok(Ok(_)) if sealed => panic!("{what} was accepted"),
            Ok(_) => {}
        }
    }
}

#[test]
fn model_text() {
    let selector = tiny_selector();
    let model = selector.model(EstimatorKind::Tgn).expect("a model");
    check("model", &model_io::to_string(model), false, |t| {
        model_io::from_str(t).map(|m| model_io::to_string(&m))
    });
}

#[test]
fn selector_text() {
    check("selector", &tiny_selector().to_text(), false, |t| {
        EstimatorSelector::from_text(t).map(|s| s.to_text())
    });
}

#[test]
fn checkpoint() {
    check("checkpoint", &tiny_learner().checkpoint(), true, |t| {
        OnlineLearner::restore(t).map(|l| l.checkpoint()).map_err(|e| e.to_string())
    });
}

#[test]
fn publication_frame() {
    let frame = SelectorHub::encode_frame(12, &tiny_selector());
    check("frame", &frame, true, |t| {
        match SelectorSubscriber::new().recv_from(&mut t.as_bytes()) {
            Ok(Some(p)) => Ok(SelectorHub::encode_frame(p.epoch, &p.selector)),
            Ok(None) => Err("no frame".into()),
            Err(e) => Err(e.to_string()),
        }
    });
}

#[test]
fn harvest_state() {
    let state = HarvestState {
        epoch: 12,
        stats: ShardStats {
            registered: 3,
            admitted: 41,
            refused: 2,
            events_ingested: 1234,
            events_unroutable: 5,
            queries_dropped: 1,
            queries_finished: 38,
            harvests: 36,
            events_rejected: 9,
        },
    };
    check("harvest state", &state.to_text(), true, |t| {
        HarvestState::from_text(t).map(|s| s.to_text()).map_err(|e| e.to_string())
    });
}

#[test]
fn metrics_exposition() {
    let h = Histogram::new();
    for v in [3, 70, 70, 9000] {
        h.record(v);
    }
    let snapshot = MetricsSnapshot {
        samples: vec![
            Sample { name: "a_total".into(), value: SampleValue::Counter(42) },
            Sample { name: "b_gauge".into(), value: SampleValue::Gauge(-0.125) },
            Sample { name: "c_ns".into(), value: SampleValue::Histogram(h.snapshot()) },
        ],
    };
    check("metrics", &snapshot.render_text(), true, |t| {
        MetricsSnapshot::parse_text(t).map(|s| s.render_text()).map_err(|e| e.to_string())
    });
}

/// A checkpoint re-sealed around a record whose feature or error vector
/// is short is refused at restore: restored, the learner's next retrain
/// would panic slicing the vector.
#[test]
fn records_a_learner_cannot_train_on_are_refused_at_restore() {
    let text = tiny_learner().checkpoint();
    let body = open(&text, "prosel-checkpoint v1", "endcheckpoint").expect("own checkpoint");
    for label in ["features", "l1", "l2"] {
        let line = body.lines().find(|l| l.starts_with(&format!("{label} "))).expect("a line");
        let short = body.replacen(line, &format!("{label} 1 3f800000"), 1);
        let resealed = seal("prosel-checkpoint v1", &short, "endcheckpoint");
        let err = OnlineLearner::restore(&resealed).err().expect("a short record must not restore");
        assert!(err.to_string().contains(&format!("record 0: {label} has 1 values")), "{err}");
    }
}
