//! One codec net over every persisted artifact: model text, selector
//! text, learner checkpoints, publication frames and metric expositions.
//!
//! Each artifact must decode and re-encode to the identical bytes and
//! refuse every strict byte prefix. The three sealed artifacts must also
//! refuse every single-byte substitution (`^ 0x01`, `^ 0x20`, `'+'`) at
//! every position — header, meta line and footer included, which the
//! checksum does not cover. Model and selector text carry no checksum, so
//! a substitution there may decode to a different model; it must not
//! panic the decoder.

use prosel_core::features::FeatureSchema;
use prosel_core::pipeline_runs::PipelineRecord;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::textio::{open, seal, LineReader};
use prosel_core::training::TrainingSet;
use prosel_estimators::EstimatorKind;
use prosel_learn::{BufferConfig, LearnConfig, OnlineLearner, SelectorHub, SelectorSubscriber};
use prosel_mart::{model_io, BoostParams, TreeParams};
use prosel_monitor::HarvestedQuery;
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
    learner.absorb(&HarvestedQuery { query: 0, records: records(3) });
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
        let mut r = LineReader::new(t);
        let model = model_io::read(&mut r)?;
        r.finish()?;
        Ok(model_io::to_string(&model))
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
    let body = open(&text, "prosel-checkpoint v2", "endcheckpoint").expect("own checkpoint");
    for label in ["features", "l1", "l2"] {
        let line = body.lines().find(|l| l.starts_with(&format!("{label} "))).expect("a line");
        let short = body.replacen(line, &format!("{label} 1 3f800000"), 1);
        let resealed = seal("prosel-checkpoint v2", &short, "endcheckpoint");
        let err = OnlineLearner::restore(&resealed).err().expect("a short record must not restore");
        assert!(err.to_string().contains(&format!("record 0: {label} has 1 values")), "{err}");
    }
}

/// A validation slice longer than the learner's fixed cap (1024 records)
/// is a state no running learner reaches, so restore refuses it, as the
/// buffer refuses more records than its capacity.
#[test]
fn a_validation_slice_over_the_cap_is_refused_at_restore() {
    let text = tiny_learner().checkpoint();
    let body = open(&text, "prosel-checkpoint v2", "endcheckpoint").expect("own checkpoint");
    let (head, rest) = body.split_once("\nvalidation 1\n").expect("one held-out record");
    let (record, selector) = rest.split_once("selector lines ").expect("selector section");
    for (n, refused) in [(1024, false), (1025, true)] {
        let body = format!("{head}\nvalidation {n}\n{}selector lines {selector}", record.repeat(n));
        let restored =
            OnlineLearner::restore(&seal("prosel-checkpoint v2", &body, "endcheckpoint"));
        match restored {
            Ok(learner) => {
                assert!(!refused, "{n} held-out records must not restore");
                assert_eq!(learner.validation_len(), n);
            }
            Err(err) => {
                assert!(refused, "{n} held-out records must restore: {err}");
                assert!(err.to_string().contains("validation 1025: more than the 1024"), "{err}");
            }
        }
    }
}

/// A checkpoint of the v1 format, which still carried the validation
/// slice's cap and the buffer's grouping key, is refused with a typed
/// error, never restored as a different learner: under its own header it
/// is version drift, and a v1 body sealed under the v2 header fails at
/// the first line that carries a dropped field.
#[test]
fn v1_checkpoints_are_refused_not_misread() {
    let restore = |text: &str| {
        catch_unwind(|| OnlineLearner::restore(text).map(|_| ()))
            .expect("restore must not panic")
            .expect_err("a v1 checkpoint must not restore")
            .to_string()
    };
    let text = tiny_learner().checkpoint();
    let body = open(&text, "prosel-checkpoint v2", "endcheckpoint").expect("own checkpoint");

    let err = restore(&seal("prosel-checkpoint v1", body, "endcheckpoint"));
    assert!(err.contains("missing `prosel-checkpoint v2` header"), "{err}");

    let config = body.lines().find(|l| l.starts_with("config ")).expect("config line");
    let buffer = body.lines().find(|l| l.starts_with("buffer ")).expect("buffer line");
    let with_cap = config.replacen(" min_records ", " validation_cap 1024 min_records ", 1);
    let with_group_by = buffer.replacen(" seed ", " group_by workload seed ", 1);
    for (v1_body, field) in [
        (body.replacen(config, &with_cap, 1), "validation_cap"),
        (body.replacen(buffer, &with_group_by, 1), "group_by"),
        (body.replacen(config, &with_cap, 1).replacen(buffer, &with_group_by, 1), "validation_cap"),
    ] {
        assert_ne!(v1_body, body);
        let err = restore(&seal("prosel-checkpoint v2", &v1_body, "endcheckpoint"));
        assert!(err.contains("expected `") && err.contains(&format!("{field} ")), "{err}");
    }
}
