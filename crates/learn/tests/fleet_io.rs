//! Property tests for the fleet codecs: the publication frames a
//! [`SelectorHub`] ships to followers and the learner checkpoints the
//! trainer writes to disk. Both must round-trip exactly and reject every
//! torn, corrupted or polluted blob — a follower or a restarted trainer
//! either resumes the exact published/checkpointed state or refuses.

use proptest::prelude::*;
use prosel_core::features::FeatureSchema;
use prosel_core::pipeline_runs::PipelineRecord;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::TrainingSet;
use prosel_estimators::EstimatorKind;
use prosel_learn::{
    BufferConfig, LearnConfig, OnlineLearner, SelectorHub, SelectorSubscriber, SubscribeError,
};
use prosel_mart::BoostParams;
use prosel_monitor::HarvestedQuery;
use std::io::BufReader;
use std::sync::Arc;

fn synthetic_records(n: usize, seed: u64) -> Vec<PipelineRecord> {
    let dims = FeatureSchema::get().len();
    (0..n)
        .map(|i| {
            let x = ((i as u64).wrapping_mul(seed | 1) % 7) as f32;
            let mut features = vec![0.0f32; dims];
            features[0] = x;
            features[1] = (i % 5) as f32;
            let mut errors = vec![0.6f32; 8];
            errors[0] = if x < 3.5 { 0.05 } else { 0.4 };
            errors[1] = if x < 3.5 { 0.4 } else { 0.05 };
            PipelineRecord {
                workload: format!("syn{}", i % 3),
                query_idx: i,
                pipeline_id: 0,
                features,
                errors_l1: errors.clone(),
                errors_l2: errors,
                total_getnext: 10,
                weight: 1.0,
                n_obs: 10,
                fingerprint: "scan|syn".into(),
                oracle_l1: [0.0; 2],
                oracle_l2: [0.0; 2],
            }
        })
        .collect()
}

fn tiny_selector(seed: u64) -> EstimatorSelector {
    let records = synthetic_records(40, seed);
    let cfg = SelectorConfig {
        candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn, EstimatorKind::Luo],
        boost: BoostParams { iterations: 4, seed, ..BoostParams::fast() },
        ..SelectorConfig::default()
    };
    EstimatorSelector::train(&TrainingSet::from_records(&records), &cfg)
}

/// A learner with absorbed harvests and live reservoir/holdout state —
/// the thing a trainer would checkpoint mid-run.
fn warm_learner(seed: u64) -> OnlineLearner {
    let mut learner = OnlineLearner::new(
        Arc::new(tiny_selector(seed)),
        LearnConfig {
            buffer: BufferConfig {
                capacity: 24, // smaller than the stream: reservoir draws happen
                group_quota: 6,
                seed,
                ..BufferConfig::default()
            },
            retrain_every: 0,
            holdout_every: 3,
            min_records: 8,
            warm_trees: 0,
            ..LearnConfig::default()
        },
    );
    for (qi, chunk) in synthetic_records(36, seed ^ 0x5EED).chunks(4).enumerate() {
        learner.absorb(&HarvestedQuery { query: qi, records: chunk.to_vec() });
    }
    learner
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hub frame → subscriber install round-trips: the installed selector
    /// re-encodes to the identical frame and scores identically.
    #[test]
    fn publication_round_trip_is_exact(seed in 1u64..500, epoch in 1u64..1000) {
        let sel = tiny_selector(seed);
        let frame = SelectorHub::encode_frame(epoch, &sel);
        let mut sub = SelectorSubscriber::new();
        let p = sub
            .recv_from(&mut BufReader::new(frame.as_bytes()))
            .expect("own frame must install")
            .expect("one frame present");
        prop_assert_eq!(p.epoch, epoch);
        prop_assert_eq!(SelectorHub::encode_frame(epoch, &p.selector), frame);
        for r in synthetic_records(12, seed ^ 0xABCD) {
            prop_assert_eq!(sel.select(&r.features), p.selector.select(&r.features));
        }
    }

    /// Every strict prefix of a frame is refused without an install: a
    /// torn stream can never hand a follower a different model.
    #[test]
    fn torn_publications_never_install(seed in 1u64..500, frac in 0.0f64..1.0) {
        let frame = SelectorHub::encode_frame(1, &tiny_selector(seed));
        let cut = 1 + ((frame.len() - 2) as f64 * frac) as usize; // 1..frame.len()-1
        let mut sub = SelectorSubscriber::new();
        let out = sub.recv_from(&mut BufReader::new(&frame.as_bytes()[..cut]));
        prop_assert!(out.is_err(), "prefix of {} of {} bytes must be refused", cut, frame.len());
        prop_assert!(sub.current().is_none(), "nothing may install from a torn frame");
    }

    /// A corrupted payload byte inside a structurally complete frame is a
    /// checksum mismatch, and the next frame on the stream still installs.
    #[test]
    fn corrupted_payloads_are_skipped_not_installed(seed in 1u64..500, frac in 0.0f64..1.0) {
        let sel = tiny_selector(seed);
        let good = SelectorHub::encode_frame(2, &sel);
        let mut corrupt = SelectorHub::encode_frame(1, &sel).into_bytes();
        let body_start = corrupt
            .windows(1)
            .enumerate()
            .filter(|(_, w)| w[0] == b'\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .unwrap();
        let body_end = corrupt.len() - "endpublication\n".len();
        let idx = body_start + ((body_end - body_start - 1) as f64 * frac) as usize;
        corrupt[idx] ^= 0x20; // flip case/space: same length, different bytes
        let stream = [corrupt.as_slice(), good.as_bytes()].concat();
        let mut sub = SelectorSubscriber::new();
        let mut reader = BufReader::new(stream.as_slice());
        match sub.recv_from(&mut reader) {
            Err(SubscribeError::ChecksumMismatch { declared, computed }) => {
                prop_assert_ne!(declared, computed);
            }
            // The checksum gate runs before any payload parse, so a
            // flipped byte can never surface as any other outcome.
            Ok(_) => prop_assert!(false, "corrupted frame must not install"),
            Err(e) => prop_assert!(false, "want ChecksumMismatch, got {:?}", e),
        }
        prop_assert!(sub.current().is_none());
        let p = sub.recv_from(&mut reader).expect("clean frame follows").expect("frame");
        prop_assert_eq!(p.epoch, 2);
    }

    /// Checkpoint → restore → checkpoint is the identity on the text, and
    /// the restored learner retrains to the identical model.
    #[test]
    fn checkpoint_round_trip_is_bit_identical(seed in 1u64..500) {
        let mut learner = warm_learner(seed);
        let text = learner.checkpoint();
        let mut back = OnlineLearner::restore(&text).expect("own checkpoint must restore");
        prop_assert_eq!(back.checkpoint(), text);
        // The restored reservoir replays: both learners' next retrain
        // produces byte-identical selector text.
        let a = learner.retrain();
        let b = back.retrain();
        prop_assert_eq!(a.promoted, b.promoted);
        prop_assert_eq!(learner.current().to_text(), back.current().to_text());
    }

    /// Every strict line-prefix of a checkpoint is rejected: a torn write
    /// can never restore as a (different) learner.
    #[test]
    fn checkpoint_truncations_are_rejected(seed in 1u64..500, frac in 0.0f64..1.0) {
        let text = warm_learner(seed).checkpoint();
        let lines: Vec<&str> = text.lines().collect();
        let keep = ((lines.len() - 1) as f64 * frac) as usize; // < lines.len()
        let truncated = lines[..keep].join("\n");
        prop_assert!(
            OnlineLearner::restore(&truncated).is_err(),
            "prefix of {} of {} lines must not restore", keep, lines.len()
        );
    }

    /// An observed subscriber's trace ring records one `FrameRejected`
    /// event — with the matching typed reason — for **every** refused
    /// frame, and the install/refusal counters agree with the outcomes.
    #[test]
    fn trace_ring_captures_every_refusal(seed in 1u64..500) {
        use prosel_core::textio::fnv64;
        use prosel_engine::clock::ManualClock;
        use prosel_obs::{FrameRejectReason, MetricsRegistry, ObsEvent, TraceRing};

        let sel = tiny_selector(seed);
        let good2 = SelectorHub::encode_frame(2, &sel);
        let stale1 = SelectorHub::encode_frame(1, &sel);
        let mut corrupt3 = SelectorHub::encode_frame(3, &sel).into_bytes();
        let body_start = corrupt3
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .unwrap();
        corrupt3[body_start] ^= 0x20;
        let good4 = SelectorHub::encode_frame(4, &sel);
        let junk = "not a selector\n";
        let body = format!("epoch 9\n{junk}");
        let malformed9 = format!(
            "prosel-publication v2\nbytes {} checksum {:016x}\n{body}endpublication\n",
            body.len(),
            fnv64(body.as_bytes()),
        );
        let frame10 = SelectorHub::encode_frame(10, &sel);
        let torn10 = &frame10.as_bytes()[..40];
        let stream = [
            good2.as_bytes(),
            stale1.as_bytes(),
            corrupt3.as_slice(),
            good4.as_bytes(),
            malformed9.as_bytes(),
            torn10,
        ]
        .concat();

        let registry = MetricsRegistry::new();
        let ring = TraceRing::new(16, Arc::new(ManualClock::new(0.0)));
        let mut sub = SelectorSubscriber::new();
        sub.observe(&registry, ring.clone());
        let mut reader = BufReader::new(stream.as_slice());
        let mut installs = 0u64;
        let mut refusals = 0u64;
        for _ in 0..6 {
            match sub.recv_from(&mut reader) {
                Ok(Some(_)) => installs += 1,
                Ok(None) => break,
                Err(_) => refusals += 1,
            }
        }
        prop_assert_eq!(installs, 2);
        prop_assert_eq!(refusals, 4);
        let snap = registry.snapshot();
        prop_assert_eq!(snap.counter("subscriber_installed_total"), Some(installs));
        prop_assert_eq!(snap.counter("subscriber_refused_total"), Some(refusals));
        let reasons: Vec<FrameRejectReason> = ring
            .recent()
            .iter()
            .filter_map(|r| match r.event {
                ObsEvent::FrameRejected { reason } => Some(reason),
                _ => None,
            })
            .collect();
        prop_assert_eq!(reasons.len() as u64, refusals, "one ring event per refusal");
        prop_assert_eq!(reasons[0], FrameRejectReason::StaleEpoch { current: 2, offered: 1 });
        prop_assert!(matches!(reasons[1], FrameRejectReason::ChecksumMismatch { .. }));
        prop_assert_eq!(reasons[2], FrameRejectReason::Malformed);
        prop_assert_eq!(reasons[3], FrameRejectReason::Torn);
    }

    /// A foreign line injected anywhere in a checkpoint is rejected.
    #[test]
    fn checkpoint_garbage_is_rejected(seed in 1u64..500, frac in 0.0f64..1.0) {
        let text = warm_learner(seed).checkpoint();
        let mut lines: Vec<&str> = text.lines().collect();
        let pos = ((lines.len()) as f64 * frac) as usize;
        lines.insert(pos.min(lines.len()), "garbage 0.5 xyz");
        let mut polluted = lines.join("\n");
        polluted.push('\n');
        prop_assert!(
            OnlineLearner::restore(&polluted).is_err(),
            "garbage at line {} must not restore", pos
        );
    }
}

/// A length or count field is read before anything can vouch for it (the
/// frame's checksum comes after its payload; a checkpoint's FNV is not
/// authentication): a size no stream or body could hold is the codec's
/// typed error, never a buffer sized by it. The `usize::MAX` inputs used
/// to panic with "capacity overflow".
#[test]
fn hostile_length_fields_are_refused_not_allocated() {
    use prosel_core::textio::fnv64;
    let sealed = |body: &str| {
        format!("bytes {} checksum {:016x}\n{body}", body.len(), fnv64(body.as_bytes()))
    };

    for n in ["18446744073709551615", "1000000000000"] {
        let frame = format!(
            "prosel-publication v2\nbytes {n} checksum 0000000000000000\n\
             epoch 1\nshort\nendpublication\n"
        );
        let mut sub = SelectorSubscriber::new();
        let out = sub.recv_from(&mut BufReader::new(frame.as_bytes()));
        assert!(matches!(out, Err(SubscribeError::Torn(_))), "bytes {n}: {:?}", out.err());
        assert!(sub.current().is_none());

        // The same count inside the payload of an intact frame reaches the
        // model decoder.
        let sel = tiny_selector(7).to_text();
        let meta = sel.lines().find(|l| l.contains(" trees ")).expect("a model meta line");
        let hostile = sel.replacen(meta, &format!("base 0 shrinkage 0.1 trees {n} features 2"), 1);
        let frame = format!(
            "prosel-publication v2\n{}endpublication\n",
            sealed(&format!("epoch 1\n{hostile}"))
        );
        match sub.recv_from(&mut BufReader::new(frame.as_bytes())) {
            Err(SubscribeError::Malformed(detail)) => {
                assert!(detail.contains(&format!("trees {n}: more than")), "{detail}");
            }
            other => panic!("trees {n}: want Malformed, got {:?}", other.err()),
        }

        let text = warm_learner(7).checkpoint();
        let body = text
            .split_once("\nbytes ")
            .and_then(|(_, rest)| rest.split_once('\n'))
            .and_then(|(_, rest)| rest.strip_suffix("endcheckpoint\n"))
            .expect("envelope");
        for field in ["records", "validation"] {
            let line =
                body.lines().find(|l| l.starts_with(&format!("{field} "))).expect("count line");
            let hostile = body.replacen(line, &format!("{field} {n}"), 1);
            let text = format!("prosel-checkpoint v2\n{}endcheckpoint\n", sealed(&hostile));
            let err = OnlineLearner::restore(&text)
                .err()
                .unwrap_or_else(|| panic!("{field} {n} must not restore"));
            assert!(err.to_string().contains(&format!("{field} {n}: more than")), "{err}");
        }
        let resized = text.replacen(&format!("bytes {}", body.len()), &format!("bytes {n}"), 1);
        let err = OnlineLearner::restore(&resized).err().expect("envelope byte count");
        assert!(err.to_string().contains("truncated"), "{err}");
    }
}
