//! The versioned selector slot: one atomic place where the trainer
//! publishes and consumers subscribe.
//!
//! [`SelectorHub`] is the epoch authority of the learning loop: the
//! trainer publishes promoted models here, and deployment glue forwards
//! each publication into the serving side
//! ([`prosel_monitor::MonitorService::swap_selector`] /
//! [`prosel_monitor::ProgressMonitor::swap_selector`]), which applies the
//! same registration-time-capture semantics per query. Out-of-band
//! consumers — a persistence job shipping
//! [`EstimatorSelector::to_text`] blobs, a second service joining late —
//! read [`SelectorHub::current`] to catch up to the latest epoch without
//! replaying the harvest stream.
//!
//! For followers that do **not** share the trainer's address space, the
//! hub speaks the fleet publication protocol: [`SelectorHub::publish_to`]
//! writes the current epoch and selector text as one sealed frame
//! ([`prosel_core::textio::seal`], the envelope every persisted artifact
//! uses) onto any [`std::io::Write`] (a pipe, a socket, an append-only
//! file), and the [`crate::subscriber::SelectorSubscriber`] on the other
//! end verifies and installs it — rejecting torn, corrupted or stale
//! frames with typed errors. See [`crate::subscriber`] for the rejection
//! rules.

use prosel_core::selection::EstimatorSelector;
use prosel_core::textio::seal;
use std::sync::{Arc, RwLock};

/// First and last line of a publication frame.
pub(crate) const FRAME_HEADER: &str = "prosel-publication v2";
pub(crate) const FRAME_FOOTER: &str = "endpublication";

/// A reference-counted, epoch-versioned selector slot. Cloning the hub's
/// `Arc` wrapper is the intended sharing pattern; reads are lock-held only
/// long enough to clone an `Arc`.
pub struct SelectorHub {
    inner: RwLock<(u64, Arc<EstimatorSelector>)>,
}

impl SelectorHub {
    /// A hub holding `initial` at epoch 0 (matching a monitor that has
    /// never seen a swap).
    pub fn new(initial: Arc<EstimatorSelector>) -> SelectorHub {
        SelectorHub { inner: RwLock::new((0, initial)) }
    }

    /// The latest `(epoch, selector)` pair.
    pub fn current(&self) -> (u64, Arc<EstimatorSelector>) {
        let guard = self.inner.read().expect("hub poisoned");
        (guard.0, Arc::clone(&guard.1))
    }

    /// The latest selector alone.
    pub fn selector(&self) -> Arc<EstimatorSelector> {
        self.current().1
    }

    /// The latest epoch alone.
    pub fn epoch(&self) -> u64 {
        self.inner.read().expect("hub poisoned").0
    }

    /// Publish a new selector; returns its epoch (previous + 1).
    pub fn publish(&self, selector: Arc<EstimatorSelector>) -> u64 {
        let mut guard = self.inner.write().expect("hub poisoned");
        guard.0 += 1;
        guard.1 = selector;
        guard.0
    }

    /// Encode one publication frame: an `epoch <n>` line and the selector
    /// text, sealed together (grammar in [`crate::subscriber`]). The
    /// checksum covers the epoch too, so a corrupted epoch can neither
    /// install a model under the wrong epoch nor make a follower refuse
    /// the frames after it as stale.
    pub fn encode_frame(epoch: u64, selector: &EstimatorSelector) -> String {
        seal(FRAME_HEADER, &format!("epoch {epoch}\n{}", selector.to_text()), FRAME_FOOTER)
    }

    /// Frame the hub's current `(epoch, selector)` onto a byte stream.
    ///
    /// One call writes one complete frame; a trainer loop calls this after
    /// every promotion and N subscribers replay the stream in order. The
    /// snapshot of `(epoch, selector)` is taken atomically, so a publish
    /// racing this call yields either the old frame or the new one, never
    /// a blend.
    pub fn publish_to(&self, sink: &mut dyn std::io::Write) -> std::io::Result<u64> {
        let (epoch, selector) = self.current();
        sink.write_all(Self::encode_frame(epoch, &selector).as_bytes())?;
        sink.flush()?;
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosel_core::pipeline_runs::PipelineRecord;
    use prosel_core::selection::SelectorConfig;
    use prosel_core::training::TrainingSet;
    use prosel_estimators::EstimatorKind;
    use prosel_mart::BoostParams;

    fn tiny_selector() -> EstimatorSelector {
        let dims = prosel_core::features::FeatureSchema::get().len();
        let records: Vec<PipelineRecord> = (0..20)
            .map(|i| PipelineRecord {
                workload: "t".into(),
                query_idx: i,
                pipeline_id: 0,
                features: vec![(i % 3) as f32; dims],
                errors_l1: vec![0.2; 8],
                errors_l2: vec![0.2; 8],
                total_getnext: 5,
                weight: 1.0,
                n_obs: 8,
                fingerprint: "scan|t".into(),
                oracle_l1: [0.0; 2],
                oracle_l2: [0.0; 2],
            })
            .collect();
        let cfg = SelectorConfig {
            candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn],
            boost: BoostParams { iterations: 3, ..BoostParams::fast() },
            ..SelectorConfig::default()
        };
        EstimatorSelector::train(&TrainingSet::from_records(&records), &cfg)
    }

    #[test]
    fn epochs_advance_and_readers_see_the_latest() {
        let a = Arc::new(tiny_selector());
        let hub = SelectorHub::new(Arc::clone(&a));
        assert_eq!(hub.epoch(), 0);
        assert!(Arc::ptr_eq(&hub.selector(), &a));
        let b = Arc::new(tiny_selector());
        assert_eq!(hub.publish(Arc::clone(&b)), 1);
        let (epoch, current) = hub.current();
        assert_eq!(epoch, 1);
        assert!(Arc::ptr_eq(&current, &b));
        assert_eq!(hub.publish(a), 2);
    }

    #[test]
    fn concurrent_publishes_serialize() {
        let hub = Arc::new(SelectorHub::new(Arc::new(tiny_selector())));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let hub = Arc::clone(&hub);
                scope.spawn(move || {
                    for _ in 0..25 {
                        hub.publish(hub.selector());
                    }
                });
            }
        });
        assert_eq!(hub.epoch(), 100);
    }
}
