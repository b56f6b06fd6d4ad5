//! The follower side of the fleet publication protocol.
//!
//! A trainer process owns one [`crate::SelectorHub`]; every monitor
//! process that should serve its models runs a [`SelectorSubscriber`]
//! over whatever byte stream connects them (a pipe, a socket, a tailed
//! file). The hub frames each promotion with
//! [`crate::SelectorHub::publish_to`] in the workspace's one sealed
//! envelope, the epoch inside the checksum:
//!
//! ```text
//! prosel-publication v2
//! bytes <len> checksum <fnv64 hex>
//! epoch <n>
//! <selector text>
//! endpublication
//! ```
//!
//! The subscriber reads frames one at a time through
//! [`prosel_core::textio::read_sealed`] and installs a publication
//! **only** when every integrity gate passes, checked in this order:
//!
//! * the frame is structurally complete — a stream that ends mid-frame or
//!   a header, meta line or terminator that does not match is
//!   [`SubscribeError::Torn`], never a partial install;
//! * the body checksum matches the declared one
//!   ([`SubscribeError::ChecksumMismatch`] otherwise — the frame is
//!   consumed, the stream remains usable);
//! * the epoch advances — an epoch at or below the installed one is
//!   [`SubscribeError::StaleEpoch`] (consumed and skipped: replays and
//!   out-of-order shippers must not roll a follower back);
//! * the body parses as an epoch line and selector text
//!   ([`SubscribeError::Malformed`] otherwise).
//!
//! The serving glue is one line: pass each installed
//! [`Publication::selector`] to
//! [`prosel_monitor::MonitorService::swap_selector`].

use crate::hub::{FRAME_FOOTER, FRAME_HEADER};
use prosel_core::selection::EstimatorSelector;
use prosel_core::textio::{decimal, read_sealed, LineReader, SealError};
use prosel_obs::{Counter, FrameRejectReason, MetricsRegistry, ObsEvent, TraceRing};
use std::io::BufRead;
use std::sync::Arc;

/// Metric handles + ring a subscriber publishes into when observed.
struct SubscriberObs {
    /// `subscriber_installed_total` — frames verified and installed.
    installed: Arc<Counter>,
    /// `subscriber_refused_total` — frames refused for any reason.
    refused: Arc<Counter>,
    /// Receives one [`ObsEvent::FrameRejected`] per refusal.
    ring: TraceRing,
}

/// Restate a [`SubscribeError`] as the obs crate's plain-data reason
/// (the learn crate depends on prosel-obs, never the reverse).
fn reject_reason(e: &SubscribeError) -> FrameRejectReason {
    match e {
        SubscribeError::Io(_) => FrameRejectReason::Io,
        SubscribeError::Torn(_) => FrameRejectReason::Torn,
        SubscribeError::ChecksumMismatch { declared, computed } => {
            FrameRejectReason::ChecksumMismatch { declared: *declared, computed: *computed }
        }
        SubscribeError::StaleEpoch { current, offered } => {
            FrameRejectReason::StaleEpoch { current: *current, offered: *offered }
        }
        SubscribeError::Malformed(_) => FrameRejectReason::Malformed,
    }
}

/// Why a publication frame was refused. Installation happens only on
/// `Ok(Some(_))` — every error leaves the previously installed selector
/// in place.
#[derive(Debug)]
pub enum SubscribeError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The stream ended (or lost sync) mid-frame: a partial or foreign
    /// header, a bad meta line, a body shorter than declared, or a missing
    /// terminator. The stream cannot be trusted past this point.
    Torn(String),
    /// The frame arrived complete but its body does not hash to the
    /// declared checksum.
    ChecksumMismatch {
        /// Checksum declared in the frame header.
        declared: u64,
        /// Checksum computed over the received payload bytes.
        computed: u64,
    },
    /// The frame's epoch does not advance past the installed one (replay
    /// or out-of-order delivery). The frame is skipped, not installed.
    StaleEpoch {
        /// Epoch currently installed in this subscriber.
        current: u64,
        /// Epoch offered by the refused frame.
        offered: u64,
    },
    /// The frame was intact and its checksum held, but the epoch line or
    /// the selector text failed to parse.
    Malformed(String),
}

impl std::fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubscribeError::Io(e) => write!(f, "publication stream i/o error: {e}"),
            SubscribeError::Torn(detail) => write!(f, "torn publication frame: {detail}"),
            SubscribeError::ChecksumMismatch { declared, computed } => write!(
                f,
                "publication checksum mismatch: declared {declared:016x}, computed {computed:016x}"
            ),
            SubscribeError::StaleEpoch { current, offered } => write!(
                f,
                "stale publication: epoch {offered} does not advance past installed epoch {current}"
            ),
            SubscribeError::Malformed(detail) => write!(f, "malformed publication: {detail}"),
        }
    }
}

impl std::error::Error for SubscribeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubscribeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SubscribeError {
    fn from(e: std::io::Error) -> Self {
        SubscribeError::Io(e)
    }
}

impl From<SealError> for SubscribeError {
    fn from(e: SealError) -> Self {
        match e {
            SealError::Io(e) => SubscribeError::Io(e),
            SealError::Torn(detail) => SubscribeError::Torn(detail),
            SealError::ChecksumMismatch { declared, computed } => {
                SubscribeError::ChecksumMismatch { declared, computed }
            }
        }
    }
}

/// One installed publication: the epoch and the decoded selector.
#[derive(Clone)]
pub struct Publication {
    /// Epoch the trainer stamped on this selector.
    pub epoch: u64,
    /// The decoded, checksum-verified selector.
    pub selector: Arc<EstimatorSelector>,
}

/// Decodes publication frames from a byte stream and tracks the highest
/// installed epoch. See the module docs for the rejection rules.
pub struct SelectorSubscriber {
    current: Option<Publication>,
    obs: Option<SubscriberObs>,
}

impl Default for SelectorSubscriber {
    fn default() -> Self {
        Self::new()
    }
}

impl SelectorSubscriber {
    /// A subscriber that has installed nothing yet: the first well-formed
    /// frame at any epoch is accepted (late joiners catch up from the
    /// stream itself).
    pub fn new() -> SelectorSubscriber {
        SelectorSubscriber { current: None, obs: None }
    }

    /// Publish install/refusal counters (`subscriber_installed_total`,
    /// `subscriber_refused_total`) into `registry` and emit one
    /// [`ObsEvent::FrameRejected`] — carrying the typed
    /// [`FrameRejectReason`] — onto `ring` for **every** refused frame,
    /// so the ring is a complete audit trail of why followers skipped
    /// publications.
    pub fn observe(&mut self, registry: &MetricsRegistry, ring: TraceRing) {
        self.obs = Some(SubscriberObs {
            installed: registry.counter("subscriber_installed_total"),
            refused: registry.counter("subscriber_refused_total"),
            ring,
        });
    }

    /// The installed publication, if any.
    pub fn current(&self) -> Option<&Publication> {
        self.current.as_ref()
    }

    /// Decode one frame from `reader`.
    ///
    /// * `Ok(Some(publication))` — verified and installed;
    /// * `Ok(None)` — clean end of stream **at a frame boundary**;
    /// * `Err(_)` — the frame was refused; nothing was installed. After
    ///   [`SubscribeError::ChecksumMismatch`], [`SubscribeError::StaleEpoch`]
    ///   or [`SubscribeError::Malformed`] the offending frame has been
    ///   fully consumed and the next call reads the next frame; after
    ///   [`SubscribeError::Io`] / [`SubscribeError::Torn`] the stream
    ///   position is undefined.
    pub fn recv_from(
        &mut self,
        reader: &mut dyn BufRead,
    ) -> Result<Option<Publication>, SubscribeError> {
        let out = self.recv_inner(reader);
        if let Some(obs) = &self.obs {
            match &out {
                Ok(Some(_)) => obs.installed.inc(),
                Ok(None) => {}
                Err(e) => {
                    obs.refused.inc();
                    obs.ring.emit(ObsEvent::FrameRejected { reason: reject_reason(e) });
                }
            }
        }
        out
    }

    /// The uninstrumented decode path behind [`Self::recv_from`].
    fn recv_inner(
        &mut self,
        reader: &mut dyn BufRead,
    ) -> Result<Option<Publication>, SubscribeError> {
        let Some(body) = read_sealed(reader, FRAME_HEADER, FRAME_FOOTER)? else {
            return Ok(None);
        };
        // The frame is whole and its checksum held: every refusal from
        // here on has consumed it and leaves the stream aligned on the
        // next frame.
        let text = String::from_utf8(body)
            .map_err(|e| SubscribeError::Malformed(format!("body is not utf-8: {e}")))?;
        let mut r = LineReader::new(&text);
        let epoch: u64 = r
            .shape("epoch _")
            .and_then(|[epoch]| decimal("epoch", epoch))
            .map_err(SubscribeError::Malformed)?;
        if let Some(cur) = &self.current {
            if epoch <= cur.epoch {
                return Err(SubscribeError::StaleEpoch { current: cur.epoch, offered: epoch });
            }
        }
        let selector = EstimatorSelector::read(&mut r).and_then(|s| r.finish().map(|()| s));
        let selector = selector.map_err(|e| {
            SubscribeError::Malformed(format!("payload failed selector parse: {e}"))
        })?;
        let publication = Publication { epoch, selector: Arc::new(selector) };
        self.current = Some(publication.clone());
        Ok(Some(publication))
    }
}
