//! The follower side of the fleet publication protocol.
//!
//! A trainer process owns one [`crate::SelectorHub`]; every monitor
//! process that should serve its models runs a [`SelectorSubscriber`]
//! over whatever byte stream connects them (a pipe, a socket, a tailed
//! file). The hub frames each promotion with
//! [`crate::SelectorHub::publish_to`]:
//!
//! ```text
//! prosel-publication v1
//! epoch <n> bytes <len> checksum <fnv64 hex>
//! <exactly len bytes of selector text>
//! endpublication
//! ```
//!
//! and the subscriber decodes frames one at a time, installing a
//! publication **only** when every integrity gate passes:
//!
//! * the frame is structurally complete — a stream that ends mid-frame is
//!   [`SubscribeError::Torn`], never a partial install;
//! * the payload checksum matches the declared one
//!   ([`SubscribeError::ChecksumMismatch`] otherwise — the frame is
//!   consumed, the stream remains usable);
//! * the epoch advances — an epoch at or below the installed one is
//!   [`SubscribeError::StaleEpoch`] (consumed and skipped: replays and
//!   out-of-order shippers must not roll a follower back);
//! * the payload parses as selector text
//!   ([`SubscribeError::Malformed`] otherwise).
//!
//! The serving glue is one line: pass each installed
//! [`Publication::selector`] to
//! [`prosel_monitor::MonitorService::swap_selector`].

use prosel_core::selection::EstimatorSelector;
use prosel_core::textio::fnv64;
use prosel_obs::{Counter, FrameRejectReason, MetricsRegistry, ObsEvent, TraceRing};
use std::io::{BufRead, Read};
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
    /// The stream ended (or lost sync) mid-frame: a partial header, a
    /// payload shorter than declared, or a missing terminator. The stream
    /// cannot be trusted past this point.
    Torn(String),
    /// The payload arrived complete but its bytes do not hash to the
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
    /// The frame structure was intact but a field or the payload itself
    /// failed to parse.
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

    /// A subscriber that already serves `selector` at `epoch` (e.g.
    /// restored from a checkpoint): only frames advancing past `epoch`
    /// install.
    pub fn resume_at(epoch: u64, selector: Arc<EstimatorSelector>) -> SelectorSubscriber {
        SelectorSubscriber { current: Some(Publication { epoch, selector }), obs: None }
    }

    /// The installed publication, if any.
    pub fn current(&self) -> Option<&Publication> {
        self.current.as_ref()
    }

    /// The installed epoch, if any.
    pub fn epoch(&self) -> Option<u64> {
        self.current.as_ref().map(|p| p.epoch)
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
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Ok(None);
        }
        if header.trim_end() != "prosel-publication v1" {
            return Err(SubscribeError::Torn(format!(
                "expected header \"prosel-publication v1\", got {:?}",
                header.trim_end()
            )));
        }
        let mut meta = String::new();
        if reader.read_line(&mut meta)? == 0 || !meta.ends_with('\n') {
            return Err(SubscribeError::Torn("stream ended inside the frame header".into()));
        }
        let parts: Vec<&str> = meta.split_whitespace().collect();
        if parts.len() != 6 || parts[0] != "epoch" || parts[2] != "bytes" || parts[4] != "checksum"
        {
            return Err(SubscribeError::Malformed(format!(
                "bad meta line (want `epoch <n> bytes <len> checksum <hex>`): {:?}",
                meta.trim_end()
            )));
        }
        let epoch: u64 = parts[1]
            .parse()
            .map_err(|e| SubscribeError::Malformed(format!("epoch {:?}: {e}", parts[1])))?;
        let bytes: usize = parts[3]
            .parse()
            .map_err(|e| SubscribeError::Malformed(format!("bytes {:?}: {e}", parts[3])))?;
        let declared = u64::from_str_radix(parts[5], 16)
            .map_err(|e| SubscribeError::Malformed(format!("checksum {:?}: {e}", parts[5])))?;
        // Read at most the declared length, into a buffer that grows with
        // what actually arrives — never sized by the header's word.
        let mut payload = Vec::new();
        (&mut *reader).take(bytes as u64).read_to_end(&mut payload)?;
        if payload.len() != bytes {
            return Err(SubscribeError::Torn(format!(
                "payload truncated: declared {bytes} bytes, stream held {}",
                payload.len()
            )));
        }
        let mut terminator = String::new();
        if reader.read_line(&mut terminator)? == 0 {
            return Err(SubscribeError::Torn("stream ended before the frame terminator".into()));
        }
        if terminator.trim_end() != "endpublication" {
            return Err(SubscribeError::Torn(format!(
                "expected \"endpublication\" after {bytes} payload bytes, got {:?} — \
                 the declared length and the payload disagree",
                terminator.trim_end()
            )));
        }
        // The frame is structurally complete from here on: every further
        // refusal consumes it and leaves the stream aligned on the next
        // frame.
        let computed = fnv64(&payload);
        if computed != declared {
            return Err(SubscribeError::ChecksumMismatch { declared, computed });
        }
        if let Some(cur) = &self.current {
            if epoch <= cur.epoch {
                return Err(SubscribeError::StaleEpoch { current: cur.epoch, offered: epoch });
            }
        }
        let text = std::str::from_utf8(&payload)
            .map_err(|e| SubscribeError::Malformed(format!("payload is not utf-8: {e}")))?;
        let selector = EstimatorSelector::from_text(text).map_err(|e| {
            SubscribeError::Malformed(format!("payload failed selector parse: {e}"))
        })?;
        let publication = Publication { epoch, selector: Arc::new(selector) };
        self.current = Some(publication.clone());
        Ok(Some(publication))
    }

    /// Drain every frame currently available on `reader`, returning the
    /// last installed publication (if any frame installed). Skippable
    /// refusals (stale, checksum, malformed) are counted and skipped;
    /// torn/i/o errors abort the drain.
    pub fn catch_up(
        &mut self,
        reader: &mut dyn BufRead,
    ) -> Result<(Option<Publication>, usize), SubscribeError> {
        let mut installed = None;
        let mut skipped = 0usize;
        loop {
            match self.recv_from(reader) {
                Ok(Some(p)) => installed = Some(p),
                Ok(None) => return Ok((installed, skipped)),
                Err(SubscribeError::StaleEpoch { .. })
                | Err(SubscribeError::ChecksumMismatch { .. })
                | Err(SubscribeError::Malformed(_)) => skipped += 1,
                Err(fatal) => return Err(fatal),
            }
        }
    }
}
