//! Checkpointable shard state: the [`HarvestState`] snapshot and its
//! strict text codec.
//!
//! A monitor process that feeds an online-learning loop carries two
//! pieces of state worth surviving a restart: the **selector epoch** (so
//! post-restart swaps keep the epoch monotone and the learner's
//! stale-publication guard keeps working) and the **monotone operation
//! counters** (so fleet dashboards and the conservation-law checks do not
//! reset to zero mid-run). [`HarvestState`] captures exactly those, one
//! per shard; [`crate::MonitorBuilder::restore`] re-seats them into a
//! freshly built monitor or service.
//!
//! The codec is sealed and parsed through [`prosel_core::textio`], the
//! envelope and line grammar every persisted artifact shares: a versioned
//! header, a byte count and an FNV-1a 64 checksum over the body, named
//! positional fields, and an explicit terminator. Truncation, bit rot,
//! trailing garbage and field drift are all rejected with a typed error
//! — a restore either resumes the exact checkpointed state or refuses.

use crate::stats::ShardStats;
use prosel_core::textio::{decimal, open, seal, LineReader};
use std::fmt;

/// One shard's checkpointable harvest state: the selector epoch plus the
/// monotone [`ShardStats`] counters. Produced by
/// [`ProgressMonitor::harvest_state`](crate::ProgressMonitor::harvest_state)
/// and [`MonitorService::harvest_states`](crate::MonitorService::harvest_states);
/// consumed by [`crate::MonitorBuilder::restore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HarvestState {
    /// Selector epoch at checkpoint time (0 until the first swap).
    pub epoch: u64,
    /// Monotone operation counters. `registered` reflects the live query
    /// map at checkpoint time and is informational only — restore carries
    /// the monotone counters, never phantom registrations.
    pub stats: ShardStats,
}

/// Rejection from [`HarvestState::from_text`]: the artifact was
/// truncated, corrupted, version-drifted, or carried trailing garbage.
#[derive(Debug)]
pub struct StateError(pub String);

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "harvest state rejected: {}", self.0)
    }
}

impl std::error::Error for StateError {}

impl From<String> for StateError {
    fn from(msg: String) -> Self {
        StateError(msg)
    }
}

const HEADER: &str = "prosel-harvest-state v1";
const FOOTER: &str = "endharveststate";

impl HarvestState {
    /// Serialize as a versioned, checksummed text artifact (the exact
    /// inverse of [`Self::from_text`]).
    pub fn to_text(&self) -> String {
        let s = &self.stats;
        let body = format!(
            "epoch {}\nregistered {} admitted {} refused {} events_ingested {} \
             events_unroutable {} queries_dropped {} queries_finished {} harvests {} \
             events_rejected {}\n",
            self.epoch,
            s.registered,
            s.admitted,
            s.refused,
            s.events_ingested,
            s.events_unroutable,
            s.queries_dropped,
            s.queries_finished,
            s.harvests,
            s.events_rejected,
        );
        seal(HEADER, &body, FOOTER)
    }

    /// Parse [`Self::to_text`] output. Strict: the byte count and
    /// checksum must match, every field must be present under its
    /// declared name and position, and nothing may follow the terminator.
    pub fn from_text(text: &str) -> Result<HarvestState, StateError> {
        let body = open(text, HEADER, FOOTER)?;
        let mut r = LineReader::new(body);
        let epoch = decimal("epoch", r.fields(&["epoch"])?[0])?;
        let f = r.fields(&[
            "registered",
            "admitted",
            "refused",
            "events_ingested",
            "events_unroutable",
            "queries_dropped",
            "queries_finished",
            "harvests",
            "events_rejected",
        ])?;
        let stats = ShardStats {
            registered: decimal("registered", f[0])?,
            admitted: decimal("admitted", f[1])?,
            refused: decimal("refused", f[2])?,
            events_ingested: decimal("events_ingested", f[3])?,
            events_unroutable: decimal("events_unroutable", f[4])?,
            queries_dropped: decimal("queries_dropped", f[5])?,
            queries_finished: decimal("queries_finished", f[6])?,
            harvests: decimal("harvests", f[7])?,
            events_rejected: decimal("events_rejected", f[8])?,
        };
        r.finish()?;
        Ok(HarvestState { epoch, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HarvestState {
        HarvestState {
            epoch: 7,
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
        }
    }

    #[test]
    fn round_trips_bit_identically() {
        let s = sample();
        let text = s.to_text();
        let back = HarvestState::from_text(&text).expect("round trip");
        assert_eq!(back, s);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn default_round_trips() {
        let s = HarvestState::default();
        assert_eq!(HarvestState::from_text(&s.to_text()).unwrap(), s);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let text = sample().to_text();
        for cut in 0..text.len() {
            assert!(
                HarvestState::from_text(&text[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn bit_flips_in_the_body_are_rejected() {
        let text = sample().to_text();
        // Corrupt a digit in the body (after the checksum line).
        let idx = text.find("events_ingested 1234").unwrap() + "events_ingested ".len();
        let mut corrupt = text.clone();
        corrupt.replace_range(idx..idx + 1, "9");
        let err = HarvestState::from_text(&corrupt).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn trailing_garbage_and_version_drift_are_rejected() {
        let s = sample();
        let mut text = s.to_text();
        text.push_str("extra\n");
        assert!(HarvestState::from_text(&text).is_err());
        let drifted = s.to_text().replace("v1", "v2");
        assert!(HarvestState::from_text(&drifted).is_err());
    }
}
