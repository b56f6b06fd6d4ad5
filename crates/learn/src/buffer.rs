//! The bounded, deterministic training buffer between harvest and
//! retraining.
//!
//! A production monitor harvests far more records than any trainer wants
//! to refit on, and the traffic is skewed: one hot workload can produce
//! thousands of records for every one that a rare plan shape yields.
//! Plain FIFO or plain reservoir sampling would both let the hot group
//! wash the rare ones out — and the selector would forget exactly the
//! pipelines it most needs revision on (the "Impacts of Bad ESP" failure
//! mode: estimators drift where feedback is thin).
//!
//! [`TrainingBuffer`] therefore combines
//!
//! * a **seeded reservoir** over the whole stream — every offered record
//!   has a chance to displace a retained one, so the buffer tracks the
//!   traffic distribution without growing; with
//! * **per-group floors** ([`BufferConfig::group_quota`], keyed by the
//!   record's workload label): a reservoir eviction is refused when it
//!   would shrink a group that holds at most its quota, so heavy traffic
//!   can never evict the last examples of a rare group.
//!
//! The group is always the workload label ([`PipelineRecord::workload`],
//! the harvest label a tenant or workload class is served under). No
//! caller ever grouped by anything else, so the key is fixed, not a
//! setting: grouping by plan fingerprint would need a caller and an
//! experiment that shows what it buys first.
//!
//! Everything is a pure function of the insertion sequence and the seed:
//! the reservoir draws come from one seeded generator consumed in
//! insertion order, and tie-breaks iterate groups in `BTreeMap` order —
//! replaying the same harvest stream reproduces the buffer bit for bit.
//! That purity is also what makes the fleet layer's checkpoint/restore
//! exact: the buffer serializes its retained records, its offer counter
//! and its **draw counter**, and a restore re-seeds the generator and
//! fast-forwards it by that many draws — the restored buffer is
//! indistinguishable from one that never stopped.
//!
//! For drifting workloads a [`DecayPolicy`] ages records out: a record
//! expires once more than `max_age` records have been offered since it
//! was admitted. Age is measured in *offers*, not wall time, so decayed
//! replays stay deterministic; expiry applies to quota-protected groups
//! too — a rare group's floor protects it from *eviction pressure*, not
//! from its own staleness.

use prosel_core::pipeline_runs::PipelineRecord;
use prosel_core::training::TrainingSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// How retained records age out of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecayPolicy {
    /// Records live until the reservoir evicts them (the pre-fleet
    /// behavior): the buffer converges on the *lifetime* traffic mix.
    #[default]
    None,
    /// A record expires once more than `max_age` records have been
    /// offered since it was admitted (or last refreshed by replacement).
    /// The buffer then tracks a trailing window of roughly `max_age`
    /// offers, so after a workload shift the old distribution drains out
    /// instead of anchoring the selector forever.
    MaxAge {
        /// Age bound, in offered records. Must be ≥ the capacity to be
        /// useful (a bound below the capacity keeps the buffer
        /// perpetually short).
        max_age: u64,
    },
}

/// Buffer configuration.
#[derive(Debug, Clone)]
pub struct BufferConfig {
    /// Hard bound on retained records.
    pub capacity: usize,
    /// Guaranteed floor per group: evictions never shrink a group holding
    /// at most this many records (groups that never grow past the quota
    /// are effectively pinned). The floors are only simultaneously
    /// satisfiable while `quota × live groups ≤ capacity`; past that
    /// point admission of a new under-quota record falls back to
    /// shrinking the largest group (the floors are mutually
    /// contradictory then) — size the capacity for the group cardinality
    /// you expect.
    pub group_quota: usize,
    /// Seed of the reservoir's random stream.
    pub seed: u64,
    /// Aging policy for retained records (see [`DecayPolicy`]).
    pub decay: DecayPolicy,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig { capacity: 4096, group_quota: 64, seed: 0x1EA2, decay: DecayPolicy::None }
    }
}

/// Bounded deterministic training buffer. See the module docs for the
/// eviction policy.
#[derive(Debug)]
pub struct TrainingBuffer {
    config: BufferConfig,
    items: Vec<PipelineRecord>,
    /// Admission stamp per retained record (the value of `seen` when the
    /// record entered or last replaced a slot), parallel to `items`.
    /// Drives [`DecayPolicy::MaxAge`] expiry.
    stamps: Vec<u64>,
    /// Live record count per group (groups never seen are absent; groups
    /// evicted to zero keep their entry so the bookkeeping stays simple).
    counts: BTreeMap<String, usize>,
    /// Records offered so far (the reservoir's denominator).
    seen: u64,
    /// Random values drawn so far — with the seed, the generator's whole
    /// state. A checkpoint stores this count; restore re-seeds and
    /// discards this many draws to land on the identical stream position.
    draws: u64,
    /// Smallest stamp possibly still retained (may lag behind after
    /// replacements; only used to skip no-op expiry sweeps).
    oldest_stamp: u64,
    /// Records expired by [`DecayPolicy::MaxAge`] over the buffer's
    /// lifetime (reservoir replacements are not counted here).
    evicted: u64,
    rng: StdRng,
}

impl TrainingBuffer {
    pub fn new(config: BufferConfig) -> TrainingBuffer {
        assert!(config.capacity > 0, "a zero-capacity buffer cannot learn");
        let rng = StdRng::seed_from_u64(config.seed);
        TrainingBuffer {
            config,
            items: Vec::new(),
            stamps: Vec::new(),
            counts: BTreeMap::new(),
            seen: 0,
            draws: 0,
            oldest_stamp: u64::MAX,
            evicted: 0,
            rng,
        }
    }

    /// One counted draw from the reservoir stream. Every consumption of
    /// the generator must route through here or checkpoint fast-forward
    /// would desynchronize.
    fn draw(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }

    /// Expire records older than the decay bound. O(1) when nothing can
    /// have expired; a full compacting sweep otherwise.
    fn expire(&mut self) {
        let DecayPolicy::MaxAge { max_age } = self.config.decay else {
            return;
        };
        if self.items.is_empty() || self.seen.saturating_sub(self.oldest_stamp) <= max_age {
            return;
        }
        let mut oldest = u64::MAX;
        let mut write = 0;
        for read in 0..self.items.len() {
            if self.seen - self.stamps[read] > max_age {
                let group = &self.items[read].workload;
                *self.counts.get_mut(group).expect("retained record has a count") -= 1;
                self.evicted += 1;
                continue;
            }
            oldest = oldest.min(self.stamps[read]);
            if write != read {
                self.items.swap(write, read);
                self.stamps.swap(write, read);
            }
            write += 1;
        }
        self.items.truncate(write);
        self.stamps.truncate(write);
        self.oldest_stamp = oldest;
    }

    /// Offer one record; returns whether it was retained. Deterministic
    /// given the seed and the insertion sequence.
    pub fn insert(&mut self, rec: PipelineRecord) -> bool {
        self.seen += 1;
        self.expire();
        let group = rec.workload.clone();
        if self.items.len() < self.config.capacity {
            *self.counts.entry(group).or_insert(0) += 1;
            self.oldest_stamp = self.oldest_stamp.min(self.seen);
            self.items.push(rec);
            self.stamps.push(self.seen);
            return true;
        }
        let incoming = self.counts.get(&group).copied().unwrap_or(0);
        if incoming < self.config.group_quota {
            // The incoming record's group is under its floor: admit it
            // unconditionally by evicting a random member of the largest
            // group **above its own floor** (ties broken towards the
            // lexicographically smallest name for determinism) — so one
            // protected group can never be shrunk to admit another. Only
            // in the pathological config where quota × live-groups
            // exceeds the capacity (every group at/below its floor) does
            // the eviction fall back to the largest group overall; the
            // floors are mutually unsatisfiable then, and admitting the
            // newest rare record is the lesser harm. If the fallback
            // victim is the incoming group itself the swap keeps counts
            // unchanged.
            let largest_above_quota = |quota: usize| {
                self.counts
                    .iter()
                    .filter(|&(_, &c)| c > quota)
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                    .map(|(g, _)| g.clone())
            };
            let victim_group = largest_above_quota(self.config.group_quota)
                .or_else(|| largest_above_quota(0))
                .expect("full buffer has at least one group");
            let members = self.counts[&victim_group];
            let pick = (self.draw() % members as u64) as usize;
            let idx = self
                .items
                .iter()
                .enumerate()
                .filter(|(_, r)| r.workload == victim_group)
                .nth(pick)
                .map(|(i, _)| i)
                .expect("group count matches membership");
            *self.counts.get_mut(&victim_group).expect("victim group exists") -= 1;
            *self.counts.entry(group).or_insert(0) += 1;
            self.items[idx] = rec;
            self.stamps[idx] = self.seen;
            return true;
        }
        // Classic reservoir step over the whole stream. The denominator
        // stays `seen` (lifetime offers) even under decay: expiry already
        // biases the contents towards the trailing window, and a lifetime
        // denominator keeps replay bit-compatible with the no-decay twin
        // until the first expiry.
        let j = (self.draw() % self.seen) as usize;
        if j >= self.items.len() {
            return false;
        }
        let victim_group = self.items[j].workload.clone();
        if victim_group != group && self.counts[&victim_group] <= self.config.group_quota {
            // Replacing would shrink a group at (or below) its floor:
            // the rare group wins, the incoming record is dropped.
            return false;
        }
        *self.counts.get_mut(&victim_group).expect("victim group exists") -= 1;
        *self.counts.entry(group).or_insert(0) += 1;
        self.items[j] = rec;
        self.stamps[j] = self.seen;
        true
    }

    /// Retained records (insertion/replacement order; not meaningful as a
    /// time series).
    pub fn records(&self) -> &[PipelineRecord] {
        &self.items
    }

    /// The retained records as a [`TrainingSet`].
    pub fn training_set(&self) -> TrainingSet {
        TrainingSet { records: self.items.clone() }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Records offered over the buffer's lifetime (retained or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Live record count of one group (0 for groups never seen).
    pub fn group_count(&self, group: &str) -> usize {
        self.counts.get(group).copied().unwrap_or(0)
    }

    /// The buffer's configuration.
    pub fn config(&self) -> &BufferConfig {
        &self.config
    }

    /// Admission stamps parallel to [`records`](Self::records): the value
    /// of [`seen`](Self::seen) when each retained record entered (or last
    /// refreshed) its slot. Exposed for decay introspection and for the
    /// checkpoint codec's bit-identity guarantees.
    pub fn stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// Random values drawn from the reservoir stream so far. Serialized
    /// by checkpoints; restore fast-forwards a re-seeded generator by this
    /// count.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Records aged out by [`DecayPolicy::MaxAge`] over this buffer
    /// instance's lifetime. Not serialized by checkpoints — a restored
    /// buffer restarts the count at zero (it feeds a monitoring gauge,
    /// not the replay state).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Rebuild a buffer from checkpointed parts: retained records with
    /// their stamps, the lifetime offer counter, and the draw counter.
    ///
    /// Group counts are recomputed from the records and the generator is
    /// re-seeded from `config.seed` and fast-forwarded by `draws`, so the
    /// result is bit-identical to the buffer that was checkpointed — the
    /// next insert consumes the same random value it would have.
    pub fn from_parts(
        config: BufferConfig,
        records: Vec<PipelineRecord>,
        stamps: Vec<u64>,
        seen: u64,
        draws: u64,
    ) -> Result<TrainingBuffer, String> {
        if config.capacity == 0 {
            return Err("a zero-capacity buffer cannot learn".into());
        }
        if records.len() != stamps.len() {
            return Err(format!(
                "{} records but {} stamps — the checkpoint is inconsistent",
                records.len(),
                stamps.len()
            ));
        }
        if records.len() > config.capacity {
            return Err(format!(
                "{} records exceed the configured capacity {}",
                records.len(),
                config.capacity
            ));
        }
        if stamps.iter().any(|&s| s == 0 || s > seen) {
            return Err(format!("stamps must lie in 1..=seen ({seen})"));
        }
        let mut buf = TrainingBuffer::new(config);
        for rec in &records {
            *buf.counts.entry(rec.workload.clone()).or_insert(0) += 1;
        }
        buf.oldest_stamp = stamps.iter().copied().min().unwrap_or(u64::MAX);
        buf.items = records;
        buf.stamps = stamps;
        buf.seen = seen;
        for _ in 0..draws {
            buf.draw();
        }
        debug_assert_eq!(buf.draws, draws);
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosel_core::features::FeatureSchema;

    fn rec(workload: &str, fingerprint: &str, i: usize) -> PipelineRecord {
        let dims = FeatureSchema::get().len();
        PipelineRecord {
            workload: workload.into(),
            query_idx: i,
            pipeline_id: 0,
            features: vec![i as f32; dims],
            errors_l1: vec![0.1; 8],
            errors_l2: vec![0.1; 8],
            total_getnext: 10,
            weight: 1.0,
            n_obs: 10,
            fingerprint: fingerprint.into(),
            oracle_l1: [0.0; 2],
            oracle_l2: [0.0; 2],
        }
    }

    fn cfg(capacity: usize, quota: usize) -> BufferConfig {
        BufferConfig { capacity, group_quota: quota, seed: 7, decay: DecayPolicy::None }
    }

    #[test]
    fn capacity_is_a_hard_bound() {
        let mut buf = TrainingBuffer::new(cfg(32, 4));
        for i in 0..500 {
            buf.insert(rec("hot", "scan|t", i));
            assert!(buf.len() <= 32);
        }
        assert_eq!(buf.len(), 32);
        assert_eq!(buf.seen(), 500);
    }

    #[test]
    fn heavy_traffic_cannot_evict_a_rare_group() {
        let mut buf = TrainingBuffer::new(cfg(64, 8));
        // Seed the rare group with 5 records (below the quota of 8).
        for i in 0..5 {
            buf.insert(rec("rare", "seek|s", i));
        }
        // Flood with three orders of magnitude more hot traffic.
        for i in 0..5000 {
            buf.insert(rec("hot", "scan|t", i));
        }
        assert_eq!(buf.group_count("rare"), 5, "rare group must keep its floor");
        assert_eq!(buf.len(), 64);
        assert_eq!(buf.group_count("hot"), 59);
    }

    #[test]
    fn a_late_rare_group_still_gets_admitted() {
        let mut buf = TrainingBuffer::new(cfg(32, 4));
        for i in 0..1000 {
            buf.insert(rec("hot", "scan|t", i));
        }
        // Buffer is full of hot records; a new group must still enter.
        for i in 0..3 {
            assert!(buf.insert(rec("late", "sort|u", i)), "under-quota insert is unconditional");
        }
        assert_eq!(buf.group_count("late"), 3);
        assert_eq!(buf.len(), 32);
    }

    #[test]
    fn under_quota_admission_spares_other_protected_groups() {
        // Buffer full with one huge group and one small protected group;
        // admitting records of a third group must always evict from the
        // huge (above-quota) group, never from the protected one.
        let mut buf = TrainingBuffer::new(cfg(48, 8));
        for i in 0..6 {
            buf.insert(rec("small", "seek|s", i));
        }
        for i in 0..500 {
            buf.insert(rec("huge", "scan|t", i));
        }
        assert_eq!(buf.group_count("small"), 6);
        for i in 0..8 {
            assert!(buf.insert(rec("third", "sort|u", i)));
            assert_eq!(buf.group_count("small"), 6, "protected group must not fund admission");
        }
        assert_eq!(buf.group_count("third"), 8);
        assert_eq!(buf.len(), 48);
    }

    #[test]
    fn deterministic_replay() {
        let stream: Vec<PipelineRecord> =
            (0..800).map(|i| rec(if i % 17 == 0 { "rare" } else { "hot" }, "scan|t", i)).collect();
        let run = |seed: u64| {
            let mut buf = TrainingBuffer::new(BufferConfig { seed, ..cfg(48, 6) });
            for r in &stream {
                buf.insert(r.clone());
            }
            buf.records().iter().map(|r| (r.workload.clone(), r.query_idx)).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3), "same seed, same stream => same buffer");
        assert_ne!(run(3), run(4), "the reservoir really is random across seeds");
    }

    #[test]
    fn zero_capacity_is_refused() {
        let result = std::panic::catch_unwind(|| TrainingBuffer::new(cfg(0, 1)));
        assert!(result.is_err());
    }

    #[test]
    fn max_age_decay_drains_a_stale_workload() {
        let mut buf = TrainingBuffer::new(BufferConfig {
            decay: DecayPolicy::MaxAge { max_age: 200 },
            ..cfg(64, 4)
        });
        for i in 0..100 {
            buf.insert(rec("old", "scan|t", i));
        }
        assert_eq!(buf.group_count("old"), 64);
        // The workload shifts; after > max_age further offers every "old"
        // record has aged out, quota floor or not.
        for i in 0..400 {
            buf.insert(rec("new", "seek|s", i));
        }
        assert_eq!(buf.group_count("old"), 0, "stale records must age out");
        assert!(buf.group_count("new") > 0);
        assert!(buf.len() <= 64);
        assert!(buf.evicted() > 0, "aged-out records are counted");
        // The no-decay twin keeps the old group pinned forever.
        let mut pinned = TrainingBuffer::new(cfg(64, 4));
        for i in 0..100 {
            pinned.insert(rec("old", "scan|t", i));
        }
        for i in 0..400 {
            pinned.insert(rec("new", "seek|s", i));
        }
        assert!(pinned.group_count("old") >= 4, "without decay the floor pins stale records");
    }

    #[test]
    fn decay_replay_is_deterministic_and_stamps_track_refreshes() {
        let stream: Vec<PipelineRecord> =
            (0..600).map(|i| rec(if i < 300 { "a" } else { "b" }, "scan|t", i)).collect();
        let run = || {
            let mut buf = TrainingBuffer::new(BufferConfig {
                decay: DecayPolicy::MaxAge { max_age: 150 },
                ..cfg(32, 4)
            });
            for r in &stream {
                buf.insert(r.clone());
            }
            (
                buf.records().iter().map(|r| (r.workload.clone(), r.query_idx)).collect::<Vec<_>>(),
                buf.stamps().to_vec(),
                buf.draws(),
            )
        };
        assert_eq!(run(), run(), "decayed replay must be bit-deterministic");
        let (_, stamps, _) = run();
        assert!(stamps.iter().all(|&s| 600 - s <= 150), "every survivor is within the age bound");
    }

    #[test]
    fn from_parts_resumes_the_reservoir_bit_identically() {
        let stream: Vec<PipelineRecord> =
            (0..900).map(|i| rec(if i % 13 == 0 { "rare" } else { "hot" }, "scan|t", i)).collect();
        let (head, tail) = stream.split_at(500);
        let mut live = TrainingBuffer::new(cfg(48, 6));
        for r in head {
            live.insert(r.clone());
        }
        // Capture the mid-stream state, rebuild, and replay the tail on
        // both; the restored buffer must shadow the live one exactly.
        let mut restored = TrainingBuffer::from_parts(
            live.config().clone(),
            live.records().to_vec(),
            live.stamps().to_vec(),
            live.seen(),
            live.draws(),
        )
        .expect("valid parts");
        for r in tail {
            live.insert(r.clone());
            restored.insert(r.clone());
        }
        let shape = |b: &TrainingBuffer| {
            (
                b.records().iter().map(|r| (r.workload.clone(), r.query_idx)).collect::<Vec<_>>(),
                b.stamps().to_vec(),
                b.seen(),
                b.draws(),
            )
        };
        assert_eq!(shape(&live), shape(&restored));
    }

    #[test]
    fn from_parts_rejects_inconsistent_checkpoints() {
        let records = vec![rec("w", "scan|t", 0)];
        assert!(TrainingBuffer::from_parts(cfg(8, 1), records.clone(), vec![], 1, 0).is_err());
        assert!(TrainingBuffer::from_parts(cfg(8, 1), records.clone(), vec![5], 3, 0).is_err());
        assert!(TrainingBuffer::from_parts(cfg(8, 1), records.clone(), vec![0], 3, 0).is_err());
        assert!(TrainingBuffer::from_parts(cfg(0, 1), records.clone(), vec![1], 3, 0).is_err());
        let many = vec![rec("w", "scan|t", 0), rec("w", "scan|t", 1)];
        assert!(TrainingBuffer::from_parts(cfg(1, 1), many, vec![1, 2], 2, 0).is_err());
    }
}
