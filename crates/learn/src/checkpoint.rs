//! Crash-safe checkpoints for the learning loop.
//!
//! A restarted trainer that loses its [`crate::TrainingBuffer`] loses
//! precisely the records the quota floors fought to keep — the rare
//! groups that took the longest to collect. The checkpoint codec
//! serializes the **whole** [`crate::OnlineLearner`] — configuration,
//! retained records with their admission stamps, the reservoir's offer
//! and draw counters, the validation slice, lifetime stats and the
//! current selector — sealed in the envelope every artifact shares
//! ([`prosel_core::textio`]):
//!
//! ```text
//! prosel-checkpoint v2
//! bytes <len> checksum <fnv64 hex>
//! <exactly len bytes of body>
//! endcheckpoint
//! ```
//!
//! The body is line-oriented (config / buffer / counters / stats lines,
//! then the buffered and validation records with floats as IEEE-754 bit
//! patterns, then the selector text embedded by line count); this module
//! names the fields and the shared grammar splits the lines. Truncation,
//! trailing garbage, field drift, checksum mismatches and records of a
//! width no learner trains on are all hard errors — a torn checkpoint
//! can never restore as a *different* learner. Restore is
//! **bit-identical**: the reservoir generator is re-seeded and
//! fast-forwarded by the recorded draw count, so the restored learner's
//! next insert, next holdout routing and next retrain all replay exactly
//! what the checkpointed one would have done.
//!
//! Entry points: [`crate::OnlineLearner::checkpoint`] and
//! [`crate::OnlineLearner::restore`].

use crate::buffer::{BufferConfig, DecayPolicy};
use crate::learner::{LearnConfig, LearnStats};
use prosel_core::pipeline_runs::PipelineRecord;
use prosel_core::selection::EstimatorSelector;
use prosel_core::textio::{
    decimal, f32_from_hex, f32_to_hex, f64_from_hex, f64_to_hex, open, seal, write_f32s, LineReader,
};
use prosel_mart::{BoostParams, TreeParams};
use std::fmt::Write as _;
use std::sync::Arc;

/// A refused checkpoint: the message names the offending line or field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError(pub String);

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint rejected: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

impl From<String> for CheckpointError {
    fn from(msg: String) -> Self {
        CheckpointError(msg)
    }
}

/// Everything the codec moves in and out of an [`crate::OnlineLearner`].
/// Built and consumed by the learner itself (its fields stay private);
/// the codec only sees this flat view.
pub(crate) struct LearnerParts {
    pub config: LearnConfig,
    /// The current selector. Its boost parameters travel on their own
    /// line: selector text drops them, and post-restore retrains need them
    /// to replay exactly.
    pub selector: Arc<EstimatorSelector>,
    pub records: Vec<PipelineRecord>,
    pub stamps: Vec<u64>,
    pub seen: u64,
    pub draws: u64,
    pub validation: Vec<PipelineRecord>,
    pub record_counter: usize,
    pub since_retrain: usize,
    pub rounds: u64,
    pub stats: LearnStats,
}

fn decay_str(d: DecayPolicy) -> String {
    match d {
        DecayPolicy::None => "none".into(),
        DecayPolicy::MaxAge { max_age } => format!("maxage:{max_age}"),
    }
}

fn decay_parse(s: &str) -> Result<DecayPolicy, String> {
    if s == "none" {
        return Ok(DecayPolicy::None);
    }
    match s.strip_prefix("maxage:") {
        Some(n) => Ok(DecayPolicy::MaxAge { max_age: decimal("decay max_age", n)? }),
        None => Err(format!("decay: unknown policy {s:?}")),
    }
}

fn push_record(out: &mut String, rec: &PipelineRecord) {
    let _ = writeln!(
        out,
        "record query {} pipeline {} getnext {} nobs {} weight {}",
        rec.query_idx,
        rec.pipeline_id,
        rec.total_getnext,
        rec.n_obs,
        f64_to_hex(rec.weight)
    );
    // Rest-of-line strings: labels and fingerprints may contain spaces
    // but never newlines (they come from harvest labels / plan shapes).
    let _ = writeln!(out, "workload {}", rec.workload);
    let _ = writeln!(out, "fingerprint {}", rec.fingerprint);
    write_f32s(out, "features", &rec.features);
    write_f32s(out, "l1", &rec.errors_l1);
    write_f32s(out, "l2", &rec.errors_l2);
    let _ = writeln!(
        out,
        "oracle {} {} {} {}",
        f32_to_hex(rec.oracle_l1[0]),
        f32_to_hex(rec.oracle_l1[1]),
        f32_to_hex(rec.oracle_l2[0]),
        f32_to_hex(rec.oracle_l2[1])
    );
    out.push_str("endrecord\n");
}

fn read_record(r: &mut LineReader<'_>) -> Result<PipelineRecord, String> {
    let [query, pipeline, getnext, nobs, weight] =
        r.shape("record query _ pipeline _ getnext _ nobs _ weight _")?;
    let workload = r.rest_of_line("workload")?.to_string();
    let fingerprint = r.rest_of_line("fingerprint")?.to_string();
    let features = r.f32s("features")?;
    let errors_l1 = r.f32s("l1")?;
    let errors_l2 = r.f32s("l2")?;
    let [o1, o2, o3, o4] = r.shape("oracle _ _ _ _")?;
    r.expect("endrecord")?;
    let rec = PipelineRecord {
        workload,
        query_idx: decimal("query", query)?,
        pipeline_id: decimal("pipeline", pipeline)?,
        features,
        errors_l1,
        errors_l2,
        total_getnext: decimal("getnext", getnext)?,
        weight: f64_from_hex(weight)?,
        n_obs: decimal("nobs", nobs)?,
        fingerprint,
        oracle_l1: [f32_from_hex(o1)?, f32_from_hex(o2)?],
        oracle_l2: [f32_from_hex(o3)?, f32_from_hex(o4)?],
    };
    // A sealed record can still be one no learner trains on: restored, a
    // short feature vector would panic the next retrain.
    rec.check_widths()?;
    Ok(rec)
}

/// A v1 checkpoint carries two fields this body no longer has (the
/// validation cap and the buffer's grouping key); the header refuses it
/// as version drift.
const HEADER: &str = "prosel-checkpoint v2";
const FOOTER: &str = "endcheckpoint";

pub(crate) fn encode(parts: &LearnerParts) -> String {
    let mut body = String::new();
    let c = &parts.config;
    let _ = writeln!(
        body,
        "config retrain_every {} holdout_every {} min_records {} warm_trees {} max_trees {} \
         promote_margin {} seed {}",
        c.retrain_every,
        c.holdout_every,
        c.min_records,
        c.warm_trees,
        c.max_trees,
        f64_to_hex(c.promote_margin),
        c.seed
    );
    let b = &c.buffer;
    let _ = writeln!(
        body,
        "buffer capacity {} group_quota {} seed {} decay {}",
        b.capacity,
        b.group_quota,
        b.seed,
        decay_str(b.decay)
    );
    let bp = &parts.selector.config().boost;
    let _ = writeln!(
        body,
        "boost iterations {} shrinkage {} subsample {} colsample {} max_leaves {} \
         min_samples_leaf {} seed {}",
        bp.iterations,
        f64_to_hex(bp.shrinkage),
        f64_to_hex(bp.subsample),
        f64_to_hex(bp.colsample),
        bp.tree.max_leaves,
        bp.tree.min_samples_leaf,
        bp.seed
    );
    let _ = writeln!(
        body,
        "counters seen {} draws {} record_counter {} since_retrain {} rounds {}",
        parts.seen, parts.draws, parts.record_counter, parts.since_retrain, parts.rounds
    );
    let s = &parts.stats;
    let _ = writeln!(
        body,
        "stats harvested_queries {} harvested_records {} retrains {} promotions {} \
         rejections {} skipped {}",
        s.harvested_queries, s.harvested_records, s.retrains, s.promotions, s.rejections, s.skipped
    );
    let _ = writeln!(body, "records {}", parts.records.len());
    for (rec, stamp) in parts.records.iter().zip(&parts.stamps) {
        let _ = writeln!(body, "stamp {stamp}");
        push_record(&mut body, rec);
    }
    let _ = writeln!(body, "validation {}", parts.validation.len());
    for rec in &parts.validation {
        push_record(&mut body, rec);
    }
    let selector_text = parts.selector.to_text();
    let _ = writeln!(body, "selector lines {}", selector_text.lines().count());
    body.push_str(&selector_text);
    seal(HEADER, &body, FOOTER)
}

pub(crate) fn decode(text: &str) -> Result<LearnerParts, CheckpointError> {
    let body = open(text, HEADER, FOOTER)?;

    // Body: strict line-by-line, every section tag and key validated.
    let mut r = LineReader::new(body);
    let [retrain_every, holdout_every, min_records, warm_trees, max_trees, margin, seed] = r
        .shape(
            "config retrain_every _ holdout_every _ min_records _ warm_trees _ max_trees _ \
             promote_margin _ seed _",
        )?;
    let [capacity, group_quota, buffer_seed, decay] =
        r.shape("buffer capacity _ group_quota _ seed _ decay _")?;
    let config = LearnConfig {
        buffer: BufferConfig {
            capacity: decimal("capacity", capacity)?,
            group_quota: decimal("group_quota", group_quota)?,
            seed: decimal("buffer seed", buffer_seed)?,
            decay: decay_parse(decay)?,
        },
        retrain_every: decimal("retrain_every", retrain_every)?,
        holdout_every: decimal("holdout_every", holdout_every)?,
        min_records: decimal("min_records", min_records)?,
        warm_trees: decimal("warm_trees", warm_trees)?,
        max_trees: decimal("max_trees", max_trees)?,
        promote_margin: f64_from_hex(margin)?,
        seed: decimal("seed", seed)?,
    };
    let [iterations, shrinkage, subsample, colsample, max_leaves, min_samples_leaf, boost_seed] = r
        .shape(
            "boost iterations _ shrinkage _ subsample _ colsample _ max_leaves _ \
             min_samples_leaf _ seed _",
        )?;
    let boost = BoostParams {
        iterations: decimal("iterations", iterations)?,
        shrinkage: f64_from_hex(shrinkage)?,
        subsample: f64_from_hex(subsample)?,
        colsample: f64_from_hex(colsample)?,
        tree: TreeParams {
            max_leaves: decimal("max_leaves", max_leaves)?,
            min_samples_leaf: decimal("min_samples_leaf", min_samples_leaf)?,
        },
        seed: decimal("boost seed", boost_seed)?,
    };
    let [seen, draws, record_counter, since_retrain, rounds] =
        r.shape("counters seen _ draws _ record_counter _ since_retrain _ rounds _")?;
    let [queries, harvested, retrains, promotions, rejections, skipped] = r.shape(
        "stats harvested_queries _ harvested_records _ retrains _ promotions _ rejections _ \
         skipped _",
    )?;
    let stats = LearnStats {
        harvested_queries: decimal("harvested_queries", queries)?,
        harvested_records: decimal("harvested_records", harvested)?,
        retrains: decimal("retrains", retrains)?,
        promotions: decimal("promotions", promotions)?,
        rejections: decimal("rejections", rejections)?,
        skipped: decimal("skipped", skipped)?,
    };
    let [n] = r.shape("records _")?;
    let n_records = r.count("records", n)?;
    let mut records = Vec::with_capacity(n_records);
    let mut stamps = Vec::with_capacity(n_records);
    for i in 0..n_records {
        let [stamp] = r.shape("stamp _")?;
        stamps.push(decimal("stamp", stamp)?);
        records.push(read_record(&mut r).map_err(|e| format!("record {i}: {e}"))?);
    }
    let [n] = r.shape("validation _")?;
    let n_validation = r.count("validation", n)?;
    let mut validation = Vec::with_capacity(n_validation);
    for i in 0..n_validation {
        validation.push(read_record(&mut r).map_err(|e| format!("validation record {i}: {e}"))?);
    }
    let [n] = r.shape("selector lines _")?;
    let (n, start): (usize, _) = (decimal("selector lines", n)?, r.line_no());
    let mut selector =
        EstimatorSelector::read(&mut r).map_err(|e| format!("embedded selector: {e}"))?;
    if r.line_no() - start != n {
        return Err(format!("selector lines {n}: the selector has {}", r.line_no() - start).into());
    }
    r.finish()?;
    selector.set_boost(boost);
    Ok(LearnerParts {
        config,
        selector: Arc::new(selector),
        records,
        stamps,
        seen: decimal("seen", seen)?,
        draws: decimal("draws", draws)?,
        validation,
        record_counter: decimal("record_counter", record_counter)?,
        since_retrain: decimal("since_retrain", since_retrain)?,
        rounds: decimal("rounds", rounds)?,
        stats,
    })
}
