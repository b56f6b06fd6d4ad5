//! Crash-safe checkpoints for the learning loop.
//!
//! A restarted trainer that loses its [`crate::TrainingBuffer`] loses
//! precisely the records the quota floors fought to keep — the rare
//! groups that took the longest to collect. The checkpoint codec
//! serializes the **whole** [`crate::OnlineLearner`] — configuration,
//! retained records with their admission stamps, the reservoir's offer
//! and draw counters, the validation slice, lifetime stats and the
//! current selector — as a versioned, checksummed text artifact in the
//! same strict style as `prosel_mart::model_io`:
//!
//! ```text
//! prosel-checkpoint v1
//! bytes <len> checksum <fnv64 hex>
//! <exactly len bytes of body>
//! endcheckpoint
//! ```
//!
//! The body is line-oriented (config / buffer / counters / stats lines,
//! then the buffered and validation records with floats as IEEE-754 bit
//! patterns, then the selector text embedded by line count). Truncation,
//! trailing garbage, field drift and checksum mismatches are all hard
//! errors — a torn checkpoint can never restore as a *different* learner.
//! Restore is **bit-identical**: the reservoir generator is re-seeded and
//! fast-forwarded by the recorded draw count, so the restored learner's
//! next insert, next holdout routing and next retrain all replay exactly
//! what the checkpointed one would have done.
//!
//! Entry points: [`crate::OnlineLearner::checkpoint`] and
//! [`crate::OnlineLearner::restore`].

use crate::buffer::{BufferConfig, DecayPolicy, GroupBy};
use crate::learner::{LearnConfig, LearnStats};
use prosel_core::pipeline_runs::PipelineRecord;
use prosel_core::textio::{
    f32_from_hex, f32_to_hex, f64_from_hex, f64_to_hex, open, parse, seal, LineReader,
};
use prosel_mart::{BoostParams, TreeParams};
use std::fmt::Write as _;

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
    /// Boost parameters of the *current selector* — `from_text` returns
    /// defaults, so restore must re-seat these for post-restore retrains
    /// to replay exactly.
    pub boost: BoostParams,
    pub records: Vec<PipelineRecord>,
    pub stamps: Vec<u64>,
    pub seen: u64,
    pub draws: u64,
    pub validation: Vec<PipelineRecord>,
    pub selector_text: String,
    pub record_counter: usize,
    pub since_retrain: usize,
    pub rounds: u64,
    pub stats: LearnStats,
}

fn group_by_str(g: GroupBy) -> &'static str {
    match g {
        GroupBy::Workload => "workload",
        GroupBy::Fingerprint => "fingerprint",
    }
}

fn group_by_parse(s: &str) -> Result<GroupBy, String> {
    match s {
        "workload" => Ok(GroupBy::Workload),
        "fingerprint" => Ok(GroupBy::Fingerprint),
        other => Err(format!("group_by: unknown value {other:?}")),
    }
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
        Some(n) => Ok(DecayPolicy::MaxAge { max_age: parse("decay max_age", n)? }),
        None => Err(format!("decay: unknown policy {s:?}")),
    }
}

fn push_f32s(out: &mut String, label: &str, values: &[f32]) {
    let _ = write!(out, "{label} {}", values.len());
    for v in values {
        let _ = write!(out, " {}", f32_to_hex(*v));
    }
    out.push('\n');
}

fn read_f32s(r: &mut LineReader<'_>, label: &str) -> Result<Vec<f32>, String> {
    let line = r.next_line()?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some(label) {
        return Err(format!(
            "line {}: expected a {label:?} vector line, got {line:?}",
            r.line_no()
        ));
    }
    let n: usize = parse(label, parts.next().ok_or(format!("{label}: missing count"))?)?;
    let values: Vec<f32> = parts.map(f32_from_hex).collect::<Result<_, _>>()?;
    if values.len() != n {
        return Err(format!("{label}: declared {n} values, found {}", values.len()));
    }
    Ok(values)
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
    push_f32s(out, "features", &rec.features);
    push_f32s(out, "l1", &rec.errors_l1);
    push_f32s(out, "l2", &rec.errors_l2);
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

fn read_rest_of_line<'a>(r: &mut LineReader<'a>, label: &str) -> Result<&'a str, String> {
    let line = r.next_line()?;
    line.strip_prefix(label)
        .and_then(|rest| rest.strip_prefix(' ').or(if rest.is_empty() { Some("") } else { None }))
        .ok_or_else(|| format!("line {}: expected a {label:?} line, got {line:?}", r.line_no()))
}

/// Parse `tag k1 v1 k2 v2 ...` with the tag and key names (and their
/// order) enforced — the same field-drift discipline as
/// [`LineReader::fields`], for lines that open with a section tag.
fn tagged_fields<'a>(
    r: &mut LineReader<'a>,
    tag: &str,
    keys: &[&str],
) -> Result<Vec<&'a str>, String> {
    let line = r.next_line()?;
    let parts: Vec<&str> = line.split_whitespace().collect();
    if parts.len() != 1 + 2 * keys.len() || parts[0] != tag {
        return Err(format!(
            "line {}: expected `{tag} {}`, got {line:?}",
            r.line_no(),
            keys.iter().map(|k| format!("{k} <v>")).collect::<Vec<_>>().join(" ")
        ));
    }
    let mut values = Vec::with_capacity(keys.len());
    for (i, key) in keys.iter().enumerate() {
        if parts[1 + 2 * i] != *key {
            return Err(format!(
                "line {}: {tag} field {} must be {key:?}, got {:?} — field drift",
                r.line_no(),
                i + 1,
                parts[1 + 2 * i]
            ));
        }
        values.push(parts[2 + 2 * i]);
    }
    Ok(values)
}

fn read_record(r: &mut LineReader<'_>) -> Result<PipelineRecord, String> {
    let head = tagged_fields(r, "record", &["query", "pipeline", "getnext", "nobs", "weight"])?;
    let query_idx: usize = parse("query", head[0])?;
    let pipeline_id: usize = parse("pipeline", head[1])?;
    let total_getnext: u64 = parse("getnext", head[2])?;
    let n_obs: usize = parse("nobs", head[3])?;
    let weight = f64_from_hex(head[4])?;
    let workload = read_rest_of_line(r, "workload")?.to_string();
    let fingerprint = read_rest_of_line(r, "fingerprint")?.to_string();
    let features = read_f32s(r, "features")?;
    let errors_l1 = read_f32s(r, "l1")?;
    let errors_l2 = read_f32s(r, "l2")?;
    let oline = r.next_line()?;
    let oparts: Vec<&str> = oline.split_whitespace().collect();
    if oparts.len() != 5 || oparts[0] != "oracle" {
        return Err(format!("line {}: bad oracle line: {oline:?}", r.line_no()));
    }
    let o: Vec<f32> = oparts[1..].iter().map(|s| f32_from_hex(s)).collect::<Result<_, _>>()?;
    r.expect("endrecord")?;
    Ok(PipelineRecord {
        workload,
        query_idx,
        pipeline_id,
        features,
        errors_l1,
        errors_l2,
        total_getnext,
        weight,
        n_obs,
        fingerprint,
        oracle_l1: [o[0], o[1]],
        oracle_l2: [o[2], o[3]],
    })
}

const HEADER: &str = "prosel-checkpoint v1";
const FOOTER: &str = "endcheckpoint";

pub(crate) fn encode(parts: &LearnerParts) -> String {
    let mut body = String::new();
    let c = &parts.config;
    let _ = writeln!(
        body,
        "config retrain_every {} holdout_every {} validation_cap {} min_records {} \
         warm_trees {} max_trees {} promote_margin {} seed {}",
        c.retrain_every,
        c.holdout_every,
        c.validation_cap,
        c.min_records,
        c.warm_trees,
        c.max_trees,
        f64_to_hex(c.promote_margin),
        c.seed
    );
    let b = &c.buffer;
    let _ = writeln!(
        body,
        "buffer capacity {} group_quota {} group_by {} seed {} decay {}",
        b.capacity,
        b.group_quota,
        group_by_str(b.group_by),
        b.seed,
        decay_str(b.decay)
    );
    let bp = &parts.boost;
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
    let selector_lines = parts.selector_text.lines().count();
    let _ = writeln!(body, "selector lines {selector_lines}");
    body.push_str(&parts.selector_text);
    if !parts.selector_text.ends_with('\n') {
        body.push('\n');
    }
    seal(HEADER, &body, FOOTER)
}

pub(crate) fn decode(text: &str) -> Result<LearnerParts, CheckpointError> {
    let body = open(text, HEADER, FOOTER)?;

    // Body: strict line-by-line, every section tag and key validated.
    let mut r = LineReader::new(body);
    let cv = tagged_fields(
        &mut r,
        "config",
        &[
            "retrain_every",
            "holdout_every",
            "validation_cap",
            "min_records",
            "warm_trees",
            "max_trees",
            "promote_margin",
            "seed",
        ],
    )?;
    let bv =
        tagged_fields(&mut r, "buffer", &["capacity", "group_quota", "group_by", "seed", "decay"])?;
    let buffer = BufferConfig {
        capacity: parse("capacity", bv[0])?,
        group_quota: parse("group_quota", bv[1])?,
        group_by: group_by_parse(bv[2])?,
        seed: parse("buffer seed", bv[3])?,
        decay: decay_parse(bv[4])?,
    };
    let config = LearnConfig {
        buffer,
        retrain_every: parse("retrain_every", cv[0])?,
        holdout_every: parse("holdout_every", cv[1])?,
        validation_cap: parse("validation_cap", cv[2])?,
        min_records: parse("min_records", cv[3])?,
        warm_trees: parse("warm_trees", cv[4])?,
        max_trees: parse("max_trees", cv[5])?,
        promote_margin: f64_from_hex(cv[6])?,
        seed: parse("seed", cv[7])?,
    };
    let pv = tagged_fields(
        &mut r,
        "boost",
        &[
            "iterations",
            "shrinkage",
            "subsample",
            "colsample",
            "max_leaves",
            "min_samples_leaf",
            "seed",
        ],
    )?;
    let boost = BoostParams {
        iterations: parse("iterations", pv[0])?,
        shrinkage: f64_from_hex(pv[1])?,
        subsample: f64_from_hex(pv[2])?,
        colsample: f64_from_hex(pv[3])?,
        tree: TreeParams {
            max_leaves: parse("max_leaves", pv[4])?,
            min_samples_leaf: parse("min_samples_leaf", pv[5])?,
        },
        seed: parse("boost seed", pv[6])?,
    };
    let kv = tagged_fields(
        &mut r,
        "counters",
        &["seen", "draws", "record_counter", "since_retrain", "rounds"],
    )?;
    let seen: u64 = parse("seen", kv[0])?;
    let draws: u64 = parse("draws", kv[1])?;
    let record_counter: usize = parse("record_counter", kv[2])?;
    let since_retrain: usize = parse("since_retrain", kv[3])?;
    let rounds: u64 = parse("rounds", kv[4])?;
    let sv = tagged_fields(
        &mut r,
        "stats",
        &[
            "harvested_queries",
            "harvested_records",
            "retrains",
            "promotions",
            "rejections",
            "skipped",
        ],
    )?;
    let stats = LearnStats {
        harvested_queries: parse("harvested_queries", sv[0])?,
        harvested_records: parse("harvested_records", sv[1])?,
        retrains: parse("retrains", sv[2])?,
        promotions: parse("promotions", sv[3])?,
        rejections: parse("rejections", sv[4])?,
        skipped: parse("skipped", sv[5])?,
    };
    // The checksum is not authentication: a record is several lines of
    // the body, so a count past its length is refused before anything is
    // sized by it.
    let fits = |what: &str, n: usize| {
        if n <= body.len() {
            Ok(n)
        } else {
            Err(format!("{what} {n}: more than the {}-byte body could hold", body.len()))
        }
    };
    let n_records = fits("records", parse("records", r.fields(&["records"])?[0])?)?;
    let mut records = Vec::with_capacity(n_records);
    let mut stamps = Vec::with_capacity(n_records);
    for _ in 0..n_records {
        stamps.push(parse("stamp", r.fields(&["stamp"])?[0])?);
        records.push(read_record(&mut r)?);
    }
    let n_validation = fits("validation", parse("validation", r.fields(&["validation"])?[0])?)?;
    let mut validation = Vec::with_capacity(n_validation);
    for _ in 0..n_validation {
        validation.push(read_record(&mut r)?);
    }
    let n_lines: usize =
        parse("selector lines", tagged_fields(&mut r, "selector", &["lines"])?[0])?;
    let mut selector_text = String::new();
    for _ in 0..n_lines {
        selector_text.push_str(r.next_line()?);
        selector_text.push('\n');
    }
    r.finish()?;
    Ok(LearnerParts {
        config,
        boost,
        records,
        stamps,
        seen,
        draws,
        validation,
        selector_text,
        record_counter,
        since_retrain,
        rounds,
        stats,
    })
}
