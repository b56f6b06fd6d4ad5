//! The deterministic retraining core.
//!
//! [`OnlineLearner`] is the whole learning policy as a synchronous state
//! machine: absorb harvested queries into the [`TrainingBuffer`] (with a
//! deterministic holdout split), retrain at a configured cadence, and
//! promote the candidate only when it is no worse than the incumbent on
//! the held-out validation slice (**guarded promotion** — the production
//! guard against a feedback round that happens to produce a worse model;
//! the worst case of a feedback round is therefore "no change", never a
//! regression on the guard set). [`crate::Trainer`] runs this same core
//! on a background thread; tests and experiments drive it inline, where
//! its bit-determinism (pure function of the harvest sequence and the
//! seeds) makes whole learning loops replayable.

use crate::buffer::{BufferConfig, TrainingBuffer};
use crate::checkpoint::{self, CheckpointError, LearnerParts};
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::TrainingSet;
use prosel_mart::BoostParams;
use prosel_monitor::HarvestedQuery;
use prosel_obs::{Counter, Gauge, Histogram, MetricsRegistry, ObsEvent, TraceRing};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Registry handles the learner publishes into when observed (see
/// [`OnlineLearner::observe`]). Retrains are rare and expensive relative
/// to a histogram record, so retrain timing is always on — no sampling
/// stride here.
struct LearnObs {
    /// `learn_buffer_occupancy` — retained training records (gauge).
    occupancy: Arc<Gauge>,
    /// `learn_decay_evictions_total` — records aged out by decay.
    evictions: Arc<Counter>,
    /// `learn_retrain_ns` — wall time per retrain attempt that fit.
    retrain_ns: Arc<Histogram>,
    /// `learn_holdout_l1` — candidate L1 on the validation slice (gauge).
    holdout_l1: Arc<Gauge>,
    /// `learn_retrains_total` / `learn_promotions_total` /
    /// `learn_rejections_total` / `learn_skipped_total` — mirrors of
    /// [`LearnStats`] as scrapeable counters.
    retrains: Arc<Counter>,
    promotions: Arc<Counter>,
    rejections: Arc<Counter>,
    skipped: Arc<Counter>,
    /// Control-plane ring receiving `RetrainPromoted` / `RetrainHeld`.
    ring: TraceRing,
}

impl LearnObs {
    fn new(registry: &MetricsRegistry, ring: TraceRing) -> LearnObs {
        LearnObs {
            occupancy: registry.gauge("learn_buffer_occupancy"),
            evictions: registry.counter("learn_decay_evictions_total"),
            retrain_ns: registry.histogram("learn_retrain_ns"),
            holdout_l1: registry.gauge("learn_holdout_l1"),
            retrains: registry.counter("learn_retrains_total"),
            promotions: registry.counter("learn_promotions_total"),
            rejections: registry.counter("learn_rejections_total"),
            skipped: registry.counter("learn_skipped_total"),
            ring,
        }
    }
}

/// Bound on the validation slice: the oldest held-out records drop out
/// first. Fixed: every learner ever configured ran with it, and a
/// checkpoint need not carry it.
const VALIDATION_CAP: usize = 1024;

/// Learning-loop configuration.
#[derive(Debug, Clone)]
pub struct LearnConfig {
    /// Training-buffer policy (capacity, quotas, reservoir seed).
    pub buffer: BufferConfig,
    /// Retrain after this many harvested queries (0 = only when
    /// [`OnlineLearner::retrain`] is called explicitly).
    pub retrain_every: usize,
    /// Every k-th harvested record is routed to the validation slice
    /// instead of the buffer (0 disables the holdout — promotion is then
    /// unguarded).
    pub holdout_every: usize,
    /// Skip retraining while the buffer holds fewer records than this.
    pub min_records: usize,
    /// Warm-start depth: additional boosting rounds per candidate model
    /// and feedback round ([`EstimatorSelector::retrain_from`]); 0 refits
    /// each round from scratch on the buffer.
    pub warm_trees: usize,
    /// Ensemble-size ceiling per candidate model: when a warm start would
    /// push any model past this many trees, the round refits from scratch
    /// on the buffer instead — without it, a long-lived loop that keeps
    /// promoting would grow its ensembles (memory **and** per-selection
    /// predict cost) linearly forever. 0 disables the cap.
    pub max_trees: usize,
    /// Guard margin: a candidate is promoted only when its validation L1
    /// beats the incumbent's by at least this much. 0.0 promotes on ties;
    /// a small positive margin damps promotion churn when the validation
    /// slice is reused across many rounds (each promotion *selects on*
    /// that slice, so tie-promotions compound selection bias).
    pub promote_margin: f64,
    /// Seed of the per-round training streams.
    pub seed: u64,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            buffer: BufferConfig::default(),
            retrain_every: 32,
            holdout_every: 5,
            min_records: 64,
            warm_trees: 40,
            max_trees: 600,
            promote_margin: 0.0,
            seed: 0x5EED,
        }
    }
}

/// Counters over the learner's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LearnStats {
    pub harvested_queries: usize,
    pub harvested_records: usize,
    /// Retrain attempts that actually fit a candidate.
    pub retrains: usize,
    /// Candidates promoted to current.
    pub promotions: usize,
    /// Candidates rejected by the validation guard.
    pub rejections: usize,
    /// Retrain attempts skipped for lack of buffered records.
    pub skipped: usize,
}

/// What one [`OnlineLearner::retrain`] call did.
#[derive(Debug, Clone, Copy)]
pub struct RetrainOutcome {
    /// Did the candidate replace the incumbent?
    pub promoted: bool,
    /// Buffered records the candidate was fit on (0 ⇒ skipped).
    pub trained_on: usize,
    /// Held-out records behind the promotion decision.
    pub validation: usize,
    /// Candidate's mean chosen-estimator L1 on the validation slice
    /// (NaN when the guard was disabled or starved).
    pub candidate_l1: f64,
    /// Incumbent's mean chosen-estimator L1 on the same slice.
    pub incumbent_l1: f64,
}

/// Deterministic online-learning core. See the module docs.
pub struct OnlineLearner {
    config: LearnConfig,
    buffer: TrainingBuffer,
    validation: VecDeque<prosel_core::pipeline_runs::PipelineRecord>,
    current: Arc<EstimatorSelector>,
    /// Harvested records ever routed (drives the holdout split).
    record_counter: usize,
    /// Harvested queries since the last retrain attempt.
    since_retrain: usize,
    /// Completed retrain attempts (seeds each round's subsample stream).
    rounds: u64,
    stats: LearnStats,
    /// Metric handles + trace ring, when [`Self::observe`] attached them.
    obs: Option<LearnObs>,
}

impl OnlineLearner {
    /// A learner that starts serving (and warm-starting from) `initial`.
    pub fn new(initial: Arc<EstimatorSelector>, config: LearnConfig) -> OnlineLearner {
        OnlineLearner {
            buffer: TrainingBuffer::new(config.buffer.clone()),
            config,
            validation: VecDeque::new(),
            current: initial,
            record_counter: 0,
            since_retrain: 0,
            rounds: 0,
            stats: LearnStats::default(),
            obs: None,
        }
    }

    /// Publish the learner's gauges, counters and retrain-latency
    /// histogram into `registry` (names `learn_*`; see the README's
    /// metric inventory) and route retrain decisions into `ring` as
    /// [`ObsEvent::RetrainPromoted`] / [`ObsEvent::RetrainHeld`].
    ///
    /// Observation is deliberately outside the checkpoint codec:
    /// [`Self::restore`] returns an unobserved learner, and re-attaching
    /// here restarts the gauges from live state (determinism of the
    /// learning replay is untouched either way).
    pub fn observe(&mut self, registry: &MetricsRegistry, ring: TraceRing) {
        let obs = LearnObs::new(registry, ring);
        obs.occupancy.set(self.buffer.len() as f64);
        obs.evictions.reset(self.buffer.evicted());
        obs.retrains.reset(self.stats.retrains as u64);
        obs.promotions.reset(self.stats.promotions as u64);
        obs.rejections.reset(self.stats.rejections as u64);
        obs.skipped.reset(self.stats.skipped as u64);
        self.obs = Some(obs);
    }

    /// The selector currently considered best (the one to serve).
    pub fn current(&self) -> Arc<EstimatorSelector> {
        Arc::clone(&self.current)
    }

    /// Read access to the training buffer.
    pub fn buffer(&self) -> &TrainingBuffer {
        &self.buffer
    }

    /// Held-out validation records currently retained.
    pub fn validation_len(&self) -> usize {
        self.validation.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LearnStats {
        self.stats
    }

    /// Harvested queries absorbed since the last retrain attempt.
    pub fn pending(&self) -> usize {
        self.since_retrain
    }

    /// Absorb one harvested query: its records are routed (deterministic
    /// k-th-record split) into the validation slice or the training
    /// buffer.
    pub fn absorb(&mut self, harvest: &HarvestedQuery) {
        self.stats.harvested_queries += 1;
        self.since_retrain += 1;
        for rec in &harvest.records {
            self.record_counter += 1;
            self.stats.harvested_records += 1;
            let holdout = self.config.holdout_every > 0
                && self.record_counter.is_multiple_of(self.config.holdout_every);
            if holdout {
                self.validation.push_back(rec.clone());
                while self.validation.len() > VALIDATION_CAP {
                    self.validation.pop_front();
                }
            } else {
                self.buffer.insert(rec.clone());
            }
        }
        if let Some(obs) = &self.obs {
            obs.occupancy.set(self.buffer.len() as f64);
            obs.evictions.reset(self.buffer.evicted());
        }
    }

    /// Has the retrain cadence elapsed?
    pub fn due(&self) -> bool {
        self.config.retrain_every > 0 && self.since_retrain >= self.config.retrain_every
    }

    /// [`Self::absorb`], then [`Self::retrain`] if the cadence elapsed —
    /// the one-call form background trainers loop on.
    pub fn absorb_and_maybe_retrain(&mut self, harvest: &HarvestedQuery) -> Option<RetrainOutcome> {
        self.absorb(harvest);
        if self.due() {
            Some(self.retrain())
        } else {
            None
        }
    }

    /// Serialize the learner's complete state — config, buffer (records,
    /// stamps, offer/draw counters), validation slice, lifetime stats and
    /// the current selector — as one versioned, checksummed text artifact.
    ///
    /// [`Self::restore`] rebuilds a **bit-identical** learner from it:
    /// same reservoir contents, same generator position, same next
    /// retrain output. See [`crate::checkpoint`] for the format and its
    /// rejection guarantees.
    pub fn checkpoint(&self) -> String {
        checkpoint::encode(&LearnerParts {
            config: self.config.clone(),
            selector: Arc::clone(&self.current),
            records: self.buffer.records().to_vec(),
            stamps: self.buffer.stamps().to_vec(),
            seen: self.buffer.seen(),
            draws: self.buffer.draws(),
            validation: self.validation.iter().cloned().collect(),
            record_counter: self.record_counter,
            since_retrain: self.since_retrain,
            rounds: self.rounds,
            stats: self.stats,
        })
    }

    /// Rebuild a learner from [`Self::checkpoint`] output. Truncated,
    /// corrupted or drifted checkpoints are rejected with a
    /// [`CheckpointError`]; on success the restored learner replays
    /// exactly as the checkpointed one would have.
    pub fn restore(text: &str) -> Result<OnlineLearner, CheckpointError> {
        let parts = checkpoint::decode(text)?;
        if parts.validation.len() > VALIDATION_CAP {
            return Err(CheckpointError(format!(
                "validation {}: more than the {VALIDATION_CAP} records a learner holds out",
                parts.validation.len()
            )));
        }
        let buffer = TrainingBuffer::from_parts(
            parts.config.buffer.clone(),
            parts.records,
            parts.stamps,
            parts.seen,
            parts.draws,
        )?;
        Ok(OnlineLearner {
            config: parts.config,
            buffer,
            validation: parts.validation.into(),
            current: parts.selector,
            record_counter: parts.record_counter,
            since_retrain: parts.since_retrain,
            rounds: parts.rounds,
            stats: parts.stats,
            obs: None,
        })
    }

    /// Fit a candidate on the buffer and run guarded promotion. Resets
    /// the cadence counter whether or not anything was fit.
    pub fn retrain(&mut self) -> RetrainOutcome {
        self.since_retrain = 0;
        let train = self.buffer.training_set();
        if train.len() < self.config.min_records.max(1) {
            self.stats.skipped += 1;
            let outcome = RetrainOutcome {
                promoted: false,
                trained_on: 0,
                validation: self.validation.len(),
                candidate_l1: f64::NAN,
                incumbent_l1: f64::NAN,
            };
            if let Some(obs) = &self.obs {
                obs.skipped.inc();
                obs.ring.emit(ObsEvent::RetrainHeld {
                    trained_on: 0,
                    candidate_l1: f64::NAN,
                    incumbent_l1: f64::NAN,
                });
            }
            return outcome;
        }
        let fit_start = self.obs.is_some().then(Instant::now);
        self.rounds += 1;
        self.stats.retrains += 1;
        let seed = self.config.seed ^ self.rounds.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Warm-start only while every ensemble stays under the tree cap;
        // past it, refit cold so a long-lived loop cannot grow its models
        // (and their predict cost) without bound.
        let widest = self
            .current
            .config()
            .candidates
            .iter()
            .filter_map(|&k| self.current.model(k))
            .map(prosel_mart::Mart::n_trees)
            .max()
            .unwrap_or(0);
        let warm = self.config.warm_trees > 0
            && (self.config.max_trees == 0
                || widest + self.config.warm_trees <= self.config.max_trees);
        let candidate = if warm {
            EstimatorSelector::retrain_from(&self.current, &train, self.config.warm_trees, seed)
        } else {
            let base = self.current.config();
            let cfg = SelectorConfig {
                candidates: base.candidates.clone(),
                mode: base.mode,
                boost: BoostParams { seed, ..base.boost.clone() },
            };
            EstimatorSelector::train(&train, &cfg)
        };
        let val = TrainingSet { records: self.validation.iter().cloned().collect() };
        let (candidate_l1, incumbent_l1, promoted) = if val.is_empty() {
            // No guard material: trust the fresh evidence.
            (f64::NAN, f64::NAN, true)
        } else {
            let c = candidate.evaluate(&val).chosen_l1;
            let i = self.current.evaluate(&val).chosen_l1;
            (c, i, c <= i - self.config.promote_margin)
        };
        if promoted {
            self.current = Arc::new(candidate);
            self.stats.promotions += 1;
        } else {
            self.stats.rejections += 1;
        }
        if let Some(obs) = &self.obs {
            if let Some(start) = fit_start {
                obs.retrain_ns.record(start.elapsed().as_nanos() as u64);
            }
            obs.retrains.inc();
            if candidate_l1.is_finite() {
                obs.holdout_l1.set(candidate_l1);
            }
            if promoted {
                obs.promotions.inc();
                obs.ring.emit(ObsEvent::RetrainPromoted {
                    trained_on: train.len(),
                    candidate_l1,
                    incumbent_l1,
                });
            } else {
                obs.rejections.inc();
                obs.ring.emit(ObsEvent::RetrainHeld {
                    trained_on: train.len(),
                    candidate_l1,
                    incumbent_l1,
                });
            }
        }
        RetrainOutcome {
            promoted,
            trained_on: train.len(),
            validation: val.len(),
            candidate_l1,
            incumbent_l1,
        }
    }
}
