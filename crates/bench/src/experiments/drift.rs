//! Extension experiment: **buffer decay under distribution drift**.
//!
//! The scenario the [`prosel_learn::DecayPolicy`] exists for: a learning
//! loop bootstrapped and fed on one workload distribution (TPC-H-like)
//! whose traffic then *shifts* to another (TPC-DS-like). The training
//! buffer's per-group quota floors — the right call under stationary
//! traffic, where they stop heavy templates from evicting rare ones —
//! become exactly wrong under drift: the pre-shift groups are guaranteed
//! a slice of every future training set, anchoring the selector to a
//! distribution that no longer exists.
//!
//! Two identical learners absorb the same harvest stream — phase A
//! (pre-shift) rounds, then phase B (post-shift) rounds — and retrain
//! each round. The only difference is the buffer's decay policy:
//! `DecayPolicy::None` vs a max-age bound sized so pre-shift records age
//! out during phase B. Both are scored after every round on a held-out
//! post-shift workload the loop never trains on. Expected shape: the
//! decayed learner's post-shift held-out L1 ends at or below the
//! no-decay learner's (asserted), because its buffer drains the stale
//! distribution while the no-decay buffer's quota floors pin it.
//! Deterministic under the fixed seeds; CI runs it for the assertion.

use crate::report::Table;
use crate::suite::{ExpScale, Suite};
use prosel_core::pipeline_runs::PipelineRecord;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::TrainingSet;
use prosel_learn::{BufferConfig, DecayPolicy, LearnConfig, OnlineLearner};
use prosel_mart::BoostParams;
use prosel_monitor::HarvestedQuery;
use prosel_planner::workload::{WorkloadKind, WorkloadSpec};
use std::sync::Arc;

/// Wrap a round's records as harvest envelopes (a few records per
/// "query", matching what a harvesting monitor would deliver).
fn envelopes(records: &[PipelineRecord], round: usize) -> Vec<HarvestedQuery> {
    records
        .chunks(4)
        .enumerate()
        .map(|(qi, chunk)| HarvestedQuery { query: round * 10_000 + qi, records: chunk.to_vec() })
        .collect()
}

pub fn run(suite: &mut Suite, scale: ExpScale) -> String {
    let (pre_rounds, post_rounds, queries_per_round, heldout_q) = match scale {
        ExpScale::Smoke => (3usize, 3usize, 16usize, 32usize),
        ExpScale::Quick => (4, 4, 24, 48),
        ExpScale::Full => (4, 6, 40, 96),
    };
    let boost = BoostParams { iterations: 8, ..BoostParams::fast() };

    // Phase A (pre-shift): TPC-H-like. Phase B (post-shift): TPC-DS-like.
    // Held-out scoring: a disjoint-seed TPC-DS-like batch.
    let bootstrap = WorkloadSpec::new(WorkloadKind::TpchLike, 0xD21F0).with_queries(heldout_q);
    let heldout = WorkloadSpec::new(WorkloadKind::TpcdsLike, 0xD21F1).with_queries(heldout_q);
    let baseline = Arc::new(EstimatorSelector::train(
        &TrainingSet::from_records(suite.records(&bootstrap)),
        &SelectorConfig { boost: boost.clone(), ..SelectorConfig::default() },
    ));
    let held = TrainingSet::from_records(suite.records(&heldout));
    let baseline_l1 = baseline.evaluate(&held).chosen_l1;

    // Collect every round's harvest up front: the max-age bound is sized
    // to the post-shift volume, so decay drains exactly the stale
    // distribution while keeping (essentially) every fresh record — the
    // operator's calibration "how much history is one model's worth of
    // traffic", made self-sizing here so every scale stays in regime.
    let round_records: Vec<Vec<PipelineRecord>> = (0..pre_rounds + post_rounds)
        .map(|round| {
            let kind =
                if round < pre_rounds { WorkloadKind::TpchLike } else { WorkloadKind::TpcdsLike };
            let spec =
                WorkloadSpec::new(kind, 0xD21F10 + round as u64).with_queries(queries_per_round);
            suite.records(&spec).to_vec()
        })
        .collect();
    let post_volume: usize = round_records[pre_rounds..].iter().map(Vec::len).sum();

    // Identical learners except for the buffer's decay policy. The
    // holdout guard is off: promotion is unconditional, so the final
    // models differ only through what the buffers retain. Capacity
    // exceeds the whole stream: under capacity-bound traffic nothing is
    // ever evicted, so without decay the pre-shift records contaminate
    // every future training set — decay is the only drain.
    let capacity = 2048;
    let max_age = post_volume as u64;
    let config = |decay: DecayPolicy| LearnConfig {
        buffer: BufferConfig { capacity, group_quota: 24, decay, ..BufferConfig::default() },
        retrain_every: 0, // one explicit retrain per round
        holdout_every: 0,
        min_records: 16,
        warm_trees: 0, // refit from the buffer: the buffer *is* the policy
        ..LearnConfig::default()
    };
    let mut no_decay = OnlineLearner::new(Arc::clone(&baseline), config(DecayPolicy::None));
    let mut decayed =
        OnlineLearner::new(Arc::clone(&baseline), config(DecayPolicy::MaxAge { max_age }));

    let mut table = Table::new(
        "Extension — drift: post-shift held-out selection L1, decay vs no-decay",
        &["round", "phase", "stale/no-decay", "stale/decayed", "L1 no-decay", "L1 decayed"],
    );
    let stale_count = |learner: &OnlineLearner| {
        learner.buffer().records().iter().filter(|r| r.workload.starts_with("tpch")).count()
    };

    let mut final_nodecay = baseline_l1;
    let mut final_decayed = baseline_l1;
    for (round, records) in round_records.iter().enumerate() {
        let pre_phase = round < pre_rounds;
        for h in envelopes(records, round) {
            no_decay.absorb(&h);
            decayed.absorb(&h);
        }
        no_decay.retrain();
        decayed.retrain();
        final_nodecay = no_decay.current().evaluate(&held).chosen_l1;
        final_decayed = decayed.current().evaluate(&held).chosen_l1;
        table.row(&[
            round.to_string(),
            if pre_phase { "pre".into() } else { "POST".into() },
            format!("{}/{}", stale_count(&no_decay), no_decay.buffer().len()),
            format!("{}/{}", stale_count(&decayed), decayed.buffer().len()),
            format!("{final_nodecay:.4}"),
            format!("{final_decayed:.4}"),
        ]);
    }

    let mut out = table.render();
    out.push_str(&format!(
        "shift after round {}: tpch-like -> tpcds-like; held-out = disjoint tpcds-like.\n\
         max_age {} offered records (the post-shift volume); buffer capacity {}.\n\
         Post-shift held-out L1: bootstrap {:.4}, no-decay {:.4}, decayed {:.4}\n\
         (the stale columns show the no-decay buffer holding the dead distribution\n\
         forever while the max-age bound drains it).\n",
        pre_rounds - 1,
        max_age,
        capacity,
        baseline_l1,
        final_nodecay,
        final_decayed,
    ));
    println!("{out}");

    assert!(
        stale_count(&decayed) < stale_count(&no_decay),
        "the max-age bound must drain pre-shift records faster than the reservoir alone"
    );
    assert!(
        final_decayed <= final_nodecay,
        "decayed learner must be no worse than no-decay on post-shift held-out L1 \
         ({final_decayed:.4} vs {final_nodecay:.4})"
    );
    out
}
