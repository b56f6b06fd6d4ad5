//! Static features (paper §4.3): plan-shape and optimizer-estimate
//! encodings available before the query starts.
//!
//! For every physical operator type `op` over the pipeline's nodes:
//!
//! * `Count_op` — number of instances;
//! * `Card_op` — Σ E_i at those instances (\[11\]'s encoding);
//! * `SelAt_op` — `Card_op` relative to the pipeline's total E (the
//!   paper's refinement: *relative* cardinalities matter for progress);
//! * `SelAbove_op` — relative E of nodes having an `op` descendant within
//!   the pipeline;
//! * `SelBelow_op` — relative E of nodes below an `op` node.
//!
//! Plus `SelAtDN` (driver-node share of E) and a few structural counts.

use crate::features::schema::{DYNAMIC_LEN, STATIC_LEN};
use prosel_engine::plan::{PhysicalPlan, OP_TYPE_COUNT};
use prosel_engine::Pipeline;

/// Extract the static feature prefix from the plan and its pipeline
/// decomposition alone — no execution required. This is the form the
/// online monitor uses at query *registration*, before the first snapshot
/// exists (paper §4.3: static features are computable from the plan and
/// optimizer estimates).
pub fn extract_parts(plan: &PhysicalPlan, pipelines: &[Pipeline], pid: usize) -> Vec<f32> {
    extract_pipeline(plan, &pipelines[pid])
}

/// [`extract_parts`] for a single pipeline the caller already holds — the
/// form the online *harvest* path uses (the monitor retains each pipeline
/// inside its observation state, not the full decomposition). Both
/// entry points compute the identical vector.
pub fn extract_pipeline(plan: &PhysicalPlan, pipeline: &Pipeline) -> Vec<f32> {
    let nodes = &pipeline.nodes;
    let in_pipe = |n: usize| pipeline.contains(n);

    let total_e: f64 = nodes.iter().map(|&n| plan.node(n).est_rows).sum::<f64>().max(1.0);

    // Per-node sets: which op types appear strictly below / strictly above
    // each node *within the pipeline*.
    let mut below_mask = vec![0u32; plan.len()]; // op types among descendants
    for &n in nodes {
        let mut stack: Vec<usize> =
            plan.node(n).children.iter().copied().filter(|&c| in_pipe(c)).collect();
        let mut mask = 0u32;
        while let Some(c) = stack.pop() {
            mask |= 1 << plan.node(c).op.type_code();
            stack.extend(plan.node(c).children.iter().copied().filter(|&g| in_pipe(g)));
        }
        below_mask[n] = mask;
    }
    let mut above_mask = vec![0u32; plan.len()]; // op types among ancestors
    {
        let parents = plan.parents();
        for &n in nodes {
            let mut mask = 0u32;
            let mut cur = n;
            while let Some(p) = parents[cur] {
                if !in_pipe(p) {
                    break;
                }
                mask |= 1 << plan.node(p).op.type_code();
                cur = p;
            }
            above_mask[n] = mask;
        }
    }

    // Room for the dynamic suffix callers append to the static prefix.
    let mut out = Vec::with_capacity(STATIC_LEN + DYNAMIC_LEN);
    for op in 0..OP_TYPE_COUNT {
        let bit = 1u32 << op;
        let mut count = 0.0f32;
        let mut card = 0.0f64;
        let mut sel_above = 0.0f64; // nodes with op below them
        let mut sel_below = 0.0f64; // nodes with op above them
        for &n in nodes {
            let e = plan.node(n).est_rows;
            if plan.node(n).op.type_code() == op {
                count += 1.0;
                card += e;
            }
            if below_mask[n] & bit != 0 {
                sel_above += e;
            }
            if above_mask[n] & bit != 0 {
                sel_below += e;
            }
        }
        out.push(count);
        out.push(card as f32);
        out.push((card / total_e) as f32);
        out.push((sel_above / total_e) as f32);
        out.push((sel_below / total_e) as f32);
    }

    let driver_e: f64 = pipeline.driver_nodes.iter().map(|&n| plan.node(n).est_rows).sum();
    out.push((driver_e / total_e) as f32); // SelAtDN
    out.push((total_e.ln_1p()) as f32); // LogTotalE
    out.push(nodes.len() as f32); // NodeCount
    out.push(pipeline.driver_nodes.len() as f32); // DriverCount
    out.push(pipeline.nl_inner_nodes.len() as f32); // NlInnerCount
    out.push(prosel_engine::pipeline_weight(plan, pipeline) as f32); // PipelineWeight
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::schema::FeatureSchema;
    use prosel_engine::{run_plan, Catalog, ExecConfig, QueryRun};
    use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
    use prosel_planner::PlanBuilder;

    fn a_run() -> QueryRun {
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 5).with_queries(5).with_scale(0.4);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let plan = builder.build(&w.queries[1]).unwrap();
        run_plan(&catalog, &plan, &ExecConfig::default())
    }

    #[test]
    fn static_vector_matches_schema_prefix() {
        let run = a_run();
        let v = extract_parts(&run.plan, &run.pipelines, 0);
        assert_eq!(v.len(), FeatureSchema::get().static_len());
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn relative_features_bounded() {
        let run = a_run();
        let s = FeatureSchema::get();
        for pid in 0..run.pipelines.len() {
            let v = extract_parts(&run.plan, &run.pipelines, pid);
            for (i, name) in s.names()[..s.static_len()].iter().enumerate() {
                if name.starts_with("SelAt")
                    || name.starts_with("SelAbove")
                    || name.starts_with("SelBelow")
                {
                    assert!(
                        (0.0..=1.0 + 1e-6).contains(&(v[i] as f64)),
                        "{name} out of range: {}",
                        v[i]
                    );
                }
            }
        }
    }

    #[test]
    fn counts_match_pipeline_contents() {
        let run = a_run();
        let s = FeatureSchema::get();
        for pid in 0..run.pipelines.len() {
            let v = extract_parts(&run.plan, &run.pipelines, pid);
            let total: f32 = (0..prosel_engine::plan::OP_TYPE_COUNT)
                .map(|op| {
                    v[s.index_of(&format!("Count_{}", prosel_engine::plan::OP_TYPE_NAMES[op]))
                        .unwrap()]
                })
                .sum();
            assert_eq!(total as usize, run.pipelines[pid].nodes.len());
        }
    }
}
