//! The compiled bound pass ([`prosel_estimators::soa::BoundsKernel`]) is a
//! refactoring, not an approximation: on real workload executions every
//! refinement bound must match the scalar pass ([`bounds`]) **bitwise**.
//! (The compiled per-pipeline aggregate walk is pinned to its scalar
//! reference by `incremental::tests` inside the crate.)

use prosel_engine::{run_plan, Catalog, ExecConfig};
use prosel_estimators::refine::bounds;
use prosel_estimators::soa::BoundsKernel;
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;

#[test]
fn bounds_kernel_matches_scalar_bounds_bitwise() {
    let spec = WorkloadSpec::new(WorkloadKind::Real1, 77).with_queries(10).with_scale(0.6);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let mut snapshots_checked = 0usize;
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let run =
            run_plan(&catalog, &plan, &ExecConfig { seed: qi as u64, ..ExecConfig::default() });
        let kernel = BoundsKernel::new(&run.plan);
        assert_eq!(kernel.width(), run.plan.len());
        let (mut lb, mut ub) = (Vec::new(), Vec::new());
        for snap in &run.trace.snapshots {
            kernel.eval_into(&snap.k, &mut lb, &mut ub);
            let (slb, sub) = bounds(&run.plan, &snap.k);
            for i in 0..run.plan.len() {
                assert_eq!(lb[i].to_bits(), slb[i].to_bits(), "lb[{i}]");
                assert_eq!(ub[i].to_bits(), sub[i].to_bits(), "ub[{i}]");
            }
            snapshots_checked += 1;
        }
    }
    assert!(snapshots_checked > 50, "only {snapshots_checked} snapshots exercised");
}
