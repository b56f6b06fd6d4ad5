//! Physical plan construction (the optimizer stand-in).
//!
//! Builds left-deep plans from [`QuerySpec`]s: access-path selection
//! (table scan vs index-range seek), join-method selection (hash vs merge
//! vs nested-loop-with-seek vs naive rescan nested loop, with batch sorts
//! inserted above large nested-iteration outers), aggregate placement
//! (stream when sorted, hash otherwise), and dead-column projection.
//!
//! Every node is annotated with E_i from [`crate::cardinality`] — exact
//! for base-table scans (like a real system, which knows base cardinalities)
//! and *estimated* (with realistic errors) everywhere else.
//!
//! The available indexes — the physical design — steer the choices, which
//! is how the paper's Table 1 operator-mix shift across tuning levels
//! arises.

mod join;

use crate::cardinality::{conjunct_selectivity, filter_selectivity, group_count};
use crate::query::{AggKind, AggSpec, FilterSpec, OrderTarget, QuerySpec, TableRef};
use crate::stats::DbStats;
use prosel_datagen::{Database, PhysicalDesign};
use prosel_engine::plan::{
    AggFunc, CmpOp, NodeId, OperatorKind, PhysicalPlan, PlanNode, Predicate, SeekKind,
};

/// Use an index-range seek as the access path when some indexed filter
/// has selectivity at or below this. Fixed: every recorded workload and
/// experiment was planned with it.
const SEEK_MAX_SELECTIVITY: f64 = 0.25;

/// Tunables for plan construction.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Amortized planner-cost of one inner-side index lookup.
    pub seek_cost: f64,
    /// Planner-cost per build-side row of a hash join.
    pub hash_build_cost: f64,
    /// Insert a batch sort above nested-loop outers estimated at or above
    /// this many rows.
    pub batch_sort_min_outer: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig { seek_cost: 12.0, hash_build_cost: 2.0, batch_sort_min_outer: 150.0 }
    }
}

/// A column of the current intermediate result: which base table
/// occurrence it came from and its name there. Aggregate outputs use
/// [`BoundCol::agg`].
#[derive(Debug, Clone, PartialEq)]
struct BoundCol {
    table_idx: usize,
    name: String,
}

impl BoundCol {
    fn agg(idx: usize) -> Self {
        BoundCol { table_idx: usize::MAX, name: format!("$agg{idx}") }
    }
}

/// Projection requirement for one table: `cols[..carry_len]` must survive
/// past the access path (join/group/aggregate/order columns);
/// `cols[carry_len..]` are filter-only and get projected away right above
/// the access-path filter.
#[derive(Debug, Clone)]
struct Needed {
    cols: Vec<String>,
    carry_len: usize,
}

/// Plan builder over one database + statistics + physical design.
pub struct PlanBuilder<'a> {
    db: &'a Database,
    stats: &'a DbStats,
    design: &'a PhysicalDesign,
    cfg: PlannerConfig,
}

/// Intermediate build state: the partially constructed left-deep plan.
struct Partial {
    root: NodeId,
    est: f64,
    bound: Vec<BoundCol>,
    /// Column (position in `bound`) the output is currently sorted by.
    sorted: Option<usize>,
}

impl<'a> PlanBuilder<'a> {
    pub fn new(db: &'a Database, stats: &'a DbStats, design: &'a PhysicalDesign) -> Self {
        PlanBuilder { db, stats, design, cfg: PlannerConfig::default() }
    }

    pub fn with_config(mut self, cfg: PlannerConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Build the physical plan for `spec`.
    pub fn build(&self, spec: &QuerySpec) -> Result<PhysicalPlan, String> {
        spec.validate()?;
        let mut nodes: Vec<PlanNode> = Vec::new();
        let needed = self.needed_columns(spec);

        // Access path for the driving table; prefer sorted access on the
        // first join column if that could enable a merge join.
        let first_merge_col = spec.joins.first().and_then(|j| {
            if j.left_table == 0 && self.has_index(&spec.tables[0].table, &j.left_col) {
                Some(j.left_col.clone())
            } else {
                None
            }
        });
        let mut cur = self.access_path(
            &mut nodes,
            0,
            &spec.tables[0],
            &needed[0],
            first_merge_col.as_deref(),
        );

        for ji in 0..spec.joins.len() {
            cur = self.attach_join(&mut nodes, cur, spec, ji, &needed[ji + 1])?;
            cur = self.project_dead_columns(&mut nodes, cur, spec, ji + 1);
        }

        if let Some(agg) = &spec.aggregate {
            cur = self.attach_aggregate(&mut nodes, cur, spec, agg)?;
        }
        if let Some(order) = &spec.order_by {
            cur = self.attach_order(&mut nodes, cur, spec, order)?;
        }
        if let Some(n) = spec.top {
            let est = cur.est.min(n as f64);
            let out_cols = cur.bound.len();
            let root = push(
                &mut nodes,
                OperatorKind::Top { n },
                vec![cur.root],
                est,
                8.0 * out_cols as f64,
                out_cols,
            );
            cur = Partial { root, est, bound: cur.bound, sorted: cur.sorted };
        }

        let plan = PhysicalPlan { nodes, root: cur.root };
        plan.validate()?;
        Ok(plan)
    }

    fn has_index(&self, table: &str, col: &str) -> bool {
        self.design.has_index(table, col)
    }

    /// Per-table projection lists: carry columns (joins, aggregates,
    /// ordering) first, then filter-only columns.
    fn needed_columns(&self, spec: &QuerySpec) -> Vec<Needed> {
        let n = spec.tables.len();
        let mut lists: Vec<Vec<String>> = vec![Vec::new(); n];
        let add = |lists: &mut Vec<Vec<String>>, t: usize, col: &str| {
            if !lists[t].iter().any(|c| c == col) {
                lists[t].push(col.to_string());
            }
        };
        for (ji, j) in spec.joins.iter().enumerate() {
            add(&mut lists, j.left_table, &j.left_col);
            add(&mut lists, ji + 1, &j.right_col);
        }
        if let Some(agg) = &spec.aggregate {
            for (t, c) in &agg.group_cols {
                add(&mut lists, *t, c);
            }
            for a in &agg.aggs {
                match a {
                    AggKind::Count => {}
                    AggKind::Sum { table, col }
                    | AggKind::Min { table, col }
                    | AggKind::Max { table, col } => add(&mut lists, *table, col),
                }
            }
        }
        if let Some(OrderTarget::Column { table, col }) = &spec.order_by {
            add(&mut lists, *table, col);
        }
        // Every table must carry at least one column (its first column when
        // nothing else is referenced — e.g. single-table COUNT(*) scans).
        for (t, tref) in spec.tables.iter().enumerate() {
            if lists[t].is_empty() {
                let table = self.db.table(&tref.table);
                add(&mut lists, t, &table.meta.columns[0].name);
            }
        }
        let carry_lens: Vec<usize> = lists.iter().map(|l| l.len()).collect();
        // Filter columns go last so they can be projected away.
        for (t, tref) in spec.tables.iter().enumerate() {
            for f in &tref.filters {
                add(&mut lists, t, f.col());
            }
        }
        lists
            .into_iter()
            .zip(carry_lens)
            .map(|(cols, carry_len)| Needed { cols, carry_len })
            .collect()
    }

    /// Build the access path for one table: `IndexSeek(StaticRange)` when a
    /// selective indexed filter exists, an ordered `IndexScan` when the
    /// caller wants sorted output, plain `TableScan` otherwise; remaining
    /// filters above; filter-only columns projected away.
    fn access_path(
        &self,
        nodes: &mut Vec<PlanNode>,
        table_idx: usize,
        tref: &TableRef,
        needed: &Needed,
        prefer_sort_col: Option<&str>,
    ) -> Partial {
        let table = self.db.table(&tref.table);
        let tstats = self.stats.table(&tref.table);
        let rows = tstats.rows as f64;
        let col_idx = |name: &str| -> usize { table.col(name) };
        let proj: Vec<usize> = needed.cols.iter().map(|c| col_idx(c)).collect();
        let pos_of = |name: &str| -> usize {
            needed.cols.iter().position(|c| c == name).expect("needed column missing")
        };

        // Candidate indexed filter with the best (lowest) selectivity.
        let mut best_seek: Option<(usize, f64)> = None;
        for (fi, f) in tref.filters.iter().enumerate() {
            if !self.has_index(&tref.table, f.col()) {
                continue;
            }
            let range_ok = match f {
                FilterSpec::Range { .. } => true,
                FilterSpec::Cmp { op, .. } => !matches!(op, CmpOp::Ne),
            };
            if !range_ok {
                continue;
            }
            let sel = filter_selectivity(tstats, col_idx(f.col()), f);
            if sel <= SEEK_MAX_SELECTIVITY && best_seek.is_none_or(|(_, s)| sel < s) {
                best_seek = Some((fi, sel));
            }
        }

        let (leaf, leaf_est, mut sorted, seek_filter): (NodeId, f64, Option<usize>, Option<usize>) =
            if let Some((fi, sel)) = best_seek {
                let f = &tref.filters[fi];
                let key = col_idx(f.col());
                let cs = &tstats.columns[key];
                let (lo, hi) = match f {
                    FilterSpec::Range { lo, hi, .. } => (*lo, *hi),
                    FilterSpec::Cmp { op, val, .. } => match op {
                        CmpOp::Eq => (*val, *val),
                        CmpOp::Lt => (cs.min, val.saturating_sub(1)),
                        CmpOp::Le => (cs.min, *val),
                        CmpOp::Gt => (val.saturating_add(1), cs.max),
                        CmpOp::Ge => (*val, cs.max),
                        CmpOp::Ne => unreachable!("filtered above"),
                    },
                };
                let est = (rows * sel).max(1.0);
                let id = push(
                    nodes,
                    OperatorKind::IndexSeek {
                        table: tref.table.clone(),
                        key_col: key,
                        cols: proj.clone(),
                        seek: SeekKind::StaticRange { lo, hi },
                    },
                    vec![],
                    est,
                    table.row_bytes() as f64,
                    proj.len(),
                );
                (id, est, Some(pos_of(f.col())), Some(fi))
            } else if let Some(sort_col) =
                prefer_sort_col.filter(|c| self.has_index(&tref.table, c))
            {
                let key = col_idx(sort_col);
                let id = push(
                    nodes,
                    OperatorKind::IndexScan {
                        table: tref.table.clone(),
                        key_col: key,
                        cols: proj.clone(),
                    },
                    vec![],
                    rows.max(1.0), // base cardinality is known exactly
                    table.row_bytes() as f64,
                    proj.len(),
                );
                (id, rows.max(1.0), Some(pos_of(sort_col)), None)
            } else {
                let id = push(
                    nodes,
                    OperatorKind::TableScan { table: tref.table.clone(), cols: proj.clone() },
                    vec![],
                    rows.max(1.0),
                    table.row_bytes() as f64,
                    proj.len(),
                );
                (id, rows.max(1.0), None, None)
            };

        // Remaining filters above the leaf.
        let rest: Vec<(usize, FilterSpec)> = tref
            .filters
            .iter()
            .enumerate()
            .filter(|(fi, _)| Some(*fi) != seek_filter)
            .map(|(_, f)| (col_idx(f.col()), f.clone()))
            .collect();
        let mut root = leaf;
        let mut est = leaf_est;
        if !rest.is_empty() {
            let sel = conjunct_selectivity(tstats, &rest);
            let specs: Vec<FilterSpec> = rest.iter().map(|(_, f)| f.clone()).collect();
            let pred = filters_to_predicate(&specs, &|name| pos_of(name));
            est = (est * sel).max(1.0);
            root = push(
                nodes,
                OperatorKind::Filter { pred },
                vec![root],
                est,
                table.row_bytes() as f64,
                proj.len(),
            );
        }

        let mut bound: Vec<BoundCol> =
            needed.cols.iter().map(|c| BoundCol { table_idx, name: c.clone() }).collect();

        // Project away the filter-only suffix.
        if needed.carry_len < needed.cols.len() {
            let keep: Vec<usize> = (0..needed.carry_len).collect();
            bound.truncate(needed.carry_len);
            sorted = sorted.filter(|&s| s < needed.carry_len);
            root = push(
                nodes,
                OperatorKind::Project { cols: keep },
                vec![root],
                est,
                8.0 * needed.carry_len as f64,
                needed.carry_len,
            );
        }

        Partial { root, est, bound, sorted }
    }

    /// Insert a projection dropping columns not used by joins after
    /// `next_join`, aggregation, or ordering.
    fn project_dead_columns(
        &self,
        nodes: &mut Vec<PlanNode>,
        cur: Partial,
        spec: &QuerySpec,
        next_join: usize,
    ) -> Partial {
        let live = |b: &BoundCol| -> bool {
            for j in spec.joins.iter().skip(next_join) {
                if j.left_table == b.table_idx && j.left_col == b.name {
                    return true;
                }
            }
            if let Some(agg) = &spec.aggregate {
                for (t, c) in &agg.group_cols {
                    if *t == b.table_idx && c == &b.name {
                        return true;
                    }
                }
                for a in &agg.aggs {
                    match a {
                        AggKind::Count => {}
                        AggKind::Sum { table, col }
                        | AggKind::Min { table, col }
                        | AggKind::Max { table, col } => {
                            if *table == b.table_idx && col == &b.name {
                                return true;
                            }
                        }
                    }
                }
                return false; // aggregation consumes everything else
            }
            if let Some(OrderTarget::Column { table, col }) = &spec.order_by {
                if *table == b.table_idx && col == &b.name {
                    return true;
                }
            }
            // Without aggregation every column is in the SELECT list.
            true
        };
        let keep: Vec<usize> = (0..cur.bound.len()).filter(|&i| live(&cur.bound[i])).collect();
        if keep.is_empty() || cur.bound.len() - keep.len() < 2 {
            return cur;
        }
        let bound: Vec<BoundCol> = keep.iter().map(|&i| cur.bound[i].clone()).collect();
        let sorted = cur.sorted.and_then(|s| keep.iter().position(|&i| i == s));
        let root = push(
            nodes,
            OperatorKind::Project { cols: keep.clone() },
            vec![cur.root],
            cur.est,
            8.0 * keep.len() as f64,
            keep.len(),
        );
        Partial { root, est: cur.est, bound, sorted }
    }

    fn attach_aggregate(
        &self,
        nodes: &mut Vec<PlanNode>,
        cur: Partial,
        spec: &QuerySpec,
        agg: &AggSpec,
    ) -> Result<Partial, String> {
        let find = |t: usize, c: &str| -> Result<usize, String> {
            cur.bound
                .iter()
                .position(|b| b.table_idx == t && b.name == c)
                .ok_or_else(|| format!("aggregate column {t}.{c} not in scope"))
        };
        let group_pos: Vec<usize> =
            agg.group_cols.iter().map(|(t, c)| find(*t, c)).collect::<Result<_, String>>()?;
        let aggs: Vec<AggFunc> = agg
            .aggs
            .iter()
            .map(|a| {
                Ok(match a {
                    AggKind::Count => AggFunc::Count,
                    AggKind::Sum { table, col } => AggFunc::Sum { col: find(*table, col)? },
                    AggKind::Min { table, col } => AggFunc::Min { col: find(*table, col)? },
                    AggKind::Max { table, col } => AggFunc::Max { col: find(*table, col)? },
                })
            })
            .collect::<Result<_, String>>()?;

        let group_stats: Vec<&crate::stats::ColumnStats> = agg
            .group_cols
            .iter()
            .map(|(t, c)| {
                let base = &spec.tables[*t].table;
                &self.stats.table(base).columns[self.db.table(base).col(c)]
            })
            .collect();
        let est = group_count(cur.est, &group_stats);
        let out_cols = group_pos.len() + aggs.len();
        let streaming = group_pos.len() == 1
            && cur.sorted.is_some()
            && cur.sorted == group_pos.first().copied();
        let op = if streaming {
            OperatorKind::StreamAggregate { group_cols: group_pos.clone(), aggs }
        } else {
            OperatorKind::HashAggregate { group_cols: group_pos.clone(), aggs }
        };
        let mut root = push(nodes, op, vec![cur.root], est, 8.0 * out_cols as f64, out_cols);
        let mut bound: Vec<BoundCol> = agg
            .group_cols
            .iter()
            .map(|(t, c)| BoundCol { table_idx: *t, name: c.clone() })
            .collect();
        for i in 0..agg.aggs.len() {
            bound.push(BoundCol::agg(i));
        }
        let mut est_out = est;
        if let Some((op_cmp, val)) = &agg.having {
            // Real optimizers guess a fixed selectivity for HAVING.
            est_out = (est * 0.33).max(1.0);
            root = push(
                nodes,
                OperatorKind::Filter {
                    pred: Predicate::ColCmp { col: group_pos.len(), op: *op_cmp, val: *val },
                },
                vec![root],
                est_out,
                8.0 * out_cols as f64,
                out_cols,
            );
        }
        let sorted = if streaming { Some(0) } else { None };
        Ok(Partial { root, est: est_out, bound, sorted })
    }

    fn attach_order(
        &self,
        nodes: &mut Vec<PlanNode>,
        cur: Partial,
        spec: &QuerySpec,
        order: &OrderTarget,
    ) -> Result<Partial, String> {
        let pos = match order {
            OrderTarget::Column { table, col } => cur
                .bound
                .iter()
                .position(|b| b.table_idx == *table && &b.name == col)
                .ok_or_else(|| format!("order column {table}.{col} not in scope"))?,
            OrderTarget::AggResult { idx } => {
                let agg = spec.aggregate.as_ref().expect("validated");
                agg.group_cols.len() + idx
            }
        };
        if cur.sorted == Some(pos) {
            return Ok(cur);
        }
        let out_cols = cur.bound.len();
        let root = push(
            nodes,
            OperatorKind::Sort { key_cols: vec![pos] },
            vec![cur.root],
            cur.est,
            8.0 * out_cols as f64,
            out_cols,
        );
        Ok(Partial { root, est: cur.est, bound: cur.bound, sorted: Some(pos) })
    }
}

/// Lower filter specs to a conjunctive [`Predicate`] over projected
/// positions.
fn filters_to_predicate(filters: &[FilterSpec], pos: &dyn Fn(&str) -> usize) -> Predicate {
    let mut preds: Vec<Predicate> = filters
        .iter()
        .map(|f| match f {
            FilterSpec::Cmp { col, op, val } => {
                Predicate::ColCmp { col: pos(col), op: *op, val: *val }
            }
            FilterSpec::Range { col, lo, hi } => {
                Predicate::ColRange { col: pos(col), lo: *lo, hi: *hi }
            }
        })
        .collect();
    let mut acc = preds.pop().expect("at least one filter");
    while let Some(p) = preds.pop() {
        acc = Predicate::And(Box::new(p), Box::new(acc));
    }
    acc
}

/// Append a node, returning its id.
fn push(
    nodes: &mut Vec<PlanNode>,
    op: OperatorKind,
    children: Vec<NodeId>,
    est_rows: f64,
    est_row_bytes: f64,
    out_cols: usize,
) -> NodeId {
    let id = nodes.len();
    nodes.push(PlanNode { op, children, est_rows, est_row_bytes, out_cols });
    id
}

#[cfg(test)]
mod tests;
