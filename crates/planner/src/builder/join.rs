//! Join-method selection and the four join constructors: merge join over
//! an ordered index scan, sort-merge, nested loop (index seek or naive
//! rescan, with an optional batch sort above the outer) and hash join.

use super::{filters_to_predicate, push, BoundCol, Needed, Partial, PlanBuilder};
use crate::cardinality::{conjunct_selectivity, join_size};
use crate::query::{FilterSpec, JoinSpec, QuerySpec, TableRef};
use prosel_datagen::Table;
use prosel_engine::plan::{CmpOp, OperatorKind, PlanNode, Predicate, SeekKind};

/// The right-hand table of one join and what joining it costs, resolved
/// once by [`PlanBuilder::attach_join`] and read by every constructor.
struct JoinSide<'s> {
    join: &'s JoinSpec,
    tref: &'s TableRef,
    table: &'s Table,
    /// Position of the joined table in `spec.tables`.
    right_idx: usize,
    needed: &'s Needed,
    /// Position of the left join column in the current result.
    left_pos: usize,
    /// Base cardinality of the joined table.
    t_rows: f64,
    /// Estimated join size before and after the joined table's own
    /// filters.
    raw_join: f64,
    post_join: f64,
}

impl<'a> PlanBuilder<'a> {
    /// Join `cur` with `spec.tables[join_idx + 1]`.
    pub(super) fn attach_join(
        &self,
        nodes: &mut Vec<PlanNode>,
        cur: Partial,
        spec: &QuerySpec,
        join_idx: usize,
        right_needed: &Needed,
    ) -> Result<Partial, String> {
        let right_idx = join_idx + 1;
        let join = &spec.joins[join_idx];
        let tref = &spec.tables[right_idx];
        let table = self.db.table(&tref.table);
        let tstats = self.stats.table(&tref.table);
        let t_rows = tstats.rows as f64;

        let left_pos = cur
            .bound
            .iter()
            .position(|b| b.table_idx == join.left_table && b.name == join.left_col)
            .ok_or_else(|| {
                format!(
                    "join {join_idx}: left column {}.{} not in scope",
                    join.left_table, join.left_col
                )
            })?;

        let local_filters: Vec<(usize, FilterSpec)> =
            tref.filters.iter().map(|f| (table.col(f.col()), f.clone())).collect();
        let local_sel = if local_filters.is_empty() {
            1.0
        } else {
            conjunct_selectivity(tstats, &local_filters)
        };
        let t_after = (t_rows * local_sel).max(1.0);

        let left_base = &spec.tables[join.left_table].table;
        let lcol_stats =
            &self.stats.table(left_base).columns[self.db.table(left_base).col(&join.left_col)];
        let rcol_stats = &tstats.columns[table.col(&join.right_col)];
        let raw_join = join_size(cur.est, t_rows, lcol_stats, rcol_stats).max(1.0);
        let post_join = (raw_join * local_sel).max(1.0);

        // Method costs. Seeks are cheap when the inner table is small
        // enough to stay buffer-pool resident, or when the batch sort that
        // would be inserted localizes the references ([9]; paper §5.1).
        let idx_on_right = self.has_index(&tref.table, &join.right_col);
        let inner_bytes = t_rows * table.row_bytes() as f64;
        let eff_seek_cost = if inner_bytes <= 96.0 * 1024.0 {
            2.5
        } else if cur.est >= self.cfg.batch_sort_min_outer {
            self.cfg.seek_cost * 0.35
        } else {
            self.cfg.seek_cost
        };
        let cost_nlj =
            if idx_on_right { cur.est * eff_seek_cost + post_join } else { f64::INFINITY };
        let cost_rescan = if tstats.rows <= self.cfg.tiny_inner_rows {
            cur.est * t_rows * 0.5 + post_join
        } else {
            f64::INFINITY
        };
        let merge_feasible =
            idx_on_right && cur.sorted == Some(left_pos) && local_filters.is_empty();
        let cost_merge = if merge_feasible { cur.est + t_rows + post_join } else { f64::INFINITY };
        // Hash joins whose build side exceeds memory pay for spilling.
        let est_build_bytes = t_after.min(cur.est) * 24.0;
        let spill_penalty =
            if est_build_bytes > 24.0 * 1024.0 { 0.8 * (t_after + cur.est) } else { 0.0 };
        let cost_hash = t_after.min(cur.est) * self.cfg.hash_build_cost
            + t_after.max(cur.est)
            + post_join
            + spill_penalty;
        // Sort both inputs, then merge — attractive for large-large joins
        // that would make the hash join spill.
        let cost_sort_merge = 0.08
            * (cur.est * (cur.est + 2.0).log2() + t_after * (t_after + 2.0).log2())
            + cur.est
            + t_after
            + post_join;
        let best = cost_nlj.min(cost_rescan).min(cost_merge).min(cost_hash).min(cost_sort_merge);

        let side = JoinSide {
            join,
            tref,
            table,
            right_idx,
            needed: right_needed,
            left_pos,
            t_rows,
            raw_join,
            post_join,
        };
        Ok(if best == cost_merge {
            self.build_merge_join(nodes, cur, &side)
        } else if best == cost_sort_merge {
            self.build_sort_merge_join(nodes, cur, &side)
        } else if best == cost_nlj || best == cost_rescan {
            self.build_nl_join(nodes, cur, &side, best == cost_nlj)
        } else {
            self.build_hash_join(nodes, cur, &side)
        })
    }

    fn build_merge_join(
        &self,
        nodes: &mut Vec<PlanNode>,
        cur: Partial,
        side: &JoinSide,
    ) -> Partial {
        let (join, table) = (side.join, side.table);
        // No local filters by feasibility; carry columns only.
        let carry = &side.needed.cols[..side.needed.carry_len];
        let key = table.col(&join.right_col);
        let proj: Vec<usize> = carry.iter().map(|c| table.col(c)).collect();
        let right = push(
            nodes,
            OperatorKind::IndexScan { table: side.tref.table.clone(), key_col: key, cols: proj },
            vec![],
            side.t_rows.max(1.0),
            table.row_bytes() as f64,
            carry.len(),
        );
        let right_key =
            carry.iter().position(|c| c == &join.right_col).expect("join col projected");
        let out_cols = cur.bound.len() + carry.len();
        let root = push(
            nodes,
            OperatorKind::MergeJoin { left_key: side.left_pos, right_key },
            vec![cur.root, right],
            side.post_join,
            8.0 * out_cols as f64,
            out_cols,
        );
        let mut bound = cur.bound;
        bound.extend(carry.iter().map(|c| BoundCol { table_idx: side.right_idx, name: c.clone() }));
        Partial { root, est: side.post_join, bound, sorted: Some(side.left_pos) }
    }

    /// Sort both inputs on the join key, then merge-join them.
    fn build_sort_merge_join(
        &self,
        nodes: &mut Vec<PlanNode>,
        cur: Partial,
        side: &JoinSide,
    ) -> Partial {
        let left_pos = side.left_pos;
        // Left input sorted on the join column (unless already sorted).
        let left_sorted = if cur.sorted == Some(left_pos) {
            cur.root
        } else {
            push(
                nodes,
                OperatorKind::Sort { key_cols: vec![left_pos] },
                vec![cur.root],
                cur.est,
                8.0 * cur.bound.len() as f64,
                cur.bound.len(),
            )
        };
        // Right input: access path, then sort on its join column.
        let right_sub = self.access_path(nodes, side.right_idx, side.tref, side.needed, None);
        let right_key = right_sub
            .bound
            .iter()
            .position(|b| b.name == side.join.right_col)
            .expect("join col projected");
        let right_sorted = if right_sub.sorted == Some(right_key) {
            right_sub.root
        } else {
            push(
                nodes,
                OperatorKind::Sort { key_cols: vec![right_key] },
                vec![right_sub.root],
                right_sub.est,
                8.0 * right_sub.bound.len() as f64,
                right_sub.bound.len(),
            )
        };
        let out_cols = cur.bound.len() + right_sub.bound.len();
        let root = push(
            nodes,
            OperatorKind::MergeJoin { left_key: left_pos, right_key },
            vec![left_sorted, right_sorted],
            side.post_join,
            8.0 * out_cols as f64,
            out_cols,
        );
        let mut bound = cur.bound;
        bound.extend(right_sub.bound);
        Partial { root, est: side.post_join, bound, sorted: Some(left_pos) }
    }

    fn build_nl_join(
        &self,
        nodes: &mut Vec<PlanNode>,
        cur: Partial,
        side: &JoinSide,
        use_seek: bool,
    ) -> Partial {
        let (tref, table, needed) = (side.tref, side.table, side.needed);
        let (left_pos, post_join) = (side.left_pos, side.post_join);

        // Maybe batch-sort the outer to localize inner references.
        let mut outer_root = cur.root;
        let mut outer_sorted = cur.sorted;
        if use_seek && cur.est >= self.cfg.batch_sort_min_outer && cur.sorted != Some(left_pos) {
            let batch = (cur.est / 3.0).clamp(64.0, 4096.0) as usize;
            outer_root = push(
                nodes,
                OperatorKind::BatchSort { key_col: left_pos, batch },
                vec![outer_root],
                cur.est,
                8.0 * cur.bound.len() as f64,
                cur.bound.len(),
            );
            outer_sorted = None; // sorted only within batches
        }

        let proj: Vec<usize> = needed.cols.iter().map(|c| table.col(c)).collect();
        let pos_of = |name: &str| -> usize {
            needed.cols.iter().position(|c| c == name).expect("needed column missing")
        };
        let mut inner = if use_seek {
            push(
                nodes,
                OperatorKind::IndexSeek {
                    table: tref.table.clone(),
                    key_col: table.col(&side.join.right_col),
                    cols: proj,
                    seek: SeekKind::BoundParam,
                },
                vec![],
                side.raw_join, // total GetNext calls over all rebinds
                table.row_bytes() as f64,
                needed.cols.len(),
            )
        } else {
            let scan = push(
                nodes,
                OperatorKind::TableScan { table: tref.table.clone(), cols: proj },
                vec![],
                (cur.est * side.t_rows).max(1.0),
                table.row_bytes() as f64,
                needed.cols.len(),
            );
            push(
                nodes,
                OperatorKind::Filter {
                    pred: Predicate::BoundCmp { col: pos_of(&side.join.right_col), op: CmpOp::Eq },
                },
                vec![scan],
                side.raw_join,
                table.row_bytes() as f64,
                needed.cols.len(),
            )
        };
        if !tref.filters.is_empty() {
            let pred = filters_to_predicate(&tref.filters, &|name| pos_of(name));
            inner = push(
                nodes,
                OperatorKind::Filter { pred },
                vec![inner],
                post_join,
                table.row_bytes() as f64,
                needed.cols.len(),
            );
        }
        // Project the inner down to carry columns before the join output.
        if needed.carry_len < needed.cols.len() {
            inner = push(
                nodes,
                OperatorKind::Project { cols: (0..needed.carry_len).collect() },
                vec![inner],
                post_join,
                8.0 * needed.carry_len as f64,
                needed.carry_len,
            );
        }
        let carry = &needed.cols[..needed.carry_len];
        let out_cols = cur.bound.len() + carry.len();
        let root = push(
            nodes,
            OperatorKind::NestedLoopJoin { outer_key: left_pos },
            vec![outer_root, inner],
            post_join,
            8.0 * out_cols as f64,
            out_cols,
        );
        let mut bound = cur.bound;
        bound.extend(carry.iter().map(|c| BoundCol { table_idx: side.right_idx, name: c.clone() }));
        Partial { root, est: post_join, bound, sorted: outer_sorted }
    }

    fn build_hash_join(&self, nodes: &mut Vec<PlanNode>, cur: Partial, side: &JoinSide) -> Partial {
        let right_sub = self.access_path(nodes, side.right_idx, side.tref, side.needed, None);
        let right_key = right_sub
            .bound
            .iter()
            .position(|b| b.name == side.join.right_col)
            .expect("join col projected");
        // Build the smaller estimated side.
        let (probe, build, probe_key, build_key, probe_bound, build_bound, probe_sorted) =
            if right_sub.est <= cur.est {
                (
                    cur.root,
                    right_sub.root,
                    side.left_pos,
                    right_key,
                    cur.bound,
                    right_sub.bound,
                    cur.sorted,
                )
            } else {
                (
                    right_sub.root,
                    cur.root,
                    right_key,
                    side.left_pos,
                    right_sub.bound,
                    cur.bound,
                    right_sub.sorted,
                )
            };
        let out_cols = probe_bound.len() + build_bound.len();
        let root = push(
            nodes,
            OperatorKind::HashJoin { probe_key, build_key },
            vec![probe, build],
            side.post_join,
            8.0 * out_cols as f64,
            out_cols,
        );
        let mut bound = probe_bound;
        bound.extend(build_bound);
        Partial { root, est: side.post_join, bound, sorted: probe_sorted }
    }
}
