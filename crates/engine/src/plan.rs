//! Physical plan representation.
//!
//! A [`PhysicalPlan`] is a tree of [`PlanNode`]s, each carrying an
//! [`OperatorKind`], optimizer cardinality estimates (`est_rows` — the
//! paper's E_i) and an estimated output row width in bytes (for the
//! bytes-processed model). Nodes are stored in a flat arena indexed by
//! [`NodeId`]; children precede parents is *not* guaranteed — use
//! [`PhysicalPlan::topo_order`] when order matters.
//!
//! Column addressing is positional: every operator's output is a tuple of
//! `i64` columns; predicates and join keys refer to indices into the
//! *child's* output (for joins, into the concatenation
//! `outer columns ++ inner columns`).

use std::fmt;

/// Index of a node within its plan's arena.
pub type NodeId = usize;

/// Comparison operators usable in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A row predicate over a single input tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `col <op> constant`.
    ColCmp {
        col: usize,
        op: CmpOp,
        val: i64,
    },
    /// `lo <= col <= hi`.
    ColRange {
        col: usize,
        lo: i64,
        hi: i64,
    },
    /// `col <op> <current nested-loop binding>` — used on the inner side of
    /// a naive (rescan) nested-loop join.
    BoundCmp {
        col: usize,
        op: CmpOp,
    },
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Evaluate against a tuple, with `binding` supplying the correlated
    /// nested-loop parameter (if any).
    pub fn eval(&self, row: &[i64], binding: i64) -> bool {
        match self {
            Predicate::ColCmp { col, op, val } => op.eval(row[*col], *val),
            Predicate::ColRange { col, lo, hi } => {
                let v = row[*col];
                *lo <= v && v <= *hi
            }
            Predicate::BoundCmp { col, op } => op.eval(row[*col], binding),
            Predicate::And(a, b) => a.eval(row, binding) && b.eval(row, binding),
            Predicate::Or(a, b) => a.eval(row, binding) || b.eval(row, binding),
        }
    }

    /// Does this predicate (transitively) reference the nested-loop binding?
    pub fn uses_binding(&self) -> bool {
        match self {
            Predicate::BoundCmp { .. } => true,
            Predicate::And(a, b) | Predicate::Or(a, b) => a.uses_binding() || b.uses_binding(),
            _ => false,
        }
    }

    /// Largest column index referenced, or `None` if none.
    pub fn max_col(&self) -> Option<usize> {
        match self {
            Predicate::ColCmp { col, .. }
            | Predicate::ColRange { col, .. }
            | Predicate::BoundCmp { col, .. } => Some(*col),
            Predicate::And(a, b) | Predicate::Or(a, b) => a.max_col().max(b.max_col()),
        }
    }
}

/// How an index seek obtains its key.
#[derive(Debug, Clone, PartialEq)]
pub enum SeekKind {
    /// Key is the correlated nested-loop binding (classic inner side of a
    /// nested iteration).
    BoundParam,
    /// Static key range `lo..=hi` (an index-range access path for a
    /// filter predicate).
    StaticRange { lo: i64, hi: i64 },
}

/// Aggregate function over one input column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum { col: usize },
    Min { col: usize },
    Max { col: usize },
}

/// Physical operators supported by the execution simulator.
///
/// The set mirrors the operators the paper's Table 1 tracks (nested-loop
/// join, merge join, hash join/aggregate, index seek, batch sort, stream
/// aggregate) plus the scan/filter/sort/top plumbing they require.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorKind {
    /// Full sequential scan of `table`, projecting `cols`.
    TableScan { table: String, cols: Vec<usize> },
    /// Scan in `key_col` order through an index (output sorted by the
    /// projected position of `key_col`).
    IndexScan { table: String, key_col: usize, cols: Vec<usize> },
    /// Index lookup; emits rows whose `key_col` matches the seek key(s).
    IndexSeek { table: String, key_col: usize, cols: Vec<usize>, seek: SeekKind },
    /// Row filter.
    Filter { pred: Predicate },
    /// Hash join; children `[probe, build]`, equi-join on
    /// `probe[probe_key] == build[build_key]`. Output = probe ++ build.
    HashJoin { probe_key: usize, build_key: usize },
    /// Merge join; children `[left, right]`, both sorted on their keys.
    /// Output = left ++ right.
    MergeJoin { left_key: usize, right_key: usize },
    /// Nested-loop join; children `[outer, inner]`. The inner subtree is
    /// re-opened for every outer row with binding `outer[outer_key]`.
    /// Output = outer ++ inner.
    NestedLoopJoin { outer_key: usize },
    /// Hash aggregation (blocking). Output = group cols ++ one col per agg.
    HashAggregate { group_cols: Vec<usize>, aggs: Vec<AggFunc> },
    /// Streaming aggregation over input sorted by `group_cols`.
    StreamAggregate { group_cols: Vec<usize>, aggs: Vec<AggFunc> },
    /// Full blocking sort by `key_cols` (ascending, lexicographic).
    Sort { key_cols: Vec<usize> },
    /// Partial batch sort: consume `batch` rows, sort by `key_col`, emit,
    /// repeat. Used to localize nested-iteration references (\[9\], §5.1 of
    /// the paper).
    BatchSort { key_col: usize, batch: usize },
    /// Emit only the first `n` rows.
    Top { n: u64 },
    /// Pass-through adding `added_cols` computed columns (cost stand-in for
    /// scalar expressions; computed values are simple derivations).
    ComputeScalar { added_cols: usize },
    /// Projection: keep only the listed child columns (dead-column
    /// elimination between joins).
    Project { cols: Vec<usize> },
}

impl OperatorKind {
    /// Short stable name used in features and reports.
    pub fn name(&self) -> &'static str {
        match self {
            OperatorKind::TableScan { .. } => "TableScan",
            OperatorKind::IndexScan { .. } => "IndexScan",
            OperatorKind::IndexSeek { .. } => "IndexSeek",
            OperatorKind::Filter { .. } => "Filter",
            OperatorKind::HashJoin { .. } => "HashJoin",
            OperatorKind::MergeJoin { .. } => "MergeJoin",
            OperatorKind::NestedLoopJoin { .. } => "NestedLoopJoin",
            OperatorKind::HashAggregate { .. } => "HashAggregate",
            OperatorKind::StreamAggregate { .. } => "StreamAggregate",
            OperatorKind::Sort { .. } => "Sort",
            OperatorKind::BatchSort { .. } => "BatchSort",
            OperatorKind::Top { .. } => "Top",
            OperatorKind::ComputeScalar { .. } => "ComputeScalar",
            OperatorKind::Project { .. } => "Project",
        }
    }

    /// Dense operator-type code used for feature vectors; see
    /// [`OP_TYPE_COUNT`].
    pub fn type_code(&self) -> usize {
        match self {
            OperatorKind::TableScan { .. } => 0,
            OperatorKind::IndexScan { .. } => 1,
            OperatorKind::IndexSeek { .. } => 2,
            OperatorKind::Filter { .. } => 3,
            OperatorKind::HashJoin { .. } => 4,
            OperatorKind::MergeJoin { .. } => 5,
            OperatorKind::NestedLoopJoin { .. } => 6,
            OperatorKind::HashAggregate { .. } => 7,
            OperatorKind::StreamAggregate { .. } => 8,
            OperatorKind::Sort { .. } => 9,
            OperatorKind::BatchSort { .. } => 10,
            OperatorKind::Top { .. } => 11,
            OperatorKind::ComputeScalar { .. } => 12,
            OperatorKind::Project { .. } => 13,
        }
    }

    /// Number of children this operator requires.
    pub fn arity(&self) -> usize {
        match self {
            OperatorKind::TableScan { .. }
            | OperatorKind::IndexScan { .. }
            | OperatorKind::IndexSeek { .. } => 0,
            OperatorKind::HashJoin { .. }
            | OperatorKind::MergeJoin { .. }
            | OperatorKind::NestedLoopJoin { .. } => 2,
            _ => 1,
        }
    }
}

/// Number of distinct operator type codes.
pub const OP_TYPE_COUNT: usize = 14;

/// Stable names aligned with [`OperatorKind::type_code`].
pub const OP_TYPE_NAMES: [&str; OP_TYPE_COUNT] = [
    "TableScan",
    "IndexScan",
    "IndexSeek",
    "Filter",
    "HashJoin",
    "MergeJoin",
    "NestedLoopJoin",
    "HashAggregate",
    "StreamAggregate",
    "Sort",
    "BatchSort",
    "Top",
    "ComputeScalar",
    "Project",
];

/// One node of a physical plan.
#[derive(Debug, Clone)]
pub struct PlanNode {
    pub op: OperatorKind,
    pub children: Vec<NodeId>,
    /// Optimizer estimate of total GetNext calls at this node (the paper's
    /// E_i). For base-table scans this is exact; elsewhere it inherits the
    /// cardinality model's errors.
    pub est_rows: f64,
    /// Estimated average output row width in bytes.
    pub est_row_bytes: f64,
    /// Number of output columns.
    pub out_cols: usize,
}

/// A physical plan: node arena plus root.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub nodes: Vec<PlanNode>,
    pub root: NodeId,
}

/// Registration surfaces take `impl Into<Arc<PhysicalPlan>>`: a borrowed
/// plan clones into a fresh `Arc` (the common "register this plan I still
/// own" path), while an owned `Arc` moves in without copying (the sharded
/// service registering one plan on many shards).
impl From<&PhysicalPlan> for std::sync::Arc<PhysicalPlan> {
    fn from(plan: &PhysicalPlan) -> Self {
        std::sync::Arc::new(plan.clone())
    }
}

impl PhysicalPlan {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id]
    }

    /// All node ids in post-order (children before parents), starting from
    /// the root. Unreachable nodes are excluded.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut visited = vec![false; self.nodes.len()];
        // Iterative post-order DFS.
        let mut stack: Vec<(NodeId, usize)> = vec![(self.root, 0)];
        while let Some(&mut (id, ref mut child_idx)) = stack.last_mut() {
            if visited[id] {
                stack.pop();
                continue;
            }
            let children = &self.nodes[id].children;
            if *child_idx < children.len() {
                let c = children[*child_idx];
                *child_idx += 1;
                stack.push((c, 0));
            } else {
                visited[id] = true;
                order.push(id);
                stack.pop();
            }
        }
        order
    }

    /// Parent of each node (`None` for the root / unreachable nodes).
    pub fn parents(&self) -> Vec<Option<NodeId>> {
        let mut parents = vec![None; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            for &c in &node.children {
                parents[c] = Some(id);
            }
        }
        parents
    }

    /// Sum of `est_rows` over all nodes (the TGN denominator Σ E_i).
    pub fn total_est_rows(&self) -> f64 {
        self.nodes.iter().map(|n| n.est_rows).sum()
    }

    /// Validate structural invariants (child arity, column references,
    /// acyclicity via topo reachability). Returns a description of the
    /// first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty plan".into());
        }
        if self.root >= self.nodes.len() {
            return Err(format!("root {} out of bounds", self.root));
        }
        for (id, node) in self.nodes.iter().enumerate() {
            if node.children.len() != node.op.arity() {
                return Err(format!(
                    "node {id} ({}) expects {} children, has {}",
                    node.op.name(),
                    node.op.arity(),
                    node.children.len()
                ));
            }
            for &c in &node.children {
                if c >= self.nodes.len() {
                    return Err(format!("node {id} child {c} out of bounds"));
                }
            }
            if !node.est_rows.is_finite() || node.est_rows < 0.0 {
                return Err(format!("node {id} has invalid est_rows {}", node.est_rows));
            }
            let child_cols = |i: usize| -> usize { self.nodes[node.children[i]].out_cols };
            match &node.op {
                OperatorKind::Filter { pred } => {
                    if let Some(mc) = pred.max_col() {
                        if mc >= child_cols(0) {
                            return Err(format!("node {id} filter col {mc} out of range"));
                        }
                    }
                    if node.out_cols != child_cols(0) {
                        return Err(format!("node {id} filter must preserve columns"));
                    }
                }
                OperatorKind::HashJoin { probe_key, build_key } => {
                    if *probe_key >= child_cols(0) || *build_key >= child_cols(1) {
                        return Err(format!("node {id} hash-join key out of range"));
                    }
                    if node.out_cols != child_cols(0) + child_cols(1) {
                        return Err(format!("node {id} hash-join out_cols mismatch"));
                    }
                }
                OperatorKind::MergeJoin { left_key, right_key } => {
                    if *left_key >= child_cols(0) || *right_key >= child_cols(1) {
                        return Err(format!("node {id} merge-join key out of range"));
                    }
                    if node.out_cols != child_cols(0) + child_cols(1) {
                        return Err(format!("node {id} merge-join out_cols mismatch"));
                    }
                }
                OperatorKind::NestedLoopJoin { outer_key } => {
                    if *outer_key >= child_cols(0) {
                        return Err(format!("node {id} nlj outer key out of range"));
                    }
                    if node.out_cols != child_cols(0) + child_cols(1) {
                        return Err(format!("node {id} nlj out_cols mismatch"));
                    }
                }
                OperatorKind::Project { cols } => {
                    for &c in cols {
                        if c >= child_cols(0) {
                            return Err(format!("node {id} project col {c} out of range"));
                        }
                    }
                    if node.out_cols != cols.len() {
                        return Err(format!("node {id} project out_cols mismatch"));
                    }
                }
                OperatorKind::Sort { key_cols } => {
                    for &k in key_cols {
                        if k >= child_cols(0) {
                            return Err(format!("node {id} sort key {k} out of range"));
                        }
                    }
                }
                OperatorKind::BatchSort { key_col, batch } => {
                    if *key_col >= child_cols(0) {
                        return Err(format!("node {id} batch-sort key out of range"));
                    }
                    if *batch == 0 {
                        return Err(format!("node {id} batch-sort batch must be > 0"));
                    }
                }
                OperatorKind::HashAggregate { group_cols, aggs }
                | OperatorKind::StreamAggregate { group_cols, aggs } => {
                    for &g in group_cols {
                        if g >= child_cols(0) {
                            return Err(format!("node {id} group col {g} out of range"));
                        }
                    }
                    for a in aggs {
                        let c = match a {
                            AggFunc::Count => continue,
                            AggFunc::Sum { col } | AggFunc::Min { col } | AggFunc::Max { col } => {
                                *col
                            }
                        };
                        if c >= child_cols(0) {
                            return Err(format!("node {id} agg col {c} out of range"));
                        }
                    }
                    if node.out_cols != group_cols.len() + aggs.len() {
                        return Err(format!("node {id} aggregate out_cols mismatch"));
                    }
                }
                _ => {}
            }
        }
        // Reachability / acyclicity: topo_order must terminate and visit root.
        let order = self.topo_order();
        if !order.contains(&self.root) {
            return Err("root unreachable in topological order".into());
        }
        Ok(())
    }

    /// Render an indented tree (for debugging and examples).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(self.root, 0, &mut out);
        out
    }

    fn render_node(&self, id: NodeId, depth: usize, out: &mut String) {
        use fmt::Write;
        let node = &self.nodes[id];
        let _ = writeln!(
            out,
            "{:indent$}{} [id={id} est_rows={:.0}]",
            "",
            node.op.name(),
            node.est_rows,
            indent = depth * 2
        );
        for &c in &node.children {
            self.render_node(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn scan_filter_plan() -> PhysicalPlan {
        PhysicalPlan {
            nodes: vec![
                PlanNode {
                    op: OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] },
                    children: vec![],
                    est_rows: 100.0,
                    est_row_bytes: 16.0,
                    out_cols: 2,
                },
                PlanNode {
                    op: OperatorKind::Filter {
                        pred: Predicate::ColCmp { col: 1, op: CmpOp::Gt, val: 5 },
                    },
                    children: vec![0],
                    est_rows: 50.0,
                    est_row_bytes: 16.0,
                    out_cols: 2,
                },
            ],
            root: 1,
        }
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert_eq!(scan_filter_plan().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_filter_col() {
        let mut p = scan_filter_plan();
        p.nodes[1].op =
            OperatorKind::Filter { pred: Predicate::ColCmp { col: 7, op: CmpOp::Eq, val: 0 } };
        assert!(p.validate().is_err());
    }

    #[test]
    fn topo_order_children_first() {
        let p = scan_filter_plan();
        assert_eq!(p.topo_order(), vec![0, 1]);
    }

    #[test]
    fn predicate_eval() {
        let pred = Predicate::And(
            Box::new(Predicate::ColRange { col: 0, lo: 1, hi: 10 }),
            Box::new(Predicate::Or(
                Box::new(Predicate::ColCmp { col: 1, op: CmpOp::Eq, val: 3 }),
                Box::new(Predicate::BoundCmp { col: 1, op: CmpOp::Eq }),
            )),
        );
        assert!(pred.eval(&[5, 3], 0));
        assert!(pred.eval(&[5, 9], 9));
        assert!(!pred.eval(&[5, 9], 3));
        assert!(!pred.eval(&[11, 3], 0));
        assert!(pred.uses_binding());
        assert_eq!(pred.max_col(), Some(1));
    }

    #[test]
    fn cmp_ops() {
        assert!(CmpOp::Eq.eval(1, 1));
        assert!(CmpOp::Ne.eval(1, 2));
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(CmpOp::Le.eval(2, 2));
        assert!(CmpOp::Gt.eval(3, 2));
        assert!(CmpOp::Ge.eval(2, 2));
    }

    #[test]
    fn descendants_and_parents() {
        let p = scan_filter_plan();
        // Node 1's only descendant is its one child.
        assert_eq!(p.node(1).children, vec![0]);
        let parents = p.parents();
        assert_eq!(parents[0], Some(1));
        assert_eq!(parents[1], None);
    }
}
