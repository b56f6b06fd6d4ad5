//! Logical query specifications (what workload generators produce and the
//! plan builder consumes).
//!
//! A [`QuerySpec`] is a select-project-join-aggregate block: a list of
//! base tables with local filters, a left-deep join order (join `i`
//! attaches `tables[i+1]` to a column of an earlier table), an optional
//! aggregation with HAVING, an optional ORDER BY and TOP.

use prosel_engine::CmpOp;

/// A single-column filter.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterSpec {
    Cmp { col: String, op: CmpOp, val: i64 },
    Range { col: String, lo: i64, hi: i64 },
}

impl FilterSpec {
    pub fn col(&self) -> &str {
        match self {
            FilterSpec::Cmp { col, .. } | FilterSpec::Range { col, .. } => col,
        }
    }
}

/// A base-table occurrence with pushed-down filters.
#[derive(Debug, Clone)]
pub struct TableRef {
    pub table: String,
    pub filters: Vec<FilterSpec>,
}

impl TableRef {
    pub fn new(table: &str) -> Self {
        TableRef { table: table.to_string(), filters: Vec::new() }
    }

    pub fn with_filter(mut self, f: FilterSpec) -> Self {
        self.filters.push(f);
        self
    }
}

/// Join `i` connects `tables[i+1].right_col` to `tables[left_table].left_col`
/// (`left_table <= i`).
#[derive(Debug, Clone)]
pub struct JoinSpec {
    pub left_table: usize,
    pub left_col: String,
    pub right_col: String,
}

/// Aggregate function over a (table, column) of the join output.
#[derive(Debug, Clone)]
pub enum AggKind {
    Count,
    Sum { table: usize, col: String },
    Min { table: usize, col: String },
    Max { table: usize, col: String },
}

/// Aggregation block: group by up to two columns, compute `aggs`, then
/// optionally filter groups (HAVING) on the first aggregate's value.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub group_cols: Vec<(usize, String)>,
    pub aggs: Vec<AggKind>,
    pub having: Option<(CmpOp, i64)>,
}

/// ORDER BY target.
#[derive(Debug, Clone)]
pub enum OrderTarget {
    /// A join-output column.
    Column { table: usize, col: String },
    /// The `idx`-th aggregate result (requires an aggregation block).
    AggResult { idx: usize },
}

/// One logical query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub tables: Vec<TableRef>,
    pub joins: Vec<JoinSpec>,
    pub aggregate: Option<AggSpec>,
    pub order_by: Option<OrderTarget>,
    pub top: Option<u64>,
}

impl QuerySpec {
    /// Single-table query.
    #[cfg(test)]
    pub(crate) fn single(table: TableRef) -> Self {
        QuerySpec {
            tables: vec![table],
            joins: Vec::new(),
            aggregate: None,
            order_by: None,
            top: None,
        }
    }

    /// Validate index invariants (joins reference earlier tables, etc.).
    pub fn validate(&self) -> Result<(), String> {
        if self.tables.is_empty() {
            return Err("query must reference at least one table".into());
        }
        if self.joins.len() + 1 != self.tables.len() {
            return Err(format!(
                "{} tables need {} joins, found {}",
                self.tables.len(),
                self.tables.len() - 1,
                self.joins.len()
            ));
        }
        for (i, j) in self.joins.iter().enumerate() {
            if j.left_table > i {
                return Err(format!(
                    "join {i} references table {} which is not yet joined",
                    j.left_table
                ));
            }
        }
        if let Some(agg) = &self.aggregate {
            if agg.group_cols.is_empty() || agg.group_cols.len() > 2 {
                return Err("aggregation must group by 1 or 2 columns".into());
            }
            if agg.aggs.is_empty() {
                return Err("aggregation must compute at least one aggregate".into());
            }
            if agg.having.is_some() && agg.aggs.is_empty() {
                return Err("HAVING requires an aggregate".into());
            }
            for (t, _) in &agg.group_cols {
                if *t >= self.tables.len() {
                    return Err("group column references unknown table".into());
                }
            }
        }
        if let Some(OrderTarget::AggResult { idx }) = &self.order_by {
            match &self.aggregate {
                None => return Err("ORDER BY aggregate requires aggregation".into()),
                Some(a) if *idx >= a.aggs.len() => {
                    return Err("ORDER BY references missing aggregate".into())
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_join_indices() {
        let q = QuerySpec {
            tables: vec![TableRef::new("a"), TableRef::new("b")],
            joins: vec![JoinSpec { left_table: 0, left_col: "x".into(), right_col: "y".into() }],
            aggregate: None,
            order_by: None,
            top: None,
        };
        assert!(q.validate().is_ok());

        let bad = QuerySpec {
            tables: vec![TableRef::new("a"), TableRef::new("b")],
            joins: vec![JoinSpec { left_table: 5, left_col: "x".into(), right_col: "y".into() }],
            aggregate: None,
            order_by: None,
            top: None,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_aggregate_rules() {
        let mut q = QuerySpec::single(TableRef::new("a"));
        q.aggregate =
            Some(AggSpec { group_cols: vec![], aggs: vec![AggKind::Count], having: None });
        assert!(q.validate().is_err());
        q.aggregate = Some(AggSpec {
            group_cols: vec![(0, "c".into())],
            aggs: vec![AggKind::Count],
            having: None,
        });
        assert!(q.validate().is_ok());
        q.order_by = Some(OrderTarget::AggResult { idx: 3 });
        assert!(q.validate().is_err());
        q.order_by = Some(OrderTarget::AggResult { idx: 0 });
        assert!(q.validate().is_ok());
    }
}
