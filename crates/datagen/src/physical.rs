//! Physical database designs (index configurations).
//!
//! The paper's Section 6 evaluates TPC-H under three designs produced by
//! the Database Tuning Advisor: *untuned* (only integrity-constraint
//! indexes), *partially tuned* (DTA limited to half the fully-tuned index
//! space) and *fully tuned*. The design determines which access paths and
//! join methods the planner can choose, which in turn shifts the operator
//! mix that progress estimation sees (paper Table 1: more index seeks,
//! nested-loop joins and batch sorts as tuning increases).

use crate::schema::ColumnRole;
use crate::table::Database;

/// A secondary index on `(table, key_col)` providing sorted access and
/// point/range seeks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    pub table: String,
    pub key_col: String,
}

impl IndexDef {
    pub fn new(table: &str, key_col: &str) -> Self {
        IndexDef { table: table.to_string(), key_col: key_col.to_string() }
    }
}

/// Tuning level, mirroring the paper's three configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuningLevel {
    Untuned,
    PartiallyTuned,
    FullyTuned,
}

impl TuningLevel {
    pub const ALL: [TuningLevel; 3] =
        [TuningLevel::Untuned, TuningLevel::PartiallyTuned, TuningLevel::FullyTuned];

    pub fn name(&self) -> &'static str {
        match self {
            TuningLevel::Untuned => "untuned",
            TuningLevel::PartiallyTuned => "partially_tuned",
            TuningLevel::FullyTuned => "fully_tuned",
        }
    }
}

/// A physical design: the set of usable indexes.
#[derive(Debug, Clone)]
pub struct PhysicalDesign {
    pub level: TuningLevel,
    pub indexes: Vec<IndexDef>,
}

impl PhysicalDesign {
    /// Derive a design for `db` at the given tuning level.
    ///
    /// * `Untuned`: indexes on primary keys only (integrity constraints).
    /// * `PartiallyTuned`: PKs plus foreign-key indexes on the largest
    ///   *half* of the tables (by rows), emulating DTA under a space budget.
    /// * `FullyTuned`: PKs plus all foreign-key indexes plus indexes on
    ///   date and category columns (the filter columns DTA would cover).
    pub fn derive(db: &Database, level: TuningLevel) -> Self {
        let mut indexes = Vec::new();
        // PK indexes always exist.
        for t in db.tables() {
            for c in &t.meta.columns {
                if matches!(c.role, ColumnRole::PrimaryKey) {
                    indexes.push(IndexDef::new(t.name(), &c.name));
                }
            }
        }
        match level {
            TuningLevel::Untuned => {}
            TuningLevel::PartiallyTuned => {
                let mut sizes: Vec<(&str, usize)> =
                    db.tables().map(|t| (t.name(), t.rows())).collect();
                sizes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                let big: Vec<&str> =
                    sizes.iter().take(sizes.len().div_ceil(2)).map(|&(n, _)| n).collect();
                for t in db.tables() {
                    if !big.contains(&t.name()) {
                        continue;
                    }
                    for c in &t.meta.columns {
                        if matches!(c.role, ColumnRole::ForeignKey { .. }) {
                            indexes.push(IndexDef::new(t.name(), &c.name));
                        }
                    }
                }
            }
            TuningLevel::FullyTuned => {
                for t in db.tables() {
                    for c in &t.meta.columns {
                        match c.role {
                            ColumnRole::ForeignKey { .. } | ColumnRole::Date { .. } => {
                                indexes.push(IndexDef::new(t.name(), &c.name));
                            }
                            ColumnRole::Category { cardinality } if cardinality >= 5 => {
                                indexes.push(IndexDef::new(t.name(), &c.name));
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        PhysicalDesign { level, indexes }
    }

    /// Does an index on `(table, col)` exist?
    pub fn has_index(&self, table: &str, col: &str) -> bool {
        self.indexes.iter().any(|i| i.table == table && i.key_col == col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::generate;
    use crate::GenConfig;

    #[test]
    fn untuned_has_pk_only() {
        let db = generate(&GenConfig { scale: 0.2, skew: 0.0, seed: 1 });
        let d = PhysicalDesign::derive(&db, TuningLevel::Untuned);
        assert!(d.has_index("orders", "o_orderkey"));
        assert!(!d.has_index("orders", "o_custkey"));
        assert!(!d.has_index("lineitem", "l_orderkey"));
    }

    #[test]
    fn tuning_levels_monotone() {
        let db = generate(&GenConfig { scale: 0.2, skew: 0.0, seed: 1 });
        let u = PhysicalDesign::derive(&db, TuningLevel::Untuned);
        let p = PhysicalDesign::derive(&db, TuningLevel::PartiallyTuned);
        let f = PhysicalDesign::derive(&db, TuningLevel::FullyTuned);
        assert!(u.indexes.len() < p.indexes.len());
        assert!(p.indexes.len() < f.indexes.len());
        // Everything in untuned is in partial; everything in partial is in full.
        for i in &u.indexes {
            assert!(p.indexes.contains(i));
        }
        for i in &p.indexes {
            assert!(f.indexes.contains(i), "missing {i:?} in full");
        }
    }

    #[test]
    fn fully_tuned_covers_fk_and_dates() {
        let db = generate(&GenConfig { scale: 0.2, skew: 0.0, seed: 1 });
        let f = PhysicalDesign::derive(&db, TuningLevel::FullyTuned);
        assert!(f.has_index("lineitem", "l_orderkey"));
        assert!(f.has_index("lineitem", "l_partkey"));
        assert!(f.has_index("lineitem", "l_shipdate"));
        assert!(f.has_index("orders", "o_orderdate"));
    }
}
