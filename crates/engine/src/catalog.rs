//! Execution catalog: a database plus its physical design, with index
//! structures materialized for seeks, index scans and merge joins.

use prosel_datagen::{Database, PhysicalDesign, Table};
use std::collections::HashMap;

/// A secondary index: row ids ordered by key value.
#[derive(Debug, Clone)]
pub struct SortedIndex {
    /// Keys in ascending order.
    keys: Vec<i64>,
    /// Row ids aligned with `keys`.
    rowids: Vec<u32>,
}

impl SortedIndex {
    /// Build from a column.
    pub fn build(col: &[i64]) -> Self {
        let mut pairs: Vec<(i64, u32)> =
            col.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        pairs.sort_unstable();
        SortedIndex {
            keys: pairs.iter().map(|&(k, _)| k).collect(),
            rowids: pairs.iter().map(|&(_, r)| r).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Position range of entries with `key == v`.
    pub fn equal_range(&self, v: i64) -> (usize, usize) {
        let lo = self.keys.partition_point(|&k| k < v);
        let hi = self.keys.partition_point(|&k| k <= v);
        (lo, hi)
    }

    /// Position range of entries with `lo <= key <= hi`.
    pub fn range(&self, lo: i64, hi: i64) -> (usize, usize) {
        let a = self.keys.partition_point(|&k| k < lo);
        let b = self.keys.partition_point(|&k| k <= hi);
        (a, b)
    }

    /// Row id at index-order position `pos`.
    #[inline]
    pub fn rowid_at(&self, pos: usize) -> u32 {
        self.rowids[pos]
    }
}

/// Execution-ready view over a [`Database`] and [`PhysicalDesign`].
#[derive(Debug)]
pub struct Catalog<'a> {
    db: &'a Database,
    design: &'a PhysicalDesign,
    /// `(table, column_index)` → index.
    indexes: HashMap<(String, usize), SortedIndex>,
}

impl<'a> Catalog<'a> {
    /// Materialize all indexes declared by the design.
    pub fn new(db: &'a Database, design: &'a PhysicalDesign) -> Self {
        let mut indexes = HashMap::new();
        for def in &design.indexes {
            let table = db.table(&def.table);
            let col = table.col(&def.key_col);
            indexes
                .entry((def.table.clone(), col))
                .or_insert_with(|| SortedIndex::build(table.column(col)));
        }
        Catalog { db, design, indexes }
    }

    pub fn table(&self, name: &str) -> &'a Table {
        self.db.table(name)
    }

    /// The index on `(table, col)`, if the design declares one.
    pub fn index(&self, table: &str, col: usize) -> Option<&SortedIndex> {
        self.indexes.get(&(table.to_string(), col))
    }

    /// Panicking variant for plan execution (plans must only reference
    /// indexes that exist in the design).
    pub fn index_required(&self, table: &str, col: usize) -> &SortedIndex {
        self.index(table, col).unwrap_or_else(|| {
            panic!(
                "plan requires missing index on {table}.[{col}] (physical design {:?})",
                self.design.level
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosel_datagen::tpch::generate;
    use prosel_datagen::GenConfig;
    use prosel_datagen::TuningLevel;

    #[test]
    fn sorted_index_ranges() {
        let idx = SortedIndex::build(&[5, 1, 3, 3, 9]);
        assert_eq!(idx.len(), 5);
        let (lo, hi) = idx.equal_range(3);
        assert_eq!(hi - lo, 2);
        let rows: Vec<u32> = (lo..hi).map(|p| idx.rowid_at(p)).collect();
        assert_eq!(rows, vec![2, 3]);
        let (a, b) = idx.range(3, 5);
        assert_eq!(b - a, 3);
        assert_eq!(idx.equal_range(100), (5, 5));
        assert_eq!(idx.range(-5, 0), (0, 0));
    }

    #[test]
    fn catalog_builds_design_indexes() {
        let db = generate(&GenConfig { scale: 0.2, skew: 0.0, seed: 1 });
        let design = PhysicalDesign::derive(&db, TuningLevel::FullyTuned);
        let cat = Catalog::new(&db, &design);
        let li = db.table("lineitem");
        assert!(cat.index("lineitem", li.col("l_orderkey")).is_some());
        // Untuned lacks FK indexes.
        let untuned = PhysicalDesign::derive(&db, TuningLevel::Untuned);
        let cat2 = Catalog::new(&db, &untuned);
        assert!(cat2.index("lineitem", li.col("l_orderkey")).is_none());
        assert!(cat2.index("orders", db.table("orders").col("o_orderkey")).is_some());
    }
}
