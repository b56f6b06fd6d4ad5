//! In-memory columnar tables and databases.

use crate::schema::TableMeta;
use std::collections::BTreeMap;

/// One materialized column (all values are `i64`).
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub data: Vec<i64>,
}

/// A columnar table plus its metadata.
#[derive(Debug, Clone)]
pub struct Table {
    pub meta: TableMeta,
    pub columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Build a table from metadata and per-column data vectors.
    ///
    /// # Panics
    /// Panics if the column count or any column length is inconsistent with
    /// the metadata.
    pub fn new(meta: TableMeta, columns: Vec<Column>) -> Self {
        assert_eq!(
            meta.columns.len(),
            columns.len(),
            "table {}: metadata declares {} columns, data has {}",
            meta.name,
            meta.columns.len(),
            columns.len()
        );
        let rows = columns.first().map_or(0, |c| c.data.len());
        for c in &columns {
            assert_eq!(c.data.len(), rows, "table {}: ragged column {}", meta.name, c.name);
        }
        Table { meta, columns, rows }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// Average logical row width in bytes.
    pub fn row_bytes(&self) -> u32 {
        self.meta.row_bytes
    }

    /// Column index by name.
    pub fn col(&self, name: &str) -> usize {
        self.meta
            .col(name)
            .unwrap_or_else(|| panic!("table {} has no column {name}", self.meta.name))
    }

    /// Borrow a column's data by index.
    pub fn column(&self, idx: usize) -> &[i64] {
        &self.columns[idx].data
    }

    /// Value at (row, col).
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> i64 {
        self.columns[col].data[row]
    }
}

/// A named collection of tables.
#[derive(Debug, Clone, Default)]
pub struct Database {
    pub name: String,
    tables: BTreeMap<String, Table>,
}

impl Database {
    pub fn new(name: &str) -> Self {
        Database { name: name.to_string(), tables: BTreeMap::new() }
    }

    pub fn add(&mut self, table: Table) {
        let name = table.name().to_string();
        let prev = self.tables.insert(name.clone(), table);
        assert!(prev.is_none(), "duplicate table {name}");
    }

    pub fn table(&self, name: &str) -> &Table {
        self.tables
            .get(name)
            .unwrap_or_else(|| panic!("database {} has no table {name}", self.name))
    }

    #[cfg(test)]
    pub(crate) fn try_table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnMeta, ColumnRole};

    fn toy_table() -> Table {
        let meta = TableMeta::new(
            "toy",
            64,
            vec![
                ColumnMeta::new("id", ColumnRole::PrimaryKey),
                ColumnMeta::new("v", ColumnRole::Value { min: 0, max: 100 }),
            ],
        );
        Table::new(
            meta,
            vec![
                Column { name: "id".into(), data: vec![1, 2, 3] },
                Column { name: "v".into(), data: vec![5, -7, 42] },
            ],
        )
    }

    #[test]
    fn table_accessors() {
        let t = toy_table();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.col("v"), 1);
        assert_eq!(t.value(2, 1), 42);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_columns_rejected() {
        let meta = TableMeta::new(
            "bad",
            8,
            vec![
                ColumnMeta::new("a", ColumnRole::PrimaryKey),
                ColumnMeta::new("b", ColumnRole::PrimaryKey),
            ],
        );
        let _ = Table::new(
            meta,
            vec![
                Column { name: "a".into(), data: vec![1] },
                Column { name: "b".into(), data: vec![1, 2] },
            ],
        );
    }

    #[test]
    fn database_round_trip() {
        let mut db = Database::new("d");
        db.add(toy_table());
        assert_eq!(db.table("toy").rows(), 3);
        assert!(db.try_table("none").is_none());
    }
}
