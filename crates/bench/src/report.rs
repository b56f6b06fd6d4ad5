//! Plain-text table rendering for experiment output.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: first cell is a label, the rest are formatted floats.
    pub fn row_f(&mut self, label: &str, values: &[f64], precision: usize) -> &mut Self {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.precision$}")));
        self.row(&cells)
    }

    /// Like [`Table::row_f`] but rendering values as percentages.
    pub fn row_pct(&mut self, label: &str, values: &[f64]) -> &mut Self {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{:.1}%", v * 100.0)));
        self.row(&cells)
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "v1", "v2"]);
        t.row_f("short", &[1.0, 2.5], 2);
        t.row_f("a-much-longer-label", &[0.123, 45.678], 2);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("45.68"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_wrong_arity() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn pct_rows() {
        let mut t = Table::new("p", &["who", "share"]);
        t.row_pct("dne", &[0.317]);
        assert!(t.render().contains("31.7%"));
    }
}
