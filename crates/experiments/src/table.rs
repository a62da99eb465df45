//! Result tables: the experiment harness's output format.
//!
//! Plain-text rendering (aligned columns) for terminals and Markdown for
//! EXPERIMENTS.md. No external table crate — the format is deliberately
//! boring and diff-friendly.

use serde::{Deserialize, Serialize};

/// A titled table of strings with optional footnotes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table {
    /// Table title (experiment id + claim).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows; each must match `columns` in length.
    pub rows: Vec<Vec<String>>,
    /// Footnotes rendered under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} vs {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Append a footnote.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Aligned plain-text rendering.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.columns));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Markdown rendering (for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for note in &self.notes {
            out.push_str(&format!("\n*{note}*\n"));
        }
        out
    }

    /// Value of cell `(row, col)` parsed as `f64` (test helper).
    pub fn cell_f64(&self, row: usize, col: usize) -> f64 {
        self.rows[row][col].trim().parse().unwrap_or_else(|_| {
            panic!("cell ({row},{col}) = {:?} not numeric", self.rows[row][col])
        })
    }

    /// Column index by header name.
    pub fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name:?}"))
    }
}

/// Format a float with 4 significant-ish digits for table cells.
pub fn f4(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    if x == 0.0 {
        return "0".into();
    }
    let a = x.abs();
    if a >= 1000.0 {
        format!("{x:.0}")
    } else if a >= 10.0 {
        format!("{x:.2}")
    } else if a >= 0.01 {
        format!("{x:.4}")
    } else {
        format!("{x:.2e}")
    }
}

/// Yes/no cell.
pub fn yn(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "NO".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2.5".into()]);
        t.row(vec!["10".into(), "x,y".into()]);
        t.note("a footnote");
        t
    }

    #[test]
    fn render_contains_everything() {
        let s = sample().render();
        assert!(s.contains("== demo =="));
        assert!(s.contains('a') && s.contains('b'));
        assert!(s.contains("2.5"));
        assert!(s.contains("note: a footnote"));
    }

    #[test]
    fn markdown_pipes() {
        let s = sample().render_markdown();
        assert!(s.contains("| a | b |"));
        assert!(s.contains("| 1 | 2.5 |"));
        assert!(s.starts_with("### demo"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn cell_and_col_accessors() {
        let t = sample();
        assert_eq!(t.col("b"), 1);
        assert_eq!(t.cell_f64(0, 1), 2.5);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f4(0.0), "0");
        assert_eq!(f4(3.46159), "3.4616");
        assert_eq!(f4(42.0), "42.00");
        assert_eq!(f4(12345.6), "12346");
        assert_eq!(f4(0.0001), "1.00e-4");
        assert_eq!(yn(true), "yes");
        assert_eq!(yn(false), "NO");
    }
}
