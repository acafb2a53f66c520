//! Plain-text rendering of experiment results: aligned tables and simple
//! `x,y` series blocks, so each bench can print exactly the rows/series the
//! paper's tables and figures report.

use std::fmt::Write as _;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use aspp_core::report::TextTable;
///
/// let mut t = TextTable::new(["λ", "after %", "before %"]);
/// t.row(["1", "30.0", "5.2"]);
/// t.row(["2", "80.1", "5.2"]);
/// let s = t.to_string();
/// assert!(s.contains("after %"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; missing cells render empty, extras are dropped.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:<width$}", cell, width = widths[i]);
            }
            writeln!(f, "{}", line.trim_end())
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `0.305` →
/// `"30.5"`.
#[must_use]
pub fn pct(fraction: f64) -> String {
    // `+ 0.0` normalizes IEEE negative zero so we never print "-0.0".
    format!("{:.1}", fraction * 100.0 + 0.0)
}

/// Renders an `(x, y)` series as a titled two-column block, the text
/// analogue of one curve in a paper figure.
#[must_use]
pub fn render_series(title: &str, xlabel: &str, ylabel: &str, points: &[(f64, f64)]) -> String {
    let mut table = TextTable::new([xlabel, ylabel]);
    for &(x, y) in points {
        table.row([format!("{x:.4}"), format!("{y:.4}")]);
    }
    format!("# {title}\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_separator() {
        let mut t = TextTable::new(["a", "long-header"]);
        t.row(["xxxxxx", "1"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].starts_with('-'));
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    fn row_padding_and_truncation() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
        t.row(["1", "2", "3-dropped"]);
        assert_eq!(t.len(), 2);
        let s = t.to_string();
        assert!(s.contains("only-one"));
        assert!(!s.contains("dropped"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.305), "30.5");
        assert_eq!(pct(1.0), "100.0");
        assert_eq!(pct(0.0), "0.0");
    }

    #[test]
    fn series_block() {
        let s = render_series("Figure 9", "lambda", "polluted", &[(1.0, 0.3), (2.0, 0.8)]);
        assert!(s.starts_with("# Figure 9"));
        assert!(s.contains("1.0000"));
        assert!(s.contains("0.8000"));
    }

    #[test]
    fn empty_table() {
        let t = TextTable::new(["h"]);
        assert!(t.is_empty());
        assert!(t.to_string().contains('h'));
    }
}
