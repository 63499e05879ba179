//! Fixed-width text tables for the experiment binaries.
//!
//! Every table/figure binary in `opaq-bench` prints its results in the same
//! layout as the paper's tables, so a printed row can be set beside the
//! paper's row directly.  This tiny builder keeps the formatting in one place.

use std::fmt::Write as _;

/// A simple left-padded text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Set the column headers.
    pub fn header<S: Into<String>>(mut self, cols: impl IntoIterator<Item = S>) -> Self {
        self.header = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Append one row of cells.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table to a string.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(display_width(h));
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(display_width(cell));
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        if !self.header.is_empty() {
            let _ = writeln!(out, "{}", format_row(&self.header, &widths));
            let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            let _ = writeln!(out, "{}", format_row(&rule, &widths));
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", format_row(row, &widths));
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Printable width of a cell in characters.  `str::len` counts *bytes*, so
/// measuring with it misaligns every column that contains a multi-byte
/// character — most visibly the `µ` in `Duration`'s `123.4µs` debug output,
/// which appears in the busy/starved columns of multi-shard ingest tables.
fn display_width(s: &str) -> usize {
    s.chars().count()
}

fn format_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            format!(
                "{:>width$}",
                c,
                width = widths.get(i).copied().unwrap_or_else(|| display_width(c))
            )
        })
        .collect::<Vec<_>>()
        .join("  ")
}

/// Format a float with the two-decimal precision the paper's tables use.
pub fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows_aligned() {
        let mut t = TextTable::new("demo").header(["dectile", "uniform", "zipf"]);
        t.row(["10%", "0.08", "0.09"]);
        t.row(["20%", "0.10", "0.07"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("dectile"));
        let lines: Vec<&str> = s.lines().collect();
        // title + header + rule + 2 rows
        assert_eq!(lines.len(), 5);
        // all data lines have equal length (alignment)
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn empty_table_renders_title_only() {
        let t = TextTable::new("empty");
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 1);
    }

    #[test]
    fn len_counts_rows() {
        let mut t = TextTable::new("x");
        assert_eq!(t.len(), 0);
        t.row(["a"]);
        t.row(["b"]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fmt2_two_decimals() {
        assert_eq!(fmt2(0.08443), "0.08");
        assert_eq!(fmt2(12.0), "12.00");
    }

    #[test]
    fn multibyte_cells_align_by_chars_not_bytes() {
        // `Duration`'s debug output mixes `ms` and `µs` cells; `µ` is two
        // bytes but one column, so alignment must count chars.
        let mut t = TextTable::new("durations").header(["shard", "busy"]);
        t.row(["9", "1.5ms"]);
        t.row(["10", "998.7µs"]);
        t.row(["11", "12.25ms"]);
        let s = t.render();
        let widths: Vec<usize> = s.lines().skip(1).map(|l| l.chars().count()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "all lines must have the same char width: {widths:?}\n{s}"
        );
    }

    #[test]
    fn display_matches_render() {
        let mut t = TextTable::new("display").header(["a", "b"]);
        t.row(["1", "2"]);
        assert_eq!(t.to_string(), t.render());
        assert!(format!("{t}").contains("== display =="));
    }

    #[test]
    fn ragged_rows_do_not_panic() {
        let mut t = TextTable::new("ragged").header(["a", "b"]);
        t.row(["1"]);
        t.row(["1", "2"]);
        let s = t.render();
        assert!(s.contains('1'));
    }
}
