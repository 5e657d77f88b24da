//! Plain-text table rendering for experiment output.
//!
//! Every `nxbench` experiment prints rows shaped like the corresponding
//! paper table/figure series so EXPERIMENTS.md can be regenerated by
//! copy-paste.

use std::fmt::Write as _;
use std::time::Duration;

/// A printable experiment table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells already formatted).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width must match the headers");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (k, cell) in row.iter().enumerate() {
                widths[k] = widths[k].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::from("|");
            for (k, c) in cells.iter().enumerate() {
                let _ = write!(s, " {:width$} |", c, width = widths[k]);
            }
            let _ = writeln!(out, "{s}");
        };
        line(&mut out, &self.headers);
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Render and print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format seconds with three significant decimals.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Human-readable byte count.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["system", "time"]);
        t.row(vec!["nxgraph".into(), "1.0".into()]);
        t.row(vec!["x".into(), "200.25".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| nxgraph |"));
        assert!(s.contains("| system  |"));
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(12), "12 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MiB");
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.500");
    }
}
