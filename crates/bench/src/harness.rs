//! Timing and table-printing helpers shared by the experiment binaries.

use std::time::Instant;

/// Result of measuring one run of a workload through an engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRun {
    /// Number of edge events processed.
    pub edges: usize,
    /// Wall-clock seconds elapsed.
    pub seconds: f64,
    /// Complete matches emitted.
    pub matches: u64,
}

impl MeasuredRun {
    /// Edges processed per second.
    pub fn throughput(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.edges as f64 / self.seconds
        }
    }

    /// Mean per-edge latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.seconds * 1e6 / self.edges as f64
        }
    }

    /// Extrapolated records/hour at the measured rate (the unit of paper §6.1).
    pub fn records_per_hour(&self) -> f64 {
        self.throughput() * 3600.0
    }
}

/// Times a closure that processes `edges` events and reports how many matches
/// it produced.
pub fn measure(edges: usize, run: impl FnOnce() -> u64) -> MeasuredRun {
    let start = Instant::now();
    let matches = run();
    MeasuredRun {
        edges,
        seconds: start.elapsed().as_secs_f64(),
        matches,
    }
}

/// A minimal fixed-width plain-text table writer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_run_derives_rates() {
        let r = MeasuredRun {
            edges: 1_000,
            seconds: 0.5,
            matches: 10,
        };
        assert_eq!(r.throughput(), 2_000.0);
        assert_eq!(r.mean_latency_us(), 500.0);
        assert_eq!(r.records_per_hour(), 7_200_000.0);
        let empty = MeasuredRun {
            edges: 0,
            seconds: 0.0,
            matches: 0,
        };
        assert_eq!(empty.throughput(), 0.0);
        assert_eq!(empty.mean_latency_us(), 0.0);
    }

    #[test]
    fn measure_times_a_closure() {
        let r = measure(10, || 3);
        assert_eq!(r.edges, 10);
        assert_eq!(r.matches, 3);
        assert!(r.seconds >= 0.0);
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["workload", "edges/s", "matches"]);
        t.row(&["cyber".to_string(), "12345.6".to_string(), "42".to_string()]);
        t.row(&["news".to_string(), "987.0".to_string(), "7".to_string()]);
        let s = t.render();
        assert!(s.contains("workload"));
        assert!(s.contains("cyber"));
        // All lines of the body have the same width as the header line.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].len(), lines[2].len());
    }
}
