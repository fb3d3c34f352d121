//! Table/figure rendering helpers shared by the experiments.

use ids_core::QueryOutcome;
use ids_obs::MetricsSnapshot;
use std::fmt::{Debug, Display};

/// Dump an `ids-obs` snapshot after an experiment's report: counters and
/// gauges as `name{labels} value` lines, histograms as count/mean. Keeps
/// experiment outputs self-describing without scraping an endpoint.
pub fn metrics_dump(title: &str, snapshot: &MetricsSnapshot) {
    section(title);
    if snapshot.is_empty() {
        println!("(no metrics recorded)");
        return;
    }
    for (key, v) in &snapshot.counters {
        println!("{} {v}", key.render());
    }
    for (key, v) in &snapshot.gauges {
        println!("{} {v}", key.render());
    }
    for (key, h) in &snapshot.histograms {
        println!("{} count={} mean={:.6} max={:.6}", key.render(), h.count, h.mean(), h.max);
    }
}

/// Print a boxed section header so experiment output is easy to scan.
pub fn section(title: &str) {
    let bar = "=".repeat(title.len() + 4);
    println!("\n{bar}\n| {title} |\n{bar}");
}

/// Render a simple aligned table: a header row plus data rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format seconds with sensible precision for table cells.
pub fn secs(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.1}")
    } else if t >= 1.0 {
        format!("{t:.2}")
    } else {
        format!("{t:.4}")
    }
}

/// An experiment's model outputs, printed after its tables as
/// `experiment.key value` lines. Values print with `{:?}`, so an `f64` is
/// its shortest round-trip text and equal text means equal bits.
pub struct Records {
    experiment: &'static str,
    lines: Vec<String>,
}

impl Records {
    /// No records yet for `experiment`.
    pub fn new(experiment: &'static str) -> Self {
        Self { experiment, lines: Vec::new() }
    }

    /// Record `value` under `key`.
    pub fn add(&mut self, key: impl Display, value: impl Debug) {
        self.lines.push(format!("{}.{key} {value:?}", self.experiment));
    }

    /// Print the records, after a blank line.
    pub fn print(self) {
        println!();
        self.lines.iter().for_each(|l| println!("{l}"));
    }
}

/// The `p`-quantile of ascending `sorted` (nearest rank); 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// A query's result rows as raw term ids, for byte-identity checks.
pub fn raw_rows(o: &QueryOutcome) -> Vec<Vec<u64>> {
    o.solutions.rows().iter().map(|r| r.iter().map(|t| t.raw()).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_formats_by_magnitude() {
        assert_eq!(secs(123.456), "123.5");
        assert_eq!(secs(8.5), "8.50");
        assert_eq!(secs(0.01234), "0.0123");
    }
}
