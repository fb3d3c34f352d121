//! Span tracing stamped with the simulation's virtual clock.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// Maximum records a [`SpanLog`] retains; older spans are dropped.
pub(crate) const SPAN_LOG_CAPACITY: usize = 4096;

/// One completed span on the virtual timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Static span name, e.g. `engine.filter`.
    pub name: &'static str,
    /// Free-form detail, e.g. the operator or conjunct involved.
    pub detail: String,
    /// Virtual start time in seconds (from the `ids-simrt` clock).
    pub start_secs: f64,
    /// Virtual end time in seconds.
    pub end_secs: f64,
}

impl SpanRecord {
    /// Span duration in virtual seconds.
    pub fn duration_secs(&self) -> f64 {
        self.end_secs - self.start_secs
    }
}

impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {:.6}s..{:.6}s ({:.3e}s)",
            self.name,
            self.detail,
            self.start_secs,
            self.end_secs,
            self.duration_secs()
        )
    }
}

/// Bounded log of completed spans. Timestamps are supplied by the
/// caller from the virtual clock (`Cluster::elapsed` or a rank's
/// `now()`), never from host wall-clock.
#[derive(Debug, Default)]
pub struct SpanLog {
    records: Mutex<VecDeque<SpanRecord>>,
}

impl SpanLog {
    /// Fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a completed span.
    pub fn record(
        &self,
        name: &'static str,
        detail: impl Into<String>,
        start_secs: f64,
        end_secs: f64,
    ) {
        let mut records = self.records.lock().unwrap_or_else(PoisonError::into_inner);
        if records.len() == SPAN_LOG_CAPACITY {
            records.pop_front();
        }
        records.push_back(SpanRecord { name, detail: detail.into(), start_secs, end_secs });
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when nothing has been recorded (or everything aged out).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of all retained spans in insertion order.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner).iter().cloned().collect()
    }

    /// Copy of the most recent `n` spans.
    pub fn recent(&self, n: usize) -> Vec<SpanRecord> {
        let records = self.records.lock().unwrap_or_else(PoisonError::into_inner);
        records.iter().rev().take(n).rev().cloned().collect()
    }

    /// Drop all retained spans.
    pub fn clear(&self) {
        self.records.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports() {
        let log = SpanLog::new();
        assert!(log.is_empty());
        log.record("engine.scan", "pattern 0", 0.0, 0.25);
        log.record("engine.filter", "udf_sw", 0.25, 1.0);
        assert_eq!(log.len(), 2);
        let spans = log.snapshot();
        assert_eq!(spans[0].name, "engine.scan");
        assert!((spans[1].duration_secs() - 0.75).abs() < 1e-12);
        assert_eq!(log.recent(1)[0].name, "engine.filter");
    }

    #[test]
    fn capacity_is_bounded() {
        let log = SpanLog::new();
        for i in 0..(SPAN_LOG_CAPACITY + 10) {
            log.record("s", i.to_string(), i as f64, i as f64 + 1.0);
        }
        assert_eq!(log.len(), SPAN_LOG_CAPACITY);
        assert_eq!(log.snapshot()[0].detail, "10");
    }

    #[test]
    fn display_is_stable() {
        let s = SpanRecord { name: "q", detail: "d".into(), start_secs: 0.0, end_secs: 0.5 };
        assert!(s.to_string().contains("q [d]"));
    }
}
