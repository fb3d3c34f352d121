//! # ids-obs — unified metrics & tracing
//!
//! A lightweight, lock-cheap observability layer shared by every IDS
//! subsystem:
//!
//! * [`MetricsRegistry`] — monotonic counters, gauges, and histograms
//!   keyed by a `&'static str` metric name plus an optional
//!   `key="value"` label. Handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]) are cheap `Arc` clones over atomics: callers look a
//!   metric up once (one short registry lock) and then update it with
//!   plain atomic ops on the hot path.
//! * [`SpanLog`] — a bounded log of named spans stamped with the
//!   **virtual** simulation clock (`ids-simrt` rank time), so traces
//!   line up with the cost model rather than host wall-clock.
//! * [`MetricsSnapshot`] — a point-in-time copy supporting
//!   [`MetricsSnapshot::delta`] (what happened between two points) and
//!   [`MetricsSnapshot::merge`] (combine registries from multiple
//!   components), plus Prometheus text exposition and a compact
//!   human-readable rendering used by `EXPLAIN`.
//!
//! Registries are per-component instances, not process globals: tests
//! running in one process never share metric state unless they share a
//! registry on purpose.

// No `unwrap`/`expect` outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod registry;
mod snapshot;
mod span;

pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use snapshot::{HistogramSnapshot, MetricKey, MetricsSnapshot};
pub use span::{SpanLog, SpanRecord};

/// Histogram bucket upper bounds in virtual seconds: decades from 1ns
/// to 1000s. Observations above the last bound land in `+Inf`.
pub const HISTOGRAM_BOUNDS: [f64; 13] =
    [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3];
