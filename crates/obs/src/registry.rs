//! Metric registry and the atomic handles it hands out.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::snapshot::{HistogramSnapshot, MetricKey, MetricsSnapshot};
use crate::span::SpanLog;
use crate::HISTOGRAM_BOUNDS;

/// Monotonically increasing counter handle. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Gauge handle: a settable signed value (e.g. current bytes resident).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct HistData {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// One slot per `HISTOGRAM_BOUNDS` entry plus a final `+Inf` slot.
    buckets: [u64; HISTOGRAM_BOUNDS.len() + 1],
}

/// Histogram handle recording f64 observations (virtual seconds,
/// byte sizes, probe counts — any non-negative magnitude).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<Mutex<HistData>>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, value: f64) {
        self.observe_all([value]);
    }

    /// Record `values` in order under one lock: the same state as
    /// [`Self::observe`] on each.
    pub fn observe_all(&self, values: impl IntoIterator<Item = f64>) {
        let mut d = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        for value in values {
            if d.count == 0 {
                d.min = value;
                d.max = value;
            } else {
                d.min = d.min.min(value);
                d.max = d.max.max(value);
            }
            d.count += 1;
            d.sum += value;
            let slot =
                HISTOGRAM_BOUNDS.iter().position(|&b| value <= b).unwrap_or(HISTOGRAM_BOUNDS.len());
            d.buckets[slot] += 1;
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).count
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let d = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        HistogramSnapshot {
            count: d.count,
            sum: d.sum,
            min: if d.count == 0 { 0.0 } else { d.min },
            max: if d.count == 0 { 0.0 } else { d.max },
            buckets: d.buckets.to_vec(),
        }
    }
}

#[derive(Default)]
struct Inner {
    counters: RwLock<HashMap<MetricKey, Counter>>,
    gauges: RwLock<HashMap<MetricKey, Gauge>>,
    histograms: RwLock<HashMap<MetricKey, Histogram>>,
    spans: SpanLog,
}

/// Shared metric registry. `clone()` is an `Arc` clone: all clones feed
/// the same metric set.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

fn get_or_insert<H: Clone + Default>(map: &RwLock<HashMap<MetricKey, H>>, key: MetricKey) -> H {
    if let Some(h) = map.read().unwrap_or_else(PoisonError::into_inner).get(&key) {
        return h.clone();
    }
    map.write().unwrap_or_else(PoisonError::into_inner).entry(key).or_default().clone()
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unlabelled counter handle for `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        get_or_insert(&self.inner.counters, MetricKey::unlabelled(name))
    }

    /// Counter handle for `name{label_key="label_value"}`.
    pub fn counter_with(
        &self,
        name: &'static str,
        label_key: &'static str,
        label_value: impl Into<String>,
    ) -> Counter {
        get_or_insert(
            &self.inner.counters,
            MetricKey::labelled(name, label_key, label_value.into()),
        )
    }

    /// Unlabelled gauge handle for `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        get_or_insert(&self.inner.gauges, MetricKey::unlabelled(name))
    }

    /// Gauge handle for `name{label_key="label_value"}`.
    pub fn gauge_with(
        &self,
        name: &'static str,
        label_key: &'static str,
        label_value: impl Into<String>,
    ) -> Gauge {
        get_or_insert(&self.inner.gauges, MetricKey::labelled(name, label_key, label_value.into()))
    }

    /// Unlabelled histogram handle for `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        get_or_insert(&self.inner.histograms, MetricKey::unlabelled(name))
    }

    /// Histogram handle for `name{label_key="label_value"}`.
    pub fn histogram_with(
        &self,
        name: &'static str,
        label_key: &'static str,
        label_value: impl Into<String>,
    ) -> Histogram {
        get_or_insert(
            &self.inner.histograms,
            MetricKey::labelled(name, label_key, label_value.into()),
        )
    }

    /// The registry's span log (virtual-clock trace records).
    pub fn spans(&self) -> &SpanLog {
        &self.inner.spans
    }

    /// Consistent point-in-time copy of every metric and span.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot { counters, gauges, histograms, spans: self.inner.spans.snapshot() }
    }

    /// Prometheus text exposition of the current state.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("MetricsRegistry")
            .field("counters", &snap.counters.len())
            .field("gauges", &snap.gauges.len())
            .field("histograms", &snap.histograms.len())
            .field("spans", &snap.spans.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("hits").get(), 3);
    }

    #[test]
    fn labels_separate_series() {
        let reg = MetricsRegistry::new();
        reg.counter_with("hits", "tier", "dram").add(5);
        reg.counter_with("hits", "tier", "nvme").add(7);
        assert_eq!(reg.counter_with("hits", "tier", "dram").get(), 5);
        assert_eq!(reg.counter_with("hits", "tier", "nvme").get(), 7);
    }

    #[test]
    fn counters_monotonic_under_concurrency() {
        let reg = MetricsRegistry::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = reg.clone();
                thread::spawn(move || {
                    let c = reg.counter_with("ops", "kind", "w");
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        let mut last = 0;
        for _ in 0..50 {
            let now = reg.counter_with("ops", "kind", "w").get();
            assert!(now >= last, "counter went backwards: {now} < {last}");
            last = now;
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter_with("ops", "kind", "w").get(), 80_000);
    }

    #[test]
    fn gauge_set_add_sub() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge_with("size_bytes", "tier", "dram");
        g.set(100);
        g.add(50);
        g.sub(30);
        assert_eq!(g.get(), 120);
    }

    #[test]
    fn histogram_stats() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("latency");
        for v in [1e-6, 2e-6, 1e-3] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hs = &snap.histograms[&MetricKey::unlabelled("latency")];
        assert_eq!(hs.count, 3);
        assert!((hs.sum - 1.003e-3).abs() < 1e-12);
        assert_eq!(hs.min, 1e-6);
        assert_eq!(hs.max, 1e-3);
    }
}
