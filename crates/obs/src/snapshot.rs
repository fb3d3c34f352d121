//! Point-in-time metric snapshots: diffing, merging, and rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::span::SpanRecord;
use crate::HISTOGRAM_BOUNDS;

/// Identity of one metric series: name plus optional `key="value"` label.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `ids_cache_lookup_hits_total`.
    pub name: &'static str,
    /// Label key (empty when unlabelled), e.g. `tier`.
    pub label_key: &'static str,
    /// Label value (empty when unlabelled), e.g. `local_dram`.
    pub label_value: String,
}

impl MetricKey {
    /// Key with no label.
    pub fn unlabelled(name: &'static str) -> Self {
        MetricKey { name, label_key: "", label_value: String::new() }
    }

    /// Key with one `key="value"` label.
    pub fn labelled(name: &'static str, label_key: &'static str, label_value: String) -> Self {
        MetricKey { name, label_key, label_value }
    }

    /// `name` or `name{key="value"}` — the Prometheus series identity.
    pub fn render(&self) -> String {
        if self.label_key.is_empty() {
            self.name.to_string()
        } else {
            format!("{}{{{}=\"{}\"}}", self.name, self.label_key, self.label_value)
        }
    }

    fn render_suffixed(&self, suffix: &str) -> String {
        if self.label_key.is_empty() {
            format!("{}{}", self.name, suffix)
        } else {
            format!("{}{}{{{}=\"{}\"}}", self.name, suffix, self.label_key, self.label_value)
        }
    }

    fn render_with_extra(&self, extra_key: &str, extra_value: &str) -> String {
        if self.label_key.is_empty() {
            format!("{}{{{extra_key}=\"{extra_value}\"}}", self.name)
        } else {
            format!(
                "{}{{{}=\"{}\",{extra_key}=\"{extra_value}\"}}",
                self.name, self.label_key, self.label_value
            )
        }
    }
}

/// Frozen histogram state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Per-bucket (non-cumulative) counts; one slot per
    /// [`HISTOGRAM_BOUNDS`] entry plus a trailing `+Inf` slot.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A consistent point-in-time copy of a [`crate::MetricsRegistry`].
///
/// Sorted maps make every rendering deterministic.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by series.
    pub counters: BTreeMap<MetricKey, u64>,
    /// Gauge values by series.
    pub gauges: BTreeMap<MetricKey, i64>,
    /// Histogram state by series.
    pub histograms: BTreeMap<MetricKey, HistogramSnapshot>,
    /// Recent span records (bounded by the span log capacity).
    pub spans: Vec<SpanRecord>,
}

impl MetricsSnapshot {
    /// True when no series exist at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Counter value, or 0 when the series does not exist.
    pub fn counter(&self, name: &str, label_value: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k.name == name && k.label_value == label_value)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sum of every series of a counter across its label values — e.g.
    /// all `ids_faults_injected_total{kind=...}` kinds, or both
    /// `ids_cache_corruptions_detected_total` sources.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.name == name).map(|(_, v)| *v).sum()
    }

    /// Gauge value, or 0 when the series does not exist — e.g. the
    /// per-tier `ids_cache_size_bytes` residency gauges.
    pub fn gauge(&self, name: &str, label_value: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(k, _)| k.name == name && k.label_value == label_value)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Every series of a gauge, as `(label value, value)` pairs in label
    /// order — e.g. all `ids_adaptive_actual_rows{op=...}` operators.
    /// Empty when the gauge never fired.
    pub fn gauge_series(&self, name: &str) -> Vec<(&str, i64)> {
        self.gauges
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(k, v)| (k.label_value.as_str(), *v))
            .collect()
    }

    /// What happened since `earlier`: counters and histogram counts are
    /// subtracted (saturating), gauges and spans keep `self`'s state.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let mut h = h.clone();
                if let Some(before) = earlier.histograms.get(k) {
                    h.count = h.count.saturating_sub(before.count);
                    h.sum -= before.sum;
                    for (slot, b) in h.buckets.iter_mut().zip(&before.buckets) {
                        *slot = slot.saturating_sub(*b);
                    }
                }
                (k.clone(), h)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            spans: self.spans.clone(),
        }
    }

    /// Combine with a snapshot from another component's registry:
    /// counters, gauges, and histogram tallies add; spans concatenate
    /// and re-sort (stably) by start time. Takes `self` by value and merges
    /// into it, so its span list is never copied.
    pub fn merge(mut self, other: &MetricsSnapshot) -> MetricsSnapshot {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            let slot = self.histograms.entry(k.clone()).or_default();
            if slot.count == 0 {
                *slot = h.clone();
            } else if h.count > 0 {
                slot.count += h.count;
                slot.sum += h.sum;
                slot.min = slot.min.min(h.min);
                slot.max = slot.max.max(h.max);
                if slot.buckets.len() < h.buckets.len() {
                    slot.buckets.resize(h.buckets.len(), 0);
                }
                for (s, b) in slot.buckets.iter_mut().zip(&h.buckets) {
                    *s += b;
                }
            }
        }
        self.spans.extend(other.spans.iter().cloned());
        self.spans.sort_by(|a, b| a.start_secs.total_cmp(&b.start_secs));
        self
    }

    /// Prometheus text exposition (`# TYPE` headers + one line per
    /// series; histograms expand to `_bucket`/`_sum`/`_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for (key, value) in &self.counters {
            if key.name != last_name {
                let _ = writeln!(out, "# TYPE {} counter", key.name);
                last_name = key.name;
            }
            let _ = writeln!(out, "{} {}", key.render(), value);
        }
        last_name = "";
        for (key, value) in &self.gauges {
            if key.name != last_name {
                let _ = writeln!(out, "# TYPE {} gauge", key.name);
                last_name = key.name;
            }
            let _ = writeln!(out, "{} {}", key.render(), value);
        }
        last_name = "";
        for (key, hist) in &self.histograms {
            if key.name != last_name {
                let _ = writeln!(out, "# TYPE {} histogram", key.name);
                last_name = key.name;
            }
            let mut cumulative = 0u64;
            for (slot, count) in hist.buckets.iter().enumerate() {
                cumulative += count;
                let le = HISTOGRAM_BOUNDS
                    .get(slot)
                    .map(|b| format!("{b:e}"))
                    .unwrap_or_else(|| "+Inf".to_string());
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    key.name,
                    // strip name, keep labels + le
                    key.render_with_extra("le", &le).trim_start_matches(key.name),
                    cumulative
                );
            }
            let _ = writeln!(out, "{} {}", key.render_suffixed("_sum"), hist.sum);
            let _ = writeln!(out, "{} {}", key.render_suffixed("_count"), hist.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter_with("ids_cache_lookup_hits_total", "tier", "local_dram").add(10);
        reg.counter_with("ids_cache_lookup_hits_total", "tier", "local_nvme").add(4);
        reg.gauge_with("ids_cache_size_bytes", "tier", "local_dram").set(1024);
        reg.histogram_with("ids_engine_stage_secs", "stage", "scan").observe(0.5);
        reg.spans().record("query", "q1", 0.0, 1.5);
        reg
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample().render_prometheus();
        assert!(text.contains("# TYPE ids_cache_lookup_hits_total counter"));
        assert!(text.contains("ids_cache_lookup_hits_total{tier=\"local_dram\"} 10"));
        assert!(text.contains("ids_cache_lookup_hits_total{tier=\"local_nvme\"} 4"));
        assert!(text.contains("# TYPE ids_cache_size_bytes gauge"));
        assert!(text.contains("ids_cache_size_bytes{tier=\"local_dram\"} 1024"));
        assert!(text.contains("# TYPE ids_engine_stage_secs histogram"));
        assert!(text.contains("ids_engine_stage_secs_count{stage=\"scan\"} 1"));
        assert!(text.contains("_bucket{stage=\"scan\",le=\"+Inf\"} 1"));
    }

    #[test]
    fn delta_subtracts_counters() {
        let reg = sample();
        let before = reg.snapshot();
        reg.counter_with("ids_cache_lookup_hits_total", "tier", "local_dram").add(5);
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.counter("ids_cache_lookup_hits_total", "local_dram"), 5);
        assert_eq!(d.counter("ids_cache_lookup_hits_total", "local_nvme"), 0);
    }

    #[test]
    fn gauge_series_lists_all_label_values_in_order() {
        let reg = MetricsRegistry::new();
        reg.gauge_with("ids_adaptive_actual_rows", "op", "pattern1").set(120);
        reg.gauge_with("ids_adaptive_actual_rows", "op", "pattern0").set(40);
        reg.gauge_with("ids_adaptive_est_rows", "op", "pattern0").set(35);
        let snap = reg.snapshot();
        assert_eq!(
            snap.gauge_series("ids_adaptive_actual_rows"),
            vec![("pattern0", 40), ("pattern1", 120)]
        );
        assert!(snap.gauge_series("ids_never_set").is_empty());
    }

    #[test]
    fn counter_sum_spans_label_values() {
        let snap = sample().snapshot();
        assert_eq!(snap.counter_sum("ids_cache_lookup_hits_total"), 14);
        assert_eq!(snap.counter_sum("ids_missing_total"), 0);
    }

    #[test]
    fn merge_adds_and_keeps_series() {
        let a = sample().snapshot();
        let b = sample().snapshot();
        let m = a.merge(&b);
        assert_eq!(m.counter("ids_cache_lookup_hits_total", "local_dram"), 20);
        assert_eq!(m.gauges.len(), 1);
        let h = m
            .histograms
            .get(&MetricKey::labelled("ids_engine_stage_secs", "stage", "scan".into()))
            .unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(m.spans.len(), 2);
    }

    impl MetricsSnapshot {
        /// The merge as it was before it took `self` by value: clone, then
        /// add. Kept as the reference [`MetricsSnapshot::merge`] must match.
        fn merge_by_clone(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
            let mut out = self.clone();
            for (k, v) in &other.counters {
                *out.counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, v) in &other.gauges {
                *out.gauges.entry(k.clone()).or_insert(0) += v;
            }
            for (k, h) in &other.histograms {
                let slot = out.histograms.entry(k.clone()).or_default();
                if slot.count == 0 {
                    *slot = h.clone();
                } else if h.count > 0 {
                    slot.count += h.count;
                    slot.sum += h.sum;
                    slot.min = slot.min.min(h.min);
                    slot.max = slot.max.max(h.max);
                    if slot.buckets.len() < h.buckets.len() {
                        slot.buckets.resize(h.buckets.len(), 0);
                    }
                    for (s, b) in slot.buckets.iter_mut().zip(&h.buckets) {
                        *s += b;
                    }
                }
            }
            out.spans.extend(other.spans.iter().cloned());
            out.spans.sort_by(|a, b| a.start_secs.total_cmp(&b.start_secs));
            out
        }
    }

    #[test]
    fn merging_in_place_matches_the_clone_based_merge() {
        let a = sample();
        let b = MetricsRegistry::new();
        b.counter_with("ids_cache_lookup_hits_total", "tier", "local_dram").add(3);
        b.counter("ids_only_in_b_total").inc();
        b.gauge_with("ids_cache_size_bytes", "tier", "local_nvme").set(-7);
        b.histogram_with("ids_engine_stage_secs", "stage", "scan").observe(2.5e-3);
        b.histogram("ids_only_in_b_secs").observe(9.0);
        // Spans out of time order on both sides, with ties across sides
        // that the stable sort must keep in `self`-then-`other` order.
        for (i, start) in [3.0, 0.5, 1.5, 0.0, 2.0].into_iter().enumerate() {
            a.spans().record("a", format!("a{i}"), start, start + 0.1);
            b.spans().record("b", format!("b{i}"), start + 0.25 * (i % 2) as f64, start + 1.0);
        }
        let (a, b) = (a.snapshot(), b.snapshot());
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a), (&a, &MetricsSnapshot::default())] {
            let want = x.merge_by_clone(y);
            let got = x.clone().merge(y);
            assert_eq!(got.counters, want.counters);
            assert_eq!(got.gauges, want.gauges);
            assert_eq!(got.histograms, want.histograms);
            assert_eq!(got.spans, want.spans);
        }
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let snap = MetricsRegistry::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.render_prometheus(), "");
    }
}
