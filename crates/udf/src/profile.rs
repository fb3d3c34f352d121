//! Per-rank UDF profiling (§2.4.1).
//!
//! Each rank maintains, for every UDF it has executed: (i) execution count,
//! (ii) total execution time, and (iii) how many times a query expression
//! was rejected due to that UDF. The profile is "continually updated
//! through the lifetime of a running IDS instance", and rank-local so the
//! planner can tailor decisions to each rank's hardware and data shard.

use ids_obs::MetricsRegistry;
use std::collections::HashMap;

/// Profiling record for one UDF on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UdfProfile {
    /// Number of executions.
    pub calls: u64,
    /// Total execution time (virtual seconds).
    pub total_secs: f64,
    /// Executions that caused the enclosing expression to reject the
    /// solution.
    pub rejections: u64,
}

impl UdfProfile {
    /// Mean per-call cost; `None` until the UDF has run at least once.
    pub fn mean_cost(&self) -> Option<f64> {
        if self.calls == 0 {
            None
        } else {
            Some(self.total_secs / self.calls as f64)
        }
    }

    /// Fraction of calls that rejected their solution (selectivity proxy);
    /// `None` until the UDF has run.
    pub fn rejection_rate(&self) -> Option<f64> {
        if self.calls == 0 {
            None
        } else {
            Some(self.rejections as f64 / self.calls as f64)
        }
    }

    /// Merge another profile into this one (cross-rank aggregation).
    pub fn merge(&mut self, other: &UdfProfile) {
        self.calls += other.calls;
        self.total_secs += other.total_secs;
        self.rejections += other.rejections;
    }
}

/// One rank's profiling datastore: UDF name → profile.
#[derive(Debug, Clone, Default)]
pub struct UdfProfiler {
    profiles: HashMap<String, UdfProfile>,
}

impl UdfProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one execution of `udf` costing `secs`.
    pub fn record_call(&mut self, udf: &str, secs: f64) {
        self.update(udf, |p| {
            p.calls += 1;
            p.total_secs += secs;
        });
    }

    /// Record that `udf`'s outcome rejected the solution under evaluation.
    pub fn record_rejection(&mut self, udf: &str) {
        self.update(udf, |p| p.rejections += 1);
    }

    /// Apply `f` to the record for `udf`, created on first sight. Looked
    /// up by `&str` first: this runs once per UDF call, and only the first
    /// call of a name should pay for an owned key.
    fn update(&mut self, udf: &str, f: impl FnOnce(&mut UdfProfile)) {
        match self.profiles.get_mut(udf) {
            Some(p) => f(p),
            None => {
                let mut p = UdfProfile::default();
                f(&mut p);
                self.profiles.insert(udf.to_string(), p);
            }
        }
    }

    /// Profile for a UDF, if it has any data.
    pub fn get(&self, udf: &str) -> Option<&UdfProfile> {
        self.profiles.get(udf)
    }

    /// Estimated per-call cost, falling back to `prior` for never-seen UDFs.
    pub fn estimated_cost(&self, udf: &str, prior: f64) -> f64 {
        self.get(udf).and_then(UdfProfile::mean_cost).unwrap_or(prior)
    }

    /// Estimated rejection rate, falling back to `prior`.
    pub fn estimated_rejection(&self, udf: &str, prior: f64) -> f64 {
        self.get(udf).and_then(UdfProfile::rejection_rate).unwrap_or(prior)
    }

    /// Estimated throughput (solutions/second) this rank achieves through a
    /// pipeline costing `per_solution_secs`; used by the re-balancer.
    pub fn solutions_per_second(per_solution_secs: f64) -> f64 {
        if per_solution_secs <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / per_solution_secs
        }
    }

    /// Merge another rank's profiler into this one.
    pub fn merge(&mut self, other: &UdfProfiler) {
        for (name, prof) in &other.profiles {
            self.profiles.entry(name.clone()).or_default().merge(prof);
        }
    }

    /// Names with profiling data.
    pub fn names(&self) -> Vec<&str> {
        self.profiles.keys().map(String::as_str).collect()
    }

    /// Export this profiler's state into an `ids-obs` registry as gauges
    /// (the source data is cumulative, so `set` keeps re-exports
    /// idempotent). `scope` prefixes the `udf` label value — pass a rank
    /// tag like `"r3"` for per-rank series, or `""` for the merged view.
    ///
    /// Series: `ids_udf_profile_calls{udf=...}`,
    /// `ids_udf_profile_rejections{udf=...}`, and
    /// `ids_udf_profile_mean_cost_us{udf=...}` (mean per-call cost in
    /// whole microseconds of virtual time).
    pub fn export_metrics(&self, registry: &MetricsRegistry, scope: &str) {
        for (name, prof) in &self.profiles {
            let label = if scope.is_empty() { name.clone() } else { format!("{scope}/{name}") };
            registry
                .gauge_with("ids_udf_profile_calls", "udf", label.as_str())
                .set(prof.calls as i64);
            registry
                .gauge_with("ids_udf_profile_rejections", "udf", label.as_str())
                .set(prof.rejections as i64);
            let mean_us = prof.mean_cost().unwrap_or(0.0) * 1.0e6;
            registry
                .gauge_with("ids_udf_profile_mean_cost_us", "udf", label.as_str())
                .set(mean_us.round() as i64);
        }
    }

    /// Inverse of [`Self::export_metrics`]: rebuild a profiler from the
    /// gauges a previous export left in an `ids-obs` snapshot. This is
    /// how the statistics layer harvests *historical* cost/selectivity
    /// profiles — an instance can prime its cost model from observability
    /// data (e.g. a scraped registry from an earlier run) without
    /// sharing live profiler state. `scope` must match the exporting
    /// scope (`""` for the merged view, `"r3"` for rank 3).
    ///
    /// Mean cost survives the round trip at microsecond granularity
    /// (the export's resolution); per-call totals are reconstructed as
    /// `calls × mean`.
    pub fn harvest_metrics(snapshot: &ids_obs::MetricsSnapshot, scope: &str) -> Self {
        let mut out = Self::new();
        let strip = |label: &str| -> Option<String> {
            if scope.is_empty() {
                (!label.contains('/')).then(|| label.to_string())
            } else {
                label.strip_prefix(&format!("{scope}/")).map(str::to_string)
            }
        };
        for (key, value) in &snapshot.gauges {
            let Some(udf) = strip(&key.label_value) else { continue };
            let p = out.profiles.entry(udf).or_default();
            match key.name {
                "ids_udf_profile_calls" => p.calls = (*value).max(0) as u64,
                "ids_udf_profile_rejections" => p.rejections = (*value).max(0) as u64,
                "ids_udf_profile_mean_cost_us" => p.total_secs = (*value).max(0) as f64 / 1.0e6,
                _ => {}
            }
        }
        // The cost gauge carried the *mean*; scale to a total now that
        // calls are known, and drop series that never ran.
        out.profiles.retain(|_, p| p.calls > 0);
        for p in out.profiles.values_mut() {
            p.total_secs *= p.calls as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut p = UdfProfiler::new();
        p.record_call("sw", 0.001);
        p.record_call("sw", 0.003);
        p.record_rejection("sw");
        let prof = p.get("sw").unwrap();
        assert_eq!(prof.calls, 2);
        assert!((prof.total_secs - 0.004).abs() < 1e-12);
        assert_eq!(prof.rejections, 1);
        assert!((prof.mean_cost().unwrap() - 0.002).abs() < 1e-12);
        assert!((prof.rejection_rate().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unseen_udf_uses_priors() {
        let p = UdfProfiler::new();
        assert_eq!(p.estimated_cost("never", 35.0), 35.0);
        assert_eq!(p.estimated_rejection("never", 0.5), 0.5);
        assert!(p.get("never").is_none());
    }

    #[test]
    fn profiles_replace_priors_once_data_exists() {
        let mut p = UdfProfiler::new();
        p.record_call("dtba", 0.8);
        assert_eq!(p.estimated_cost("dtba", 35.0), 0.8);
    }

    #[test]
    fn empty_profile_has_no_estimates() {
        let prof = UdfProfile::default();
        assert_eq!(prof.mean_cost(), None);
        assert_eq!(prof.rejection_rate(), None);
    }

    #[test]
    fn merge_aggregates_across_ranks() {
        let mut a = UdfProfiler::new();
        a.record_call("sw", 0.001);
        a.record_rejection("sw");
        let mut b = UdfProfiler::new();
        b.record_call("sw", 0.003);
        b.record_call("pic50", 0.00001);
        a.merge(&b);
        assert_eq!(a.get("sw").unwrap().calls, 2);
        assert_eq!(a.get("pic50").unwrap().calls, 1);
        let mut names = a.names();
        names.sort_unstable();
        assert_eq!(names, vec!["pic50", "sw"]);
    }

    #[test]
    fn export_metrics_sets_idempotent_gauges() {
        let mut p = UdfProfiler::new();
        p.record_call("sw", 0.002);
        p.record_call("sw", 0.004);
        p.record_rejection("sw");
        let reg = MetricsRegistry::new();
        p.export_metrics(&reg, "");
        p.export_metrics(&reg, ""); // re-export must not double-count
        p.export_metrics(&reg, "r0");
        let snap = reg.snapshot();
        let gauge = |name: &str, label: &str| {
            *snap
                .gauges
                .iter()
                .find(|(k, _)| k.name == name && k.label_value == label)
                .map(|(_, v)| v)
                .unwrap()
        };
        assert_eq!(gauge("ids_udf_profile_calls", "sw"), 2);
        assert_eq!(gauge("ids_udf_profile_rejections", "sw"), 1);
        assert_eq!(gauge("ids_udf_profile_mean_cost_us", "sw"), 3000);
        assert_eq!(gauge("ids_udf_profile_calls", "r0/sw"), 2);
    }

    #[test]
    fn harvest_round_trips_export() {
        let mut p = UdfProfiler::new();
        p.record_call("sw", 0.002);
        p.record_call("sw", 0.004);
        p.record_rejection("sw");
        p.record_call("dock", 40.0);
        let reg = MetricsRegistry::new();
        p.export_metrics(&reg, "");
        p.export_metrics(&reg, "r1"); // scoped series must not bleed into ""
        let harvested = UdfProfiler::harvest_metrics(&reg.snapshot(), "");
        let sw = harvested.get("sw").unwrap();
        assert_eq!(sw.calls, 2);
        assert_eq!(sw.rejections, 1);
        assert!((sw.mean_cost().unwrap() - 0.003).abs() < 1e-9);
        assert!((harvested.estimated_cost("dock", 0.0) - 40.0).abs() < 1e-6);
        let scoped = UdfProfiler::harvest_metrics(&reg.snapshot(), "r1");
        assert_eq!(scoped.get("sw").unwrap().calls, 2);
        assert!(UdfProfiler::harvest_metrics(&reg.snapshot(), "r9").names().is_empty());
    }

    #[test]
    fn throughput_helper() {
        assert_eq!(UdfProfiler::solutions_per_second(0.01), 100.0);
        assert!(UdfProfiler::solutions_per_second(0.0).is_infinite());
    }
}
