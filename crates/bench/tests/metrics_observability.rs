//! End-to-end observability: after a cached NCNPR re-purposing query, the
//! instance's Prometheus exposition must carry the cache tier counters,
//! the engine operator timings, and the planner series — and EXPLAIN must
//! surface the live snapshot.

use ids_bench::ncnpr_setup::{build_ncnpr_instance, NcnprBenchOptions, RANKS_PER_NODE};
use ids_cache::{BackingStore, CacheConfig, CacheManager};
use ids_core::workflow::{repurposing_query, RepurposingThresholds};
use ids_simrt::{NetworkModel, Topology};
use std::sync::Arc;

fn cached_bench() -> ids_bench::ncnpr_setup::NcnprBench {
    let nodes = 2u32;
    let cache = Arc::new(CacheManager::new(
        Topology::new(nodes, RANKS_PER_NODE),
        NetworkModel::slingshot(),
        CacheConfig::new(1, 64 << 20, 512 << 20),
        BackingStore::default_store(),
    ));
    build_ncnpr_instance(NcnprBenchOptions {
        nodes,
        bulk: (0, 0),
        dtba_scale: 1.0,
        cache: Some(cache),
        paper_scale: false,
    })
}

#[test]
fn prometheus_exposition_covers_cached_ncnpr_query() {
    let mut inst = cached_bench().inst;
    let q = repurposing_query(&RepurposingThresholds {
        sw_similarity: 0.9,
        min_pic50: 3.0,
        min_dtba: 3.0,
    });

    // Cold run fills the cache with docking results; warm run hits it.
    inst.query(&q).expect("cold query");
    inst.reset_clocks();
    inst.query(&q).expect("warm query");

    let cache_stats = inst.cache().unwrap().stats();
    assert!(cache_stats.cache_hits() > 0, "warm run must hit the cache");

    let text = inst.render_prometheus();
    // Cache tier counters flow through the merged exposition.
    assert!(
        text.contains("ids_cache_lookup_hits_total{tier="),
        "cache tier counters missing:\n{text}"
    );
    assert!(text.contains("ids_cache_inserts_total{tier=\"dram\"}"), "{text}");
    assert!(text.contains("# TYPE ids_cache_size_bytes gauge"), "{text}");
    // Engine and planner series from the instance's own registry.
    assert!(text.contains("ids_engine_queries_total 2"), "{text}");
    assert!(text.contains("ids_engine_stage_secs_bucket{stage=\"scan\""), "{text}");
    assert!(text.contains("ids_engine_stage_secs_count{stage=\"apply\"}"), "{text}");
    assert!(text.contains("ids_planner_plans_total 2"), "{text}");
    // UDF profiles exported as gauges (merged over ranks).
    assert!(text.contains("ids_udf_profile_calls{udf=\"sw_similarity\"}"), "{text}");

    // The snapshot agrees with the cache's own accounting.
    let snap = inst.metrics_snapshot();
    let tier_hits: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.name == "ids_cache_lookup_hits_total" && k.label_value != "backing")
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(tier_hits, cache_stats.cache_hits());
}

#[test]
fn explain_reports_live_metrics_after_queries() {
    let mut inst = cached_bench().inst;
    let q = repurposing_query(&RepurposingThresholds {
        sw_similarity: 0.9,
        min_pic50: 3.0,
        min_dtba: 3.0,
    });

    // Before any execution there are no operator timings (the attached
    // cache pre-registers zeroed counters, so the snapshot itself is not
    // structurally empty — the fully-empty placeholder is unit-tested in
    // ids-core).
    let before = inst.explain(&q).expect("explain");
    assert!(before.contains("(no operator timings yet)"), "{before}");

    inst.query(&q).expect("query");
    let after = inst.explain(&q).expect("explain");
    assert!(after.contains("metrics (live, virtual time)"), "{after}");
    assert!(after.contains("scan :"), "operator timings missing:\n{after}");
    assert!(after.contains("cache:"), "cache hit ratio missing:\n{after}");
    assert!(after.contains("expected chain cost:"), "{after}");
    // Span log recorded the stages with virtual timestamps.
    let spans = inst.metrics().spans().snapshot();
    assert!(spans.iter().any(|s| s.name == "scan"));
    assert!(spans.iter().any(|s| s.name == "query"));
    assert!(spans.iter().all(|s| s.end_secs >= s.start_secs));
}
