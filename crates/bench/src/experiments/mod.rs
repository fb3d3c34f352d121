//! Every paper table, figure and ablation, one function each.
//!
//! Each prints its tables, then its model outputs as `experiment.key
//! value` records ([`crate::reporting::Records`]), and asserts the shape
//! it exists to show. Everything printed to stdout depends only on the
//! code (virtual time, seeded data), so `repro`'s stdout is diffed
//! against the committed `bench_results/repro.txt`; host-clock readings
//! go to stderr.

use ids_cache::{BackingStore, CacheConfig, CacheManager};
use ids_core::{IdsConfig, IdsInstance};
use ids_simrt::{NetworkModel, Topology};
use std::sync::Arc;

pub mod adaptive;
pub mod cache_tiers;
pub mod faults;
pub mod fig4;
pub mod fig5;
pub mod locality;
pub mod overload;
pub mod pipeline;
pub mod rebalance;
pub mod recovery;
pub mod reorder;
pub mod serve;
pub mod table1;
pub mod table2;
pub mod vector;

/// Every experiment, in print order: the paper's Table 1, Figure 4,
/// Figure 5 and Table 2, then the ablations.
pub const EXPERIMENTS: &[(&str, fn())] = &[
    ("table1", table1::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("table2", table2::run),
    ("rebalance", rebalance::run),
    ("reorder", reorder::run),
    ("cache_tiers", cache_tiers::run),
    ("locality", locality::run),
    ("vector", vector::run),
    ("faults", faults::run),
    ("serve", serve::run),
    ("pipeline", pipeline::run),
    ("recovery", recovery::run),
    ("overload", overload::run),
    ("adaptive", adaptive::run),
];

/// Run the experiments named in `names`, in that order, or every one
/// when `names` is empty. An unknown name runs nothing and is an error
/// that lists the valid names.
pub fn run(names: &[String]) -> Result<(), String> {
    let chosen: Vec<fn()> = if names.is_empty() {
        EXPERIMENTS.iter().map(|&(_, f)| f).collect()
    } else {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|&(e, _)| e).collect();
        let unknown = |n| format!("unknown experiment {n:?}; valid names: {}", valid.join(" "));
        let find = |n: &String| EXPERIMENTS.iter().find(|(e, _)| e == n).map(|&(_, f)| f);
        names.iter().map(|n| find(n).ok_or_else(|| unknown(n))).collect::<Result<_, _>>()?
    };
    chosen.into_iter().for_each(|f| f());
    Ok(())
}

/// A cache over `topo` under `cfg`, on the Slingshot network and the
/// default backing store.
fn cache(topo: Topology, cfg: CacheConfig) -> Arc<CacheManager> {
    Arc::new(CacheManager::new(topo, NetworkModel::slingshot(), cfg, BackingStore::default_store()))
}

/// A laptop-profile instance on `topo`'s ranks, seeded with `seed`.
fn instance(topo: Topology, seed: u64) -> IdsInstance {
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), seed);
    cfg.topology = topo;
    IdsInstance::launch(cfg)
}

#[cfg(test)]
mod tests {
    #[test]
    fn an_unknown_name_runs_nothing_and_lists_the_valid_ones() {
        let err = super::run(&["table1".into(), "fig6".into()]).unwrap_err();
        assert!(err.contains("\"fig6\"") && err.contains("table1 fig4 fig5 table2 "), "{err}");
    }
}
