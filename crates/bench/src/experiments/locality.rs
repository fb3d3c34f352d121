//! Experiment X4 — locality-aware scheduling (§8 next steps).
//!
//! "With our cache's ability to answer questions about data locality,
//! custom scheduling algorithms can be developed that place IDS's MPI
//! ranks on compute nodes closer to the data they require."
//!
//! Workload: 64 docking-output objects cached across 4 nodes; a consumer
//! phase reads each object 50 times. Three schedules:
//!
//! 1. **locality-blind** — consumers assigned round-robin, wherever;
//! 2. **locality-aware** — the scheduler queries `CacheManager::locality`
//!    and routes each consumer to a rank on the holding node;
//! 3. **relocate-then-run** — the data is first `relocate`d to the
//!    consumer's node (amortized when reuse is high).

use crate::reporting::{section, table, Records};
use bytes::Bytes;
use ids_cache::CacheConfig;
use ids_simrt::{NodeId, RankId, Topology};

fn micro(v: f64) -> String {
    if v >= 1e-3 {
        format!("{:.2} ms", v * 1e3)
    } else {
        format!("{:.1} us", v * 1e6)
    }
}

pub fn run() {
    let topo = Topology::new(4, 8);
    let obj = Bytes::from(vec![9u8; 256 << 10]);
    let n_objects = 64u32;
    let reads_per_object = 50u32;

    let build = || {
        let c = super::cache(topo, CacheConfig::new(4, 64 << 20, 1 << 30));
        // Producers scattered across all 4 nodes (rank i on node i/8).
        for i in 0..n_objects {
            c.put(RankId(i % 32), &format!("vina/{i}"), obj.clone());
        }
        c
    };

    section("X4: locality-aware scheduling over the global cache");
    let mut rows = Vec::new();

    // 1. Locality-blind: consumer rank chosen round-robin.
    let c = build();
    let mut cost = 0.0;
    for i in 0..n_objects {
        for r in 0..reads_per_object {
            let rank = RankId((i * 7 + r * 3) % 32);
            cost += c.get(rank, &format!("vina/{i}")).unwrap().unwrap().1.virtual_secs;
        }
    }
    let blind = cost / (n_objects * reads_per_object) as f64;
    rows.push(vec!["locality-blind".into(), micro(blind), "1.0x".into()]);

    // 2. Locality-aware: schedule the consumer onto the holding node.
    let c = build();
    let mut cost = 0.0;
    for i in 0..n_objects {
        let name = format!("vina/{i}");
        let holder: NodeId = c.locality(&name).first().map(|&(n, _)| n).unwrap_or(NodeId(0));
        let rank = RankId(holder.0 * 8); // first rank on the holding node
        for _ in 0..reads_per_object {
            cost += c.get(rank, &name).unwrap().unwrap().1.virtual_secs;
        }
    }
    let aware = cost / (n_objects * reads_per_object) as f64;
    rows.push(vec!["locality-aware".into(), micro(aware), format!("{:.1}x", blind / aware)]);

    // 3. Relocate-then-run: consumers stay put, data moves to them once.
    let c = build();
    let mut cost = 0.0;
    for i in 0..n_objects {
        let name = format!("vina/{i}");
        let consumer_node = NodeId(i % 4);
        cost += c.relocate(&name, consumer_node).unwrap_or(0.0);
        let rank = RankId(consumer_node.0 * 8);
        for _ in 0..reads_per_object {
            cost += c.get(rank, &name).unwrap().unwrap().1.virtual_secs;
        }
    }
    let relocated = cost / (n_objects * reads_per_object) as f64;
    rows.push(vec![
        "relocate-then-run".into(),
        micro(relocated),
        format!("{:.1}x", blind / relocated),
    ]);

    table(&["schedule", "mean access (amortized)", "speedup"], &rows);
    let mut rec = Records::new("locality");
    rec.add("blind_secs", blind);
    rec.add("aware_secs", aware);
    rec.add("relocate_secs", relocated);
    println!("\nshape check: locality-aware ≈ relocate-then-run ≪ locality-blind —");
    println!("the paper's hypothesized 'significant savings in communication latency'");
    rec.print();
}
