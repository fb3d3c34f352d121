//! Experiment X3 — cache-tier and placement-policy ablation (§3).
//!
//! Three sweeps over the global shared cache:
//!
//! 1. **Tier ladder** — serve the same object from local DRAM, remote
//!    DRAM, local NVMe, remote NVMe, and the backing store; print the
//!    latency ladder the multi-tier design rests on.
//! 2. **Capacity pressure** — shrink DRAM so a docking-output working set
//!    spills, and measure hit-rate and mean access cost per configuration.
//! 3. **Placement policies** — local-first vs round-robin vs
//!    capacity-weighted under a node-skewed access pattern.
//!
//! Plus experiment X11 (PR 9) — the tiered-store subsystem:
//!
//! 4. **Working-set sweep × eviction policy** — working sets of 1×/2×/4×/8×
//!    DRAM against LRU, S3-FIFO, and TinyLFU. Misses recompute (~1 virtual
//!    second of docking), so the reuse speedup over a cacheless run measures
//!    how well each policy keeps the hot set resident. Scan-resistant
//!    policies must hold a ≥5× speedup at 4× DRAM while LRU (the negative
//!    control) thrashes below it.
//! 5. **Warm restart** — crash and recover one of the two cache nodes, run
//!    one anti-entropy pass, and require the post-crash hit rate to recover
//!    to ≥80% of the pre-crash rate off the retained NVMe tier.

use crate::reporting::{section, table, Records};
use bytes::Bytes;
use ids_cache::{CacheConfig, CacheManager, EvictionKind, PlacementPolicy, Tier};
use ids_simrt::{NodeId, RankId, Topology};

fn micro(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.2} s")
    } else if v >= 1e-3 {
        format!("{:.1} ms", v * 1e3)
    } else {
        format!("{:.1} us", v * 1e6)
    }
}

pub fn run() {
    let topo = Topology::new(4, 8);
    let obj = Bytes::from(vec![7u8; 256 << 10]); // a 256 KiB docking output
    let mut rec = Records::new("cache_tiers");

    // ---- 1. tier ladder ----------------------------------------------------
    section("X3a: tier latency ladder (256 KiB docking output)");
    let mut rows = Vec::new();
    // A two-node cache of `dram` / `nvme` bytes per node holding `obj`,
    // put from rank `producer`.
    let holding = |dram: u64, nvme: u64, producer: u32| {
        let c = super::cache(topo, CacheConfig::new(2, dram, nvme));
        c.put(RankId(producer), "obj", obj.clone());
        c
    };
    // Read `obj` from rank `reader` and add the rung; returns the tier
    // that served it.
    let mut rung = |label: &str, c: &CacheManager, reader: u32| {
        let (_, o) = c.get(RankId(reader), "obj").unwrap().unwrap();
        rec.add(format_args!("ladder.{:?}_secs", o.tier), o.virtual_secs);
        rows.push(vec![label.to_string(), micro(o.virtual_secs)]);
        o.tier
    };
    let c = holding(64 << 20, 1 << 30, 0);
    assert_eq!(rung("local DRAM", &c, 0), Tier::LocalDram);
    // A rank on a non-cache node.
    assert_eq!(rung("remote DRAM (RDMA)", &c, 31), Tier::RemoteDram);
    // DRAM too small.
    assert_eq!(rung("local NVMe", &holding(1, 1 << 30, 0), 0), Tier::LocalNvme);
    // Rank 8 is on node 1.
    assert_eq!(rung("remote NVMe", &holding(1, 1 << 30, 8), 31), Tier::RemoteNvme);
    assert_eq!(rung("backing store (Lustre-class)", &holding(1, 1, 0), 0), Tier::Backing);
    table(&["tier", "access latency"], &rows);

    // ---- 2. capacity pressure ----------------------------------------------
    section("X3b: DRAM capacity sweep (zipf-ish working set of 200 x 256 KiB)");
    let names: Vec<String> = (0..200).map(|i| format!("vina/{i}")).collect();
    let mut rows = Vec::new();
    for (label, dram) in [
        ("all-DRAM (64 MiB)", 64u64 << 20),
        ("half-DRAM (16 MiB)", 16 << 20),
        ("tiny-DRAM (4 MiB)", 4 << 20),
        ("no-DRAM (NVMe only)", 1),
    ] {
        let c = super::cache(topo, CacheConfig::new(2, dram, 1 << 30));
        for n in &names {
            c.put(RankId(0), n, obj.clone());
        }
        c.reset_stats();
        // Skewed access: object i accessed ~200/(i+1) times.
        let mut total_cost = 0.0;
        let mut accesses = 0u64;
        for (i, n) in names.iter().enumerate() {
            let reps = (200 / (i + 1)).max(1);
            for _ in 0..reps {
                let (_, o) = c.get(RankId(0), n).unwrap().unwrap();
                total_cost += o.virtual_secs;
                accesses += 1;
            }
        }
        let s = c.stats();
        rec.add(format_args!("dram{dram}.hit_rate"), s.hit_rate());
        rec.add(format_args!("dram{dram}.mean_access_secs"), total_cost / accesses as f64);
        rows.push(vec![
            label.to_string(),
            format!("{:.0}%", s.hit_rate() * 100.0),
            s.local_dram_hits.to_string(),
            (s.local_nvme_hits + s.remote_nvme_hits).to_string(),
            s.backing_fetches.to_string(),
            micro(total_cost / accesses as f64),
        ]);
    }
    table(
        &["configuration", "cache hit rate", "DRAM hits", "NVMe hits", "backing", "mean access"],
        &rows,
    );

    // ---- 3. placement policies ----------------------------------------------
    section("X3c: placement policy under node-0-heavy access");
    let mut rows = Vec::new();
    for (label, policy) in [
        ("local-first", PlacementPolicy::LocalFirst),
        ("round-robin", PlacementPolicy::RoundRobin),
        ("capacity-weighted", PlacementPolicy::CapacityWeighted),
    ] {
        let mut cfg = CacheConfig::new(2, 64 << 20, 1 << 30);
        cfg.policy = policy;
        let c = super::cache(topo, cfg);
        // Producer/consumer both live on node 0.
        for n in names.iter().take(100) {
            c.put(RankId(0), n, obj.clone());
        }
        c.reset_stats();
        let mut total_cost = 0.0;
        for n in names.iter().take(100) {
            let (_, o) = c.get(RankId(0), n).unwrap().unwrap();
            total_cost += o.virtual_secs;
        }
        let s = c.stats();
        rec.add(format_args!("{policy:?}.mean_access_secs"), total_cost / 100.0);
        rows.push(vec![
            label.to_string(),
            s.local_dram_hits.to_string(),
            s.remote_dram_hits.to_string(),
            micro(total_cost / 100.0),
        ]);
    }
    table(&["policy", "local hits", "remote hits", "mean access"], &rows);
    println!("\nshape check: local-first wins when computation stays where data was produced;");
    println!("the locality API lets schedulers recreate that advantage for other policies");

    // ---- 4. X11: working-set sweep x eviction policy -----------------------
    // 2 cache nodes x 4 MiB DRAM = 8 MiB DRAM total (32 x 256 KiB objects);
    // the NVMe tier is provisioned as a narrow spill buffer (DRAM/4) so the
    // sweep isolates eviction-policy behaviour rather than NVMe capacity.
    // Objects are ephemeral docking outputs (no backing copy), so a full
    // eviction really costs a recompute — the speedup over a cacheless run
    // is pure reuse. The workload is the classic scan-resistance mix: a hot
    // set re-docked constantly, interleaved with cold what-if scans over the
    // rest of the working set.
    section("X11: working-set sweep x eviction policy (8 MiB DRAM, 2 MiB NVMe spill buffer)");
    let topo2 = Topology::new(2, 4);
    let dram_node: u64 = 4 << 20;
    let dram_total = dram_node * topo2.nodes() as u64;
    let payload = Bytes::from(vec![3u8; OBJ_BYTES]);
    let policies = [EvictionKind::Lru, EvictionKind::S3Fifo, EvictionKind::TinyLfu];
    let mut rows = Vec::new();
    let mut cells: Vec<(EvictionKind, u64, f64)> = Vec::new();
    for mult in [1u64, 2, 4, 8] {
        let n = (mult * dram_total) as usize / OBJ_BYTES;
        for ev in policies {
            let c = super::cache(
                topo2,
                CacheConfig::new(2, dram_node, dram_node / 4).with_eviction(ev),
            );
            // Produce the working set, then two warm-up passes to reach a
            // steady-state residency mix before measuring two more.
            for i in 0..n {
                c.put_ephemeral(RankId((i % 8) as u32), &format!("ws/{i}"), payload.clone());
            }
            for _ in 0..2 {
                tier_pass(&c, n, &payload);
            }
            c.reset_stats();
            let (mut cost, mut accesses) = (0.0, 0u64);
            for _ in 0..2 {
                let (p_cost, p_accesses) = tier_pass(&c, n, &payload);
                cost += p_cost;
                accesses += p_accesses;
            }
            // A cacheless run recomputes every access.
            let speedup = (accesses as f64 * RECOMPUTE_SECS) / cost;
            let s = c.stats();
            let hit_rate = s.cache_hits() as f64 / (s.cache_hits() + s.total_misses) as f64;
            rec.add(format_args!("{}.{mult}x_dram.hit_rate", ev.label()), hit_rate);
            rec.add(format_args!("{}.{mult}x_dram.reuse_speedup", ev.label()), speedup);
            rows.push(vec![
                format!("{}x DRAM ({n} objects)", mult),
                ev.label().to_string(),
                format!("{:.0}%", hit_rate * 100.0),
                format!("{speedup:.1}x"),
            ]);
            cells.push((ev, mult, speedup));
        }
    }
    table(&["working set", "eviction", "hit rate", "reuse speedup"], &rows);

    // Acceptance: at 4x DRAM the scan-resistant policies keep a >=5x reuse
    // speedup; LRU (recency only, no scan resistance, no admission duel)
    // thrashes below it — the negative control.
    let speedup_at = |ev: EvictionKind, mult: u64| {
        cells
            .iter()
            .find(|(e, m, _)| *e == ev && *m == mult)
            .map(|(_, _, s)| *s)
            .expect("cell swept")
    };
    let lru4 = speedup_at(EvictionKind::Lru, 4);
    let s3f4 = speedup_at(EvictionKind::S3Fifo, 4);
    let tlfu4 = speedup_at(EvictionKind::TinyLfu, 4);
    assert!(s3f4 >= 5.0, "S3-FIFO must keep a >=5x reuse speedup at 4x DRAM (got {s3f4:.1}x)");
    assert!(tlfu4 >= 5.0, "TinyLFU must keep a >=5x reuse speedup at 4x DRAM (got {tlfu4:.1}x)");
    assert!(
        lru4 < 5.0 && lru4 < s3f4 && lru4 < tlfu4,
        "LRU is the negative control: it must thrash at 4x DRAM \
         (got {lru4:.1}x vs s3fifo {s3f4:.1}x / tinylfu {tlfu4:.1}x)"
    );
    println!("\nshape check: scan-resistant policies hold the hot set at 4x DRAM");
    println!("(s3fifo {s3f4:.1}x, tinylfu {tlfu4:.1}x) while lru thrashes ({lru4:.1}x)");

    // ---- 5. X11b: warm restart after a node crash --------------------------
    section("X11b: warm restart — NVMe tier survives a node recovery");
    let c = super::cache(
        topo2,
        CacheConfig::new(2, dram_node, 4 * dram_node).with_eviction(EvictionKind::S3Fifo),
    );
    let n = (2 * dram_total) as usize / OBJ_BYTES; // 2x DRAM, fits in NVMe
    for i in 0..n {
        c.put_ephemeral(RankId((i % 8) as u32), &format!("ws/{i}"), payload.clone());
    }
    for _ in 0..2 {
        tier_pass(&c, n, &payload);
    }
    c.reset_stats();
    tier_pass(&c, n, &payload);
    let pre = hit_rate_of(&c);
    // Crash one of the two nodes and bring it back: DRAM lost, NVMe
    // retained (unverified), then one anti-entropy pass re-verifies the
    // retained entries and restores replication.
    c.fail_node(NodeId(0));
    c.recover_node(NodeId(0));
    let retained = c.stats().warm_restart_retained;
    c.anti_entropy();
    c.reset_stats();
    tier_pass(&c, n, &payload);
    let post = hit_rate_of(&c);
    let recovery = post / pre;
    table(
        &["phase", "hit rate"],
        &[
            vec!["pre-crash".into(), format!("{:.1}%", pre * 100.0)],
            vec!["post-recovery (+1 anti-entropy pass)".into(), format!("{:.1}%", post * 100.0)],
        ],
    );
    println!(
        "\nwarm restart retained {retained} nvme entries; hit rate recovered to \
         {:.0}% of pre-crash",
        recovery * 100.0
    );
    assert!(retained > 0, "the crash must have found a populated NVMe tier to retain");
    assert!(
        recovery >= 0.8,
        "warm restart must recover >=80% of the pre-crash hit rate within one \
         anti-entropy pass (pre {pre:.3}, post {post:.3})"
    );
    rec.add("warm_restart.pre_hit_rate", pre);
    rec.add("warm_restart.post_hit_rate", post);
    rec.add("warm_restart.nvme_entries_retained", retained);
    rec.add("final_inspection", c.inspect());
    rec.print();
}

/// 256 KiB: the docking-output object size used throughout X3/X11.
const OBJ_BYTES: usize = 256 << 10;

/// Virtual cost of recomputing a docking output on a cache miss.
const RECOMPUTE_SECS: f64 = 1.0;

/// The hot set: 24 objects (6 MiB), comfortably inside the 8 MiB DRAM
/// plane and inside S3-FIFO's main queue / TinyLFU's protected residency.
const HOT: usize = 24;

/// Hot re-dockings per sub-round.
const HOT_REPS: usize = 10;

/// Cold what-if objects scanned between hot bursts — sized to overrun
/// DRAM plus the NVMe spill buffer, so a recency-only policy evicts the
/// entire hot set on every chunk while scan-resistant policies shed the
/// scan instead.
const CHUNK: usize = 48;

/// One access pass over a working set of `n` objects: alternating
/// sub-rounds of a hot burst (the first [`HOT`] objects, [`HOT_REPS`]
/// rounds) and a cold-scan chunk, partitioned so the pass covers each
/// cold object exactly once — the one-touch what-if scan that eviction
/// policies must not let displace the hot set. A miss recomputes the
/// docking output and re-stashes it ephemerally. Returns (virtual cost,
/// accesses).
fn tier_pass(c: &CacheManager, n: usize, payload: &Bytes) -> (f64, u64) {
    let hot = HOT.min(n - 1);
    let scan = n - hot;
    let sub_rounds = scan.div_ceil(CHUNK).max(1);
    let mut cost = 0.0;
    let mut accesses = 0u64;
    let mut access = |i: usize| {
        let name = format!("ws/{i}");
        let rank = RankId((i % 8) as u32);
        accesses += 1;
        match c.get(rank, &name).expect("no fault plane attached") {
            Some((_, o)) => cost += o.virtual_secs,
            None => cost += RECOMPUTE_SECS + c.put_ephemeral(rank, &name, payload.clone()),
        }
    };
    for r in 0..sub_rounds {
        for _ in 0..HOT_REPS {
            for i in 0..hot {
                access(i);
            }
        }
        // Even partition of the cold set across the sub-rounds.
        for i in (r * scan / sub_rounds)..((r + 1) * scan / sub_rounds) {
            access(hot + i);
        }
    }
    (cost, accesses)
}

/// Hit rate over every lookup, counting true misses (an ephemeral object
/// fully evicted has no backing copy, so `CacheStats::hit_rate` alone
/// would ignore exactly the misses this experiment is about).
fn hit_rate_of(c: &CacheManager) -> f64 {
    let s = c.stats();
    s.cache_hits() as f64 / (s.cache_hits() + s.total_misses) as f64
}
