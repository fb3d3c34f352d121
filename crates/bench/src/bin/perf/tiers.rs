//! `cache-tiers`: direct `CacheManager` traffic over a working set four
//! times the DRAM tier, 80 % `get` / 20 % `put`, with periodic
//! anti-entropy.
//!
//! Why it exists: it is the only workload larger than the program's own
//! cache and the only one that writes beside reading. A `get`-path gain
//! paid for in `put`, spill, promote or repair shows here and nowhere
//! else. Engine, graph and UDF layers do nothing.

use crate::trace::Tracer;
use crate::util::{fnv_words, Rng, Zipf};
use crate::workload::{cache_counts, OpSample, Size, Values, Workload};
use bytes::Bytes;
use ids_cache::{BackingStore, CacheConfig, CacheManager, Tier};
use ids_simrt::{NetworkModel, RankId, Topology};
use std::time::Instant;

const OBJECT_BYTES: usize = 64 << 10;
const CACHE_NODES: usize = 2;
const PUT_SHARE: f64 = 0.2;
/// Individual cache operations between anti-entropy passes.
const ANTI_ENTROPY_EVERY: u64 = 20 * 1024;

pub struct CacheTiers {
    cache: CacheManager,
    ranks: u64,
    names: Vec<String>,
    /// Version last written per key: what a `get` must return.
    versions: Vec<u32>,
    zipf: Zipf,
    rng: Rng,
    block_ops: usize,
    blocks: u64,
    cache_ops: u64,
    gets: u64,
    get_virtual_s: f64,
    window: usize,
}

/// The 8-byte word every byte of object (`key`, `version`) repeats.
fn word(key: usize, version: u32) -> [u8; 8] {
    fnv_words([key as u64, version as u64]).to_le_bytes()
}

fn payload(key: usize, version: u32) -> Bytes {
    Bytes::from(word(key, version).repeat(OBJECT_BYTES / 8))
}

/// Length, first and last word, and a stride through the middle: a stale
/// version fails on any word, torn or shifted data on most.
fn payload_matches(data: &[u8], key: usize, version: u32) -> bool {
    let w = word(key, version);
    data.len() == OBJECT_BYTES
        && data[OBJECT_BYTES - 8..] == w
        && data.chunks_exact(8).step_by(509).all(|c| c == w)
}

impl CacheTiers {
    pub fn setup(seed: u64, size: Size) -> Self {
        let (dram_per_node, block_ops, warm_blocks, window): (u64, usize, usize, usize) = match size
        {
            Size::Full => (16 << 20, 1024, 8, 40),
            Size::Smoke => (512 << 10, 64, 2, 4),
        };
        let topo = Topology::new(4, 8);
        let cache = CacheManager::new(
            topo,
            NetworkModel::slingshot(),
            // NVMe holds twice the DRAM tier, so a quarter of the working
            // set lives in the backing store alone.
            CacheConfig::new(CACHE_NODES, dram_per_node, 2 * dram_per_node).with_replication(2),
            BackingStore::default_store(),
        );
        let keys = 4 * CACHE_NODES * dram_per_node as usize / OBJECT_BYTES;
        let mut rng = Rng::new(seed, 0x71e5);
        // Popularity rank → key through a seeded shuffle.
        let mut order: Vec<usize> = (0..keys).collect();
        rng.shuffle(&mut order);
        let names: Vec<String> = order.iter().map(|k| format!("obj/{k:05}")).collect();
        let ranks = topo.total_ranks() as u64;
        for (key, name) in names.iter().enumerate() {
            cache.put(RankId((key as u64 % ranks) as u32), name, payload(key, 0));
        }
        let mut this = Self {
            cache,
            ranks,
            versions: vec![0; keys],
            zipf: Zipf::new(keys, 1.0),
            names,
            rng,
            block_ops,
            blocks: 0,
            cache_ops: 0,
            gets: 0,
            get_virtual_s: 0.0,
            window,
        };
        // Reach a steady residency mix, then zero the tallies.
        let mut warm = Vec::new();
        let mut off = Tracer::new(false);
        for _ in 0..warm_blocks {
            this.step(&mut off, &mut warm);
        }
        assert!(warm.iter().all(|s| s.ok), "warm-up block failed its check");
        this.cache.reset_stats();
        this.gets = 0;
        this.get_virtual_s = 0.0;
        this
    }
}

impl Workload for CacheTiers {
    fn window_ops(&self) -> usize {
        self.window
    }

    fn alloc_share(&self) -> f64 {
        0.2
    }

    fn ops_per_sample(&self) -> f64 {
        self.block_ops as f64
    }

    fn step(&mut self, tr: &mut Tracer, out: &mut Vec<OpSample>) {
        let block = self.blocks;
        self.blocks += 1;
        let (mut ok, mut virtual_s) = (true, 0.0);
        // Which key each operation touched and which tier served it.
        let mut digest = 0u64;
        let t = Instant::now();
        let span = tr.begin("block", block);
        for _ in 0..self.block_ops {
            let key = self.zipf.sample(&mut self.rng);
            let from = RankId(self.rng.below(self.ranks) as u32);
            let name = &self.names[key];
            let cache = &self.cache;
            if self.rng.next_f64() < PUT_SHARE {
                self.versions[key] += 1;
                let data = payload(key, self.versions[key]);
                virtual_s += tr.span("cache.put", block, || cache.put(from, name, data));
                digest = fnv_words([digest, key as u64]);
            } else {
                match tr.span("cache.get", block, || cache.get(from, name)) {
                    Ok(Some((data, outcome))) => {
                        ok &= payload_matches(&data, key, self.versions[key]);
                        virtual_s += outcome.virtual_secs;
                        self.gets += 1;
                        self.get_virtual_s += outcome.virtual_secs;
                        digest = fnv_words([digest, key as u64, 1 + tier_code(outcome.tier)]);
                    }
                    // Every key was written through to the backing store,
                    // so neither a miss nor an error is acceptable.
                    Ok(None) | Err(_) => ok = false,
                }
            }
            self.cache_ops += 1;
            if self.cache_ops.is_multiple_of(ANTI_ENTROPY_EVERY) {
                tr.span("cache.anti_entropy", block, || cache.anti_entropy());
            }
        }
        tr.end(span);
        let wall_ns = t.elapsed().as_nanos() as u64;
        out.push(OpSample { wall_ns, virtual_s, ok, digest });
    }

    fn counts(&self, v: &mut Values) {
        cache_counts(&self.cache.stats(), v);
        v.set("cache.virtual_get_us", self.get_virtual_s / self.gets.max(1) as f64 * 1e6);
    }

    fn probes(&mut self, _v: &mut Values) {}
}

fn tier_code(t: Tier) -> u64 {
    match t {
        Tier::LocalDram => 0,
        Tier::RemoteDram => 1,
        Tier::LocalNvme => 2,
        Tier::RemoteNvme => 3,
        Tier::Backing => 4,
    }
}
