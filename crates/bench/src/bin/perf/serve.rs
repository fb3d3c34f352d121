//! `serve-mix`: sixteen closed-loop clients drawing short interactive
//! queries from a Zipf-popular pool, served by `ids-serve` with semantic
//! reuse on and an attached cache that fits the working set.
//!
//! Why it exists: per-query fixed cost — lex/parse/canonicalise, plan,
//! admission, a WDRR slice, the reuse probe, typed decode — is most of
//! the work, and both kernel families do little. Front-end, scheduler
//! and cache-hit-path changes show here and are hidden everywhere else.

use crate::probes;
use crate::trace::Tracer;
use crate::util::{median, Rng, Zipf};
use crate::workload::{
    bulk_band, cache_counts, id_digest, launch, EngineTotals, InstanceTally, OpSample, Size,
    Values, Workload,
};
use ids_cache::{BackingStore, CacheConfig, CacheManager};
use ids_core::workflow::{install_workflow, Target, WorkflowModels};
use ids_serve::{QueryId, QueryService, ServeConfig, SessionId, TenantConfig};
use ids_simrt::{NetworkModel, Topology};
use ids_workloads::ncnpr::{Band, NcnprConfig};
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 16;

/// One pool entry: the text, the row count the generator implies, and
/// the entry whose answer it must equal byte for byte (itself, or the
/// lookup it is an α-renamed or all-pass-filtered twin of).
struct PoolQuery {
    text: String,
    expect_rows: usize,
    family: usize,
}

struct Pending {
    query: QueryId,
    pool: usize,
    submitted: Instant,
}

struct Client {
    session: SessionId,
    pending: Option<Pending>,
}

pub struct ServeMix {
    svc: QueryService,
    cache: Arc<CacheManager>,
    target: Target,
    topo: Topology,
    pool: Vec<PoolQuery>,
    /// Pool index of each Zipf popularity rank.
    by_rank: Vec<usize>,
    /// Digest each family returned the first time it was answered.
    family_digest: Vec<Option<u64>>,
    zipf: Zipf,
    rng: Rng,
    clients: Vec<Client>,
    steps: u64,
    totals: EngineTotals,
    slices: u64,
    queue_waits: Vec<f64>,
    refused: u64,
    base: InstanceTally,
    base_reuse: (u64, u64),
    window: usize,
}

/// Build the query pool from the dataset configuration alone: protein
/// `B{band}_{i}` has `compounds_per_protein` inhibitors, and compounds
/// are numbered from 1 in band order.
fn build_pool(bands: &[Band], background: usize, compound_lookups: usize) -> Vec<PoolQuery> {
    let mut pool = Vec::new();
    let mut compound_of: Vec<String> = Vec::new(); // compound n-1 -> its protein IRI
    for (bi, band) in bands.iter().enumerate() {
        for p in 0..band.proteins {
            let protein = format!("up:B{bi}_{p}");
            compound_of.extend(std::iter::repeat_n(protein.clone(), band.compounds_per_protein));
            let family = pool.len();
            let lookup = |c: &str, s: &str, filter: &str| {
                format!(
                    "SELECT ?{c} ?{s} WHERE {{ ?{c} <chembl:inhibits> <{protein}> . \
                     ?{c} <chembl:smiles> ?{s} . {filter}}}"
                )
            };
            for text in [
                lookup("c", "s", ""),
                // α-renamed twin: same canonical form, same answer.
                lookup("x", "y", ""),
                // pIC50 is never below 3, so the filter passes every row.
                lookup("c", "s", "FILTER(pic50(?s) > 0.0) "),
            ] {
                pool.push(PoolQuery { text, expect_rows: band.compounds_per_protein, family });
            }
        }
    }
    // Compound → protein lookups, spread evenly over the compound range.
    let stride = (compound_of.len() / compound_lookups.max(1)).max(1);
    for n in (0..compound_of.len()).step_by(stride).take(compound_lookups) {
        let family = pool.len();
        let text = format!("SELECT ?p WHERE {{ <chembl:C{}> <chembl:inhibits> ?p . }}", n + 1);
        pool.push(PoolQuery { text, expect_rows: 1, family });
    }
    // Two small scans/joins over the unreviewed background proteins.
    for text in [
        "SELECT ?p WHERE { ?p <up:reviewed> 0 . }",
        "SELECT ?p ?a WHERE { ?p <up:reviewed> 0 . ?p <up:accession> ?a . }",
    ] {
        let family = pool.len();
        pool.push(PoolQuery { text: text.to_string(), expect_rows: background, family });
    }
    pool
}

fn reuse_counters(svc: &QueryService) -> (u64, u64) {
    let snap = svc.instance().metrics().snapshot();
    (snap.counter_sum("ids_reuse_hits_total"), snap.counter_sum("ids_reuse_misses_total"))
}

impl ServeMix {
    pub fn setup(seed: u64, size: Size) -> Self {
        let (bulk, background, compound_lookups, warmup, window) = match size {
            Size::Full => (bulk_band(640, 3), 100, 54, 2000, 16 * 1024),
            Size::Smoke => (bulk_band(12, 3), 10, 4, 64, 64),
        };
        let topo = Topology::new(4, 2);
        let cache = Arc::new(CacheManager::new(
            topo,
            NetworkModel::slingshot(),
            CacheConfig::new(2, 64 << 20, 256 << 20).with_replication(2),
            BackingStore::default_store(),
        ));
        let tight = NcnprConfig::default().bands[0];
        let ncfg = NcnprConfig {
            bands: vec![tight, bulk],
            background_proteins: background,
            ..NcnprConfig::default()
        };
        let pool = build_pool(&ncfg.bands, background, compound_lookups);
        let (mut inst, dataset) = launch(topo, seed, Some(cache.clone()), ncfg);
        install_workflow(&mut inst, &dataset.target, WorkflowModels::test_models());

        let mut svc = QueryService::new(inst, ServeConfig::default());
        let clients = (0..CLIENTS)
            .map(|i| {
                let tenant = format!("c{i:02}");
                svc.register_tenant(TenantConfig::new(tenant.clone()));
                Client { session: svc.open_session(&tenant).expect("fresh tenant"), pending: None }
            })
            .collect();

        // Popularity rank → pool entry through a seeded shuffle, so the hot
        // head mixes every kind of query.
        let mut rng = Rng::new(seed, 0x5e7e);
        let mut by_rank: Vec<usize> = (0..pool.len()).collect();
        rng.shuffle(&mut by_rank);

        let mut this = Self {
            svc,
            cache,
            target: dataset.target,
            topo,
            family_digest: vec![None; pool.len()],
            zipf: Zipf::new(pool.len(), 1.1),
            pool,
            by_rank,
            rng,
            clients,
            steps: 0,
            totals: EngineTotals::default(),
            slices: 0,
            queue_waits: Vec::new(),
            refused: 0,
            base: InstanceTally::default(),
            base_reuse: (0, 0),
            window,
        };
        // Warm-up through the same closed loop, then zero every tally.
        let mut warm = Vec::new();
        let mut off = Tracer::new(false);
        while warm.len() < warmup {
            this.step(&mut off, &mut warm);
        }
        assert!(warm.iter().all(|s| s.ok), "warm-up operation failed its check");
        this.totals = EngineTotals::default();
        this.slices = 0;
        this.queue_waits.clear();
        this.refused = 0;
        this.cache.reset_stats();
        this.base = InstanceTally::read(this.svc.instance());
        this.base_reuse = reuse_counters(&this.svc);
        this
    }
}

impl Workload for ServeMix {
    fn window_ops(&self) -> usize {
        self.window
    }

    fn alloc_share(&self) -> f64 {
        1.0
    }

    fn step(&mut self, tr: &mut Tracer, out: &mut Vec<OpSample>) {
        let step = self.steps;
        self.steps += 1;
        // Closed loop: every client with nothing in flight submits its next
        // query, then the scheduler runs one round.
        for c in self.clients.iter_mut().filter(|c| c.pending.is_none()) {
            let pool = self.by_rank[self.zipf.sample(&mut self.rng)];
            let submitted = Instant::now();
            let svc = &mut self.svc;
            match tr.span("serve.submit", step, || svc.submit(c.session, &self.pool[pool].text)) {
                Ok(query) => c.pending = Some(Pending { query, pool, submitted }),
                Err(_) => {
                    // A refusal counts as a failed operation.
                    self.refused += 1;
                    let wall_ns = submitted.elapsed().as_nanos() as u64;
                    out.push(OpSample { wall_ns, virtual_s: 0.0, ok: false, digest: 0 });
                }
            }
        }
        let svc = &mut self.svc;
        for done in tr.span("serve.round", step, || svc.run_round()) {
            let Some(client) = self.clients.iter_mut().find(|c| c.session == done.session) else {
                continue;
            };
            let Some(p) = client.pending.take().filter(|p| p.query == done.query) else {
                continue;
            };
            let wall_ns = p.submitted.elapsed().as_nanos() as u64;
            self.slices += done.slices as u64;
            self.queue_waits.push(done.queue_wait_secs);
            let entry = &self.pool[p.pool];
            out.push(match &done.result {
                Ok(outcome) => {
                    self.totals.add(outcome.solutions.len(), &outcome.breakdown);
                    let digest = id_digest(&outcome.solutions);
                    let ok = outcome.solutions.len() == entry.expect_rows
                        && *self.family_digest[entry.family].get_or_insert(digest) == digest;
                    OpSample { wall_ns, virtual_s: done.latency_secs, ok, digest }
                }
                Err(_) => OpSample { wall_ns, virtual_s: done.latency_secs, ok: false, digest: 0 },
            });
        }
    }

    fn counts(&self, v: &mut Values) {
        self.totals.report(v);
        let inst = self.svc.instance();
        InstanceTally::read(inst).report_since(&self.base, v);
        let n = self.totals.queries.max(1) as f64;
        v.set("engine.steps", self.slices as f64 / n);
        v.set("serve.slices_per_query", self.slices as f64 / n);
        if !self.queue_waits.is_empty() {
            v.set("serve.queue_wait_virtual_s_p50", median(&self.queue_waits));
        }
        v.set("serve.refused", self.refused as f64);
        let (hits, misses) = reuse_counters(&self.svc);
        let (hits, misses) = (hits - self.base_reuse.0, misses - self.base_reuse.1);
        v.set("cache.reuse_hit_share", hits as f64 / (hits + misses).max(1) as f64);
        cache_counts(&self.cache.stats(), v);
    }

    fn probes(&mut self, v: &mut Values) {
        // The hottest 64 entries: what the front end mostly sees.
        let texts: Vec<String> =
            self.by_rank.iter().take(64).map(|&i| self.pool[i].text.clone()).collect();
        probes::iql(&texts, v);
        probes::planner(self.svc.instance(), &texts, true, v);
        let join =
            self.pool.iter().find(|q| q.text.contains("up:accession")).map(|q| q.text.clone());
        if let Some(text) = join {
            probes::graph(self.svc.instance(), &text, v);
            if let Ok(outcome) = self.svc.instance_mut().query(&text) {
                probes::typed_codec(&outcome.solutions, self.topo.total_ranks() as usize, v);
            }
        }
        probes::udf_pic50(self.svc.instance(), &self.target, &WorkflowModels::test_models(), v);
        probes::simrt(self.topo, v);
        probes::obs(self.svc.instance(), v);
    }
}
