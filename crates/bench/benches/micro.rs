//! Wall-clock micro-benchmarks for the hot kernels under the experiments:
//! Smith–Waterman alignment (one-shot and against a prepared target), DTBA
//! forward pass, docking (receptor preparation, pose scoring, and a search
//! against the prepared receptor), dictionary interning, hash join,
//! the BGP data plane (batch join, repartition, result gather), vector
//! top-k, the cache CRC-32 kernel, and cache get/put.
//!
//! `cargo bench -p ids-bench --bench micro` runs every case and prints one
//! `bench <id> … ns/iter` line each; it takes no name filter.

use ids_cache::{BackingStore, CacheConfig, CacheManager};
use ids_chem::sequence::ProteinSequence;
use ids_chem::smiles::parse_smiles;
use ids_core::engine::{repartition_by_vars, shape_result};
use ids_core::Datastore;
use ids_graph::stage::{IdBuffers, StagePart};
use ids_graph::{ops, Dictionary, StageBatch, Term, TermId};
use ids_models::{DockingEngine, DtbaModel, MoleculeGenerator, SmithWaterman, StructurePredictor};
use ids_simrt::rng::SplitMix64;
use ids_simrt::{NetworkModel, RankId, Topology};
use ids_vector::store::{Metric, VectorStore};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each case is measured, after calibration.
const MEASURE: Duration = Duration::from_millis(300);

/// Work per iteration, for the rate printed after the mean.
#[derive(Clone, Copy)]
enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// Time `routine`: grow the batch until one batch takes 1 ms, run whole
/// batches for [`MEASURE`], and report the mean.
fn bench<O>(id: &str, tp: Option<Throughput>, mut routine: impl FnMut() -> O) {
    let mut run = |n: u64| {
        let t = Instant::now();
        for _ in 0..n {
            black_box(routine());
        }
        t.elapsed()
    };
    let mut batch: u64 = 1;
    while run(batch) < Duration::from_millis(1) && batch < 1 << 20 {
        batch *= 4;
    }
    let (start, mut iters) = (Instant::now(), 0u64);
    while start.elapsed() < MEASURE {
        run(batch);
        iters += batch;
    }
    report(id, tp, start.elapsed().as_nanos() as f64 / iters.max(1) as f64);
}

/// Time `routine` on a fresh input from `setup` per call; setup is not timed.
fn bench_batched<I, O>(id: &str, mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) {
    let (start, mut spent, mut iters) = (Instant::now(), Duration::ZERO, 0u64);
    while start.elapsed() < MEASURE {
        let input = setup();
        let t = Instant::now();
        black_box(routine(black_box(input)));
        spent += t.elapsed();
        iters += 1;
    }
    report(id, None, spent.as_nanos() as f64 / iters.max(1) as f64);
}

fn report(id: &str, tp: Option<Throughput>, ns: f64) {
    let rate = match tp.filter(|_| ns > 0.0) {
        Some(Throughput::Elements(n)) => format!("  ({:.2} Melem/s)", n as f64 / ns * 1e3),
        Some(Throughput::Bytes(n)) => format!("  ({:.2} MiB/s)", n as f64 / ns * 1e9 / 1048576.0),
        None => String::new(),
    };
    println!("bench {id:<40} {ns:>14.1} ns/iter{rate}");
}

fn bench_smith_waterman() {
    let mut rng = SplitMix64::new(1, 1);
    let a = ProteinSequence::random(412, &mut rng); // P29274-sized
    let b = a.mutate(0.1, &mut rng);
    let sw = SmithWaterman::default_model();

    let tp = Some(Throughput::Elements((a.len() * b.len()) as u64));
    bench("smith_waterman/full_412x412", tp, || sw.align(black_box(&a), black_box(&b)));
    let prepared = sw.prepare(&a);
    bench("smith_waterman/prepared_412x412", tp, || prepared.align(black_box(&b)));
}

fn bench_dtba() {
    let mut rng = SplitMix64::new(2, 1);
    let target = ProteinSequence::random(412, &mut rng);
    let model = DtbaModel::pretrained();
    bench("dtba_forward_412", None, || model.predict(black_box(&target), "CC(=O)Oc1ccccc1C(=O)O"));
}

fn bench_docking_score() {
    // The workflow's shape: a predicted 412-residue receptor (one site per
    // residue) and a 25-heavy-atom ligand posed at its surface.
    let mut rng = SplitMix64::new(3, 1);
    let target = ProteinSequence::random(412, &mut rng);
    let receptor = StructurePredictor::default_model().predict(&target).structure;
    let lig = parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)Nc1ccc(O)cc1CCN").unwrap();
    assert_eq!(lig.atom_count(), 25);
    let conformer = DockingEngine::embed_ligand(&lig, 7);
    let pose = conformer.translated(receptor.atoms()[200].pos - conformer.centroid());
    let engine = DockingEngine::default_engine();
    // The receptor-only half (sites, box, reach index), once per target;
    // then scoring and docking against it.
    bench("docking/prepare", None, || engine.prepare(black_box(&receptor)));
    let prepared = engine.prepare(&receptor);
    bench("score_pose_412x25", None, || prepared.score_pose(black_box(&pose), 3));
    bench("docking/dock_prepared", None, || prepared.dock(black_box(&lig)).energy);
}

fn bench_dictionary() {
    let mut n = 0u64;
    bench_batched("dict_encode_1k_new", Dictionary::new, |dict| {
        for i in 0..1000 {
            n = n.wrapping_add(dict.encode(&Term::iri(format!("e:{i}"))).raw());
        }
        n
    });
    let dict = Dictionary::new();
    for i in 0..1000 {
        dict.iri(&format!("e:{i}"));
    }
    bench("dict_encode_1k_hit", None, || {
        let mut n = 0u64;
        for i in 0..1000 {
            n = n.wrapping_add(dict.encode(&Term::iri(format!("e:{i}"))).raw());
        }
        n
    });
}

/// `rows` rows of (`k`, `v`): `k` cycles through `keys` values in a
/// scattered order, `v` counts up from `v0`.
fn keyed_rows(rows: u64, keys: u64, v0: u64) -> Vec<[u64; 2]> {
    (0..rows).map(|i| [i.wrapping_mul(2_654_435_761) % keys, v0 + i]).collect()
}

/// The stage over `vars` whose rank `r` holds `ranks[r]`.
fn stage<const N: usize>(vars: [&str; N], ranks: &[Vec<[u64; N]>]) -> StageBatch {
    let mut part = StagePart::new(N);
    let spans: Vec<(usize, usize, usize)> = ranks
        .iter()
        .map(|rows| {
            let (first, n) = part.push_rank(rows).expect("one id per variable");
            (0, first, n)
        })
        .collect();
    let vars = vars.map(String::from).to_vec().into();
    StageBatch::assemble(vars, vec![part], &spans, &IdBuffers::default())
        .expect("rows fit the u32 row index space")
}

/// The column-at-a-time BGP kernels at `bgp-join`'s sizes (≈ 50 k rows
/// over 16 ranks) and, for the exchange, at `ncnpr-udf`'s shape as well:
/// about as many rows over 2048 ranks, twenty to a source, where any work
/// per (source, destination) pair instead of per row is 4.2 M steps. The
/// exchange and the gather recycle their buffers through one free list,
/// as a query run does.
fn bench_bgp_kernels() {
    let buffers = IdBuffers::default();
    let left = stage(["k", "l"], &[keyed_rows(50_000, 2_200, 0)]);
    let right = stage(["k", "r"], &[keyed_rows(2_200, 2_200, 1 << 20)]);
    let schema = ops::join_schema(left.schema(), right.schema());
    bench("bgp/hash_join_batch_50k", Some(Throughput::Elements(52_200)), || {
        let mut worker = ops::JoinWorker::new(&schema);
        worker.join(
            &schema,
            black_box(left.view()),
            black_box(right.view()),
            &IdBuffers::default(),
        );
        worker.into_part()
    });

    for (name, ranks, per_rank) in
        [("repartition_50k_x16", 16usize, 3_125u64), ("repartition_40k_x2048", 2048, 20)]
    {
        let sets: Vec<Vec<[u64; 2]>> =
            (0..ranks as u64).map(|r| keyed_rows(per_rank, 2_200, r * per_rank)).collect();
        let stage = stage(["k", "v"], &sets);
        let tp = Some(Throughput::Elements(ranks as u64 * per_rank));
        bench(&format!("bgp/{name}"), tp, || {
            let placed = repartition_by_vars(black_box(&stage), "k", &buffers);
            buffers.give_stage(black_box(placed).expect("the key is in the schema"));
        });
    }

    // Four id columns in join order, every id in the dictionary, no ORDER
    // BY: canonical sort, SELECT in another order, one materialisation.
    let ds = Datastore::new(1);
    let ids: Vec<TermId> = (0..50_000).map(|i| ds.encode(&Term::iri(format!("e:{i}")))).collect();
    let rows: Vec<[u64; 4]> = (0..50_000usize)
        .map(|i| {
            let compound = ids[i.wrapping_mul(40_503) % 50_000];
            [ids[i % 2_200], ids[(i % 2_200) + 2_200], compound, ids[i]].map(TermId::raw)
        })
        .collect();
    let merged = stage(["protein", "seq", "compound", "smiles"], &[rows]);
    let select = ["compound", "smiles", "protein", "seq"].map(String::from);
    bench("bgp/gather_sort_50k", Some(Throughput::Elements(50_000)), || {
        shape_result(black_box(merged.view()), None, &select, false, None, &ds, &buffers)
    });
}

fn bench_vector_search() {
    let mut store = VectorStore::new(64);
    let mut rng = SplitMix64::new(4, 1);
    for i in 0..50_000u64 {
        let v: Vec<f32> = (0..64).map(|_| rng.next_f64() as f32).collect();
        store.insert(i, &v);
    }
    let q: Vec<f32> = (0..64).map(|_| rng.next_f64() as f32).collect();
    bench("vector/topk10_cosine_50k_d64", Some(Throughput::Elements(50_000)), || {
        store.search(black_box(&q), 10, Metric::Cosine)
    });
}

fn bench_cache() {
    let topo = Topology::new(4, 8);
    let cache = CacheManager::new(
        topo,
        NetworkModel::slingshot(),
        CacheConfig::new(2, 256 << 20, 1 << 30),
        BackingStore::default_store(),
    );
    let payload = bytes::Bytes::from(vec![1u8; 64 << 10]);
    let tp = Some(Throughput::Bytes(payload.len() as u64));
    bench("cache_integrity/crc32_64k", tp, || ids_cache::crc32(black_box(&payload)));
    cache.put(RankId(0), "hot", payload.clone());
    bench("cache_get_local_dram_64k", None, || cache.get(RankId(0), "hot"));
    let mut i = 0u64;
    bench("cache_put_64k", None, || {
        i += 1;
        cache.put(RankId(0), &format!("obj{}", i % 512), payload.clone())
    });
}

fn bench_molgen() {
    let gen = MoleculeGenerator::default_model(5);
    let mut i = 0u64;
    bench("molgen_generate", None, || {
        i += 1;
        gen.generate(i)
    });
}

fn main() {
    bench_smith_waterman();
    bench_dtba();
    bench_docking_score();
    bench_dictionary();
    bench_bgp_kernels();
    bench_vector_search();
    bench_cache();
    bench_molgen();
}
