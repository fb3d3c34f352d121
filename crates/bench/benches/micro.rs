//! Criterion micro-benchmarks for the hot kernels under the experiments:
//! Smith–Waterman alignment (one-shot and against a prepared target), DTBA
//! forward pass, docking (receptor preparation, pose scoring, and a search
//! against the prepared receptor), dictionary interning, hash join,
//! the BGP data plane (batch join, repartition, result gather), vector
//! top-k, the cache CRC-32 kernel, and cache get/put.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
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

fn bench_smith_waterman(c: &mut Criterion) {
    let mut rng = SplitMix64::new(1, 1);
    let a = ProteinSequence::random(412, &mut rng); // P29274-sized
    let b = a.mutate(0.1, &mut rng);
    let sw = SmithWaterman::default_model();

    let mut g = c.benchmark_group("smith_waterman");
    g.throughput(Throughput::Elements((a.len() * b.len()) as u64));
    g.bench_function("full_412x412", |bench| {
        bench.iter(|| black_box(sw.align(black_box(&a), black_box(&b))))
    });
    let prepared = sw.prepare(&a);
    g.bench_function("prepared_412x412", |bench| {
        bench.iter(|| black_box(prepared.align(black_box(&b))))
    });
    g.finish();
}

fn bench_dtba(c: &mut Criterion) {
    let mut rng = SplitMix64::new(2, 1);
    let target = ProteinSequence::random(412, &mut rng);
    let model = DtbaModel::pretrained();
    c.bench_function("dtba_forward_412", |bench| {
        bench.iter(|| black_box(model.predict(black_box(&target), "CC(=O)Oc1ccccc1C(=O)O")))
    });
}

fn bench_docking_score(c: &mut Criterion) {
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
    c.bench_function("docking/prepare", |bench| {
        bench.iter(|| black_box(engine.prepare(black_box(&receptor))))
    });
    let prepared = engine.prepare(&receptor);
    c.bench_function("score_pose_412x25", |bench| {
        bench.iter(|| black_box(prepared.score_pose(black_box(&pose), 3)))
    });
    c.bench_function("docking/dock_prepared", |bench| {
        bench.iter(|| black_box(prepared.dock(black_box(&lig)).energy))
    });
}

fn bench_dictionary(c: &mut Criterion) {
    c.bench_function("dict_encode_1k_new", |bench| {
        let mut n = 0u64;
        bench.iter_batched(
            Dictionary::new,
            |dict| {
                for i in 0..1000 {
                    n = n.wrapping_add(dict.encode(&Term::iri(format!("e:{i}"))).raw());
                }
                black_box(n)
            },
            BatchSize::SmallInput,
        )
    });
    let dict = Dictionary::new();
    for i in 0..1000 {
        dict.iri(&format!("e:{i}"));
    }
    c.bench_function("dict_encode_1k_hit", |bench| {
        bench.iter(|| {
            let mut n = 0u64;
            for i in 0..1000 {
                n = n.wrapping_add(dict.encode(&Term::iri(format!("e:{i}"))).raw());
            }
            black_box(n)
        })
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
fn bench_bgp_kernels(c: &mut Criterion) {
    let buffers = IdBuffers::default();
    let left = stage(["k", "l"], &[keyed_rows(50_000, 2_200, 0)]);
    let right = stage(["k", "r"], &[keyed_rows(2_200, 2_200, 1 << 20)]);
    let schema = ops::join_schema(left.schema(), right.schema());
    let mut g = c.benchmark_group("bgp");
    g.throughput(Throughput::Elements(52_200));
    g.bench_function("hash_join_batch_50k", |bench| {
        bench.iter(|| {
            let mut worker = ops::JoinWorker::new(&schema);
            worker.join(
                &schema,
                black_box(left.view()),
                black_box(right.view()),
                &IdBuffers::default(),
            );
            black_box(worker.into_part())
        })
    });

    for (name, ranks, per_rank) in
        [("repartition_50k_x16", 16usize, 3_125u64), ("repartition_40k_x2048", 2048, 20)]
    {
        let sets: Vec<Vec<[u64; 2]>> =
            (0..ranks as u64).map(|r| keyed_rows(per_rank, 2_200, r * per_rank)).collect();
        let stage = stage(["k", "v"], &sets);
        g.throughput(Throughput::Elements(ranks as u64 * per_rank));
        g.bench_function(name, |bench| {
            bench.iter(|| {
                let placed = repartition_by_vars(black_box(&stage), "k", &buffers);
                buffers.give_stage(black_box(placed).expect("the key is in the schema"));
            })
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
    g.throughput(Throughput::Elements(50_000));
    g.bench_function("gather_sort_50k", |bench| {
        bench.iter(|| {
            let view = black_box(merged.view());
            black_box(shape_result(view, None, &select, false, None, &ds, &buffers))
        })
    });
    g.finish();
}

fn bench_vector_search(c: &mut Criterion) {
    let mut store = VectorStore::new(64);
    let mut rng = SplitMix64::new(4, 1);
    for i in 0..50_000u64 {
        let v: Vec<f32> = (0..64).map(|_| rng.next_f64() as f32).collect();
        store.insert(i, &v);
    }
    let q: Vec<f32> = (0..64).map(|_| rng.next_f64() as f32).collect();
    let mut g = c.benchmark_group("vector");
    g.throughput(Throughput::Elements(50_000));
    g.bench_function("topk10_cosine_50k_d64", |bench| {
        bench.iter(|| black_box(store.search(black_box(&q), 10, Metric::Cosine)))
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let topo = Topology::new(4, 8);
    let cache = CacheManager::new(
        topo,
        NetworkModel::slingshot(),
        CacheConfig::new(2, 256 << 20, 1 << 30),
        BackingStore::default_store(),
    );
    let payload = bytes::Bytes::from(vec![1u8; 64 << 10]);
    let mut g = c.benchmark_group("cache_integrity");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("crc32_64k", |bench| {
        bench.iter(|| black_box(ids_cache::crc32(black_box(&payload))))
    });
    g.finish();
    cache.put(RankId(0), "hot", payload.clone());
    c.bench_function("cache_get_local_dram_64k", |bench| {
        bench.iter(|| black_box(cache.get(RankId(0), "hot")))
    });
    c.bench_function("cache_put_64k", |bench| {
        let mut i = 0u64;
        bench.iter(|| {
            i += 1;
            black_box(cache.put(RankId(0), &format!("obj{}", i % 512), payload.clone()))
        })
    });
}

fn bench_molgen(c: &mut Criterion) {
    let gen = MoleculeGenerator::default_model(5);
    c.bench_function("molgen_generate", |bench| {
        let mut i = 0u64;
        bench.iter(|| {
            i += 1;
            black_box(gen.generate(i))
        })
    });
}

criterion_group!(
    benches,
    bench_smith_waterman,
    bench_dtba,
    bench_docking_score,
    bench_dictionary,
    bench_bgp_kernels,
    bench_vector_search,
    bench_cache,
    bench_molgen
);
criterion_main!(benches);
