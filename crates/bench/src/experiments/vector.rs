//! Experiment X5 — similarity-search ablation.
//!
//! The paper's "what-could-be" query "executes millions of similarity
//! searches" (§1). This bench quantifies the exact-vs-IVF trade the
//! vector-store face offers: recall@10 and real search time per query as
//! `nprobe` sweeps, over a 100 K × 32-d corpus. Recall goes to stdout;
//! the host-clock times (search, speed-up, index build) go to stderr.

use crate::reporting::{section, table, Records};
use ids_simrt::rng::SplitMix64;
use ids_vector::store::{Metric, VectorStore};
use ids_vector::IvfIndex;
use std::time::Instant;

pub fn run() {
    let dim = 32;
    let n = 100_000u64;
    let n_queries = 200;
    let k = 10;

    let mut rng = SplitMix64::new(0x7ec, 1);
    let mut store = VectorStore::new(dim);
    // Clustered corpus: 64 centers with gaussian spread (realistic
    // embedding geometry; uniform corpora make IVF look artificially bad).
    let centers: Vec<Vec<f32>> = (0..64)
        .map(|_| (0..dim).map(|_| rng.next_range(-1.0, 1.0) as f32 * 10.0).collect())
        .collect();
    for i in 0..n {
        let c = &centers[(i % 64) as usize];
        let v: Vec<f32> = c.iter().map(|&x| x + rng.next_gaussian() as f32).collect();
        store.insert(i, &v);
    }
    let queries: Vec<Vec<f32>> = (0..n_queries)
        .map(|qi| {
            let c = &centers[qi % 64];
            c.iter().map(|&x| x + rng.next_gaussian() as f32).collect()
        })
        .collect();

    section(&format!("X5: exact vs IVF search, {n} x {dim}-d corpus, {n_queries} queries"));

    // Exact baseline + ground truth.
    let t0 = Instant::now();
    let truth: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| store.search(q, k, Metric::L2).into_iter().map(|h| h.id).collect())
        .collect();
    let exact_us = t0.elapsed().as_micros() as f64 / n_queries as f64;

    let build_start = Instant::now();
    let index = IvfIndex::build(&store, 64, 8, 42);
    eprintln!(
        "index build: {} ms (64 lists, 8 k-means iterations)",
        build_start.elapsed().as_millis()
    );
    eprintln!("exact scan: {exact_us:.0} us/query");

    let mut rows = vec![vec!["exact scan".to_string(), "100.0%".to_string()]];
    let mut rec = Records::new("vector");
    for nprobe in [1usize, 2, 4, 8, 16, 64] {
        let t0 = Instant::now();
        let mut hits_found = 0usize;
        for (q, t) in queries.iter().zip(&truth) {
            let got: Vec<u64> = index.search(q, k, nprobe).into_iter().map(|h| h.id).collect();
            hits_found += got.iter().filter(|id| t.contains(id)).count();
        }
        let us = t0.elapsed().as_micros() as f64 / n_queries as f64;
        let recall = hits_found as f64 / (n_queries * k) as f64;
        eprintln!("IVF nprobe={nprobe}: {us:.0} us/query, {:.1}x", exact_us / us);
        rec.add(format_args!("nprobe{nprobe}.recall"), recall);
        rows.push(vec![format!("IVF nprobe={nprobe}"), format!("{:.1}%", recall * 100.0)]);
    }
    table(&["method", "recall@10"], &rows);
    println!("\nshape check: small nprobe trades recall for large speedups; full probe = exact");
    rec.print();
}
