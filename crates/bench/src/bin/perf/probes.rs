//! Outside-in probes of single layers.
//!
//! Each probe times calls into one layer's public functions on the
//! workload's own inputs (its query texts, its store, its sequences), so
//! a change inside that layer moves the probe without any span living in
//! the program. Probes run after the timed phases and report means.

use crate::workload::Values;
use ids_cache::{IntermediateSolutions, TypedSolutionSet};
use ids_chem::sequence::ProteinSequence;
use ids_chem::smiles::parse_smiles;
use ids_core::iql;
use ids_core::planner;
use ids_core::workflow::{Target, WorkflowModels};
use ids_core::{IdsInstance, StatsCatalog};
use ids_graph::{ops, SolutionBatch, SolutionSet, Term, TriplePattern};
use ids_simrt::{Cluster, NetworkModel, Topology};
use std::hint::black_box;
use std::time::Instant;

/// Mean nanoseconds per call of `f` over `iters` calls.
fn mean_ns<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Repetitions that give a probe of `per_call_ns` about 20 ms of work.
fn reps_for(per_call_ns: f64) -> usize {
    ((20.0e6 / per_call_ns.max(1.0)) as usize).clamp(3, 20_000)
}

/// `iql`: lex, parse and canonicalise the workload's query texts.
pub fn iql(texts: &[String], v: &mut Values) {
    if texts.is_empty() {
        return;
    }
    let once = mean_ns(1, || texts.iter().filter(|t| iql::parse_query(t).is_ok()).count());
    let reps = reps_for(once);
    let n = texts.len() as f64;
    let lex = mean_ns(reps, || texts.iter().filter(|t| iql::lexer::lex(t).is_ok()).count());
    let parse = mean_ns(reps, || texts.iter().filter(|t| iql::parse_query(t).is_ok()).count());
    let parsed: Vec<iql::Query> = texts.iter().filter_map(|t| iql::parse_query(t).ok()).collect();
    let canon = mean_ns(reps, || {
        parsed
            .iter()
            .map(|q| {
                iql::canonical_query(q).fingerprint ^ iql::checkpoint_fragments(q).len() as u64
            })
            .fold(0, |a, b| a ^ b)
    });
    v.set("iql.lex_us", lex / n / 1e3);
    v.set("iql.parse_us", parse / n / 1e3);
    v.set("iql.canon_us", canon / n / 1e3);
}

/// `planner`: lower parsed queries, prepare full runs, collect statistics.
pub fn planner(inst: &IdsInstance, texts: &[String], reuse: bool, v: &mut Values) {
    if texts.is_empty() {
        return;
    }
    let ds = inst.datastore();
    let parsed: Vec<iql::Query> = texts.iter().filter_map(|t| iql::parse_query(t).ok()).collect();
    let lower_all =
        || parsed.iter().filter(|q| planner::lower_with_stats(q, ds, None, None).is_ok()).count();
    let reps = reps_for(mean_ns(1, lower_all));
    let n = texts.len() as f64;
    v.set("planner.lower_us", mean_ns(reps, lower_all) / n / 1e3);
    let prepare =
        mean_ns(reps, || texts.iter().filter(|t| inst.prepare_run(t, reuse).is_ok()).count());
    v.set("planner.prepare_us", prepare / n / 1e3);
    v.set(
        "planner.stats_collect_ms",
        mean_ns(3, || StatsCatalog::collect(ds).total_triples()) / 1e6,
    );
}

/// `graph`: the batch kernels on the first two patterns of `text`'s plan,
/// scanned from the workload's own store.
pub fn graph(inst: &IdsInstance, text: &str, v: &mut Values) {
    let ds = inst.datastore();
    let Ok(parsed) = iql::parse_query(text) else { return };
    let Ok(plan) = planner::lower_with_stats(&parsed, ds, None, None) else { return };
    const REPS: usize = 5;

    // Per-pattern, per-shard scans into batches.
    let mut per_pattern: Vec<Vec<SolutionBatch>> = Vec::new();
    let (mut scan_ns, mut triples) = (0.0, 0usize);
    for pat in plan.patterns.iter().take(2) {
        let shards: Vec<_> = (0..ds.num_shards()).map(|s| ds.scan_shard(s, &pat.pattern)).collect();
        triples += shards.iter().map(Vec::len).sum::<usize>();
        let bind = |t: &[ids_graph::Triple]| {
            ops::scan_to_batch(
                &pat.pattern,
                pat.var_s.as_deref(),
                pat.var_p.as_deref(),
                pat.var_o.as_deref(),
                t,
            )
        };
        scan_ns += mean_ns(REPS, || shards.iter().map(|t| bind(t).len()).sum::<usize>());
        per_pattern.push(shards.iter().map(|t| bind(t)).collect());
    }
    v.set("graph.scan_ns_per_triple", scan_ns / triples.max(1) as f64);

    // Merge each pattern's shard batches (the gather-side concatenation).
    let mut merged: Vec<SolutionBatch> = Vec::new();
    let (mut merge_ns, mut merge_rows) = (0.0, 0usize);
    for batches in &per_pattern {
        let mut inputs: Vec<Vec<SolutionBatch>> = (0..REPS).map(|_| batches.clone()).collect();
        merge_ns +=
            mean_ns(REPS, || ops::merge_batches(inputs.pop().expect("one input per rep")).len());
        let m = ops::merge_batches(batches.clone());
        merge_rows += m.len();
        merged.push(m);
    }
    v.set("graph.merge_ns_per_row", merge_ns / merge_rows.max(1) as f64);

    if let [left, right] = merged.as_slice() {
        let join_ns = mean_ns(REPS, || ops::hash_join_batch(left, right).len());
        v.set("graph.join_ns_per_row", join_ns / (left.len() + right.len()).max(1) as f64);
    }
    if let Some(big) = merged.iter().max_by_key(|b| b.len()) {
        let set: SolutionSet = big.to_set();
        let ns = mean_ns(REPS, || big.to_set().len())
            + mean_ns(REPS, || SolutionBatch::from_set(&set).len());
        v.set("graph.batch_convert_ns_per_row", ns / big.len().max(1) as f64);
    }
}

/// String objects of up to `n` triples with predicate `pred`, in shard
/// order: the workload's own sequences or SMILES.
pub fn sample_objects(inst: &IdsInstance, pred: &str, n: usize) -> Vec<String> {
    let ds = inst.datastore();
    let Some(p) = ds.dictionary().lookup(&Term::iri(pred)) else { return Vec::new() };
    let pat = TriplePattern::new(None, Some(p), None);
    let mut out = Vec::new();
    for shard in 0..ds.num_shards() {
        for t in ds.scan_shard(shard, &pat) {
            if let Some(s) = ds.decode(t.o).and_then(|term| term.as_str().map(String::from)) {
                out.push(s);
                if out.len() == n {
                    return out;
                }
            }
        }
    }
    out
}

fn pic50(smiles: &[String], target: &Target, models: &WorkflowModels, v: &mut Values) {
    if smiles.is_empty() {
        return;
    }
    let ns = mean_ns(50, || {
        smiles.iter().map(|m| models.pic50.assay(m, &target.accession).pic50).sum::<f64>()
    });
    v.set("udf.pic50_ns_per_call", ns / smiles.len() as f64);
}

/// `udf` / `models`: direct calls to the cheap pIC50 model on the
/// workload's own SMILES. `models` must be built the way the workload
/// built the ones it installed (registration consumes the installed set).
pub fn udf_pic50(inst: &IdsInstance, target: &Target, models: &WorkflowModels, v: &mut Values) {
    pic50(&sample_objects(inst, "chembl:smiles", 64), target, models, v);
}

/// `udf` / `models`: all four NCNPR models — Smith–Waterman, DTBA, pIC50
/// and docking — on the workload's own sequences and SMILES.
pub fn udf(inst: &IdsInstance, target: &Target, models: &WorkflowModels, v: &mut Values) {
    let seqs: Vec<ProteinSequence> = sample_objects(inst, "up:sequence", 16)
        .iter()
        .filter_map(|s| ProteinSequence::parse(s).ok())
        .collect();
    let smiles = sample_objects(inst, "chembl:smiles", 64);
    pic50(&smiles, target, models, v);
    if seqs.is_empty() || smiles.is_empty() {
        return;
    }
    let sw = mean_ns(2, || {
        seqs.iter().map(|s| models.sw.align(&target.sequence, s).similarity).sum::<f64>()
    });
    v.set("udf.sw_us_per_call", sw / seqs.len() as f64 / 1e3);
    let dtba = mean_ns(2, || {
        smiles
            .iter()
            .zip(seqs.iter().cycle())
            .map(|(m, s)| models.dtba.predict(s, m).pkd)
            .sum::<f64>()
    });
    v.set("udf.dtba_us_per_call", dtba / smiles.len() as f64 / 1e3);
    let ligands: Vec<_> = smiles.iter().take(6).filter_map(|m| parse_smiles(m).ok()).collect();
    if !ligands.is_empty() {
        let dock = mean_ns(1, || {
            ligands.iter().map(|l| models.docking.dock(&target.receptor, l).energy).sum::<f64>()
        });
        v.set("udf.docking_ms_per_call", dock / ligands.len() as f64 / 1e6);
    }
}

/// `simrt`: pure simulator bookkeeping at the workload's rank count.
pub fn simrt(topo: Topology, v: &mut Values) {
    let ranks = topo.total_ranks() as usize;
    let mut cluster = Cluster::new(topo, NetworkModel::slingshot(), 1);
    let once = mean_ns(1, || cluster.execute("noop", |_| ()).len());
    let reps = reps_for(once);
    v.set("simrt.execute_us", mean_ns(reps, || cluster.execute("noop", |_| ()).len()) / 1e3);
    let sends = vec![4096u64; ranks];
    v.set("simrt.alltoallv_us", mean_ns(reps, || cluster.alltoallv_cost(&sends)) / 1e3);
    v.set("simrt.barrier_us", mean_ns(reps, || cluster.barrier()) / 1e3);
    v.set("simrt.ranks", ranks as f64);
}

/// `obs`: the whole-instance snapshot taken per plan / EXPLAIN.
pub fn obs(inst: &IdsInstance, v: &mut Values) {
    let snap = inst.metrics_snapshot();
    v.set("obs.series", (snap.counters.len() + snap.gauges.len() + snap.histograms.len()) as f64);
    v.set("obs.snapshot_us", mean_ns(3, || inst.metrics_snapshot().counters.len()) / 1e3);
}

/// `cache` typed codec: encode/decode one reuse checkpoint built from
/// `rows`, spread over `ranks` per-rank sets.
pub fn typed_codec(rows: &SolutionSet, ranks: usize, v: &mut Values) {
    if rows.is_empty() {
        return;
    }
    let ranks = ranks.max(1);
    let mut sets: Vec<TypedSolutionSet> = (0..ranks)
        .map(|_| TypedSolutionSet { vars: rows.vars().to_vec(), rows: Vec::new() })
        .collect();
    for (i, row) in rows.rows().iter().enumerate() {
        sets[i % ranks].rows.push(row.iter().map(|t| t.0).collect());
    }
    let obj = IntermediateSolutions { fingerprint: 0x1D5, pre_filter_counts: vec![0; ranks], sets };
    let bytes = obj.encode();
    let reps = reps_for(mean_ns(1, || obj.encode().len()));
    let n = rows.len() as f64;
    v.set("cache.typed_encode_ns_per_row", mean_ns(reps, || obj.encode().len()) / n);
    v.set(
        "cache.typed_decode_ns_per_row",
        mean_ns(reps, || IntermediateSolutions::decode(&bytes, 0x1D5).map(|o| o.total_rows())) / n,
    );
}
