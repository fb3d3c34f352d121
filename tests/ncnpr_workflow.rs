//! Integration: the NCNPR drug-re-purposing workflow, spanning
//! ids-workloads, ids-core, ids-models, and ids-cache.

mod docked;
mod ncnpr;

use docked::extract;
use ids::cache::CacheConfig;
use ids::core::workflow::{
    docking_object_name, install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids::core::{IdsConfig, IdsInstance};
use ids::simrt::Topology;
use ids::workloads::ncnpr::build;
use ncnpr::{cache, launch, query, small_config};
use std::sync::Arc;

#[test]
fn tight_threshold_selects_only_the_near_identical_band() {
    let mut inst = launch(Topology::new(1, 4), None, None);
    let out = inst.query(&query(0.9)).unwrap();
    assert_eq!(out.solutions.len(), 12, "3 proteins x 4 compounds");
    // Every output row carries a finite docking energy.
    let ds = inst.datastore();
    for row in out.solutions.rows() {
        let energy = ds.decode(row[2]).unwrap().as_f64().unwrap();
        assert!(energy.is_finite());
    }
}

#[test]
fn loose_threshold_adds_the_low_band() {
    let mut inst = launch(Topology::new(1, 4), None, None);
    let out = inst.query(&query(0.2)).unwrap();
    assert_eq!(out.solutions.len(), 12 + 10, "both bands");
}

#[test]
fn background_proteins_never_reach_docking() {
    // Background proteins are unreviewed — the reviewed pattern excludes
    // them regardless of threshold.
    let mut inst = launch(Topology::new(1, 4), None, None);
    let out = inst.query(&query(0.0)).unwrap();
    assert_eq!(out.solutions.len(), 22, "bands only, never the background");
}

#[test]
fn cached_and_uncached_runs_agree_exactly() {
    // Determinism contract: a cache hit must be indistinguishable from
    // re-execution.
    let topo = Topology::new(2, 2);
    let mut cached =
        launch(topo, Some(cache(topo, CacheConfig::new(2, 64 << 20, 256 << 20))), None);
    let cold = cached.query(&query(0.9)).unwrap();
    cached.reset_clocks();
    let warm = cached.query(&query(0.9)).unwrap();

    let mut uncached_inst = launch(topo, None, None);
    let plain = uncached_inst.query(&query(0.9)).unwrap();

    let a = extract(&cold, &cached);
    let b = extract(&warm, &cached);
    let c = extract(&plain, &uncached_inst);
    assert_eq!(a, b, "cache hit == fresh simulation");
    assert_eq!(a, c, "cached instance == uncached instance");
    // And the warm run must be faster in virtual time.
    assert!(warm.elapsed_secs < cold.elapsed_secs / 2.0);
}

#[test]
fn docking_outputs_are_stashed_under_stable_names() {
    let topo = Topology::new(1, 4);
    let cache = cache(topo, CacheConfig::new(1, 64 << 20, 256 << 20));
    let mut inst = launch(topo, Some(Arc::clone(&cache)), None);
    let out = inst.query(&query(0.9)).unwrap();
    // Each docked compound's object is findable by its derived name.
    let ds = inst.datastore();
    for row in out.solutions.rows() {
        let smiles = ds.decode(row[1]).unwrap().as_str().unwrap().to_string();
        let name = docking_object_name("P29274", &smiles);
        assert!(
            !cache.locality(&name).is_empty(),
            "docking output for {smiles} cached under {name}"
        );
    }
}

#[test]
fn udf_profilers_see_the_whole_chain() {
    let mut inst = launch(Topology::new(1, 4), None, None);
    inst.query(&query(0.9)).unwrap();
    let total =
        |name: &str| -> u64 { inst.profilers().filter_map(|p| p.get(name)).map(|p| p.calls).sum() };
    // pIC50 is cheapest, so the reordered chain runs it on every candidate
    // row; SW runs on survivors of nothing (it's also early); docking runs
    // once per final candidate.
    assert!(total("pic50") > 0);
    assert!(total("sw_similarity") > 0);
    assert!(total("dtba") > 0);
    assert_eq!(total("vina_docking"), 12);
    // Rejections were attributed (the 0.9 threshold rejects the low band).
    let rejections: u64 =
        inst.profilers().filter_map(|p| p.get("sw_similarity")).map(|p| p.rejections).sum();
    assert!(rejections >= 10, "low-band candidates rejected by SW, got {rejections}");
}

/// The prepares of `udf` the instance has counted:
/// `ids_udf_prepares_total{udf}`, one per first insert into its memo.
fn prepares(inst: &IdsInstance, udf: &str) -> u64 {
    inst.metrics_snapshot().counter("ids_udf_prepares_total", udf)
}

/// Reviewed proteins with fresh sequences, each with two compounds, plus
/// a reviewed protein sharing band 1's first sequence and a compound on
/// an existing protein: triples that reach the FILTER, of which only the
/// fresh sequences are new terms. Returns the number of fresh sequences.
fn ingest_new_candidates(inst: &IdsInstance) -> u64 {
    use ids::chem::sequence::ProteinSequence;
    use ids::graph::{Term, TriplePattern};
    use ids::models::molgen::MoleculeGenerator;
    use ids::models::CostModel;
    use ids::simrt::rng::SplitMix64;

    let ds = inst.datastore();
    let sequence = |name: &str| {
        let id = |t: &Term| ds.dictionary().lookup(t).unwrap();
        let (s, p) = (id(&Term::iri(format!("up:{name}"))), id(&Term::iri("up:sequence")));
        let found = ds.graph().scan_all(&TriplePattern::new(Some(s), Some(p), None));
        ds.decode(found[0].o).unwrap()
    };
    let mut rng = SplitMix64::new(0x1d6e57, 0);
    let molgen = MoleculeGenerator::new(CostModel::free(), 0x1d6e57);
    let fresh: Vec<Term> =
        (0..3).map(|_| Term::str(ProteinSequence::random(96, &mut rng).to_string_code())).collect();
    let shared = sequence("B1_0");
    let mut compound = 0u64;
    let mut add_compound = |protein: &Term| {
        compound += 1;
        let cid = Term::iri(format!("chembl:N{compound}"));
        ds.add_fact(&cid, &Term::iri("rdf:type"), &Term::iri("chembl:Compound"));
        ds.add_fact(
            &cid,
            &Term::iri("chembl:smiles"),
            &Term::str(molgen.generate(compound).smiles),
        );
        ds.add_fact(&cid, &Term::iri("chembl:inhibits"), protein);
    };
    for (i, seq) in fresh.iter().chain([&shared]).enumerate() {
        let protein = Term::iri(format!("up:N{i}"));
        ds.add_fact(&protein, &Term::iri("rdf:type"), &Term::iri("up:Protein"));
        ds.add_fact(&protein, &Term::iri("up:reviewed"), &Term::Int(1));
        ds.add_fact(&protein, &Term::iri("up:sequence"), seq);
        add_compound(&protein);
        add_compound(&protein);
    }
    add_compound(&Term::iri("up:B0_0"));
    ds.build_indexes();
    fresh.len() as u64
}

/// Every result row decoded, sorted: term ids differ between instances
/// (APPLY mints the docking energies), the terms must not.
fn decoded_rows(inst: &IdsInstance, out: &ids::core::QueryOutcome) -> Vec<Vec<String>> {
    let ds = inst.datastore();
    let mut rows: Vec<Vec<String>> = out
        .solutions
        .rows()
        .iter()
        .map(|row| row.iter().map(|&id| ds.decode(id).unwrap().to_string()).collect())
        .collect();
    rows.sort();
    rows
}

/// The distinct SMILES and proteins of the rows the re-purposing query's
/// FILTER sees: the ids `pic50` and `dtba` prepare beside the sequences.
fn filter_inputs(inst: &mut IdsInstance) -> (u64, u64) {
    let text = "SELECT ?protein ?smiles WHERE { ?protein <rdf:type> <up:Protein> . \
                ?protein <up:reviewed> 1 . ?protein <up:sequence> ?seq . \
                ?compound <chembl:inhibits> ?protein . ?compound <chembl:smiles> ?smiles . }";
    let out = inst.query(text).unwrap();
    let distinct = |col: usize| {
        let ids: std::collections::HashSet<_> =
            out.solutions.rows().iter().map(|r| r[col]).collect();
        ids.len() as u64
    };
    (distinct(1), distinct(0))
}

/// Prepared UDF arguments outlive the query that prepared them: repeats
/// prepare nothing, and after ingest the next query prepares exactly the
/// new distinct terms at each prepared position — sequences for
/// `sw_similarity`, sequences and SMILES for `dtba`, SMILES and proteins
/// for `pic50` — with the rows a fresh instance returns. Every row passes
/// every FILTER (pIC50 is clamped to ≥ 3, sequences are all let through),
/// so every row calls every UDF, on any number of workers.
#[test]
fn prepared_args_persist_across_queries_and_ingest() {
    let text = repurposing_query(&RepurposingThresholds {
        sw_similarity: 0.0,
        min_pic50: 0.0,
        min_dtba: -1.0e9,
    });
    let topo = Topology::new(2, 4);
    let mut inst = launch(topo, None, None);
    // Band 0's three proteins share the target's sequence: one term.
    let sequences = 1 + 5;
    let (ligands, proteins) = filter_inputs(&mut inst);
    let expect = |sequences: u64, ligands: u64, proteins: u64| {
        [("sw_similarity", sequences), ("dtba", sequences + ligands), ("pic50", ligands + proteins)]
    };
    let first = inst.query(&text).unwrap();
    assert_eq!(first.solutions.len(), 22);
    for (udf, n) in expect(sequences, ligands, proteins) {
        assert_eq!(prepares(&inst, udf), n, "{udf}, first query");
    }
    for repeat in 2..=3 {
        let again = inst.query(&text).unwrap();
        assert_eq!(decoded_rows(&inst, &again), decoded_rows(&inst, &first));
        for (udf, n) in expect(sequences, ligands, proteins) {
            assert_eq!(prepares(&inst, udf), n, "{udf}, repeat {repeat}: nothing new");
        }
    }

    let fresh_sequences = ingest_new_candidates(&inst);
    // Nine compounds with fresh SMILES, on four new proteins.
    let (fresh_ligands, fresh_proteins) = (9, 4);
    assert_eq!(filter_inputs(&mut inst), (ligands + fresh_ligands, proteins + fresh_proteins));
    let after = inst.query(&text).unwrap();
    assert_eq!(after.solutions.len(), 22 + 4 * 2 + 1);
    let grown =
        expect(sequences + fresh_sequences, ligands + fresh_ligands, proteins + fresh_proteins);
    for (udf, n) in grown {
        assert_eq!(prepares(&inst, udf), n, "{udf}: the ingested terms, and only those");
    }

    let mut fresh = launch(topo, None, None);
    ingest_new_candidates(&fresh);
    let want = fresh.query(&text).unwrap();
    assert_eq!(decoded_rows(&inst, &after), decoded_rows(&fresh, &want));
}

/// Docking is prepared per ligand: a repeated query calls `vina_docking`
/// on every row again, each call charged and profiled, and docks nothing
/// new — the prepare count stays at one per distinct ligand the first
/// query docked — with the same rows.
#[test]
fn prepared_args_persist_docking_once_per_ligand() {
    let mut inst = launch(Topology::new(2, 4), None, None);
    let text = query(0.2);
    let docking_calls = |inst: &IdsInstance| -> u64 {
        inst.profilers().filter_map(|p| p.get("vina_docking")).map(|p| p.calls).sum()
    };
    let first = inst.query(&text).unwrap();
    assert_eq!(first.solutions.len(), 22);
    let calls = docking_calls(&inst);
    assert_eq!(calls, 22, "one call per row");
    let ligands: std::collections::HashSet<_> =
        first.solutions.rows().iter().map(|row| row[1]).collect();
    assert_eq!(prepares(&inst, "vina_docking"), ligands.len() as u64);

    let again = inst.query(&text).unwrap();
    assert_eq!(decoded_rows(&inst, &again), decoded_rows(&inst, &first));
    assert_eq!(docking_calls(&inst), 2 * calls, "every row calls again");
    assert_eq!(prepares(&inst, "vina_docking"), ligands.len() as u64, "and prepares nothing");
}

/// Reading metrics is observation only: it never moves what the adaptive
/// planner estimates. One twin reads its metrics (snapshot, Prometheus
/// text, EXPLAIN) after every other query of five, so later queries plan
/// after a read that is out of date; the other twin never reads. Each
/// query's estimate-vs-actual boundaries must be the same on both.
#[test]
fn metrics_reads_never_move_planning() {
    let twin = || {
        let mut inst = launch(Topology::new(1, 4), None, None);
        inst.exec_options_mut().adaptive = true;
        inst
    };
    let (mut reader, mut quiet) = (twin(), twin());
    for (i, sw) in [0.9, 0.2, 0.9, 0.2, 0.9].into_iter().enumerate() {
        let q = query(sw);
        let a = reader.query(&q).unwrap();
        let b = quiet.query(&q).unwrap();
        assert_eq!(a.adaptive.boundaries, b.adaptive.boundaries, "query {i}");
        let where_est =
            |inst: &IdsInstance| inst.metrics().snapshot().gauge("ids_adaptive_est_rows", "where");
        assert_eq!(where_est(&reader), where_est(&quiet), "query {i}");
        if i % 2 == 0 {
            reader.metrics_snapshot();
            reader.render_prometheus();
            reader.explain(&q).unwrap();
        }
    }
}

/// The exported series are a fixed set: the same keys at 4 and at 64
/// ranks, none of them per rank.
#[test]
fn metric_series_do_not_scale_with_ranks() {
    let keys = |ranks: u32| {
        let mut inst = launch(Topology::new(1, ranks), None, None);
        inst.query(&query(0.9)).unwrap();
        let snap = inst.metrics_snapshot();
        let keys: Vec<String> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .map(|k| k.render())
            .collect();
        let per_rank: Vec<_> =
            keys.iter().filter(|k| k.contains("udf=\"r") && k.contains('/')).collect();
        assert!(per_rank.is_empty(), "per-rank series at {ranks} ranks: {per_rank:?}");
        keys
    };
    assert_eq!(keys(4), keys(64));
}

/// FNV-1a over the profile table: its row count, its column names in
/// order, then every cell of every row (`calls`, `rejections` and the bits
/// of `total_secs`), empty cells included.
fn profile_digest(inst: &IdsInstance) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    mix(&(inst.profilers().len() as u64).to_le_bytes());
    for (name, _) in inst.profilers().next().into_iter().flat_map(|row| row.cells()) {
        mix(name.as_bytes());
        mix(&[0xff]);
    }
    for row in inst.profilers() {
        for (_, cell) in row.cells() {
            mix(&cell.calls.to_le_bytes());
            mix(&cell.rejections.to_le_bytes());
            mix(&cell.total_secs.to_bits().to_le_bytes());
        }
    }
    h
}

/// The fixture's data set on `topo` with the paper's models, whose calls
/// charge virtual seconds (the test models' are free).
fn launch_priced(topo: Topology) -> IdsInstance {
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), 11);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    let target = build(inst.datastore(), &small_config()).target;
    install_workflow(&mut inst, &target, WorkflowModels::paper_models());
    inst
}

/// Every rank's UDF profile after three NCNPR queries, bit for bit: the
/// stages record into per-rank copies of the committed rows and write
/// them back, and that must leave the cells, the order of each float sum
/// and the column order exactly as recording into a copy of the whole
/// table did. At 64 ranks most ranks run a row or none per stage; at 4
/// each runs several, so a sum taken in another order shows.
#[test]
fn profile_table_after_three_queries_is_pinned_bit_for_bit() {
    for (topo, digest) in
        [(Topology::new(2, 32), PROFILE_DIGEST_64), (Topology::new(1, 4), PROFILE_DIGEST_4)]
    {
        let mut inst = launch_priced(topo);
        for sw in [0.9, 0.2, 0.9] {
            inst.query(&query(sw)).unwrap();
        }
        let columns: Vec<&str> =
            inst.profilers().next().unwrap().cells().map(|(name, _)| name).collect();
        assert_eq!(columns, ["sw_similarity", "pic50", "dtba", "vina_docking"]);
        for udf in columns {
            let secs = inst.profilers().filter_map(|row| row.get(udf)).map(|p| p.total_secs);
            assert!(secs.fold(0.0, f64::max) > 0.0, "{udf} charged no virtual time");
        }
        assert_eq!(profile_digest(&inst), digest, "{} ranks", topo.total_ranks());
    }
}

/// [`profile_digest`] after the three queries of
/// `profile_table_after_three_queries_is_pinned_bit_for_bit` at 64 and at
/// 4 ranks, taken from the executor that recorded into a copy of the
/// whole table.
const PROFILE_DIGEST_64: u64 = 0x5330_bd7c_f874_8da4;
const PROFILE_DIGEST_4: u64 = 0xcfa6_9cba_20e5_018a;
