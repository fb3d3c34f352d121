//! Placement-aware exchange: the store places a triple and the exchange
//! places a row by one function (`ids_graph::placement`), so a scan's rows
//! already sit where a join on its subject variable would send them, and a
//! join moves only the sides that are not placed on its key.
//!
//! Every query here runs at 1, 3 and 16 ranks, barriered and pipelined,
//! and must return the rows of the reference evaluator in `oracle/`;
//! `ids_exchange_sides_total{side}` counts the sides each join moved and
//! the sides it left in place.

mod oracle;

use ids::core::iql::parse_query;
use ids::core::{IdsConfig, IdsInstance};
use ids::graph::{placement, PartitionedStore, Term, TermId};
use ids::simrt::rng::SplitMix64;
use ids::simrt::Topology;
use ids::workloads::ncnpr::{build, Band, NcnprConfig};

const RANKS: [u32; 3] = [1, 3, 16];

/// The `perf` benchmark's `bgp-join` query: two scans on `?protein`, two
/// on `?compound`, joined on `?protein` and then on `?compound`.
const BGP_JOIN: &str = "SELECT ?compound ?smiles ?protein ?seq\n\
     WHERE {\n\
       ?protein  <rdf:type>        <up:Protein> .\n\
       ?protein  <up:sequence>     ?seq .\n\
       ?compound <chembl:inhibits> ?protein .\n\
       ?compound <chembl:smiles>   ?smiles .\n\
     }\n";

const STAR: &str =
    "SELECT ?e ?a ?b ?c ?d WHERE { ?e <a> ?a . ?e <b> ?b . ?e <c> ?c . ?e <d> ?d . }";

/// Joined on `?s` and `?o` at once: the left scan is placed on `?s`, the
/// right one on `?o`.
const TWO_KEYS: &str = "SELECT ?s ?o WHERE { ?s <p> ?o . ?o <q> ?s . }";

/// The cheapest pattern (`<small>`) shares no variable with the others, so
/// it is broadcast into a cross product with the next cheapest, and the
/// product joins `<big>` on the unbroadcast side's subject `?x`.
const CROSS_THEN_JOIN: &str =
    "SELECT ?x ?y ?z ?w ?v WHERE { ?x <big> ?y . ?z <small> ?w . ?x <big2> ?v . }";

fn instance(ranks: u32, pipelined: bool) -> IdsInstance {
    let mut cfg = IdsConfig::laptop(ranks, 7);
    if ranks == 16 {
        cfg.topology = Topology::new(2, 8);
    }
    let mut inst = IdsInstance::launch(cfg);
    inst.exec_options_mut().pipelined = pipelined;
    inst
}

/// A small NCNPR dataset: the `bgp-join` query's predicates and shape.
fn ncnpr(inst: &IdsInstance) {
    let mut ncfg = NcnprConfig::default();
    ncfg.bands.truncate(2);
    ncfg.bands.push(Band {
        mutation_rate: 0.62,
        similarity_range: None,
        proteins: 40,
        compounds_per_protein: 5,
    });
    ncfg.background_proteins = 8;
    ncfg.sequence_len = 96;
    build(inst.datastore(), &ncfg);
}

fn entity(i: u64) -> Term {
    Term::iri(format!("e:{i}"))
}

/// Hub entities with one integer under each of `<a>`…`<d>`.
fn star(inst: &IdsInstance) {
    let ds = inst.datastore();
    for i in 0..300u64 {
        for (k, p) in ["a", "b", "c", "d"].into_iter().enumerate() {
            ds.add_fact(&entity(i), &Term::iri(p), &Term::Int((i * 4 + k as u64) as i64));
        }
    }
    ds.build_indexes();
}

/// `<p>` links, a third of them answered by a `<q>` link back, plus
/// random `<q>` links.
fn links(inst: &IdsInstance) {
    let ds = inst.datastore();
    let mut rng = SplitMix64::new(7, 0x2_4e75);
    for i in 0..120u64 {
        let o = (i * 37 + 11) % 120;
        ds.add_fact(&entity(i), &Term::iri("p"), &entity(o));
        if i % 3 == 0 {
            ds.add_fact(&entity(o), &Term::iri("q"), &entity(i));
        }
        ds.add_fact(&entity(rng.next_below(120)), &Term::iri("q"), &entity(rng.next_below(120)));
    }
    ds.build_indexes();
}

/// 200 `<big>` and 150 `<big2>` facts on entities, 3 `<small>` ones.
fn cross(inst: &IdsInstance) {
    let ds = inst.datastore();
    for i in 0..200u64 {
        ds.add_fact(&entity(i), &Term::iri("big"), &Term::Int(i as i64));
        if i < 150 {
            ds.add_fact(&entity(i), &Term::iri("big2"), &Term::Int(-(i as i64)));
        }
    }
    for i in 0..3u64 {
        ds.add_fact(&entity(1000 + i), &Term::iri("small"), &Term::Int(i as i64));
    }
    ds.build_indexes();
}

/// `ids_exchange_sides_total` as (moved, placed).
fn sides(inst: &IdsInstance) -> (u64, u64) {
    let read = |side: &str| {
        inst.metrics().counter_with("ids_exchange_sides_total", "side", side.to_string()).get()
    };
    (read("moved"), read("placed"))
}

/// Run `text` at every rank count and mode: the oracle's rows, and at 16
/// ranks `(moved, placed)` sides.
fn check(text: &str, load: fn(&IdsInstance), want_sides: (u64, u64)) {
    for ranks in RANKS {
        for pipelined in [false, true] {
            let ctx = format!("{ranks} ranks, pipelined {pipelined}\n  {text}");
            let mut inst = instance(ranks, pipelined);
            load(&inst);
            let before = sides(&inst);
            let out = inst.query(text).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let after = sides(&inst);
            let parsed = parse_query(text).unwrap();
            let want = oracle::evaluate(&parsed, inst.datastore(), inst.registry(), false).unwrap();
            assert!(!want.rows.is_empty(), "{ctx}: the data must answer the query");
            assert_eq!(out.solutions.vars(), want.vars.as_slice(), "{ctx}");
            let got: Vec<Vec<TermId>> =
                out.solutions.rows().iter().map(<[TermId]>::to_vec).collect();
            assert_eq!(got, want.rows, "{ctx}: row divergence");
            if ranks == 16 {
                let run = (after.0 - before.0, after.1 - before.1);
                assert_eq!(run, want_sides, "{ctx}: (moved, placed) join sides");
            }
        }
    }
}

#[test]
fn store_and_exchange_place_by_one_function() {
    for shards in [1usize, 3, 16] {
        let store = PartitionedStore::new(shards);
        let mut rng = SplitMix64::new(shards as u64, 0x91ac);
        for _ in 0..10_000 {
            // Small ids (dense dictionary ids) as often as wide ones.
            let id = TermId(rng.next_u64() >> rng.next_below(64));
            assert_eq!(store.shard_of(id), placement(id, shards), "{id:?} over {shards}");
        }
    }
    // The exchange's rule: hash_combine(0xA17C_E55E, fnv1a(id LE)) % shards.
    assert_eq!(placement(TermId(0), 16), 15);
    assert_eq!(placement(TermId(1), 3), 1);
    assert_eq!(placement(TermId(1 << 40), 16), 8);
}

/// The inhibits scan at pattern 2 moves to `?protein`, the joined stage at
/// pattern 3 to `?compound`; the other four sides stay where they are.
#[test]
fn bgp_join_moves_two_of_six_sides() {
    check(BGP_JOIN, ncnpr, (2, 4));
}

#[test]
fn a_star_on_one_subject_moves_nothing() {
    check(STAR, star, (0, 6));
}

/// The cheaper `<p>` scan runs first, placed on `?s`; the `<q>` scan is
/// placed on `?o`. The key is the left side's `?s`, so the `<q>` scan
/// moves and the `<p>` scan stays.
#[test]
fn a_two_variable_key_joins_on_one_placed_column() {
    check(TWO_KEYS, links, (1, 1));
}

/// The broadcast side moves; the product stays placed on `?x`, so the join
/// on `?x` moves neither side.
#[test]
fn a_cross_product_keeps_its_unbroadcast_sides_placement() {
    check(CROSS_THEN_JOIN, cross, (1, 3));
}
