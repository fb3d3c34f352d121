//! Property-based tests over the core data structures and invariants,
//! spanning ids-chem, ids-graph, ids-udf, ids-cache, and ids-models.

use ids::cache::{BackingStore, CacheConfig, CacheManager};
use ids::chem::sequence::ProteinSequence;
use ids::chem::smiles::{parse_smiles, write_smiles};
use ids::core::workflow::{decode_docking_result, encode_docking_result};
use ids::graph::stage::{IdBuffers, StagePart};
use ids::graph::{ops, Dictionary, StageBatch, Term, TermId};
use ids::models::{DockingEngine, MoleculeGenerator, SmithWaterman};
use ids::simrt::{NetworkModel, RankId, Topology};
use ids::udf::{plan_count_based, plan_throughput_based};
use ids_models::CostModel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated molecules always round-trip through SMILES with the graph
    /// preserved (atom count, bond count, ring count).
    #[test]
    fn generated_smiles_round_trip(seed in 0u64..10_000, index in 0u64..50) {
        let gen = MoleculeGenerator::new(CostModel::free(), seed);
        let cand = gen.generate(index);
        let reparsed = parse_smiles(&cand.smiles).expect("generator output parses");
        prop_assert_eq!(reparsed.atom_count(), cand.molecule.atom_count());
        prop_assert_eq!(reparsed.bond_count(), cand.molecule.bond_count());
        prop_assert_eq!(reparsed.ring_count(), cand.molecule.ring_count());
        // write(parse(s)) parses again to the same graph (stability).
        let rewritten = write_smiles(&reparsed);
        let reparsed2 = parse_smiles(&rewritten).expect("rewritten parses");
        prop_assert_eq!(reparsed2.atom_count(), reparsed.atom_count());
        prop_assert_eq!(reparsed2.bond_count(), reparsed.bond_count());
    }

    /// FASTA round trip for arbitrary sequences.
    #[test]
    fn fasta_round_trip(len in 1usize..400, seed in 0u64..10_000) {
        let mut rng = ids::simrt::rng::SplitMix64::new(seed, 0xfa57a);
        let seq = ProteinSequence::random(len, &mut rng);
        let recs = ProteinSequence::from_fasta(&seq.to_fasta("h")).unwrap();
        prop_assert_eq!(&recs[0].1, &seq);
    }

    /// Smith–Waterman invariants: symmetry, self-similarity = 1,
    /// score bounded by the smaller self-score.
    #[test]
    fn smith_waterman_invariants(la in 1usize..120, lb in 1usize..120, seed in 0u64..1_000) {
        let mut rng = ids::simrt::rng::SplitMix64::new(seed, 0x50);
        let a = ProteinSequence::random(la, &mut rng);
        let b = ProteinSequence::random(lb, &mut rng);
        let sw = SmithWaterman::default_model();
        let ab = sw.align(&a, &b);
        let ba = sw.align(&b, &a);
        prop_assert_eq!(ab.score, ba.score);
        prop_assert!(ab.score >= 0);
        prop_assert!((0.0..=1.0).contains(&ab.similarity));
        prop_assert_eq!(sw.align(&a, &a).similarity, 1.0);
        let min_self = SmithWaterman::self_score(&a).min(SmithWaterman::self_score(&b));
        prop_assert!(ab.score <= min_self);
    }

    /// Dictionary: encode is injective over distinct terms and decode is
    /// its inverse.
    #[test]
    fn dictionary_round_trip(names in proptest::collection::hash_set("[a-z]{1,12}", 1..40)) {
        let dict = Dictionary::new();
        let ids: Vec<(String, TermId)> =
            names.iter().map(|n| (n.clone(), dict.iri(n))).collect();
        // Distinct names -> distinct ids; decode inverts.
        for (i, (name, id)) in ids.iter().enumerate() {
            prop_assert_eq!(dict.decode(*id), Some(Term::iri(name.clone())));
            for (_, other) in &ids[i + 1..] {
                prop_assert_ne!(id, other);
            }
        }
    }

    /// Join invariants: row counts and schema composition.
    #[test]
    fn join_row_bounds(
        left_keys in proptest::collection::vec(0u64..20, 0..60),
        right_keys in proptest::collection::vec(0u64..20, 0..60),
    ) {
        let batch = |vars: [&str; 2], keys: &[u64], offset: u64| {
            let mut part = StagePart::new(2);
            let rows: Vec<[u64; 2]> = keys.iter().map(|&k| [k, offset + k]).collect();
            let (first, n) = part.push_rank(&rows).unwrap();
            let vars = vars.map(String::from).to_vec().into();
            StageBatch::assemble(vars, vec![part], &[(0, first, n)], &IdBuffers::default()).unwrap()
        };
        let left = batch(["k", "l"], &left_keys, 100);
        let right = batch(["k", "r"], &right_keys, 200);
        let schema = ops::join_schema(left.schema(), right.schema());
        let mut worker = ops::JoinWorker::new(&schema);
        let (_, rows) = worker.join(&schema, left.view(), right.view(), &IdBuffers::default());
        let part = worker.into_part();
        let joined = StageBatch::assemble(schema.vars().clone(), vec![part], &[(0, 0, rows)], &IdBuffers::default()).unwrap();
        // |join| = sum over keys of count_l(k) * count_r(k).
        let mut expect = 0usize;
        for k in 0..20u64 {
            let l = left_keys.iter().filter(|&&x| x == k).count();
            let r = right_keys.iter().filter(|&&x| x == k).count();
            expect += l * r;
        }
        prop_assert_eq!(joined.len(), expect);
        prop_assert_eq!(joined.vars(), &["k".to_string(), "l".to_string(), "r".to_string()]);
    }

    /// Re-balancing plans always conserve the solution total and respect
    /// monotonicity in rates.
    #[test]
    fn rebalance_conserves_totals(
        total in 0u64..2_000_000,
        rates in proptest::collection::vec(1.0f64..1000.0, 1..50),
    ) {
        let plan = plan_throughput_based(total, &rates);
        prop_assert_eq!(plan.total(), total);
        let count = plan_count_based(total, rates.len());
        prop_assert_eq!(count.total(), total);
        // No target negative (u64) and every rank got something when
        // total >= ranks under count-based.
        if total >= rates.len() as u64 {
            prop_assert!(count.targets.iter().all(|&t| t > 0));
        }
    }

    /// Cache: get-after-put returns the exact bytes, from any rank.
    #[test]
    fn cache_get_after_put(
        payload in proptest::collection::vec(any::<u8>(), 1..4096),
        rank in 0u32..16,
    ) {
        let topo = Topology::new(4, 4);
        let cache = CacheManager::new(
            topo,
            NetworkModel::slingshot(),
            CacheConfig::new(2, 1 << 20, 1 << 22),
            BackingStore::default_store(),
        );
        cache.put(RankId(rank % 16), "obj", bytes::Bytes::from(payload.clone()));
        let (got, _) = cache.get(RankId((rank + 7) % 16), "obj").unwrap().unwrap();
        prop_assert_eq!(&got[..], &payload[..]);
    }

    /// Docking-result serialization round-trips exactly.
    #[test]
    fn docking_result_codec(seed in 0u64..500) {
        let result = docked(seed);
        let decoded = decode_docking_result(&encode_docking_result(&result)).unwrap();
        prop_assert_eq!(decoded.energy, result.energy);
        prop_assert_eq!(decoded.evaluations, result.evaluations);
        prop_assert_eq!(decoded.pose, result.pose);
    }

    /// Cached bytes are outside input: every truncation of a valid
    /// encoding is refused, and every single-bit flip decodes (to a result
    /// or to `None`) without panicking.
    #[test]
    fn docking_result_decode_never_panics(seed in 0u64..500) {
        let bytes = encode_docking_result(&docked(seed)).to_vec();
        for len in 0..bytes.len() {
            prop_assert!(decode_docking_result(&bytes[..len]).is_none(), "prefix {}", len);
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_docking_result(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

/// A docking of a generated ligand against a random 20-atom receptor.
fn docked(seed: u64) -> ids::models::DockingResult {
    let gen = MoleculeGenerator::new(CostModel::free(), seed);
    let lig = gen.generate(0).molecule;
    let mut receptor = ids::chem::Structure3D::new();
    let mut rng = ids::simrt::rng::SplitMix64::new(seed, 2);
    for _ in 0..20 {
        receptor.push(
            ids::chem::Element::C,
            ids::chem::Vec3::new(
                rng.next_range(-10.0, 10.0),
                rng.next_range(-10.0, 10.0),
                rng.next_range(-10.0, 10.0),
            ),
        );
    }
    DockingEngine::test_engine().dock(&receptor, &lig)
}
