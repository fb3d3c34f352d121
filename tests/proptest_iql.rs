//! Property-based tests for the IQL surface: the parser must refuse
//! malformed input with an error (never a panic), and AST
//! canonicalization must assign α-equivalent queries identical
//! fingerprints while keeping semantically distinct queries apart —
//! the correctness contract behind cross-client semantic result reuse.

use ids::cache::{BackingStore, CacheConfig, CacheManager};
use ids::core::iql::{canonical_query, checkpoint_fragments, parse_query};
use ids::core::{IdsConfig, IdsInstance};
use ids::graph::Term;
use ids::simrt::rng::SplitMix64;
use ids::simrt::{NetworkModel, Topology};
use proptest::prelude::*;

/// Deterministically build a parseable query from a seed: 1–3 triple
/// patterns over a small vocabulary, an optional FILTER chain, and an
/// optional APPLY stage. Constants embed the seed so distinct seeds give
/// semantically distinct queries.
fn build_query(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed, 0x10_01);
    let vars = ["a", "b", "c", "d"];
    let npat = 1 + (rng.next_u64() % 3) as usize;
    let mut patterns = Vec::new();
    for i in 0..npat {
        let s = vars[i % vars.len()];
        let p = rng.next_u64() % 5;
        // Chain subjects through shared variables so patterns join.
        let o = if rng.next_u64().is_multiple_of(2) {
            format!("?{}", vars[(i + 1) % vars.len()])
        } else {
            format!("{}", (rng.next_u64() % 50) as i64)
        };
        patterns.push(format!("?{s} <p:{p}> {o} ."));
    }
    let filter = if rng.next_u64().is_multiple_of(2) {
        format!("FILTER(?{} >= {})", vars[0], seed % 1000)
    } else {
        format!("FILTER(?{} >= {} && ?{} != 7)", vars[0], seed % 1000, vars[0])
    };
    let apply = if rng.next_u64().is_multiple_of(2) {
        format!(" APPLY score(?{}) AS ?sc", vars[0])
    } else {
        String::new()
    };
    format!("SELECT ?{} WHERE {{ {} {filter} }}{apply}", vars[0], patterns.join(" "))
}

/// Consistently α-rename every variable (`?a` → `?zqa`, …). The `zq`
/// prefix cannot collide with the generator's single-letter names.
fn rename_vars(q: &str) -> String {
    let mut out = q.to_string();
    for v in ["a", "b", "c", "d", "sc"] {
        out = out.replace(&format!("?{v}"), &format!("?zq{v}"));
    }
    out
}

/// Rotate the triple patterns inside the WHERE block — a semantically
/// neutral reordering of the basic graph pattern.
fn rotate_patterns(q: &str) -> String {
    let open = q.find('{').unwrap();
    let close = q.rfind('}').unwrap();
    let body = &q[open + 1..close];
    // Split into ". "-terminated triples plus the trailing FILTER chunk.
    let filter_at = body.find("FILTER").unwrap_or(body.len());
    let (triples, rest) = body.split_at(filter_at);
    let mut parts: Vec<&str> =
        triples.split(" .").map(str::trim).filter(|s| !s.is_empty()).collect();
    if parts.len() > 1 {
        parts.rotate_left(1);
    }
    let rebuilt: String = parts.iter().map(|p| format!("{p} . ")).collect();
    format!("{}{{ {rebuilt}{rest} }}{}", &q[..open], &q[close + 1..])
}

/// An instance over the generator's vocabulary (`<p:0>`…`<p:4>`, integer
/// objects below 50) with a cache attached, so prepared entries carry
/// reuse checkpoints.
fn vocabulary_instance() -> IdsInstance {
    let topo = Topology::new(2, 2);
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), 3);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    inst.attach_cache(std::sync::Arc::new(CacheManager::new(
        topo,
        NetworkModel::slingshot(),
        CacheConfig::new(2, 16 << 20, 64 << 20),
        BackingStore::default_store(),
    )));
    inst.registry()
        .register_static(
            "score",
            std::sync::Arc::new(|_: &[ids::udf::UdfValue]| {
                ids::udf::UdfOutput::new(ids::udf::UdfValue::F64(1.0), 0.0)
            }),
        )
        .unwrap();
    let ds = inst.datastore();
    for s in 0..60i64 {
        for p in 0..5 {
            ds.add_fact(&Term::Int(s), &Term::iri(format!("p:{p}")), &Term::Int((s * 7 + p) % 50));
        }
    }
    ds.build_indexes();
    inst
}

/// The `serve-mix` pool's shapes (`crates/bench/src/bin/perf/serve.rs`):
/// a protein's inhibitor lookup, its α-renamed twin, its `pic50` FILTER
/// twin, a compound → protein lookup and the two background scan/joins.
fn serve_mix_texts() -> Vec<String> {
    let lookup = |c: &str, s: &str, filter: &str| {
        format!(
            "SELECT ?{c} ?{s} WHERE {{ ?{c} <chembl:inhibits> <up:B0_3> . \
             ?{c} <chembl:smiles> ?{s} . {filter}}}"
        )
    };
    vec![
        lookup("c", "s", ""),
        lookup("x", "y", ""),
        lookup("c", "s", "FILTER(pic50(?s) > 0.0) "),
        "SELECT ?p WHERE { <chembl:C17> <chembl:inhibits> ?p . }".to_string(),
        "SELECT ?p WHERE { ?p <up:reviewed> 0 . }".to_string(),
        "SELECT ?p ?a WHERE { ?p <up:reviewed> 0 . ?p <up:accession> ?a . }".to_string(),
    ]
}

/// A parseable query over few variables (so refinement colors tie) with
/// everything `build_query` leaves out: nested and parenthesised
/// `&&` / `||`, `!`, calls, variable predicates, ground-only patterns,
/// repeated patterns, STAGE-FILTERs, APPLYs over expressions, DISTINCT,
/// ORDER BY and LIMIT.
fn build_nested_query(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed, 0x4e57);
    let mut n = move |k: u64| rng.next_u64() % k;
    let vars = 1 + seed % 5;
    fn term(n: &mut impl FnMut(u64) -> u64, vars: u64) -> String {
        match n(6) {
            0 => format!("<p:{}>", n(3)),
            1 => format!("\"s{}\\n\"", n(2)),
            2 => format!("{}", n(4) as i64 - 1),
            3 => format!("{}.5", n(3)),
            _ => format!("?v{}", n(vars)),
        }
    }
    fn expr(n: &mut impl FnMut(u64) -> u64, vars: u64, depth: u64) -> String {
        if depth == 0 {
            return term(n, vars);
        }
        let kind = n(7);
        let mut sub = || expr(n, vars, depth - 1);
        match kind {
            0 => format!("({} && {})", sub(), sub()),
            1 => format!("({} || {} || {})", sub(), sub(), sub()),
            2 => format!("!{}", sub()),
            3 => format!("f({}, {})", sub(), sub()),
            4 => "g()".to_string(),
            k => format!("({} {} {})", sub(), ["<", ">=", "==", "!="][k as usize % 4], sub()),
        }
    }
    let mut q = String::from("SELECT ");
    if n(4) == 0 {
        q += "DISTINCT ";
    }
    for _ in 0..n(4) {
        q += &format!("?v{} ", n(vars));
    }
    q += "WHERE { ";
    for _ in 0..n(5) {
        let p = if n(4) == 0 { format!("?v{}", n(vars)) } else { format!("<p:{}>", n(3)) };
        q += &format!("{} {p} {} . ", term(&mut n, vars), term(&mut n, vars));
    }
    for _ in 0..n(4) {
        let depth = n(4);
        q += &format!("FILTER({}) ", expr(&mut n, vars, depth));
    }
    q += "} ";
    for i in 0..n(4) {
        if n(2) == 0 {
            let args: Vec<String> = (0..n(3))
                .map(|_| {
                    let depth = n(3);
                    expr(&mut n, vars, depth)
                })
                .collect();
            q += &format!("APPLY m{}({}) AS ?b{i} ", n(2), args.join(", "));
        } else {
            let depth = n(4);
            q += &format!("FILTER({}) ", expr(&mut n, vars, depth));
        }
    }
    if n(3) == 0 {
        q += &format!("ORDER BY ?v{} {} ", n(vars), ["ASC", "DESC"][n(2) as usize]);
    }
    if n(3) == 0 {
        q += &format!("LIMIT {}", n(10));
    }
    q
}

/// Every query shape the canonicaliser's bytes are pinned on: the
/// generators' seeds (`build_query` 0..1500, `build_nested_query`
/// 0..1000), the `serve-mix` pool, the NCNPR query, the unit tests' base /
/// renamed / symmetric cases, and a few hand-written forms (a STAGE-FILTER
/// conjunction, an APPLY over a conjunction, an empty projection, escaped
/// strings, conjuncts that tie on a symmetric BGP, a projected variable no
/// pattern binds).
fn parity_texts() -> Vec<String> {
    let mut texts: Vec<String> = (0..1500).map(build_query).collect();
    texts.extend((0..1000).map(build_nested_query));
    texts.extend(serve_mix_texts());
    texts.push(ids::core::workflow::repurposing_query(&Default::default()));
    texts.extend(
        [
            "SELECT ?compound ?energy WHERE { \
             ?protein <rdf:type> <up:Protein> . \
             ?compound <chembl:inhibits> ?protein . \
             ?compound <chembl:smiles> ?smiles . \
             FILTER(sw_similarity(?protein) >= 0.9) \
             FILTER(pic50(?compound, ?protein) > 6.0) } \
             APPLY vina_docking(?smiles) AS ?energy \
             ORDER BY ?energy LIMIT 10",
            "SELECT ?c ?e WHERE { \
             ?c <chembl:smiles> ?s . \
             ?c <chembl:inhibits> ?p . \
             ?p <rdf:type> <up:Protein> . \
             FILTER(pic50(?c, ?p) > 6.0) \
             FILTER(sw_similarity(?p) >= 0.9) } \
             APPLY vina_docking(?s) AS ?e \
             ORDER BY ?e LIMIT 10",
            "SELECT ?x WHERE { ?x <p:e> ?y . ?y <p:e> ?x . }",
            "SELECT ?u WHERE { ?v <p:e> ?u . ?u <p:e> ?v . }",
            "SELECT DISTINCT ?a ?z WHERE { ?a <p:1> ?b . ?b ?r ?a . \
             FILTER((?a > 1 && ?b < 2) && (?a == 3 || (?b != 4 || !(?a < 5)))) \
             FILTER(f(?a && ?b, g(?b || ?a)) > 0.25) } \
             APPLY m.run(?a > 1 && (?b > 2 && ?a < 9), \"x\\\"y\") AS ?s \
             FILTER(?s < 1.5 && ?a > 0 && (?s > -2.0 && ?b > 1)) \
             APPLY n() AS ?t ORDER BY DESC(?t) LIMIT 7",
            "SELECT WHERE { ?a <p:x> ?b . ?b <p:x> ?c . ?c <p:x> ?a . \
             FILTER(?a > 1) FILTER(?b > 1) FILTER(?c > 1) }",
            "SELECT ?x ?y WHERE { FILTER(h(?x, \"é\\n\") || h(?y, \"q\")) } ORDER BY ?y ASC",
        ]
        .map(str::to_string),
    );
    texts
}

/// The canonicaliser's output on every parity text is pinned bit for bit:
/// one digest folds the fingerprint, rename pairs and text of
/// `canonical_query` and of every `checkpoint_fragments` prefix, recorded
/// before the canonicaliser stopped building intermediate strings. Reuse
/// keys and prepared-cache identities are built from these, so any
/// movement here moves what clients share.
#[test]
fn canonical_forms_are_pinned_bit_for_bit() {
    use ids::core::iql::{fragment, CanonicalFragment, FragmentSpec};
    use ids::simrt::rng::{fnv1a, hash_combine};

    fn fold(h: u64, f: &CanonicalFragment) -> u64 {
        let mut h = hash_combine(h, f.fingerprint);
        h = hash_combine(h, fnv1a(f.text.as_bytes()));
        for (original, canonical) in &f.rename {
            h = hash_combine(h, fnv1a(original.as_bytes()));
            h = hash_combine(h, fnv1a(canonical.as_bytes()));
        }
        h
    }
    let texts = parity_texts();
    let mut digest = 0u64;
    for text in &texts {
        let q = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        digest = fold(digest, &canonical_query(&q));
        for (spec, f) in checkpoint_fragments(&q) {
            digest = hash_combine(digest, fnv1a(format!("{spec:?}").as_bytes()));
            digest = fold(digest, &f);
        }
    }
    let serve = serve_mix_texts();
    let pinned = [
        canonical_query(&parse_query(&texts[2500 + serve.len()]).unwrap()).fingerprint,
        fragment(&parse_query(&serve[0]).unwrap(), FragmentSpec::Bgp).fingerprint,
        fragment(&parse_query(&serve[2]).unwrap(), FragmentSpec::Where).fingerprint,
    ];
    assert_eq!(digest, 0x39c6_a121_3651_2306, "canonical parity digest moved");
    // The NCNPR query, a `serve-mix` lookup's BGP and its FILTER twin's
    // WHERE prefix.
    assert_eq!(pinned, [0x5982_9165_f281_f483, 0x847c_925a_ed63_0f11, 0xd74c_2339_994f_f38f]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A prepared-cache entry — first built, then served from the cache —
    /// equals what a fresh prepare derives: same plan, same reuse keys,
    /// same fingerprints, same rename pairs. α-renamed and pattern-rotated
    /// twins are distinct texts (own entries) that share every key.
    #[test]
    fn prepared_equals_fresh(seed in 0u64..1500) {
        let inst = vocabulary_instance();
        let text = build_query(seed);
        let mut keys = Vec::new();
        for t in [text.clone(), rename_vars(&text), rotate_patterns(&text)] {
            let fresh = format!("{:?}", inst.prepare_fresh(&t, true).unwrap());
            let built = inst.prepared(&t, true).unwrap();
            prop_assert_eq!(&format!("{built:?}"), &fresh, "built entry diverged: {}", t);
            let hit = inst.prepared(&t, true).unwrap();
            prop_assert!(std::sync::Arc::ptr_eq(&built, &hit), "second prepare missed: {}", t);
            let reuse = hit.reuse.as_ref().unwrap();
            let checkpoints = [&reuse.after_bgp, &reuse.after_where].into_iter()
                .chain(&reuse.after_stage)
                .map(|cp| cp.as_ref().map(|cp| (cp.key.clone(), cp.fingerprint)));
            keys.push(checkpoints.collect::<Vec<_>>());
        }
        prop_assert!(keys[0].iter().all(Option::is_some), "every boundary scheduled: {}", text);
        prop_assert_eq!(&keys[0], &keys[1], "rename changed a reuse key: {}", text);
        prop_assert_eq!(&keys[0], &keys[2], "rotation changed a reuse key: {}", text);
    }

    /// Mangled query text — truncations, byte flips, injected garbage —
    /// must produce `Err(ParseError)` or a successful parse, never a
    /// panic.
    #[test]
    fn parser_never_panics_on_mangled_input(seed in 0u64..4000) {
        let mut rng = SplitMix64::new(seed, 0xbad);
        let mut text = build_query(seed);
        for _ in 0..=(rng.next_u64() % 3) {
            match rng.next_u64() % 3 {
                0 => {
                    // Truncate at an arbitrary point (all-ASCII text, so
                    // every index is a char boundary).
                    let cut = (rng.next_u64() as usize) % (text.len() + 1);
                    text.truncate(cut);
                }
                1 => {
                    // Overwrite one byte with printable garbage.
                    if !text.is_empty() {
                        let i = (rng.next_u64() as usize) % text.len();
                        let c = (b'!' + (rng.next_u64() % 90) as u8) as char;
                        text.replace_range(i..=i, &c.to_string());
                    }
                }
                _ => {
                    let i = (rng.next_u64() as usize) % (text.len() + 1);
                    text.insert_str(i, "}?(");
                }
            }
        }
        let _ = parse_query(&text); // returning at all is the property
    }

    /// Structurally broken inputs fail with a reported error.
    #[test]
    fn malformed_inputs_error_cleanly(seed in 0u64..200) {
        let base = build_query(seed);
        let no_brace = base.replace('}', "");
        prop_assert!(parse_query(&no_brace).is_err());
        prop_assert!(parse_query("SELECT").is_err());
        prop_assert!(parse_query("").is_err());
        prop_assert!(parse_query("WHERE { ?a <p:0> ?b . }").is_err());
    }

    /// α-renaming every variable and rotating the pattern order must not
    /// change the canonical fingerprint — these are the rewrites
    /// different clients apply to "the same" query.
    #[test]
    fn alpha_equivalent_queries_share_fingerprints(seed in 0u64..1500) {
        let text = build_query(seed);
        let q = parse_query(&text).unwrap();
        let renamed = parse_query(&rename_vars(&text)).unwrap();
        let rotated = parse_query(&rotate_patterns(&text)).unwrap();

        let f = canonical_query(&q).fingerprint;
        prop_assert_eq!(f, canonical_query(&renamed).fingerprint, "rename changed {}", text);
        prop_assert_eq!(f, canonical_query(&rotated).fingerprint, "rotation changed {}", text);

        // Every checkpoint fragment agrees too (reuse keys are built from
        // fragment fingerprints, not the whole-query one).
        let a = checkpoint_fragments(&q);
        let b = checkpoint_fragments(&renamed);
        prop_assert_eq!(a.len(), b.len());
        for ((spec_a, frag_a), (spec_b, frag_b)) in a.iter().zip(&b) {
            prop_assert_eq!(spec_a, spec_b);
            prop_assert_eq!(frag_a.fingerprint, frag_b.fingerprint, "fragment diverged: {}", text);
        }
    }

    /// Distinct seeds embed distinct constants, so their queries are
    /// semantically different and must (essentially always) get different
    /// fingerprints. 400 queries, zero collisions tolerated.
    #[test]
    fn distinct_queries_do_not_collide(base in 0u64..8) {
        let mut seen = std::collections::HashMap::new();
        for i in 0..400u64 {
            let seed = base * 1000 + i;
            let text = build_query(seed);
            let q = parse_query(&text).unwrap();
            let f = canonical_query(&q).fingerprint;
            if let Some(prev) = seen.insert(f, text.clone()) {
                // Generator may emit identical text for different seeds
                // (seed only appears mod 1000); a true collision has
                // different canonical *text*.
                let same = canonical_query(&parse_query(&prev).unwrap()).text
                    == canonical_query(&q).text;
                prop_assert!(same, "fingerprint collision: {:?} vs {:?}", prev, text);
            }
        }
    }
}
