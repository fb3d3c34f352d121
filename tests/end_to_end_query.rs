//! Integration: the full IQL pipeline (parse → plan → distributed execute)
//! against hand-computable datasets, spanning ids-core, ids-graph,
//! ids-udf, and ids-simrt.

use ids::core::{IdsConfig, IdsInstance};
use ids::graph::Term;
use ids::udf::{UdfOutput, UdfValue};
use std::sync::Arc;

/// A bibliographic-flavoured graph with exactly known answers.
fn library() -> IdsInstance {
    let inst = IdsInstance::launch(IdsConfig::laptop(6, 1));
    let ds = inst.datastore();
    // 30 papers; paper i cites paper i+1; even papers are reviewed;
    // venue cycles through 3 values; score = i.
    for i in 0..30 {
        let p = Term::iri(format!("paper:{i}"));
        ds.add_fact(&p, &Term::iri("rdf:type"), &Term::iri("Paper"));
        ds.add_fact(&p, &Term::iri("venue"), &Term::iri(format!("venue:{}", i % 3)));
        ds.add_fact(&p, &Term::iri("score"), &Term::Int(i));
        if i % 2 == 0 {
            ds.add_fact(&p, &Term::iri("reviewed"), &Term::Int(1));
        }
        if i < 29 {
            ds.add_fact(&p, &Term::iri("cites"), &Term::iri(format!("paper:{}", i + 1)));
        }
    }
    ds.build_indexes();
    inst
}

#[test]
fn multi_pattern_join_with_literal_filter() {
    let mut inst = library();
    // Reviewed papers at venue:0 with score >= 10: papers 12, 18, 24
    // (even, i%3==0, i>=10) — plus 30 is out of range.
    let out = inst
        .query(
            r#"SELECT ?p ?s WHERE {
                ?p <reviewed> 1 .
                ?p <venue> <venue:0> .
                ?p <score> ?s .
                FILTER(?s >= 10)
            }"#,
        )
        .unwrap();
    let mut scores: Vec<i64> = out
        .solutions
        .rows()
        .iter()
        .map(|r| inst.datastore().decode(r[1]).unwrap().as_i64().unwrap())
        .collect();
    scores.sort_unstable();
    assert_eq!(scores, vec![12, 18, 24]);
}

#[test]
fn two_hop_traversal() {
    let mut inst = library();
    // ?a cites ?b, ?b cites ?c, ?a reviewed: chains starting at even i<28.
    let out = inst
        .query(
            r#"SELECT ?a ?c WHERE {
                ?a <cites> ?b .
                ?b <cites> ?c .
                ?a <reviewed> 1 .
            }"#,
        )
        .unwrap();
    assert_eq!(out.solutions.len(), 14, "even starts 0..=26");
    // Spot-check one chain: 0 -> 2.
    let ds = inst.datastore();
    let a0 = ds.dictionary().lookup(&Term::iri("paper:0")).unwrap();
    let c2 = ds.dictionary().lookup(&Term::iri("paper:2")).unwrap();
    assert!(out.solutions.rows().iter().any(|r| r[0] == a0 && r[1] == c2));
}

#[test]
fn apply_stage_binds_new_column_and_projects() {
    let mut inst = library();
    inst.registry()
        .register_static(
            "double",
            Arc::new(|args: &[UdfValue]| {
                let v = args[0].as_f64().unwrap();
                UdfOutput::new(UdfValue::F64(v * 2.0), 0.001)
            }),
        )
        .unwrap();
    let out = inst
        .query(
            r#"SELECT ?p ?d WHERE { ?p <score> ?s . FILTER(?s < 3) }
               APPLY double(?s) AS ?d"#,
        )
        .unwrap();
    assert_eq!(out.solutions.len(), 3);
    let ds = inst.datastore();
    let mut doubled: Vec<f64> =
        out.solutions.rows().iter().map(|r| ds.decode(r[1]).unwrap().as_f64().unwrap()).collect();
    doubled.sort_by(f64::total_cmp);
    assert_eq!(doubled, vec![0.0, 2.0, 4.0]);
}

#[test]
fn post_apply_filter_and_limit() {
    let mut inst = library();
    inst.registry()
        .register_static(
            "negate",
            Arc::new(|args: &[UdfValue]| {
                let v = args[0].as_f64().unwrap();
                UdfOutput::new(UdfValue::F64(-v), 0.001)
            }),
        )
        .unwrap();
    let out = inst
        .query(
            r#"SELECT ?p WHERE { ?p <score> ?s . }
               APPLY negate(?s) AS ?n
               FILTER(?n <= -20)
               LIMIT 4"#,
        )
        .unwrap();
    // Scores 20..=29 negate to <= -20 (10 rows), limited to 4.
    assert_eq!(out.solutions.len(), 4);
}

#[test]
fn results_identical_across_cluster_sizes() {
    // The same query must produce the same answer set regardless of how
    // many ranks execute it (distribution must not change semantics).
    let mut answers = Vec::new();
    for ranks in [1u32, 4, 16] {
        let inst0 = IdsInstance::launch(IdsConfig::laptop(ranks, 1));
        let ds = inst0.datastore();
        for i in 0..40 {
            ds.add_fact(&Term::iri(format!("e:{i}")), &Term::iri("val"), &Term::Int(i * 7 % 13));
        }
        ds.build_indexes();
        let mut inst = inst0;
        let out = inst.query(r#"SELECT ?e ?v WHERE { ?e <val> ?v . FILTER(?v > 5) }"#).unwrap();
        let mut rows: Vec<(String, i64)> = out
            .solutions
            .rows()
            .iter()
            .map(|r| {
                (
                    inst.datastore().decode(r[0]).unwrap().to_string(),
                    inst.datastore().decode(r[1]).unwrap().as_i64().unwrap(),
                )
            })
            .collect();
        rows.sort();
        answers.push(rows);
    }
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[1], answers[2]);
}

#[test]
fn a_star_join_past_the_part_chunk_size_matches_one_rank() {
    // 20 480 rows a stage: at 16 ranks a pool helper that runs more than
    // 8 192 of them fills its part in chunks (`stage::CHUNK_ROWS`), which
    // the stage must put back in rank order.
    const ENTITIES: i64 = 20_480;
    let mut answers = Vec::new();
    for ranks in [1u32, 16] {
        let mut inst = IdsInstance::launch(IdsConfig::laptop(ranks, 7));
        let ds = inst.datastore();
        for i in 0..ENTITIES {
            let e = Term::iri(format!("e:{i}"));
            for (k, p) in ["a", "b", "c"].into_iter().enumerate() {
                ds.add_fact(&e, &Term::iri(p), &Term::Int(i * 3 + k as i64));
            }
        }
        ds.build_indexes();
        let out =
            inst.query("SELECT ?e ?a ?b ?c WHERE { ?e <a> ?a . ?e <b> ?b . ?e <c> ?c . }").unwrap();
        let mut rows: Vec<Vec<u64>> =
            out.solutions.rows().iter().map(|r| r.iter().map(|t| t.raw()).collect()).collect();
        rows.sort_unstable();
        assert_eq!(rows.len(), ENTITIES as usize);
        answers.push(rows);
    }
    assert_eq!(answers[0], answers[1]);
}

#[test]
fn profiles_persist_across_queries() {
    let mut inst = library();
    inst.registry()
        .register_static(
            "pass",
            Arc::new(|_: &[UdfValue]| UdfOutput::new(UdfValue::Bool(true), 0.01)),
        )
        .unwrap();
    let q = r#"SELECT ?p WHERE { ?p <rdf:type> <Paper> . FILTER(pass(?p)) }"#;
    inst.query(q).unwrap();
    let after_one: u64 = inst.profilers().filter_map(|p| p.get("pass")).map(|p| p.calls).sum();
    inst.query(q).unwrap();
    let after_two: u64 = inst.profilers().filter_map(|p| p.get("pass")).map(|p| p.calls).sum();
    assert_eq!(after_one, 30);
    assert_eq!(after_two, 60, "the profiling datastore accumulates for the instance lifetime");
}

#[test]
fn dynamic_udf_reload_changes_query_behaviour() {
    let mut inst = library();
    inst.registry()
        .register_dynamic(
            "usermod",
            "keep",
            0.5,
            Arc::new(|args: &[UdfValue]| {
                let v = args[0].as_f64().unwrap();
                UdfOutput::new(UdfValue::Bool(v < 10.0), 0.001)
            }),
        )
        .unwrap();
    let q = r#"SELECT ?p WHERE { ?p <score> ?s . FILTER(usermod.keep(?s)) }"#;
    let out = inst.query(q).unwrap();
    assert_eq!(out.solutions.len(), 10);

    // The researcher edits their code and force-reloads (§2.3).
    inst.registry()
        .reload_dynamic(
            "usermod",
            "keep",
            0.5,
            Arc::new(|args: &[UdfValue]| {
                let v = args[0].as_f64().unwrap();
                UdfOutput::new(UdfValue::Bool(v >= 25.0), 0.001)
            }),
        )
        .unwrap();
    let out = inst.query(q).unwrap();
    assert_eq!(out.solutions.len(), 5, "new code in effect without relaunch");
}

#[test]
fn error_paths_are_reported_not_panics() {
    let mut inst = library();
    assert!(inst.query("SELECT ?x WHERE {").is_err(), "parse error");
    assert!(inst.query("SELECT ?x WHERE { FILTER(?x == <no:such:iri>) }").is_err(), "plan error");
    assert!(
        inst.query("SELECT ?p WHERE { ?p <score> ?s . FILTER(ghost_udf(?s)) }").is_err(),
        "exec error: unknown UDF"
    );
}

#[test]
fn fully_bound_bgp_counts_zero_variable_rows() {
    let mut inst = library();
    // Every position bound: an existence test whose result has no columns
    // and one row per match.
    let hit = inst
        .query("SELECT WHERE { <paper:0> <cites> <paper:1> . <paper:0> <reviewed> 1 . }")
        .unwrap();
    assert!(hit.solutions.vars().is_empty());
    assert_eq!(hit.solutions.len(), 1);
    assert_eq!(hit.solutions.rows().iter().map(<[_]>::len).collect::<Vec<_>>(), [0]);
    let miss = inst.query("SELECT WHERE { <paper:0> <cites> <paper:2> . }").unwrap();
    assert!(miss.solutions.vars().is_empty());
    assert_eq!(miss.solutions.len(), 0);
}
