//! The engine against an independent reference evaluator (`oracle/`).
//!
//! Each case draws a small random graph — entities, integer, string and
//! float literals — and query — one to three joined patterns, comparison
//! and UDF FILTERs, APPLY, optional DISTINCT, ORDER BY and LIMIT, now and
//! then a query that must fail — and runs it at 1, 3
//! or 16 ranks, with every combination of `pipelined`, `adaptive`,
//! `speculation` and `recovery`, fault-free or under chaos with a cache
//! (at replication 1, and at 2 so reads fail over between replicas).
//! Both sides must fail, or both return the same rows in the same order.

mod oracle;

use ids::cache::{BackingStore, CacheConfig, CacheManager};
use ids::core::iql::parse_query;
use ids::core::{Datastore, IdsConfig, IdsInstance, Query};
use ids::graph::{Term, TermId};
use ids::simrt::faults::{
    CrashConfig, LinkConfig, StorageConfig, StragglerConfig, TransientConfig,
};
use ids::simrt::rng::SplitMix64;
use ids::simrt::{FaultConfig, FaultPlane, NetworkModel, Topology};
use ids::udf::{UdfOutput, UdfValue};
use std::sync::Arc;

/// Entities `<e:0>`…; `<p:0>`, `<p:1>` link entities, `<p:2>`, `<p:3>`
/// give them integer values below [`INTS`], `<p:4>` strings `"s0"`… below
/// [`STRS`], and `<p:5>` floats `0.0`, `0.5`, … below [`FLOATS`] halves.
const ENTITIES: u64 = 10;
const INTS: u64 = 20;
const STRS: u64 = 6;
const FLOATS: u64 = 8;

/// What a predicate's objects (and the variables bound to them) are.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Entity,
    Int,
    Str,
    Float,
}

/// The kind of `<p:N>`'s objects.
const OBJECTS: [Kind; 6] =
    [Kind::Entity, Kind::Entity, Kind::Int, Kind::Int, Kind::Str, Kind::Float];

/// `FaultConfig::chaos` scaled to the milliseconds a test query runs for
/// (the schedule `chaos_faults.rs` sweeps).
fn ms_chaos() -> FaultConfig {
    FaultConfig {
        crash: Some(CrashConfig { mean_uptime_secs: 2.0e-3, mean_downtime_secs: 0.5e-3 }),
        transient: Some(TransientConfig { fail_prob: 0.05 }),
        link: Some(LinkConfig {
            mean_healthy_secs: 1.0e-3,
            mean_degraded_secs: 0.4e-3,
            latency_mult: 8.0,
            bandwidth_mult: 0.25,
        }),
        straggler: Some(StragglerConfig { fraction: 0.25, slowdown: 3.0 }),
        storage: Some(StorageConfig { bit_rot_prob: 0.02, torn_write_prob: 0.01 }),
        permanent: None,
    }
}

/// A pure hash of integer, entity, string and float arguments into `0..17`.
fn mix(args: &[UdfValue]) -> i64 {
    let arg = |a: &UdfValue| match a {
        UdfValue::I64(v) => *v,
        UdfValue::Id(v) => *v as i64,
        UdfValue::F64(v) => v.to_bits() as i64,
        UdfValue::Str(s) => s.bytes().fold(0i64, |h, b| h.wrapping_mul(31) + i64::from(b)),
        other => panic!("mix takes terms, not {other}"),
    };
    args.iter().fold(7i64, |h, a| h.wrapping_mul(31).wrapping_add(arg(a))).rem_euclid(17)
}

/// How the engine side runs: `modes` bits 0–3 switch on `pipelined`,
/// `adaptive`, `speculation` and `recovery`; `chaos` attaches a cache
/// keeping `replication` copies of each object, and the fault schedule.
#[derive(Debug, Clone, Copy)]
struct Axes {
    ranks: u32,
    modes: u64,
    chaos: bool,
    replication: usize,
}

/// An instance at `axes` with `mix` and `sparse` (a `mix` that returns null
/// a quarter of the time) registered and the graph `load` builds.
fn launch(axes: Axes, seed: u64, load: impl Fn(&Datastore)) -> IdsInstance {
    let topo = match axes.ranks {
        16 => Topology::new(4, 4),
        n => Topology::new(n, 1),
    };
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), seed);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    if axes.chaos {
        let cache = CacheConfig::new(topo.nodes().min(2) as usize, 16 << 20, 64 << 20)
            .with_replication(axes.replication);
        let store = BackingStore::default_store();
        inst.attach_cache(Arc::new(CacheManager::new(
            topo,
            NetworkModel::slingshot(),
            cache,
            store,
        )));
        let plane = FaultPlane::new(seed, ms_chaos(), topo.nodes(), topo.total_ranks(), 10.0);
        inst.attach_faults(Arc::new(plane));
    }
    let opts = inst.exec_options_mut();
    [opts.pipelined, opts.adaptive, opts.speculation, opts.recovery] =
        [0, 1, 2, 3].map(|bit| axes.modes >> bit & 1 == 1);
    let reg = inst.registry();
    let sparse = |a: &[UdfValue]| match mix(a) {
        v if v % 4 == 0 => UdfValue::Null,
        v => UdfValue::I64(v),
    };
    reg.register_static("mix", Arc::new(|a| UdfOutput::new(UdfValue::I64(mix(a)), 1e-5))).unwrap();
    reg.register_static("sparse", Arc::new(move |a| UdfOutput::new(sparse(a), 2e-5))).unwrap();
    load(inst.datastore());
    inst.datastore().build_indexes();
    inst
}

/// `n` random triples over the vocabulary.
fn random_graph(ds: &Datastore, seed: u64, n: u64) {
    let mut rng = SplitMix64::new(seed, 0x6a7);
    for _ in 0..n {
        let s = Term::iri(format!("e:{}", rng.next_below(ENTITIES)));
        let p = rng.next_below(OBJECTS.len() as u64);
        let o = match OBJECTS[p as usize] {
            Kind::Entity => Term::iri(format!("e:{}", rng.next_below(ENTITIES))),
            Kind::Int => Term::Int(rng.next_below(INTS) as i64),
            Kind::Str => Term::str(format!("s{}", rng.next_below(STRS))),
            Kind::Float => Term::float(rng.next_below(FLOATS) as f64 / 2.0),
        };
        ds.add_fact(&s, &Term::iri(format!("p:{p}")), &o);
    }
}

/// Query generator state: the variables bound so far, with their kinds.
struct Gen {
    rng: SplitMix64,
    vars: Vec<(String, Kind)>,
}

impl Gen {
    fn chance(&mut self, one_in: u64) -> bool {
        self.rng.next_below(one_in) == 0
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.rng.next_below(from.len() as u64) as usize]
    }

    fn has(&self, kind: Kind) -> bool {
        self.vars.iter().any(|(_, k)| *k == kind)
    }

    /// An existing variable of one kind (`None` if there is none yet).
    fn existing(&mut self, kind: Kind) -> Option<String> {
        let vars: Vec<&String> =
            self.vars.iter().filter(|(_, k)| *k == kind).map(|(v, _)| v).collect();
        let i = self.rng.next_below(vars.len().max(1) as u64) as usize;
        vars.get(i).map(|v| format!("?{v}"))
    }

    fn any_var(&mut self) -> String {
        let i = self.rng.next_below(self.vars.len().max(1) as u64) as usize;
        self.vars.get(i).map(|(v, _)| format!("?{v}")).unwrap_or_default()
    }

    fn fresh(&mut self, kind: Kind) -> String {
        let v = format!("v{}", self.vars.len());
        self.vars.push((v.clone(), kind));
        format!("?{v}")
    }

    /// A string constant; one in seven is a string no graph holds.
    fn str_const(&mut self) -> String {
        format!("\"s{}\"", self.rng.next_below(STRS + 1))
    }

    /// A number for a float comparison: a float, or now and then an
    /// integer (numbers compare across the two).
    fn float_const(&mut self) -> String {
        let v = self.rng.next_below(FLOATS + 1) as f64 / 2.0;
        if self.chance(3) {
            format!("{}", v.floor())
        } else {
            format!("{v:.1}")
        }
    }

    /// An entity IRI; one in ten names an entity no graph holds.
    fn entity_const(&mut self) -> String {
        format!("<e:{}>", if self.chance(10) { 99 } else { self.rng.next_below(ENTITIES) })
    }

    /// One triple pattern. After the first, the subject is usually a bound
    /// entity, so patterns join; otherwise a cross product.
    fn pattern(&mut self, first: bool) -> String {
        let s = match self.existing(Kind::Entity) {
            Some(v) if !first && !self.chance(6) => v,
            _ if self.chance(8) => self.entity_const(),
            _ => self.fresh(Kind::Entity),
        };
        let p = self.rng.next_below(OBJECTS.len() as u64);
        let kind = OBJECTS[p as usize];
        let o = match (kind, self.rng.next_below(10)) {
            (Kind::Entity, 0..=2) => self.existing(kind).filter(|o| *o != s),
            // `?x <p> ?x`: one variable at two positions.
            (Kind::Entity, 3) if s.starts_with('?') && self.chance(2) => Some(s.clone()),
            (Kind::Entity, 3) => Some(self.entity_const()),
            (_, 0..=1) => self.existing(kind),
            (Kind::Int, 2) => Some(self.rng.next_below(INTS + 2).to_string()),
            (Kind::Str, 2) => Some(self.str_const()),
            (Kind::Float, 2) => Some(self.float_const()),
            _ => None,
        };
        let o = o.unwrap_or_else(|| self.fresh(kind));
        format!("{s} <p:{p}> {o} .")
    }

    /// A type-correct condition: integer, float, string and UDF
    /// comparisons, entity (in)equalities, and their `&&` / `||` / `!`
    /// combinations.
    fn cond(&mut self, depth: u32) -> String {
        let op = self.pick(&["<", "<=", ">", ">=", "=", "!="]);
        let literal_op = self.pick(&["=", "!=", "<"]);
        match self.rng.next_below(if depth == 0 { 6 } else { 9 }) {
            0 if self.has(Kind::Int) => {
                let v = self.existing(Kind::Int).unwrap_or_default();
                format!("{v} {op} {}", self.rng.next_below(INTS))
            }
            1 if self.has(Kind::Entity) => {
                let lhs = self.existing(Kind::Entity).unwrap_or_default();
                let rhs = match self.chance(2) {
                    true => self.existing(Kind::Entity).unwrap_or_default(),
                    false => self.entity_const(),
                };
                format!("{lhs} {} {rhs}", self.pick(&["=", "!="]))
            }
            2 if self.has(Kind::Str) => {
                let lhs = self.existing(Kind::Str).unwrap_or_default();
                let rhs = match self.chance(3) {
                    true => self.existing(Kind::Str).unwrap_or_default(),
                    false => self.str_const(),
                };
                format!("{lhs} {literal_op} {rhs}")
            }
            3 if self.has(Kind::Float) => {
                let lhs = self.existing(Kind::Float).unwrap_or_default();
                // Now and then another float or an integer variable.
                let other = self.pick(&[None, None, None, Some(Kind::Float), Some(Kind::Int)]);
                let rhs = other.and_then(|kind| self.existing(kind));
                let rhs = rhs.unwrap_or_else(|| self.float_const());
                format!("{lhs} {literal_op} {rhs}")
            }
            6 => format!("{} && {}", self.cond(depth - 1), self.cond(depth - 1)),
            7 => format!("({} || {})", self.cond(depth - 1), self.cond(depth - 1)),
            8 => format!("!({})", self.cond(depth - 1)),
            _ => format!("mix({}) {op} {}", self.any_var(), self.rng.next_below(17)),
        }
    }

    fn query(&mut self) -> String {
        let patterns: Vec<String> =
            (0..1 + self.rng.next_below(3)).map(|i| self.pattern(i == 0)).collect();
        if self.vars.is_empty() {
            return self.query(); // every position ground: nothing to select
        }
        let mut filters = Vec::new();
        if self.has(Kind::Entity) && self.chance(16) {
            // Entities do not compare with numbers: fails on any row.
            let v = self.existing(Kind::Entity).unwrap_or_default();
            filters.push(format!("FILTER({v} > 3)"));
        } else {
            for _ in 0..self.pick(&[0, 0, 0, 1, 1, 2]) {
                filters.push(format!("FILTER({})", self.cond(1)));
            }
        }
        let mut stages = Vec::new();
        for _ in 0..self.rng.next_below(3) {
            stages.push(if self.chance(2) {
                let udf = self.pick(&["mix", "sparse"]);
                let mut args = self.any_var();
                if self.chance(2) {
                    args = format!("{args}, {}", self.any_var());
                }
                format!("APPLY {udf}({args}) AS {}", self.fresh(Kind::Int))
            } else {
                format!("FILTER({})", self.cond(1))
            });
        }
        let mut all: Vec<String> = self.vars.iter().map(|(v, _)| v.clone()).collect();
        let mut select = String::new();
        if !self.chance(3) {
            for _ in 0..1 + self.rng.next_below(all.len() as u64) {
                let v = all.remove(self.rng.next_below(all.len() as u64) as usize);
                select.push_str(&format!(" ?{v}"));
            }
            if self.chance(24) {
                select.push_str(" ?unbound");
            }
        }
        let distinct = self.pick(&["", " DISTINCT"]);
        let mut tail = String::new();
        if self.chance(2) {
            let v = if self.chance(40) { "?unbound".to_string() } else { self.any_var() };
            tail.push_str(&format!(" ORDER BY {v}{}", self.pick(&[" DESC", " ASC", ""])));
        }
        if self.chance(3) {
            tail.push_str(&format!(" LIMIT {}", self.rng.next_below(12)));
        }
        let (patterns, filters) = (patterns.join(" "), filters.join(" "));
        format!(
            "SELECT{distinct}{select} WHERE {{ {patterns} {filters} }} {}{tail}",
            stages.join(" ")
        )
    }
}

/// Rows as decoded text, for comparison and readable failures.
fn decode(ds: &Datastore, rows: impl Iterator<Item = Vec<TermId>>) -> Vec<Vec<String>> {
    rows.map(|r| r.iter().map(|&id| ds.decode(id).map_or("?".into(), |t| t.to_string())).collect())
        .collect()
}

/// Run `text` on the engine at `axes` and on the oracle over the same
/// datastore; panic, naming the case, unless they agree. With a cache
/// attached the query also runs twice through semantic reuse: once
/// storing checkpoints, once resuming from them.
fn check(case: &str, axes: Axes, seed: u64, load: impl Fn(&Datastore), text: &str) {
    let mut inst = launch(axes, seed, load);
    let mut runs = vec![("query", inst.query(text))];
    if axes.chaos {
        runs.push(("store", inst.query_with_reuse(text)));
        runs.push(("resume", inst.query_with_reuse(text)));
    }
    let ds = inst.datastore().clone();
    let parsed = parse_query(text).unwrap_or_else(|e| panic!("{case}: {text}: {e}"));
    let want = oracle::evaluate(&parsed, &ds, inst.registry());
    for (run, got) in runs {
        let ctx = format!("{case} ({run}) {axes:?}\n  {text}");
        match (got, &want) {
            (Err(_), Err(_)) => {}
            (Ok(out), Err(e)) => {
                panic!("{ctx}\n  engine: {} rows, oracle: {e}", out.solutions.len())
            }
            (Err(e), Ok(a)) => panic!("{ctx}\n  engine: {e}, oracle: {} rows", a.rows.len()),
            (Ok(out), Ok(a)) => {
                assert!(!out.degraded(), "{ctx}\n  engine dropped rows");
                assert_eq!(out.solutions.vars(), a.vars.as_slice(), "{ctx}\n  column divergence");
                let engine = decode(&ds, out.solutions.rows().iter().map(<[TermId]>::to_vec));
                assert_eq!(engine, decode(&ds, a.rows.iter().cloned()), "{ctx}\n  row divergence");
            }
        }
    }
    if let (true, Ok(a)) = (parsed.distinct, &want) {
        // DISTINCT never grows a result.
        let all = Query { distinct: false, ..parsed };
        let all = oracle::evaluate(&all, &ds, inst.registry()).expect("the non-DISTINCT twin runs");
        assert!(a.rows.len() <= all.rows.len(), "{case}: DISTINCT grew the result");
    }
}

/// Every mode combination, eight random graphs and queries each, at
/// `ranks` ranks, fault-free or under chaos.
fn sweep(ranks: u32, chaos: bool) {
    sweep_at(ranks, chaos, 1);
}

/// [`sweep`] with `replication` cache copies under chaos; each factor
/// above 1 draws its own graphs and queries.
fn sweep_at(ranks: u32, chaos: bool, replication: usize) {
    let stream = u64::from(ranks) << 1 | u64::from(chaos) | (replication as u64 - 1) << 32;
    for case in 0..128 {
        let mut rng = SplitMix64::new(case, stream);
        let graph_seed = rng.next_u64();
        // Mostly 60–200 triples; one graph in eight is tiny or empty.
        let triples =
            if rng.next_below(8) == 0 { rng.next_below(20) } else { 60 + rng.next_below(141) };
        let mut gen = Gen { rng: rng.split(), vars: Vec::new() };
        let name = format!("case {case}, graph {graph_seed}/{triples}");
        let axes = Axes { ranks, modes: case % 16, chaos, replication };
        check(&name, axes, graph_seed, |ds| random_graph(ds, graph_seed, triples), &gen.query());
    }
}

macro_rules! sweeps {
    ($($name:ident: $ranks:expr, $chaos:expr;)*) => {
        $(#[test] fn $name() { sweep($ranks, $chaos) })*
    };
}

sweeps! {
    engine_matches_oracle_at_one_rank: 1, false;
    engine_matches_oracle_at_three_ranks: 3, false;
    engine_matches_oracle_at_sixteen_ranks: 16, false;
    engine_matches_oracle_at_one_rank_under_chaos: 1, true;
    engine_matches_oracle_at_three_ranks_under_chaos: 3, true;
    engine_matches_oracle_at_sixteen_ranks_under_chaos: 16, true;
}

// Chaos at replication 2: a crashed or rotted copy fails over to its
// replica, read-path repair and anti-entropy re-replication restore it,
// and the rows must still be the oracle's.
#[test]
fn engine_matches_oracle_at_three_ranks_under_replicated_chaos() {
    sweep_at(3, true, 2);
}

#[test]
fn engine_matches_oracle_at_sixteen_ranks_under_replicated_chaos() {
    sweep_at(16, true, 2);
}

/// The pinned cases run at one rank with every switch off and fault-free,
/// and at 16 ranks with every switch on under chaos (and reuse).
const PINNED: [Axes; 2] = [
    Axes { ranks: 1, modes: 0, chaos: false, replication: 1 },
    Axes { ranks: 16, modes: 15, chaos: true, replication: 1 },
];

/// Entities 0..6 with one `<p:0>` edge each: 0, 2 and 4 loop onto
/// themselves, the others point at their successor.
fn loops(ds: &Datastore) {
    for e in 0..6 {
        let o = if e % 2 == 0 { e } else { e + 1 };
        ds.add_fact(&Term::iri(format!("e:{e}")), &Term::iri("p:0"), &Term::iri(format!("e:{o}")));
    }
}

/// `?x <p> ?x` binds one column, and only where subject and object agree
/// (the scan once bound it twice, one column per position, unchecked).
#[test]
fn a_repeated_variable_binds_one_column_where_its_positions_agree() {
    let text = "SELECT WHERE { ?x <p:0> ?x . ?y <p:0> ?x . }";
    for axes in PINNED {
        check("repeated variable", axes, 1, loops, text);
    }
    let mut inst = launch(PINNED[0], 1, loops);
    let out = inst.query(text).unwrap();
    assert_eq!(out.solutions.vars(), ["x", "y"]);
    let mut rows = decode(inst.datastore(), out.solutions.rows().iter().map(<[TermId]>::to_vec));
    rows.sort();
    // e:2 and e:4 are also reached from e:1 and e:3.
    let want = [[0, 0], [2, 1], [2, 2], [4, 3], [4, 4]].map(|r| r.map(|e| format!("<e:{e}>")));
    assert_eq!(rows, want);
}

/// A pattern naming a term the dictionary never saw matches nothing, but
/// the variables bound before it stay in the schema: SELECTing them is an
/// empty result, not "never bound" (an impossible pattern once replaced
/// the schema with its own). Both patterns here are impossible, so they
/// tie at cardinality 0 and run in source order.
#[test]
fn an_impossible_pattern_keeps_the_variables_bound_before_it() {
    let text = "SELECT ?x ?y WHERE { ?x <p:1> ?y . ?y <p:0> <e:99> . }";
    for axes in PINNED {
        check("impossible pattern", axes, 1, loops, text);
    }
    let out = launch(PINNED[0], 1, loops).query(text).unwrap();
    assert_eq!(out.solutions.vars(), ["x", "y"]);
    assert!(out.solutions.is_empty());
}

/// What the sweep's failing queries exercise, pinned: both sides refuse
/// an entity compared with a number, a SELECT or ORDER BY variable nothing
/// binds, and a filter IRI the dictionary never saw.
#[test]
fn engine_and_oracle_refuse_the_same_queries() {
    for text in [
        "SELECT WHERE { ?x <p:0> ?y . FILTER(?x > 3) }",
        "SELECT ?z WHERE { ?x <p:0> ?y . }",
        "SELECT WHERE { ?x <p:0> ?y . } ORDER BY ?z",
        "SELECT WHERE { ?x <p:0> ?y . FILTER(?y = <e:99>) }",
    ] {
        for axes in PINNED {
            let mut inst = launch(axes, 1, loops);
            assert!(inst.query(text).is_err(), "engine accepted {text}");
            let parsed = parse_query(text).unwrap();
            let oracle = oracle::evaluate(&parsed, inst.datastore(), inst.registry());
            assert!(oracle.is_err(), "oracle accepted {text}");
        }
    }
}
