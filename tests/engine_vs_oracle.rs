//! The engine against an independent reference evaluator (`oracle/`).
//!
//! Each case draws a small random graph and query — one to three joined
//! patterns, comparison and UDF FILTERs, APPLY, optional DISTINCT, ORDER
//! BY and LIMIT, now and then a query that must fail — and runs it at 1, 3
//! or 16 ranks, with every combination of `pipelined`, `adaptive`,
//! `speculation` and `recovery`, fault-free or under chaos with a cache.
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
/// give them integer values below [`INTS`].
const ENTITIES: u64 = 10;
const INTS: u64 = 20;

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

/// A pure hash of integer and entity arguments into `0..17`.
fn mix(args: &[UdfValue]) -> i64 {
    let arg = |a: &UdfValue| match a {
        UdfValue::I64(v) => *v,
        UdfValue::Id(v) => *v as i64,
        other => panic!("mix takes integers and entities, not {other}"),
    };
    args.iter().fold(7i64, |h, a| h.wrapping_mul(31).wrapping_add(arg(a))).rem_euclid(17)
}

/// How the engine side runs: `modes` bits 0–3 switch on `pipelined`,
/// `adaptive`, `speculation` and `recovery`; `chaos` attaches a cache and
/// the fault schedule.
#[derive(Debug, Clone, Copy)]
struct Axes {
    ranks: u32,
    modes: u64,
    chaos: bool,
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
        let cache = CacheConfig::new(topo.nodes().min(2) as usize, 16 << 20, 64 << 20);
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
        let p = rng.next_below(4);
        let o = match p {
            0 | 1 => Term::iri(format!("e:{}", rng.next_below(ENTITIES))),
            _ => Term::Int(rng.next_below(INTS) as i64),
        };
        ds.add_fact(&s, &Term::iri(format!("p:{p}")), &o);
    }
}

/// Query generator state: the entity- and integer-valued variables bound
/// so far.
struct Gen {
    rng: SplitMix64,
    entities: Vec<String>,
    ints: Vec<String>,
}

impl Gen {
    fn chance(&mut self, one_in: u64) -> bool {
        self.rng.next_below(one_in) == 0
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.rng.next_below(from.len() as u64) as usize]
    }

    /// An existing variable of one kind (`None` if there is none yet).
    fn existing(&mut self, ints: bool) -> Option<String> {
        let vars = if ints { &self.ints } else { &self.entities };
        let i = self.rng.next_below(vars.len().max(1) as u64) as usize;
        vars.get(i).map(|v| format!("?{v}"))
    }

    fn any_var(&mut self) -> String {
        let ints = self.entities.is_empty() || (!self.ints.is_empty() && self.chance(2));
        self.existing(ints).unwrap_or_default()
    }

    fn fresh(&mut self, ints: bool) -> String {
        let v = format!("v{}", self.entities.len() + self.ints.len());
        if ints { &mut self.ints } else { &mut self.entities }.push(v.clone());
        format!("?{v}")
    }

    /// An entity IRI; one in ten names an entity no graph holds.
    fn entity_const(&mut self) -> String {
        format!("<e:{}>", if self.chance(10) { 99 } else { self.rng.next_below(ENTITIES) })
    }

    /// One triple pattern. After the first, the subject is usually a bound
    /// entity, so patterns join; otherwise a cross product.
    fn pattern(&mut self, first: bool) -> String {
        let s = match self.existing(false) {
            Some(v) if !first && !self.chance(6) => v,
            _ if self.chance(8) => self.entity_const(),
            _ => self.fresh(false),
        };
        let p = self.rng.next_below(4);
        let o = match (p < 2, self.rng.next_below(10)) {
            (true, 0..=2) => self.existing(false).filter(|o| *o != s),
            // `?x <p> ?x`: one variable at two positions.
            (true, 3) if s.starts_with('?') && self.chance(2) => Some(s.clone()),
            (true, 3) => Some(self.entity_const()),
            (false, 0..=1) => self.existing(true),
            (false, 2) => Some(self.rng.next_below(INTS + 2).to_string()),
            _ => None,
        };
        let o = o.unwrap_or_else(|| self.fresh(p >= 2));
        format!("{s} <p:{p}> {o} .")
    }

    /// A type-correct condition: integer and UDF comparisons, entity
    /// (in)equalities, and their `&&` / `||` / `!` combinations.
    fn cond(&mut self, depth: u32) -> String {
        let op = self.pick(&["<", "<=", ">", ">=", "=", "!="]);
        match self.rng.next_below(if depth == 0 { 4 } else { 7 }) {
            0 if !self.ints.is_empty() => {
                let v = self.existing(true).unwrap_or_default();
                format!("{v} {op} {}", self.rng.next_below(INTS))
            }
            1 if !self.entities.is_empty() => {
                let lhs = self.existing(false).unwrap_or_default();
                let rhs = match self.chance(2) {
                    true => self.existing(false).unwrap_or_default(),
                    false => self.entity_const(),
                };
                format!("{lhs} {} {rhs}", self.pick(&["=", "!="]))
            }
            4 => format!("{} && {}", self.cond(depth - 1), self.cond(depth - 1)),
            5 => format!("({} || {})", self.cond(depth - 1), self.cond(depth - 1)),
            6 => format!("!({})", self.cond(depth - 1)),
            _ => format!("mix({}) {op} {}", self.any_var(), self.rng.next_below(17)),
        }
    }

    fn query(&mut self) -> String {
        let patterns: Vec<String> =
            (0..1 + self.rng.next_below(3)).map(|i| self.pattern(i == 0)).collect();
        if self.entities.is_empty() && self.ints.is_empty() {
            return self.query(); // every position ground: nothing to select
        }
        let mut filters = Vec::new();
        if !self.entities.is_empty() && self.chance(16) {
            // Entities do not compare with numbers: fails on any row.
            filters.push(format!("FILTER({} > 3)", self.existing(false).unwrap_or_default()));
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
                format!("APPLY {udf}({args}) AS {}", self.fresh(true))
            } else {
                format!("FILTER({})", self.cond(1))
            });
        }
        let mut all: Vec<String> = self.entities.iter().chain(&self.ints).cloned().collect();
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
    for case in 0..128 {
        let mut rng = SplitMix64::new(case, u64::from(ranks) << 1 | u64::from(chaos));
        let graph_seed = rng.next_u64();
        // Mostly 60–200 triples; one graph in eight is tiny or empty.
        let triples =
            if rng.next_below(8) == 0 { rng.next_below(20) } else { 60 + rng.next_below(141) };
        let mut gen = Gen { rng: rng.split(), entities: Vec::new(), ints: Vec::new() };
        let name = format!("case {case}, graph {graph_seed}/{triples}");
        let axes = Axes { ranks, modes: case % 16, chaos };
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

/// The pinned cases run at one rank with every switch off and fault-free,
/// and at 16 ranks with every switch on under chaos (and reuse).
const PINNED: [Axes; 2] =
    [Axes { ranks: 1, modes: 0, chaos: false }, Axes { ranks: 16, modes: 15, chaos: true }];

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
