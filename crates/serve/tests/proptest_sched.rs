//! Property-based starvation-freedom check for the class-aware WDRR
//! scheduler.
//!
//! The scheduling contract under overload is *degrade, don't starve*:
//! whatever mix of SLO classes, weights, and backlog depths tenants bring,
//! every registered tenant with nonzero weight and queued work must make
//! progress every round — lower classes run slower, never stuck. The
//! promotion path is in play throughout (a tiny `promote_wait_secs` ages
//! `Batch`/`BestEffort` heads into higher passes), so the property covers
//! the class-aware scheduler end to end.

use ids_core::{IdsConfig, IdsInstance};
use ids_graph::Term;
use ids_serve::{QueryService, ServeConfig, SloClass, TenantConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

const QUERY: &str = "SELECT ?c ?p WHERE { ?c <inhibits> ?p . ?p <rdf:type> <up:Protein> . }";

fn tiny_instance(seed: u64) -> IdsInstance {
    let inst = IdsInstance::launch(IdsConfig::laptop(2, seed));
    let ds = inst.datastore();
    for i in 0..6 {
        ds.add_fact(&Term::iri(format!("p:{i}")), &Term::iri("rdf:type"), &Term::iri("up:Protein"));
        ds.add_fact(&Term::iri(format!("c:{i}")), &Term::iri("inhibits"), &Term::iri("p:0"));
    }
    ds.build_indexes();
    inst
}

fn class_of(idx: u8) -> SloClass {
    match idx % 3 {
        0 => SloClass::Interactive,
        1 => SloClass::Batch,
        _ => SloClass::BestEffort,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every tenant with queued work advances every round — it either
    /// receives at least one scheduler slice or its queue shrinks — and
    /// the whole backlog drains within a bounded number of rounds.
    #[test]
    fn wdrr_never_starves_a_tenant_with_nonzero_weight(
        tenants in proptest::collection::vec((0u8..3, 1u32..5, 1usize..4), 2..6),
        seed in 1u64..256,
    ) {
        let mut svc = QueryService::new(
            tiny_instance(seed),
            ServeConfig {
                // A quantum near one stage's cost forces real interleaving;
                // a tiny promotion threshold keeps the promotion path hot.
                quantum_secs: 1.0e-6,
                promote_wait_secs: 1.0e-4,
                max_in_flight: 1024,
                ..ServeConfig::default()
            },
        );
        let mut total = 0usize;
        for (i, (cls, weight, njobs)) in tenants.iter().enumerate() {
            let name = format!("t{i:02}");
            svc.register_tenant(
                TenantConfig::new(&name)
                    .with_weight(*weight)
                    .with_class(class_of(*cls))
                    .with_max_queued(16),
            );
            let session = svc.open_session(&name).unwrap();
            for _ in 0..*njobs {
                svc.submit(session, QUERY).unwrap();
                total += 1;
            }
        }
        let mut completed = 0usize;
        let mut rounds = 0usize;
        while svc.queued() > 0 {
            rounds += 1;
            prop_assert!(
                rounds <= 64 * total,
                "backlog of {total} queries failed to drain within {rounds} rounds"
            );
            let depths_before = svc.queue_depths();
            let trace_before = svc.trace().len();
            completed += svc.run_round().len();
            // Who got sliced this round?
            let sliced: BTreeSet<&str> =
                svc.trace()[trace_before..].iter().map(|s| &*s.tenant).collect();
            let depths_after = svc.queue_depths();
            for (name, before) in &depths_before {
                if *before == 0 {
                    continue;
                }
                let after = depths_after.get(name).copied().unwrap_or(0);
                prop_assert!(
                    sliced.contains(name.as_str()) || after < *before,
                    "tenant {name} had {before} queued but made no progress in round {rounds} \
                     (classes: {:?})",
                    tenants
                );
            }
        }
        prop_assert_eq!(completed, total, "every admitted query eventually completes");
    }
}
