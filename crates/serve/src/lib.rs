//! # ids-serve — deterministic multi-tenant query service
//!
//! The service layer the paper's §2.2 Datastore Client implies once many
//! scientists share one launched instance: sessions, admission control,
//! fair scheduling, and cross-client reuse of intermediate results —
//! all on the simulator's virtual clock, so every run is replayable.
//!
//! * **Sessions & admission** ([`QueryService::open_session`],
//!   [`QueryService::submit`]) — per-tenant quotas and bounded queue
//!   depth; rejected work gets a typed [`ServeError`] with a
//!   deterministic retry-after hint instead of unbounded queueing.
//! * **Fair-share scheduling** ([`QueryService::run_until_idle`]) —
//!   weighted deficit round-robin over in-flight queries at pipeline-stage
//!   granularity, with optional per-tenant deadlines. The slice trace
//!   hashes to a stable digest ([`QueryService::trace_hash`]) for replay
//!   checks.
//! * **Semantic result reuse** — queries are canonicalized
//!   (`ids_core::iql::canon`) and their plan-fragment fingerprints keyed
//!   into the shared cache, so α-equivalent fragments submitted by
//!   *different* clients resume from cached intermediates instead of
//!   re-executing.
//!
//! ```
//! use ids_core::{IdsConfig, IdsInstance};
//! use ids_graph::Term;
//! use ids_serve::{QueryService, ServeConfig, TenantConfig};
//!
//! let inst = IdsInstance::launch(IdsConfig::laptop(2, 7));
//! for i in 0..4 {
//!     inst.datastore().add_fact(
//!         &Term::iri(format!("p:{i}")),
//!         &Term::iri("rdf:type"),
//!         &Term::iri("up:Protein"),
//!     );
//! }
//! inst.datastore().build_indexes();
//!
//! let mut svc = QueryService::new(inst, ServeConfig::default());
//! svc.register_tenant(TenantConfig::new("alice").with_weight(2));
//! svc.register_tenant(TenantConfig::new("bob"));
//! let a = svc.open_session("alice").unwrap();
//! let b = svc.open_session("bob").unwrap();
//! svc.submit(a, "SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }").unwrap();
//! svc.submit(b, "SELECT ?x WHERE { ?x <rdf:type> <up:Protein> . }").unwrap();
//! let done = svc.run_until_idle();
//! assert_eq!(done.len(), 2);
//! assert!(done.iter().all(|c| c.result.as_ref().unwrap().solutions.len() == 4));
//! ```

// Typed errors, never panics, outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

//!
//! Under overload the service degrades by SLO class instead of
//! collapsing: [`TenantConfig`] carries an [`SloClass`]
//! (`Interactive`/`Batch`/`BestEffort`) that orders and rate-scales each
//! scheduler round, a hysteresis [`slo::ShedController`] refuses
//! `BestEffort` then `Batch` admissions past a queue-occupancy high-water
//! mark (typed, retryable [`ServeError::Shed`]), and an optional
//! [`elastic::ElasticityController`] grows/shrinks the active node set
//! under sustained queue pressure — reusing the cache's crash-recovery +
//! anti-entropy machinery for joiners and the engine's shard re-owning
//! for drains.

pub mod elastic;
pub mod error;
pub mod service;
pub mod slo;

pub use elastic::{ElasticityConfig, ScaleDecision, ScaleEvent};
pub use error::{Refusal, ServeError};
pub use service::{
    Completed, QueryId, QueryService, ServeConfig, SessionId, SliceRecord, TenantConfig,
};
pub use slo::{ShedConfig, SloClass};
