//! # ids-graph — the partitioned in-memory triple store
//!
//! IDS is "built upon the Cray Graph Engine (CGE), a well-established
//! semantic graph database" (§2.1). CGE is closed source; this crate
//! implements its published architecture from scratch:
//!
//! * [`term`] / [`dict`] — RDF-style terms (IRIs, typed literals) and the
//!   dictionary encoder mapping every term to a dense 64-bit id. All query
//!   processing happens on ids; strings only exist at the boundary.
//! * [`triple`] — encoded (subject, predicate, object) facts.
//! * [`store`] — the partitioned store: triples are sharded across the
//!   simulated cluster's ranks by subject hash, each shard keeping
//!   sorted indexes for pattern scans.
//! * [`solution`] — row-oriented binding tables ("solutions" in CGE
//!   terminology), the boundary representation for results and tests.
//! * [`batch`] — per-variable `u32`/`u64` term-id columns at the narrowest
//!   width that holds their ids, and the borrowed views the kernels read.
//! * [`stage`] — rank-segmented stage batches: one column buffer per
//!   variable for a whole pipeline stage, segmented by rank, with each
//!   rank's exact wire width; the engine's one intermediate layout, from
//!   the first scan through checkpoints to the result gather.
//! * [`sketch`] — KMV (bottom-k) distinct-value sketches over term ids,
//!   feeding the planner's join-key NDV statistics.
//! * [`ops`] — shard-local relational operators: pattern scan and hash
//!   join — the "set-theoretic" operators of the paper's unified query
//!   engine.

// No `unwrap`/`expect` outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod algo;
pub mod batch;
pub mod dict;
#[doc(hidden)]
pub mod legacy;
pub mod ntriples;
pub mod ops;
pub mod sketch;
pub mod solution;
pub mod stage;
pub mod store;
pub mod term;
pub mod text;
pub mod triple;

pub use algo::{connected_components, pagerank};
pub use dict::Dictionary;
#[doc(hidden)]
pub use legacy::SolutionBatch;
pub use ntriples::{parse_ntriples, write_ntriples};
pub use sketch::KmvSketch;
pub use solution::{RowIter, Rows, SolutionSet};
pub use stage::StageBatch;
pub use store::{placement, PartitionedStore, ShardStats, TriplePattern};
pub use term::{Term, TermId};
pub use text::KeywordIndex;
pub use triple::Triple;
