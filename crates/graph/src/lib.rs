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
//! * [`batch`] — columnar solution batches (per-variable `u32`/`u64`
//!   term-id columns + null bitmaps) with exact wire-size accounting; the
//!   per-rank boundary representation (checkpoints, public kernels).
//! * [`stage`] — rank-segmented stage batches: one column buffer per
//!   variable for a whole pipeline stage, segmented by rank, with each
//!   rank's exact wire width; the engine's hot-path representation.
//! * [`sketch`] — KMV (bottom-k) distinct-value sketches over term ids,
//!   feeding the planner's join-key NDV statistics.
//! * [`ops`] — shard-local relational operators: pattern scan, hash join,
//!   merge (union), project, distinct — the "set-theoretic" operators of
//!   the paper's unified query engine.

pub mod algo;
pub mod batch;
pub mod dict;
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
pub use batch::SolutionBatch;
pub use dict::Dictionary;
pub use ntriples::{parse_ntriples, write_ntriples};
pub use sketch::KmvSketch;
pub use solution::{RowIter, Rows, SolutionSet};
pub use stage::StageBatch;
pub use store::{PartitionedStore, ShardStats, TriplePattern};
pub use term::{Term, TermId};
pub use text::KeywordIndex;
pub use triple::Triple;
