//! # ids-vector — the vector store
//!
//! The IDS datastore "functions as a 3-in-1 feature store, vector store,
//! and knowledge graph host" and offers "linear-algebraic methods" as
//! first-class query operators (§1). This crate is the vector-store third:
//!
//! * [`kernel`] — dense-vector similarity kernels (dot, cosine, Euclidean).
//! * [`store`] — a flat vector store with exact parallel top-k search,
//!   sharded across ranks like the triple store.
//! * [`ivf`] — an IVF (inverted-file) approximate index: k-means centroids
//!   with probe-limited search, for the "millions of similarity searches"
//!   scale the paper's what-could-be query runs.

// No `unwrap`/`expect` outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod ivf;
pub mod kernel;
pub mod store;

pub use ivf::IvfIndex;
pub use kernel::{cosine, dot, l2_distance, normalize};
pub use store::{SearchHit, VectorStore};
