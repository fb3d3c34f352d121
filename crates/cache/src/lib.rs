//! # ids-cache — the globally shared, multi-tier, client-side cache
//!
//! Section 3 of the paper introduces a cluster-wide cache that fronts
//! persistent storage (DAOS/Lustre) with node-local DRAM and NVMe,
//! accessed over RDMA via OpenFAM, and used to stash molecular-docking
//! outputs so repeated queries skip re-simulation (Table 2: 5–15×
//! end-to-end improvement). This crate implements that design; a
//! remote-DRAM read is priced as one α·β inter-node transfer
//! (`NetworkModel::inter_cost`) rather than through an OpenFAM API:
//!
//! * [`backing`] — the authoritative persistent object store standing in
//!   for DAOS/Lustre; cache nodes can always re-populate from it after a
//!   failure, so losing a cache node loses no data.
//! * [`manager`] — the Cache Manager (§3.2): its state and the read and
//!   write paths, plus one private module per decision — `membership`
//!   (node availability), `movement` (placement, DRAM→NVMe spill,
//!   promotion, locality, relocation), `integrity` (quarantine, warm
//!   restart, anti-entropy) and `metrics` (the `ids_cache_*` counters and
//!   the [`CacheStats`] view of them).
//! * [`tier`] — the tier stores ([`tier::TierStore`]):
//!   the single home of per-tier capacity/occupancy accounting, entry
//!   checksums, and the warm-restart verified flag.
//! * [`evict`] — eviction policies ([`evict::EvictionKind`]): LRU over an
//!   ordered recency index, scan-resistant S3-FIFO, and TinyLFU.
//! * [`admit`] — the count-min frequency sketch gating NVMe admission and
//!   the TinyLFU eviction duel.
//! * [`inspect`] — the cache inspector: per-tier occupancy and lifetime
//!   movement counters, rendered into EXPLAIN and printed by the
//!   `cache_tiers` experiment (`cache_tiers.final_inspection`).
//! * [`object`] — named cache objects addressed by name and content hash
//!   (the TR-Cache object-ID scheme the paper describes).
//! * [`policy`] — placement policies (local-first, round-robin,
//!   capacity-weighted) exercised by the ablation benches.
//! * [`typed`] — typed intermediate-solution objects: the versioned wire
//!   format the service layer uses to share per-rank plan checkpoints
//!   between clients (semantic result reuse).

// Typed errors, never panics, outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// One `unsafe` block: the call into the CRC-32 folding kernel behind
// runtime CPU-feature detection (`object.rs`, DESIGN.md §5e).
#![deny(unsafe_code)]

pub mod admit;
pub mod backing;
pub mod error;
pub mod evict;
pub mod inspect;
pub mod manager;
pub mod object;
pub mod policy;
pub mod tier;
pub mod typed;

pub use admit::FrequencySketch;
pub use backing::{BackingStore, VerifiedRead};
pub use error::CacheError;
pub use evict::EvictionKind;
pub use inspect::{CacheInspection, TierInspection};
pub use manager::{AntiEntropyReport, CacheConfig, CacheManager, CacheOutcome, CacheStats, Tier};
pub use object::{crc32, object_id, ObjectMeta, Sealed};
pub use policy::PlacementPolicy;
pub use tier::{StoredEntry, TierKind, TierStore};
pub use typed::{IntermediateSolutions, TypedError, TypedSolutionSet};
