//! Unified cache-layer error type.
//!
//! Every fallible path in the cache — exhausted retries on the backing
//! fetch, a corrupt authoritative copy, an unsatisfiable configuration —
//! funnels into [`CacheError`], so callers handle one type and can decide
//! between failing the query and degrading gracefully (falling back to
//! recomputation).

/// Errors surfaced by [`crate::CacheManager`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// Every retry attempt failed transiently.
    RetriesExhausted {
        /// Attempts made (including the first).
        attempts: u32,
        /// Virtual seconds spent across attempts and backoff waits.
        spent_secs: f64,
        /// What kept failing (the backing store fetch).
        detail: String,
    },
    /// The authoritative backing copy failed its checksum (torn write or
    /// bit rot) and no healthy cached replica remained to serve or
    /// repair it. Corrupt bytes are never returned to callers.
    Corrupted {
        /// The object whose integrity check failed.
        name: String,
        /// Virtual seconds spent before the corruption was detected.
        spent_secs: f64,
    },
    /// The cache configuration is unsatisfiable for the given topology
    /// (e.g. zero cache nodes, or more cache nodes than the cluster
    /// has). Returned by [`crate::CacheManager::try_new`] before any
    /// state is built.
    InvalidConfig(String),
}

impl CacheError {
    /// Virtual seconds the failed operation consumed before erroring —
    /// callers charge this to their rank clock even though the op failed.
    pub fn spent_secs(&self) -> f64 {
        match self {
            CacheError::InvalidConfig(_) => 0.0,
            CacheError::RetriesExhausted { spent_secs, .. }
            | CacheError::Corrupted { spent_secs, .. } => *spent_secs,
        }
    }
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::RetriesExhausted { attempts, detail, .. } => {
                write!(f, "retries exhausted after {attempts} attempts: {detail}")
            }
            CacheError::Corrupted { name, .. } => {
                write!(
                    f,
                    "object '{name}' failed its integrity check and no healthy \
                     replica remains"
                )
            }
            CacheError::InvalidConfig(m) => write!(f, "invalid cache configuration: {m}"),
        }
    }
}

impl std::error::Error for CacheError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_are_informative() {
        let e = CacheError::RetriesExhausted {
            attempts: 4,
            spent_secs: 0.1,
            detail: "remote_dram".into(),
        };
        assert!(e.to_string().contains("4 attempts"));
        assert!(e.to_string().contains("remote_dram"));
        let e = CacheError::InvalidConfig("more cache nodes than nodes".into());
        assert!(e.to_string().contains("invalid cache configuration"));
        assert!(e.to_string().contains("more cache nodes"));
    }

    #[test]
    fn spent_secs_propagates() {
        let e = CacheError::RetriesExhausted { attempts: 2, spent_secs: 0.25, detail: "x".into() };
        assert_eq!(e.spent_secs(), 0.25);
    }

    #[test]
    fn spent_secs_covers_every_variant() {
        // Callers charge `spent_secs()` to their rank clock on failure;
        // a variant that forgot to carry it would silently drop virtual
        // time, so pin down all of them.
        let cases: Vec<(CacheError, f64)> = vec![
            (
                CacheError::RetriesExhausted { attempts: 4, spent_secs: 0.75, detail: "d".into() },
                0.75,
            ),
            (CacheError::Corrupted { name: "obj".into(), spent_secs: 0.5 }, 0.5),
            // Construction-time rejection: no virtual time was ever spent.
            (CacheError::InvalidConfig("zero cache nodes".into()), 0.0),
        ];
        for (e, want) in cases {
            assert_eq!(e.spent_secs(), want, "{e}");
        }
    }

    #[test]
    fn corrupted_display_and_source() {
        let e = CacheError::Corrupted { name: "vina/p1".into(), spent_secs: 0.1 };
        let msg = e.to_string();
        assert!(msg.contains("vina/p1"));
        assert!(msg.contains("integrity"));
        // Corruption originates in stored bytes, not a wrapped error.
        assert!(e.source().is_none());
    }
}
