//! Typed service errors.
//!
//! Every rejection a client can see is a value, not a panic: the service
//! stays up no matter what a tenant submits, and overload answers carry a
//! deterministic back-off hint (virtual seconds) so a well-behaved client
//! can back off and succeed on the next attempt.
//!
//! All three retryable refusal shapes — [`ServeError::Overloaded`],
//! [`ServeError::Shed`], and [`ServeError::RecoveryExhausted`] — share one
//! [`Refusal`] payload constructed through [`Refusal::backoff`]. That is
//! deliberate: `is_retryable()` and `retry_after_secs()` are derived from
//! the shared payload, so adding a refusal variant cannot silently drift
//! the hint formula or the retryability contract (a CI grep gate rejects
//! hint construction outside this module).

use crate::slo::SloClass;

/// The shared payload of every retryable admission refusal: who was
/// refused and how long (in virtual seconds) a well-behaved client should
/// back off before retrying.
#[derive(Debug, Clone, PartialEq)]
pub struct Refusal {
    /// The tenant whose submission was refused.
    pub tenant: String,
    /// Deterministic back-off hint, virtual seconds.
    pub retry_after_secs: f64,
}

impl Refusal {
    /// The one back-off formula every refusal uses: one fair-share round
    /// per queued query ahead of this one — `(queued_ahead + 1) × quantum
    /// / effective_weight`. Centralized here so `Overloaded`, `Shed`, and
    /// `RecoveryExhausted` hints cannot drift apart.
    pub fn backoff(
        tenant: impl Into<String>,
        queued_ahead: usize,
        quantum_secs: f64,
        effective_weight: u64,
    ) -> Self {
        let retry_after_secs =
            (queued_ahead as f64 + 1.0) * quantum_secs / effective_weight.max(1) as f64;
        Self { tenant: tenant.into(), retry_after_secs }
    }
}

/// Any failure between a client submission and its result.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The tenant was never registered.
    UnknownTenant(String),
    /// The session id does not exist.
    UnknownSession(u64),
    /// Admission control refused the query: the tenant's queue (or the
    /// global in-flight bound) is full. The refusal's back-off hint
    /// estimates the virtual time until a slot frees up under fair-share
    /// scheduling.
    Overloaded(Refusal),
    /// The load-shedding controller refused the query: the service is
    /// past its high-water mark and this tenant's SLO class is being
    /// shed to protect higher-class goodput. Strictly class-ordered:
    /// `BestEffort` is shed before `Batch`; `Interactive` is never shed.
    Shed {
        /// Shared refusal payload (tenant + back-off hint).
        refusal: Refusal,
        /// The SLO class that was shed.
        class: SloClass,
    },
    /// The query failed to parse or plan — resubmitting the same text
    /// will fail the same way.
    Rejected(String),
    /// The query missed its tenant deadline and was aborted by the
    /// scheduler.
    DeadlineExceeded { tenant: String, deadline_secs: f64 },
    /// The engine reported an execution error.
    Exec(String),
    /// The query burned through its mid-query recovery budget (repeated
    /// permanent rank losses or blown stage deadlines). Retryable: the
    /// dead ranks are retired, so a resubmission re-plans onto the
    /// survivors from the start. The back-off hint covers the virtual
    /// time for the fault storm to settle, mirroring the
    /// [`Self::Overloaded`] refusal shape.
    RecoveryExhausted {
        /// Shared refusal payload (tenant + back-off hint).
        refusal: Refusal,
        /// Rollbacks consumed before the budget blew.
        attempts: u32,
    },
}

impl ServeError {
    /// The shared refusal payload, when this error is a retryable
    /// admission refusal. Single source of truth for
    /// [`Self::retry_after_secs`].
    pub fn refusal(&self) -> Option<&Refusal> {
        match self {
            ServeError::Overloaded(r)
            | ServeError::Shed { refusal: r, .. }
            | ServeError::RecoveryExhausted { refusal: r, .. } => Some(r),
            _ => None,
        }
    }

    /// Whether resubmitting the same query later can succeed.
    pub fn is_retryable(&self) -> bool {
        self.refusal().is_some() || matches!(self, ServeError::DeadlineExceeded { .. })
    }

    /// The back-off hint for refusal-shaped rejections (virtual seconds).
    pub fn retry_after_secs(&self) -> Option<f64> {
        self.refusal().map(|r| r.retry_after_secs)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServeError::UnknownSession(s) => write!(f, "unknown session #{s}"),
            ServeError::Overloaded(r) => {
                write!(
                    f,
                    "tenant {:?} overloaded; retry after {:.3}s",
                    r.tenant, r.retry_after_secs
                )
            }
            ServeError::Shed { refusal, class } => {
                write!(
                    f,
                    "tenant {:?} shed ({} class refused under overload); retry after {:.3}s",
                    refusal.tenant,
                    class.label(),
                    refusal.retry_after_secs
                )
            }
            ServeError::Rejected(m) => write!(f, "rejected: {m}"),
            ServeError::DeadlineExceeded { tenant, deadline_secs } => {
                write!(f, "tenant {tenant:?} deadline of {deadline_secs}s exceeded")
            }
            ServeError::Exec(m) => write!(f, "exec: {m}"),
            ServeError::RecoveryExhausted { refusal, attempts } => {
                write!(
                    f,
                    "tenant {:?} recovery budget exhausted after {attempts} rollbacks; \
                     retry after {:.3}s",
                    refusal.tenant, refusal.retry_after_secs
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_formula_is_shared_and_deterministic() {
        let r = Refusal::backoff("a", 3, 0.05, 2);
        assert!((r.retry_after_secs - 4.0 * 0.05 / 2.0).abs() < 1e-12);
        // Weight is clamped to ≥1 so the hint can never divide by zero.
        let r0 = Refusal::backoff("a", 0, 0.05, 0);
        assert!((r0.retry_after_secs - 0.05).abs() < 1e-12);
        // All three refusal variants expose the same payload.
        let payload = Refusal::backoff("a", 1, 0.1, 1);
        let variants = [
            ServeError::Overloaded(payload.clone()),
            ServeError::Shed { refusal: payload.clone(), class: SloClass::BestEffort },
            ServeError::RecoveryExhausted { refusal: payload.clone(), attempts: 2 },
        ];
        for v in &variants {
            assert!(v.is_retryable(), "{v}");
            assert_eq!(v.refusal(), Some(&payload));
            assert_eq!(v.retry_after_secs(), Some(payload.retry_after_secs));
        }
    }

    #[test]
    fn retryability_and_hints() {
        let over = ServeError::Overloaded(Refusal { tenant: "a".into(), retry_after_secs: 0.25 });
        assert!(over.is_retryable());
        assert_eq!(over.retry_after_secs(), Some(0.25));
        let rej = ServeError::Rejected("parse: nope".into());
        assert!(!rej.is_retryable());
        assert_eq!(rej.retry_after_secs(), None);
        assert!(
            ServeError::DeadlineExceeded { tenant: "a".into(), deadline_secs: 1.0 }.is_retryable()
        );
        let rec = ServeError::RecoveryExhausted {
            refusal: Refusal { tenant: "a".into(), retry_after_secs: 1.5 },
            attempts: 4,
        };
        assert!(rec.is_retryable(), "dead ranks are retired, so a resubmission can succeed");
        assert_eq!(rec.retry_after_secs(), Some(1.5));
        assert!(rec.to_string().contains("4 rollbacks") && rec.to_string().contains("1.500"));
    }

    #[test]
    fn display_is_informative() {
        let e = ServeError::Overloaded(Refusal { tenant: "chem".into(), retry_after_secs: 0.5 });
        assert!(e.to_string().contains("chem") && e.to_string().contains("0.500"));
        assert!(ServeError::UnknownSession(7).to_string().contains("#7"));
        let shed = ServeError::Shed {
            refusal: Refusal { tenant: "scv".into(), retry_after_secs: 0.125 },
            class: SloClass::BestEffort,
        };
        let msg = shed.to_string();
        assert!(msg.contains("scv") && msg.contains("best_effort") && msg.contains("0.125"));
    }
}
