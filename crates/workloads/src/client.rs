//! Workload-side clients for the query service: a retrying submitter
//! that honors back-off hints, and the open-loop driver that feeds a
//! pre-generated traffic schedule through a service on the virtual clock.
//!
//! The retry helper is the well-behaved-client half of the service's
//! refusal contract: every retryable refusal (`Overloaded`, `Shed`,
//! `RecoveryExhausted`) carries a deterministic `retry_after` hint, and
//! [`submit_with_retry`] waits it out *on the virtual clock* — draining
//! scheduler rounds while the service has work (so the wait is productive)
//! and charging idle time otherwise — with exponential, capped back-off
//! across attempts. Because waiting is just clock advancement in the
//! deterministic simulation, a shed-then-retried query returns bytes
//! identical to an uncontended run.

use crate::traffic::Arrival;
use ids_serve::{Completed, QueryId, QueryService, ServeError, SessionId};

/// Back-off policy for [`submit_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Submission attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Multiplier applied to the hint on each successive refusal.
    pub backoff_mult: f64,
    /// Cap on any single wait, virtual seconds.
    pub max_backoff_secs: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 8, backoff_mult: 2.0, max_backoff_secs: 5.0 }
    }
}

/// What a successful retried submission cost.
#[derive(Debug)]
pub struct RetryOutcome {
    /// The admitted query.
    pub query: QueryId,
    /// Total submission attempts (1 = admitted first try).
    pub attempts: u32,
    /// Virtual seconds spent backing off across all refusals.
    pub waited_secs: f64,
    /// Queries that completed while this client was waiting (the wait
    /// drains scheduler rounds; their completions would otherwise be
    /// silently dropped).
    pub completed_while_waiting: Vec<Completed>,
}

/// Submit `iql`, honoring refusal back-off hints with capped exponential
/// back-off on the virtual clock. Non-retryable errors (and refusals
/// without a hint, like deadline aborts) return immediately; exhausting
/// `max_attempts` returns the last refusal.
pub fn submit_with_retry(
    svc: &mut QueryService,
    session: SessionId,
    iql: &str,
    policy: &RetryPolicy,
) -> Result<RetryOutcome, ServeError> {
    let mut waited_secs = 0.0;
    let mut drained = Vec::new();
    let attempts_cap = policy.max_attempts.max(1);
    let mut attempt = 1;
    loop {
        match svc.submit(session, iql) {
            Ok(query) => {
                return Ok(RetryOutcome {
                    query,
                    attempts: attempt,
                    waited_secs,
                    completed_while_waiting: drained,
                });
            }
            Err(e) => {
                let Some(hint) = e.retry_after_secs() else { return Err(e) };
                if attempt == attempts_cap {
                    return Err(e);
                }
                let wait = (hint * policy.backoff_mult.max(1.0).powi(attempt as i32 - 1))
                    .min(policy.max_backoff_secs);
                waited_secs += wait;
                let target = svc.instance().cluster().elapsed() + wait;
                // Productive waiting: let the scheduler drain while the
                // clock runs toward the back-off target…
                while svc.queued() > 0 && svc.instance().cluster().elapsed() < target {
                    drained.extend(svc.run_round());
                }
                // …and burn any remainder as idle virtual time.
                let now = svc.instance().cluster().elapsed();
                if now < target {
                    svc.instance_mut().cluster_mut().charge_all(target - now);
                }
                attempt += 1;
            }
        }
    }
}

/// One refusal observed by the open-loop driver.
#[derive(Debug)]
pub struct RefusalEvent {
    /// Virtual time of the refused submission.
    pub at_secs: f64,
    /// Index of the arrival in the schedule.
    pub arrival: usize,
    /// Tenant index that was refused.
    pub tenant: usize,
    /// The typed refusal.
    pub error: ServeError,
}

/// Everything an open-loop run produced.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Completions, in completion order.
    pub completed: Vec<Completed>,
    /// Refused submissions, in arrival order.
    pub refused: Vec<RefusalEvent>,
    /// Virtual time when the run went idle.
    pub finished_at_secs: f64,
}

/// Drive a pre-generated arrival schedule through the service, open
/// loop: arrivals are submitted when the virtual clock reaches them
/// whether or not the service is keeping up — refused submissions are
/// recorded, never re-queued. `sessions[t]` must be an open session for
/// tenant index `t`; each arrival's query text is
/// `pool[query_draw % pool.len()]`. Schedule times are relative to the
/// clock at entry, so a service that already did warm-up work can be
/// driven without rebasing the schedule.
pub fn drive_open_loop(
    svc: &mut QueryService,
    arrivals: &[Arrival],
    sessions: &[SessionId],
    pool: &[String],
) -> OpenLoopReport {
    let t0 = svc.instance().cluster().elapsed();
    let mut completed = Vec::new();
    let mut refused = Vec::new();
    let mut next = 0;
    while next < arrivals.len() || svc.queued() > 0 {
        let now = svc.instance().cluster().elapsed();
        // Admit everything due by now, in schedule order.
        while next < arrivals.len() && t0 + arrivals[next].at_secs <= now {
            let a = &arrivals[next];
            let text = &pool[(a.query_draw % pool.len() as u64) as usize];
            if let Err(error) = svc.submit(sessions[a.tenant], text) {
                refused.push(RefusalEvent { at_secs: now, arrival: next, tenant: a.tenant, error });
            }
            next += 1;
        }
        if svc.queued() > 0 {
            completed.extend(svc.run_round());
        } else if next < arrivals.len() {
            // Idle with future arrivals: jump the clock to the next one.
            let gap = t0 + arrivals[next].at_secs - svc.instance().cluster().elapsed();
            if gap > 0.0 {
                svc.instance_mut().cluster_mut().charge_all(gap);
            } else {
                // Float round-off left the arrival un-due; run one
                // (idle) round so controllers tick rather than spinning.
                completed.extend(svc.run_round());
            }
        }
    }
    let finished_at_secs = svc.instance().cluster().elapsed();
    OpenLoopReport { completed, refused, finished_at_secs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, TrafficConfig};
    use ids_core::{IdsConfig, IdsInstance};
    use ids_graph::Term;
    use ids_serve::{ServeConfig, SloClass, TenantConfig};

    const Q_SCAN: &str = "SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }";
    const Q_JOIN: &str = "SELECT ?c ?p WHERE { ?c <inhibits> ?p . ?p <rdf:type> <up:Protein> . }";

    fn tiny_instance(seed: u64) -> IdsInstance {
        let inst = IdsInstance::launch(IdsConfig::laptop(2, seed));
        let ds = inst.datastore();
        for i in 0..8 {
            ds.add_fact(
                &Term::iri(format!("p:{i}")),
                &Term::iri("rdf:type"),
                &Term::iri("up:Protein"),
            );
            ds.add_fact(&Term::iri(format!("c:{i}")), &Term::iri("inhibits"), &Term::iri("p:0"));
        }
        ds.build_indexes();
        inst
    }

    fn raw_rows(c: &Completed) -> Vec<Vec<u64>> {
        let mut rows: Vec<Vec<u64>> = c
            .result
            .as_ref()
            .unwrap()
            .solutions
            .rows()
            .iter()
            .map(|r| r.iter().map(|t| t.raw()).collect())
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn shed_then_retried_query_matches_the_uncontended_run() {
        // Uncontended baseline: the scavenger runs alone.
        let mut solo = QueryService::new(tiny_instance(7), ServeConfig::default());
        solo.register_tenant(TenantConfig::new("scv").with_class(SloClass::BestEffort));
        let s = solo.open_session("scv").unwrap();
        solo.submit(s, Q_JOIN).unwrap();
        let baseline = raw_rows(&solo.run_until_idle()[0]);

        // Contended: a tiny global bound plus an Interactive backlog
        // pushes occupancy past the BestEffort high-water mark.
        let mut svc = QueryService::new(
            tiny_instance(7),
            ServeConfig { max_in_flight: 4, ..ServeConfig::default() },
        );
        svc.register_tenant(TenantConfig::new("human").with_max_queued(16));
        svc.register_tenant(TenantConfig::new("scv").with_class(SloClass::BestEffort));
        let h = svc.open_session("human").unwrap();
        let s = svc.open_session("scv").unwrap();
        svc.submit(h, Q_SCAN).unwrap();
        svc.submit(h, Q_SCAN).unwrap();
        // Direct submission is shed…
        let direct = svc.submit(s, Q_JOIN).unwrap_err();
        assert!(matches!(direct, ServeError::Shed { .. }), "{direct}");
        // …but the retrying client backs off on the virtual clock, the
        // backlog drains, and the retry is admitted.
        let outcome = submit_with_retry(&mut svc, s, Q_JOIN, &RetryPolicy::default())
            .unwrap_or_else(|e| panic!("retry must eventually admit: {e}"));
        assert!(outcome.attempts > 1, "first attempt was refused");
        assert!(outcome.waited_secs > 0.0);
        let mut done = svc.run_until_idle();
        done.extend(outcome.completed_while_waiting);
        let scv = done.iter().find(|c| c.tenant == "scv").expect("the retried query completes");
        assert_eq!(raw_rows(scv), baseline, "shed-then-retried bytes match uncontended run");
    }

    #[test]
    fn non_retryable_errors_return_immediately() {
        let mut svc = QueryService::new(tiny_instance(7), ServeConfig::default());
        svc.register_tenant(TenantConfig::new("a"));
        let s = svc.open_session("a").unwrap();
        let err = submit_with_retry(&mut svc, s, "SELECT", &RetryPolicy::default()).unwrap_err();
        assert!(matches!(err, ServeError::Rejected(_)), "{err}");
    }

    #[test]
    fn retry_attempts_are_bounded() {
        // One-slot service with a permanently full queue and a policy of
        // 3 attempts: the helper gives up with the final refusal.
        let mut svc = QueryService::new(
            tiny_instance(7),
            ServeConfig { max_in_flight: 1, ..ServeConfig::default() },
        );
        svc.register_tenant(TenantConfig::new("a").with_max_queued(1));
        svc.register_tenant(TenantConfig::new("b").with_class(SloClass::BestEffort));
        let a = svc.open_session("a").unwrap();
        let b = svc.open_session("b").unwrap();
        svc.submit(a, Q_SCAN).unwrap();
        // b's submissions are refused while a's query is queued — but the
        // wait itself drains the queue, so use a policy with zero room.
        let policy = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
        let err = submit_with_retry(&mut svc, b, Q_SCAN, &policy).unwrap_err();
        assert!(err.is_retryable(), "{err}");
    }

    #[test]
    fn open_loop_driver_submits_the_whole_schedule() {
        let cfg = TrafficConfig {
            tenants: 8,
            arrivals: 40,
            mean_interarrival_secs: 1.0e-4,
            ..TrafficConfig::default()
        };
        let arrivals = generate(&cfg);
        let mut svc = QueryService::new(
            tiny_instance(7),
            ServeConfig { quantum_secs: 1.0e-5, max_in_flight: 64, ..ServeConfig::default() },
        );
        let mut sessions = Vec::new();
        for t in 0..cfg.tenants {
            let name = format!("t{t:03}");
            svc.register_tenant(
                TenantConfig::new(&name)
                    .with_class(crate::traffic::class_of(&cfg, t))
                    .with_max_queued(32),
            );
            sessions.push(svc.open_session(&name).unwrap());
        }
        let pool = vec![Q_SCAN.to_string(), Q_JOIN.to_string()];
        let report = drive_open_loop(&mut svc, &arrivals, &sessions, &pool);
        assert_eq!(
            report.completed.len() + report.refused.len(),
            cfg.arrivals,
            "every arrival is accounted for exactly once"
        );
        assert!(report.completed.iter().all(|c| c.result.is_ok()));
        assert!(
            report.finished_at_secs >= arrivals.last().unwrap().at_secs,
            "the run covers the whole schedule"
        );
        assert_eq!(svc.queued(), 0);
    }
}
