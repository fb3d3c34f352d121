//! The host-thread pool under [`crate::Cluster::execute`]: run one job
//! per logical shard on up to `available_parallelism()` OS threads and
//! hand the results back in shard order.
//!
//! The pool is scoped (`std::thread::scope`), so jobs borrow the caller's
//! data, and the calling thread is one of the workers. Workers claim
//! shards one at a time from a shared counter — a dynamic schedule for
//! the skewed per-rank work of UDF stages — and each result lands in its
//! shard's slot. The output order is therefore a property of the shard
//! ids, never of the schedule, and a job that depends only on its shard
//! (and on data it borrows read-only) yields the same bits on any number
//! of threads.
//!
//! The calling thread starts alone and starts the other workers once the
//! phase has run for as long as starting and joining one thread costs
//! (measured once on this host). A phase of a few microseconds — a small
//! query's scan on a handful of ranks — never pays for threads it cannot
//! use; a phase of UDF calls gets every core after its first shard.
//!
//! A panicking job stops further claims. After the join, the panic of the
//! lowest-numbered shard that panicked is re-raised on the caller with its
//! original payload. Shards are claimed in increasing order, so every
//! lower shard had already been claimed and ran to completion: the panic
//! that surfaces is the one a sequential loop would have hit first.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How many host threads a compute phase may run its shards on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fanout {
    /// `available_parallelism()` threads, the caller included.
    #[default]
    Host,
    /// The calling thread alone, running shards in shard order. For
    /// phases whose jobs touch shared state whose outcome depends on call
    /// order (a stateful cache, a first-call charge): the same loop as
    /// [`Fanout::Host`] with one worker, not a second code path.
    One,
}

impl Fanout {
    /// Worker threads this fan-out stands for, the caller included.
    fn workers(self) -> usize {
        match self {
            Fanout::Host => host_workers(),
            Fanout::One => 1,
        }
    }
}

/// The host's available parallelism (1 if it cannot be read), read once.
fn host_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Lock a slot even if a panicking job poisoned it: a slot holds either
/// nothing or a finished result, never a half-written one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type Panic = Box<dyn Any + Send>;

/// What starting and joining one helper thread costs on this host: the
/// fastest of three tries, measured once.
fn spawn_cost() -> Duration {
    static COST: OnceLock<Duration> = OnceLock::new();
    *COST.get_or_init(|| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                thread::scope(|s| {
                    s.spawn(|| {});
                });
                t.elapsed()
            })
            .min()
            .unwrap_or_default()
    })
}

/// Run `job(s)` for every shard `s` in `0..shards` on up to
/// `fanout.workers()` threads and return the results in shard order.
///
/// # Panics
/// Re-raises the panic of the lowest-numbered shard whose job panicked.
pub(crate) fn run_shards<T, F>(shards: usize, fanout: Fanout, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..shards).map(|_| Mutex::new(None)).collect();
    // Both atomics publish nothing: results travel through the slots'
    // mutexes and the scope's join, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_panic: Mutex<Option<(usize, Panic)>> = Mutex::new(None);
    // Claim and run one shard; false once there is nothing left to run.
    let run_one = || {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        let s = next.fetch_add(1, Ordering::Relaxed);
        if s >= shards {
            return false;
        }
        match panic::catch_unwind(AssertUnwindSafe(|| job(s))) {
            Ok(out) => *lock(&slots[s]) = Some(out),
            Err(payload) => {
                stop.store(true, Ordering::Relaxed);
                let mut first = lock(&first_panic);
                if first.as_ref().is_none_or(|&(p, _)| s < p) {
                    *first = Some((s, payload));
                }
            }
        }
        true
    };
    let workers = fanout.workers().min(shards);
    let patience = if workers > 1 { spawn_cost() } else { Duration::ZERO };
    thread::scope(|scope| {
        let start = Instant::now();
        let mut running = 1;
        while run_one() {
            if running < workers && start.elapsed() >= patience {
                for _ in running..workers {
                    scope.spawn(|| while run_one() {});
                }
                running = workers;
            }
        }
    });
    if let Some((_, payload)) = first_panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }
    // A fresh vector, not `slots.into_iter().map(..).collect()`: that
    // collect reuses the slot buffer in place for the narrower results,
    // and measured on 2 048 ranks it doubled the process's peak RSS.
    let mut out = Vec::with_capacity(shards);
    for slot in slots {
        let result = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
        out.push(result.expect("no job panicked, so every shard was claimed and ran"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    #[test]
    fn results_come_back_in_shard_order() {
        for fanout in [Fanout::Host, Fanout::One] {
            let out = run_shards(1000, fanout, |s| {
                if s == 0 {
                    // Outlast one spawn so the helpers start.
                    thread::sleep(spawn_cost() * 2);
                }
                s * 3
            });
            assert_eq!(out, (0..1000).map(|s| s * 3).collect::<Vec<_>>());
        }
        assert!(run_shards(0, Fanout::Host, |s| s).is_empty());
    }

    #[test]
    fn one_worker_runs_every_shard_in_order_on_the_caller() {
        let caller = thread::current().id();
        let seen = Mutex::new(Vec::new());
        run_shards(64, Fanout::One, |s| {
            assert_eq!(thread::current().id(), caller);
            lock(&seen).push(s);
        });
        assert_eq!(seen.into_inner().unwrap(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn lowest_panicking_shard_surfaces_on_the_caller() {
        let err = panic::catch_unwind(|| {
            run_shards(256, Fanout::Host, |s| {
                if s == 0 {
                    // Outlast one spawn so the helpers start.
                    thread::sleep(spawn_cost() * 2);
                }
                if s % 50 == 17 {
                    panic!("shard {s} failed");
                }
                s
            })
        })
        .unwrap_err();
        assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("shard 17 failed"));
    }

    /// Waits until `done` holds or `deadline` passes — one deadline per
    /// test, so a pool that never fans out fails in seconds, not hangs.
    fn wait_for(deadline: Instant, done: impl Fn() -> bool) {
        while !done() && Instant::now() < deadline {
            thread::yield_now();
        }
    }

    #[test]
    fn more_than_one_thread_runs_when_the_host_has_cores() {
        if host_workers() < 2 {
            return;
        }
        // Every shard after the first holds its thread until a second
        // thread has run a shard too.
        let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        run_shards(host_workers() * 4, Fanout::Host, |s| {
            if s == 0 {
                // Outlast one spawn so the helpers start once it returns.
                thread::sleep(spawn_cost() * 2);
                return;
            }
            lock(&threads).insert(thread::current().id());
            wait_for(deadline, || lock(&threads).len() >= 2);
        });
        assert!(threads.into_inner().unwrap().len() >= 2, "the pool never left the caller");
    }

    #[test]
    fn a_helper_threads_panic_is_raised_on_the_caller() {
        if host_workers() < 2 {
            return;
        }
        // Shards panic only off the calling thread; the caller's own
        // shards wait until one has, so the lowest panicking shard is a
        // helper's.
        let caller = thread::current().id();
        let helper_panicked = AtomicBool::new(false);
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            run_shards(64, Fanout::Host, |s| {
                if s == 0 {
                    thread::sleep(spawn_cost() * 2);
                } else if thread::current().id() != caller {
                    helper_panicked.store(true, Ordering::SeqCst);
                    panic!("helper failed on shard {s}");
                } else {
                    wait_for(deadline, || helper_panicked.load(Ordering::SeqCst));
                }
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("the job's own payload");
        assert!(msg.starts_with("helper failed on shard"), "{msg}");
    }
}
