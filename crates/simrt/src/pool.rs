//! The host-thread pool under [`crate::Cluster::execute`]: run one job
//! per logical shard on up to `available_parallelism()` OS threads and
//! hand the results back in shard order.
//!
//! The pool is scoped (`std::thread::scope`), so jobs borrow the caller's
//! data, and the calling thread is one of the workers. Each worker owns a
//! *span* `[cur, end)` of unclaimed shards, packed into one atomic word on
//! a cache line of its own, and claims its next shard with a
//! compare-exchange on that word — no counter shared by every claim. A
//! worker whose span is empty steals the upper half of the fullest span.
//! Halving, not fixed chunks, is what keeps a block of slow neighbouring
//! shards (a few ranks of docking calls) spread over every worker instead
//! of queued behind the one whose chunk holds them.
//!
//! A worker keeps its results as contiguous runs `(first shard, results)`,
//! and after the join the runs are concatenated by first shard. The output
//! order is therefore a property of the shard ids, never of the schedule,
//! and a job that depends only on its shard (and on data it borrows
//! read-only) yields the same bits on any number of threads.
//!
//! The calling thread starts alone, owning every shard, and starts the
//! other workers — who begin by stealing — once the phase has run for as
//! long as starting and joining one thread costs (measured once on this
//! host). A phase of a few microseconds — a small query's scan on a
//! handful of ranks — never pays for threads it cannot use; a phase of UDF
//! calls gets every core after its first shard.
//!
//! Panics follow the sequential loop. Once a job has panicked, shards at
//! or above the lowest panicking shard are skipped and shards below it
//! still run; after the join that shard's payload is re-raised on the
//! caller. Every shard below it ran, so it is the panic a sequential loop
//! would have hit first.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock, PoisonError};
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

/// One worker's span of unclaimed shards `[cur, end)`, packed as
/// `cur << 32 | end`, alone on its cache line so the owner's claims do not
/// contend with the other workers' claims.
///
/// The words publish nothing — a shard id is the whole message, job
/// inputs were written before the scope started and results travel
/// through the join — so every access is `Relaxed`. A span's word never
/// takes a value twice: its `cur` is always a shard not yet claimed, and
/// each shard is claimed once, so a compare-exchange against a stale
/// reading always fails.
#[repr(align(64))]
struct Span(AtomicU64);

fn pack(cur: u32, end: u32) -> u64 {
    u64::from(cur) << 32 | u64::from(end)
}

fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// Claim worker `w`'s next shard: the head of its own span, else — by
/// stealing — the first shard of the upper half of the fullest other span,
/// whose rest becomes `w`'s span. Returns the shard and the end of the span
/// it came from; `None` once every span is empty. Shards a thief has taken
/// but not yet published are the thief's to run.
fn claim(spans: &[Span], w: usize) -> Option<(usize, usize)> {
    let own = &spans[w].0;
    let mut word = own.load(Relaxed);
    loop {
        let (cur, end) = unpack(word);
        if cur >= end {
            break;
        }
        match own.compare_exchange_weak(word, pack(cur + 1, end), Relaxed, Relaxed) {
            Ok(_) => return Some((cur as usize, end as usize)),
            Err(now) => word = now,
        }
    }
    loop {
        let (victim, word) = spans
            .iter()
            .enumerate()
            .filter(|&(v, _)| v != w)
            .map(|(v, span)| (v, span.0.load(Relaxed)))
            .max_by_key(|&(_, word)| {
                let (cur, end) = unpack(word);
                end.saturating_sub(cur)
            })?;
        let (cur, end) = unpack(word);
        if cur >= end {
            return None;
        }
        let mid = cur + (end - cur) / 2;
        if spans[victim].0.compare_exchange(word, pack(cur, mid), Relaxed, Relaxed).is_ok() {
            // Nobody writes an empty span but its owner.
            own.store(pack(mid + 1, end), Relaxed);
            return Some((mid as usize, end as usize));
        }
    }
}

/// A worker's results: runs of consecutive shards, each with its first
/// shard id.
type Runs<T> = Vec<(usize, Vec<T>)>;

/// Run `job(state, s)` for every shard `s` in `0..shards` on up to
/// `fanout.workers()` threads and return the results in shard order,
/// with one piece of state per worker: worker `w` builds its state with
/// `init(w)` and passes it to every job it runs, so a job can reuse
/// buffers (or accumulate output) across the shards its worker claims.
/// The states come back in worker order; which worker ran which shard
/// depends on the schedule, so a job that writes into its state records
/// where (for instance its worker id and an offset) in its result.
///
/// For data-plane work that charges no virtual clock: a compute phase that
/// does goes through [`crate::Cluster::execute_with_state`].
///
/// # Panics
/// Re-raises the panic of the lowest-numbered shard whose job panicked.
/// Panics if `shards` does not fit in a `u32`.
pub fn map_shards_with<S, T, I, F>(
    shards: usize,
    fanout: Fanout,
    init: I,
    job: F,
) -> (Vec<T>, Vec<S>)
where
    S: Send,
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let Ok(all) = u32::try_from(shards) else { panic!("{shards} shards exceed the u32 span") };
    let workers = fanout.workers().min(shards).max(1);
    let spans: Vec<Span> = (0..workers).map(|_| Span(AtomicU64::new(0))).collect();
    spans[0].0.store(pack(0, all), Relaxed);
    // The lowest shard that has panicked so far; shards at or above it are
    // skipped. `Relaxed`: a stale, higher reading only runs a shard that
    // could have been skipped, and never skips one below the final value.
    let lowest_panic = AtomicUsize::new(usize::MAX);
    let first_panic: Mutex<Option<(usize, Panic)>> = Mutex::new(None);
    // Claim and run worker `w`'s next shard; false once nothing is left.
    let run_one = |w: usize, state: &mut S, runs: &mut Runs<T>| {
        let Some((s, end)) = claim(&spans, w) else { return false };
        if s >= lowest_panic.load(Relaxed) {
            return true;
        }
        match panic::catch_unwind(AssertUnwindSafe(|| job(state, s))) {
            Ok(out) => match runs.last_mut() {
                Some((start, run)) if *start + run.len() == s => run.push(out),
                _ => {
                    // Room for the rest of the span: the caller's first run
                    // can hold every shard, so the output reuses it.
                    let mut run = Vec::with_capacity(end - s);
                    run.push(out);
                    runs.push((s, run));
                }
            },
            Err(payload) => {
                lowest_panic.fetch_min(s, Relaxed);
                let mut first = first_panic.lock().unwrap_or_else(PoisonError::into_inner);
                if first.as_ref().is_none_or(|&(p, _)| s < p) {
                    *first = Some((s, payload));
                }
            }
        }
        true
    };
    let patience = if workers > 1 { spawn_cost() } else { Duration::ZERO };
    let mut runs: Runs<T> = Vec::new();
    let mut states = vec![init(0)];
    thread::scope(|scope| {
        let start = Instant::now();
        let mut helpers = Vec::new();
        while run_one(0, &mut states[0], &mut runs) {
            if helpers.len() + 1 < workers && start.elapsed() >= patience {
                let (run_one, init) = (&run_one, &init);
                helpers = (1..workers)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut state = init(w);
                            let mut runs = Vec::new();
                            while run_one(w, &mut state, &mut runs) {}
                            (runs, state)
                        })
                    })
                    .collect();
            }
        }
        for helper in helpers {
            // Jobs panic inside `catch_unwind`; anything else is re-raised.
            let (more, state) =
                helper.join().unwrap_or_else(|payload| panic::resume_unwind(payload));
            runs.extend(more);
            states.push(state);
        }
    });
    if let Some((_, payload)) = first_panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }
    runs.sort_unstable_by_key(|&(start, _)| start);
    let mut out: Vec<T> = Vec::new();
    for (start, run) in runs {
        assert_eq!(start, out.len(), "result runs tile the shards");
        if out.is_empty() {
            out = run;
        } else {
            out.extend(run);
        }
    }
    assert_eq!(out.len(), shards, "every shard ran exactly once");
    (out, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::MutexGuard;
    use std::thread::ThreadId;

    /// The pool without worker state: `job(s)` per shard, in shard order.
    fn run_shards<T: Send>(
        shards: usize,
        fanout: Fanout,
        job: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        map_shards_with(shards, fanout, |_| (), |_, s| job(s)).0
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until `done` holds or `deadline` passes — one deadline per
    /// test, so a pool that never fans out fails in seconds, not hangs.
    fn wait_for(deadline: Instant, done: impl Fn() -> bool) {
        while !done() && Instant::now() < deadline {
            thread::yield_now();
        }
    }

    #[test]
    fn results_come_back_in_shard_order() {
        for fanout in [Fanout::Host, Fanout::One] {
            for shards in [0, 1, 2, 3, 1000] {
                let out = run_shards(shards, fanout, |s| {
                    if s == 0 {
                        // Outlast one spawn so the helpers start.
                        thread::sleep(spawn_cost() * 2);
                    }
                    s * 3
                });
                assert_eq!(out, (0..shards).map(|s| s * 3).collect::<Vec<_>>(), "{fanout:?}");
            }
        }
    }

    #[test]
    fn worker_states_collect_every_shard_once_and_results_say_where() {
        for fanout in [Fanout::Host, Fanout::One] {
            let (out, states) = map_shards_with(
                500,
                fanout,
                |w| (w, Vec::new()),
                |(w, seen): &mut (usize, Vec<usize>), s| {
                    if s == 0 {
                        thread::sleep(spawn_cost() * 2);
                    }
                    seen.push(s);
                    (*w, seen.len() - 1)
                },
            );
            assert!(states.iter().enumerate().all(|(i, (w, _))| i == *w), "{fanout:?}");
            for (s, &(w, at)) in out.iter().enumerate() {
                assert_eq!(states[w].1[at], s, "{fanout:?}");
            }
            assert_eq!(states.iter().map(|(_, seen)| seen.len()).sum::<usize>(), 500);
        }
    }

    fn spans(words: &[(u32, u32)]) -> Vec<Span> {
        words.iter().map(|&(cur, end)| Span(AtomicU64::new(pack(cur, end)))).collect()
    }

    fn span_of(spans: &[Span], w: usize) -> (u32, u32) {
        unpack(spans[w].0.load(Relaxed))
    }

    #[test]
    fn a_span_packs_into_one_word_and_back() {
        for span in [(0, 0), (3, 1000), (0, u32::MAX), (u32::MAX, u32::MAX)] {
            assert_eq!(unpack(pack(span.0, span.1)), span);
        }
    }

    #[test]
    fn claim_takes_its_own_head_then_steals_the_upper_half_of_the_fullest_span() {
        let sp = spans(&[(0, 10), (0, 0), (10, 14)]);
        assert_eq!(claim(&sp, 0), Some((0, 10)));
        assert_eq!(span_of(&sp, 0), (1, 10));
        // Worker 1 is empty; worker 0's nine shards outnumber worker 2's
        // four, so worker 1 takes 5..10, runs 5 and keeps 6..10.
        assert_eq!(claim(&sp, 1), Some((5, 10)));
        assert_eq!((span_of(&sp, 0), span_of(&sp, 1)), ((1, 5), (6, 10)));
        assert_eq!(claim(&sp, 1), Some((6, 10)));
        assert_eq!(claim(&sp, 2), Some((10, 14)));
    }

    #[test]
    fn round_robin_claims_hand_out_every_shard_once_then_none() {
        let sp = spans(&[(0, 1000), (0, 0), (0, 0)]);
        let mut seen = vec![0u32; 1000];
        for w in (0..3).cycle() {
            match claim(&sp, w) {
                Some((s, end)) => {
                    assert!(s < end && end <= 1000, "shard {s} of a span ending at {end}");
                    seen[s] += 1;
                }
                None => break,
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "every shard claimed exactly once");
        assert!((0..3).all(|w| claim(&sp, w).is_none()));
    }

    #[test]
    #[should_panic(expected = "exceed the u32 span")]
    fn more_shards_than_a_span_holds_are_refused() {
        run_shards(u32::MAX as usize + 1, Fanout::One, |s| s);
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
    fn a_block_of_slow_shards_after_many_cheap_ones_spreads_over_threads() {
        if host_workers() < 2 {
            return;
        }
        // Nine hundred and ninety cheap shards, then ten slow ones in a row
        // — the shape of an APPLY stage whose docking rows sit on a few
        // neighbouring ranks. The first slow shard outlasts a spawn, so the
        // helpers start while the caller owns the rest of the block; each
        // later slow shard holds its thread until a second thread has run
        // one too, which a pool handing out the block as one chunk never
        // does.
        let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        run_shards(1000, Fanout::Host, |s| {
            if s == 990 {
                thread::sleep(spawn_cost() * 2);
            } else if s > 990 {
                lock(&threads).insert(thread::current().id());
                wait_for(deadline, || lock(&threads).len() >= 2);
            }
        });
        assert!(threads.into_inner().unwrap().len() >= 2, "the slow block ran on one thread");
    }

    #[test]
    fn a_panic_in_a_stolen_range_surfaces_as_the_lowest_panicking_shard() {
        if host_workers() < 2 {
            return;
        }
        // The caller runs shard 0 long enough for the helpers to start,
        // then waits inside shard 1 until shard 1300 has panicked. A helper
        // must therefore steal the upper half of the caller's span, which
        // holds both panicking shards, and hit 1300 first; the caller's
        // own shards below it still run afterwards.
        let caller = thread::current().id();
        let panicked_on: Mutex<Option<ThreadId>> = Mutex::new(None);
        let deadline = Instant::now() + Duration::from_secs(10);
        let ran = Mutex::new(HashSet::new());
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            run_shards(2048, Fanout::Host, |s| {
                match s {
                    0 => thread::sleep(spawn_cost() * 2),
                    1 => wait_for(deadline, || lock(&panicked_on).is_some()),
                    1300 => {
                        *lock(&panicked_on) = Some(thread::current().id());
                        panic!("shard {s} failed");
                    }
                    1700 => panic!("shard {s} failed"),
                    _ => {}
                }
                lock(&ran).insert(s);
            })
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("shard 1300 failed"));
        assert_ne!(*lock(&panicked_on), Some(caller), "shard 1300 ran in a stolen range");
        let ran = ran.into_inner().unwrap();
        assert!((0..1300).all(|s| ran.contains(&s)), "every shard below the panic ran");
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
