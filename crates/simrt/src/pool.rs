//! The host-thread pool under [`crate::Cluster::execute`]: run one job
//! per logical shard on up to `available_parallelism()` OS threads and
//! hand the results back in shard order.
//!
//! The pool is resident: `available_parallelism() − 1` helper threads,
//! started by the first phase that can use them and parked on a condvar
//! between phases. The calling thread is worker 0. A phase publishes its
//! worker loop on the pool's board; helpers that wake while it is open run
//! it as workers 1, 2, …, and the phase closes by waiting for the helpers
//! that entered, and only those. Jobs borrow the caller's data: the
//! published loop is a lifetime-erased reference, sound because the phase
//! never returns or unwinds while a helper is inside it (`Pool::phase`).
//!
//! Each worker owns a *span* `[cur, end)` of unclaimed shards, packed into
//! one atomic word on a cache line of its own, and claims its next shard
//! with a compare-exchange on that word — no counter shared by every
//! claim. A worker whose span is empty steals the upper half of the
//! fullest span. Halving, not fixed chunks, is what keeps a block of slow
//! neighbouring shards (a few ranks of docking calls) spread over every
//! worker instead of queued behind the one whose chunk holds them.
//!
//! A worker keeps its results as contiguous runs `(first shard, results)`,
//! and after the phase the runs are concatenated by first shard. The
//! output order is therefore a property of the shard ids, never of the
//! schedule, and a job that depends only on its shard (and on data it
//! borrows read-only) yields the same bits on any number of threads.
//!
//! The calling thread starts alone, owning every shard, and wakes the
//! helpers — who begin by stealing — once the phase has run for
//! `WAKE_PATIENCE` (10 µs). A phase of a few microseconds — a small
//! query's scan on a handful of ranks — never touches the pool; a phase of
//! UDF calls gets every core after its first shard. A phase that finds the
//! pool busy (another thread's phase, or a phase nested inside a job) runs
//! alone, as with [`Fanout::One`], so a phase never waits for another.
//!
//! Panics follow the sequential loop. Once a job has panicked, shards at
//! or above the lowest panicking shard are skipped and shards below it
//! still run; after the phase that shard's payload is re-raised on the
//! caller. Every shard below it ran, so it is the panic a sequential loop
//! would have hit first.

use crate::sync::lock;
use std::any::Any;
use std::mem;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
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

/// The host's available parallelism (1 if it cannot be read), read once.
fn host_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

type Panic = Box<dyn Any + Send>;

/// How long a phase runs alone before it wakes the helpers: a condvar
/// wake round trip (≈ 7.6 µs on the 2-vCPU host), rounded up. Most of a
/// serving query's phases end sooner and never touch the pool; waking the
/// helpers on a phase's first shard cost `serve-mix` ≈ 15 % `setup_s`.
const WAKE_PATIENCE: Duration = Duration::from_micros(10);

/// A published worker loop: the helper given worker id `w` runs `job(w)`.
type Job = &'static (dyn Fn(usize) + Sync);

/// What the helpers read, under the pool's one mutex.
#[derive(Default)]
struct Board {
    /// The open phase's worker loop; `None` between phases and once its
    /// phase has closed, so a helper that wakes late joins nothing.
    job: Option<Job>,
    /// Bumped by every publish: a helper joins a phase at most once, and a
    /// closing phase tells its own helpers from a later phase's.
    epoch: u64,
    /// The next worker id to hand out; the open phase's ids run below
    /// `workers`.
    next: usize,
    workers: usize,
    /// Helpers inside a job now.
    inside: usize,
}

/// The board and the two condvars the helpers and phases meet on.
#[derive(Default)]
struct Shared {
    board: Mutex<Board>,
    /// Helpers park here between phases.
    wake: Condvar,
    /// A closing phase waits here for its last helper to leave.
    left: Condvar,
}

/// A set of resident helper threads. The process has one
/// ([`Pool::global`]); tests start private ones.
#[derive(Clone, Copy)]
struct Pool {
    shared: &'static Shared,
    helpers: usize,
}

/// The process's pool, once a phase has needed it.
static GLOBAL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// The process's pool: `available_parallelism() − 1` helpers, started
    /// on first use.
    fn global() -> Pool {
        *GLOBAL.get_or_init(|| Pool::start(host_workers() - 1))
    }

    /// Start up to `helpers` helper threads (fewer if the OS refuses one).
    /// They live as long as the process, parked while no phase is open.
    fn start(helpers: usize) -> Pool {
        let shared: &'static Shared = Box::leak(Box::default());
        let helpers = (1..=helpers)
            .map_while(|h| {
                thread::Builder::new()
                    .name(format!("ids-pool-{h}"))
                    .spawn(move || shared.serve())
                    .ok()
            })
            .count();
        Pool { shared, helpers }
    }

    /// Run `lead` on the calling thread as worker 0 of a phase whose other
    /// workers run `job(w)` for `w` in `1..workers`. `lead` calls the
    /// function it is given when the phase is worth waking helpers for;
    /// that publishes `job` unless the pool is busy. Returns, or unwinds,
    /// only once no helper is inside `job`.
    fn phase<R>(
        self,
        workers: usize,
        job: &(dyn Fn(usize) + Sync),
        lead: impl FnOnce(&mut dyn FnMut()) -> R,
    ) -> R {
        // SAFETY: only the lifetime changes; the fat pointer is the same.
        // Helpers reach `job` only through the board, and only while the
        // phase is open: the `Open` guard below is dropped before this
        // function returns or finishes unwinding, and its drop marks the
        // phase closed (no helper enters after that) and then waits under
        // the pool mutex until every helper that entered has left. `job`
        // is borrowed for the whole call, so it outlives every use.
        #[allow(unsafe_code)]
        let job = unsafe { mem::transmute::<&(dyn Fn(usize) + Sync), Job>(job) };
        let mut open: Option<Open> = None;
        let mut wake = || {
            if open.is_none() {
                open = self.shared.open(job, workers);
            }
        };
        lead(&mut wake)
    }
}

/// An open phase's hold on the pool. Dropping it, on return or unwind,
/// closes the phase and waits until none of its helpers is inside the job.
struct Open {
    shared: &'static Shared,
    epoch: u64,
}

impl Drop for Open {
    fn drop(&mut self) {
        let mut board = lock(&self.shared.board);
        board.job = None;
        // A later epoch means a later phase opened, which it can only do
        // once every helper of this one has left.
        while board.inside > 0 && board.epoch == self.epoch {
            board = self.shared.left.wait(board).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Shared {
    /// Publish `job` for worker ids `1..workers` and wake the helpers, or
    /// `None` if another phase holds the pool.
    fn open(&'static self, job: Job, workers: usize) -> Option<Open> {
        let mut board = lock(&self.board);
        if board.job.is_some() || board.inside > 0 {
            return None;
        }
        board.epoch += 1;
        board.job = Some(job);
        board.next = 1;
        board.workers = workers;
        let epoch = board.epoch;
        drop(board);
        self.wake.notify_all();
        Some(Open { shared: self, epoch })
    }

    /// A helper thread's life: park until a phase is open with a worker id
    /// left, run its loop, leave, park again. The loops a phase publishes
    /// catch their own panics, so a helper never dies.
    fn serve(&self) {
        let mut joined = 0;
        let mut board = lock(&self.board);
        loop {
            match board.job {
                Some(job) if board.epoch != joined && board.next < board.workers => {
                    joined = board.epoch;
                    let w = board.next;
                    board.next += 1;
                    board.inside += 1;
                    drop(board);
                    job(w);
                    board = lock(&self.board);
                    board.inside -= 1;
                    if board.inside == 0 {
                        self.left.notify_all();
                    }
                }
                _ => board = self.wake.wait(board).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// One worker's span of unclaimed shards `[cur, end)`, packed as
/// `cur << 32 | end`, alone on its cache line so the owner's claims do not
/// contend with the other workers' claims.
///
/// The words publish nothing — a shard id is the whole message, job
/// inputs were written before the phase opened and results travel
/// through the pool's mutexes — so every access is `Relaxed`. A span's word never
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

/// Where a helper leaves its runs and state, or the panic of its `init`.
type Slot<T, S> = Mutex<Option<thread::Result<(Runs<T>, S)>>>;

/// Run `job(state, s)` for every shard `s` in `0..shards` on up to
/// `available_parallelism()` threads ([`Fanout::Host`]) or the caller alone
/// ([`Fanout::One`]), and return the results in shard order, with one
/// piece of state per worker: worker `w` builds its state with `init(w)`
/// and passes it to every job it runs, so a job can reuse buffers (or
/// accumulate output) across the shards its worker claims. The states come
/// back in worker order; which worker ran which shard depends on the
/// schedule, so a job that writes into its state records where (for
/// instance its worker id and an offset) in its result.
///
/// For data-plane work that charges no virtual clock: a compute phase that
/// does goes through [`crate::Cluster::execute_with_state`].
///
/// # Panics
/// Re-raises the panic of the lowest-numbered shard whose job panicked,
/// or that of a helper's `init`. Panics if `shards` does not fit in a
/// `u32`.
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
    let pool = match fanout {
        Fanout::Host if host_workers() > 1 => Some(Pool::global()),
        _ => None,
    };
    map_shards_on(pool, shards, init, job)
}

/// [`map_shards_with`] on `pool`'s helpers and the caller, or on the
/// caller alone without a pool.
fn map_shards_on<S, T, I, F>(pool: Option<Pool>, shards: usize, init: I, job: F) -> (Vec<T>, Vec<S>)
where
    S: Send,
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let Ok(all) = u32::try_from(shards) else { panic!("{shards} shards exceed the u32 span") };
    let workers = pool.map_or(1, |p| p.helpers + 1).min(shards).max(1);
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
                let mut first = lock(&first_panic);
                if first.as_ref().is_none_or(|&(p, _)| s < p) {
                    *first = Some((s, payload));
                }
            }
        }
        true
    };
    // Helper `w`'s loop, leaving its runs and state (or its `init`'s
    // panic) in slot `w - 1`. It never unwinds: jobs panic inside
    // `run_one`'s `catch_unwind`, and `init` inside this one.
    let slots: Vec<Slot<T, S>> = (1..workers).map(|_| Mutex::new(None)).collect();
    let helper = |w: usize| {
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut state = init(w);
            let mut runs = Vec::new();
            while run_one(w, &mut state, &mut runs) {}
            (runs, state)
        }));
        *lock(&slots[w - 1]) = Some(ran);
    };
    let mut runs: Runs<T> = Vec::new();
    let mut states = vec![init(0)];
    let mut lead = |wake: &mut dyn FnMut()| {
        let start = Instant::now();
        let mut woken = workers == 1;
        while run_one(0, &mut states[0], &mut runs) {
            if !woken && start.elapsed() >= WAKE_PATIENCE {
                woken = true;
                wake();
            }
        }
    };
    match pool {
        Some(pool) if workers > 1 => pool.phase(workers, &helper, lead),
        _ => lead(&mut || {}),
    }
    // Helpers took ids in order, so the filled slots are a prefix.
    for slot in slots {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Ok((more, state))) => {
                runs.extend(more);
                states.push(state);
            }
            Some(Err(payload)) => panic::resume_unwind(payload),
            None => break,
        }
    }
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
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::thread::ThreadId;

    /// The pool without worker state: `job(s)` per shard, in shard order.
    fn run_shards<T: Send>(
        shards: usize,
        fanout: Fanout,
        job: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        map_shards_with(shards, fanout, |_| (), |_, s| job(s)).0
    }

    /// [`run_shards`] on a private pool (or the caller alone with `None`),
    /// so a test that needs a helper never competes for the process's
    /// pool with the cluster tests running beside it.
    fn run_on<T: Send>(
        pool: Option<Pool>,
        shards: usize,
        job: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        map_shards_on(pool, shards, |_| (), |_, s| job(s)).0
    }

    /// A private pool with one helper, on any host.
    fn private() -> Pool {
        let pool = Pool::start(1);
        assert_eq!(pool.helpers, 1, "the helper thread started");
        pool
    }

    /// Waits until `done` holds or `deadline` passes — one deadline per
    /// test, so a pool that never fans out fails in seconds, not hangs.
    fn wait_for(deadline: Instant, done: impl Fn() -> bool) {
        while !done() && Instant::now() < deadline {
            thread::yield_now();
        }
    }

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    /// Shard 0 of a test phase: outlast the wake patience, so the caller
    /// wakes the helpers as soon as it returns.
    fn outlast_patience() {
        thread::sleep(WAKE_PATIENCE * 2);
    }

    /// Waits until a helper has entered `pool`'s open phase.
    fn until_a_helper_entered(pool: Pool, deadline: Instant) {
        wait_for(deadline, || {
            let board = lock(&pool.shared.board);
            board.job.is_some() && board.next > 1
        });
    }

    #[test]
    fn results_come_back_in_shard_order() {
        let pool = private();
        for pool in [Some(pool), None] {
            for shards in [0, 1, 2, 3, 1000] {
                let end = deadline();
                let out = run_on(pool, shards, |s| {
                    match (s, pool) {
                        (0, _) => outlast_patience(),
                        (1, Some(pool)) => until_a_helper_entered(pool, end),
                        _ => {}
                    }
                    s * 3
                });
                assert_eq!(out, (0..shards).map(|s| s * 3).collect::<Vec<_>>());
            }
        }
        for fanout in [Fanout::Host, Fanout::One] {
            let out = run_shards(1000, fanout, |s| s * 3);
            assert_eq!(out, (0..1000).map(|s| s * 3).collect::<Vec<_>>(), "{fanout:?}");
        }
    }

    #[test]
    fn worker_states_collect_every_shard_once_and_results_say_where() {
        let pool = private();
        for pool in [Some(pool), None] {
            let end = deadline();
            let (out, states) = map_shards_on(
                pool,
                500,
                |w| (w, Vec::new()),
                |(w, seen): &mut (usize, Vec<usize>), s| {
                    match (s, pool) {
                        (0, _) => outlast_patience(),
                        (1, Some(pool)) => until_a_helper_entered(pool, end),
                        _ => {}
                    }
                    seen.push(s);
                    (*w, seen.len() - 1)
                },
            );
            assert_eq!(states.len(), if pool.is_some() { 2 } else { 1 });
            assert!(states.iter().enumerate().all(|(i, (w, _))| i == *w));
            for (s, &(w, at)) in out.iter().enumerate() {
                assert_eq!(states[w].1[at], s);
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
            thread::sleep(WAKE_PATIENCE / 4);
            assert_eq!(thread::current().id(), caller);
            lock(&seen).push(s);
        });
        assert_eq!(seen.into_inner().unwrap(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn one_host_worker_starts_no_helper_thread() {
        // Under `taskset -c 0` a phase long enough to wake helpers must
        // still run on the caller alone, without the process's pool.
        let caller = thread::current().id();
        let off_caller = AtomicBool::new(false);
        run_shards(256, Fanout::Host, |s| {
            if s == 0 {
                outlast_patience();
            }
            off_caller.fetch_or(thread::current().id() != caller, SeqCst);
        });
        if host_workers() == 1 {
            assert!(GLOBAL.get().is_none(), "one worker started the pool");
            assert!(!off_caller.into_inner(), "a shard ran off the caller");
        }
    }

    #[test]
    fn lowest_panicking_shard_surfaces_on_the_caller() {
        let pool = private();
        let end = deadline();
        let err = panic::catch_unwind(|| {
            run_on(Some(pool), 256, |s| {
                match s {
                    0 => outlast_patience(),
                    1 => until_a_helper_entered(pool, end),
                    _ => {}
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
    fn more_than_one_thread_runs_when_the_pool_has_a_helper() {
        // Every shard after the first holds its thread until a second
        // thread has run a shard too.
        let pool = private();
        let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let end = deadline();
        run_on(Some(pool), 8, |s| {
            if s == 0 {
                outlast_patience();
                return;
            }
            lock(&threads).insert(thread::current().id());
            wait_for(end, || lock(&threads).len() >= 2);
        });
        assert!(threads.into_inner().unwrap().len() >= 2, "the pool never left the caller");
    }

    #[test]
    fn a_block_of_slow_shards_after_many_cheap_ones_spreads_over_threads() {
        // Nine hundred and ninety cheap shards, then ten slow ones in a row
        // — the shape of an APPLY stage whose docking rows sit on a few
        // neighbouring ranks. The first slow shard outlasts the wake
        // patience, so the helper is awake by the time the rest of the
        // block runs; each later slow shard holds its thread until a
        // second thread has run one too, which a pool handing out the
        // block as one chunk never does.
        let pool = private();
        let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let end = deadline();
        run_on(Some(pool), 1000, |s| {
            if s == 990 {
                outlast_patience();
            } else if s > 990 {
                lock(&threads).insert(thread::current().id());
                wait_for(end, || lock(&threads).len() >= 2);
            }
        });
        assert!(threads.into_inner().unwrap().len() >= 2, "the slow block ran on one thread");
    }

    #[test]
    fn a_panic_in_a_stolen_range_surfaces_as_the_lowest_panicking_shard() {
        // The caller runs shard 0 past the wake patience, then waits inside
        // shard 1 until shard 1300 has panicked. The helper must therefore
        // steal the upper half of the caller's span, which holds both
        // panicking shards, and hit 1300 first; the caller's own shards
        // below it still run afterwards.
        let pool = private();
        let caller = thread::current().id();
        let panicked_on: Mutex<Option<ThreadId>> = Mutex::new(None);
        let end = deadline();
        let ran = Mutex::new(HashSet::new());
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            run_on(Some(pool), 2048, |s| {
                match s {
                    0 => outlast_patience(),
                    1 => wait_for(end, || lock(&panicked_on).is_some()),
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
        // Shards panic only off the calling thread; the caller's own
        // shards wait until one has, so the lowest panicking shard is a
        // helper's.
        let pool = private();
        let caller = thread::current().id();
        let helper_panicked = AtomicBool::new(false);
        let end = deadline();
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            run_on(Some(pool), 64, |s| {
                if s == 0 {
                    outlast_patience();
                } else if thread::current().id() != caller {
                    helper_panicked.store(true, SeqCst);
                    panic!("helper failed on shard {s}");
                } else {
                    wait_for(end, || helper_panicked.load(SeqCst));
                }
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("the job's own payload");
        assert!(msg.starts_with("helper failed on shard"), "{msg}");
    }

    #[test]
    fn no_helper_is_inside_a_job_once_its_phase_returns_or_unwinds() {
        // Every job reads data on the caller's stack and counts its entry
        // and, through a guard that also runs on unwind, its exit. The
        // helper's first shard is slow, so in the unwinding cases the
        // caller finishes its own loop while the helper is still inside.
        struct Exit<'a>(&'a AtomicUsize);
        impl Drop for Exit<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, SeqCst);
            }
        }
        let pool = private();
        let caller = thread::current().id();
        for case in ["returns", "init(0) panics", "a shard panics"] {
            let borrowed: Vec<usize> = (0..256).collect();
            let (entries, exits) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let helper_ran = AtomicBool::new(false);
            let end = deadline();
            let out = panic::catch_unwind(AssertUnwindSafe(|| {
                map_shards_on(
                    Some(pool),
                    256,
                    |w| assert!(!(w == 0 && case == "init(0) panics"), "init(0) failed"),
                    |_, s| {
                        entries.fetch_add(1, SeqCst);
                        let _exit = Exit(&exits);
                        if thread::current().id() != caller {
                            if !helper_ran.swap(true, SeqCst) {
                                thread::sleep(Duration::from_millis(20));
                            }
                        } else if s == 0 {
                            outlast_patience();
                        } else if s == 1 {
                            wait_for(end, || helper_ran.load(SeqCst));
                            assert!(case != "a shard panics", "shard 1 failed");
                        }
                        borrowed[s]
                    },
                )
                .0
            }));
            let settled = (entries.load(SeqCst), exits.load(SeqCst));
            assert_eq!(settled.0, settled.1, "{case}: a helper was still inside");
            match case {
                "returns" => assert_eq!(out.ok(), Some(borrowed.clone())),
                _ => assert!(out.is_err(), "{case}: the panic surfaced"),
            }
            drop(borrowed);
            // A helper that wakes late joins nothing.
            thread::sleep(Duration::from_millis(5));
            assert_eq!((entries.into_inner(), exits.into_inner()), settled, "{case}");
        }
    }

    #[test]
    fn a_helpers_init_panic_surfaces_and_the_next_phase_still_gets_helpers() {
        let pool = private();
        let end = deadline();
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            map_shards_on(
                Some(pool),
                64,
                |w| assert!(w == 0, "init({w}) failed"),
                |_, s| match s {
                    0 => outlast_patience(),
                    1 => until_a_helper_entered(pool, end),
                    _ => {}
                },
            )
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("init(1) failed"));
        let caller = thread::current().id();
        let off_caller = AtomicBool::new(false);
        run_on(Some(pool), 64, |s| {
            if s == 0 {
                outlast_patience();
            } else if thread::current().id() != caller {
                off_caller.store(true, SeqCst);
            } else {
                wait_for(end, || off_caller.load(SeqCst));
            }
        });
        assert!(off_caller.into_inner(), "the next phase ran on the caller alone");
    }

    #[test]
    fn a_phase_nested_inside_a_job_runs_on_its_caller() {
        // From shard 2 on, the outer phase holds the pool, so each nested
        // phase finds it busy and runs alone on the thread that called it
        // — long enough to try waking helpers, which must not block.
        let pool = private();
        let end = deadline();
        let out = run_on(Some(pool), 8, |s| {
            match s {
                0 => outlast_patience(),
                1 => until_a_helper_entered(pool, end),
                _ => {}
            }
            let me = thread::current().id();
            let inner = run_on(Some(pool), 100, |t| {
                if t == 0 {
                    outlast_patience();
                }
                (thread::current().id(), t)
            });
            if s >= 2 {
                assert!(inner.iter().all(|&(id, _)| id == me), "shard {s} left its caller");
            }
            inner.iter().map(|&(_, t)| t).sum::<usize>() + s
        });
        assert_eq!(out, (0..8).map(|s| 4950 + s).collect::<Vec<_>>());
    }

    #[test]
    fn two_threads_running_phases_at_once_both_get_shard_order_results() {
        // One pool, two callers: whichever finds it busy runs alone.
        let pool = private();
        let expected: Vec<usize> = (0..1000).map(|s| s * 3).collect();
        thread::scope(|scope| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..50 {
                            let out = run_on(Some(pool), 1000, |s| {
                                if s % 250 == 0 {
                                    thread::sleep(WAKE_PATIENCE);
                                }
                                s * 3
                            });
                            assert_eq!(out, expected);
                        }
                    })
                })
                .collect();
            for caller in callers {
                caller.join().unwrap();
            }
        });
    }
}
