//! The work-stealing thread pool behind the rayon-compatible surface.
//!
//! One process-global pool, spawned lazily on first parallel use. Each
//! worker owns a chunk deque (`Mutex<VecDeque<Entry>>`); an [`Entry`] is
//! a *range* of chunk indices into one region's payload table, so
//! steal-half is a constant-time range split and never copies work
//! items. Workers pop from the front of their own deque, re-queue the
//! remainder of a popped range, and steal the far half of another
//! worker's front entry when idle. Idle workers park on a condvar with a
//! timeout backstop, so a missed wakeup costs latency, never progress.
//!
//! A parallel region is driven by the thread that called into the shim
//! (see [`run`]): it deals one contiguous range to each worker and puts
//! the first range, its own share, at the front of its *home* deque —
//! its own deque if it is a pool worker, else one deque shared by every
//! thread outside the pool. It then takes its chunks one at a time from
//! the front of that entry, so an idle worker can steal the far half of
//! the driver's share just like any worker's; this is what balances a
//! region whose work piles up in its first chunks. Once its entry is
//! gone, the driver *sweeps* the deques for any of its own unclaimed
//! entries before blocking on the region's completion latch. The sweep
//! is what makes nested regions deadlock-free: a driver never waits on a
//! chunk that no running thread has claimed — it takes the chunk back
//! and runs it itself.
//!
//! A panic inside a chunk is caught per-chunk, poisons the region
//! (remaining chunk bodies are skipped), and is re-thrown on the driver
//! thread once the region completes — so `lotus-resilience`'s
//! `catch_unwind` isolation still surfaces it as a `PhasePanic`, and the
//! workers themselves survive for the next region.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use lotus_telemetry::counters::{self, Counter};

/// Upper bound on pool worker threads (executors = workers + driver).
const MAX_WORKERS: usize = 63;

/// How long a parked worker sleeps before re-checking for work. A pure
/// backstop: pushes notify the condvar, so this only bounds the cost of
/// a lost wakeup.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// How long a driver waits on the completion latch between sweeps.
const DRIVER_WAIT: Duration = Duration::from_millis(1);

/// Index of the home deque shared by drivers outside the pool; each
/// such driver takes only its own region's entries from it.
const SHARED: usize = MAX_WORKERS;

/// Requested thread count; 0 means "use the host's core count".
static LIMIT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home deque: its worker index inside the pool,
    /// [`SHARED`] anywhere else.
    static HOME: Cell<usize> = const { Cell::new(SHARED) };
}

/// Locks a mutex, recovering the guard if a panicking thread poisoned
/// it (the pool's shared state stays consistent under per-chunk
/// `catch_unwind`, so poisoning carries no information here).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The host's available parallelism, read once: the query reads cgroup
/// files on Linux, and this is consulted on every terminal and every
/// worker-loop turn.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The number of logical executors parallel work may use right now:
/// the configured limit, or the host's core count when no limit is set.
/// Always at least 1 (the calling thread).
pub(crate) fn effective_threads() -> usize {
    match LIMIT.load(Ordering::Acquire) {
        0 => host_cores(),
        n => n,
    }
}

/// Sets the process-wide thread limit. `0` restores the default: the
/// host's available parallelism, read once per process. Counts above
/// the host's core count are honored (oversubscription), which keeps
/// multi-threaded code paths testable on single-core machines.
pub fn configure_threads(n: usize) {
    LIMIT.store(n.min(MAX_WORKERS + 1), Ordering::Release);
    if n > 1 {
        ensure_workers(n - 1);
        wake_all();
    }
}

/// Runs `op` with the thread limit set to `n`, restoring the previous
/// limit afterwards (panic-safe). Backs `ThreadPool::install`.
pub(crate) fn install_limit<R>(n: usize, op: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LIMIT.store(self.0, Ordering::Release);
        }
    }
    let _restore = Restore(LIMIT.load(Ordering::Acquire));
    configure_threads(n);
    op()
}

/// One schedulable unit: chunks `lo..hi` of the region behind `state`.
#[derive(Clone, Copy)]
struct Entry {
    /// Type-erased pointer to the driver's stack-held `RegionState`.
    state: *const (),
    /// Monomorphized executor for one chunk of that region.
    // SAFETY: the pointer is only ever called with this entry's own
    // `state`, satisfying `exec_chunk`'s contract (see the `Send`
    // justification below for why the region outlives the entry).
    exec: unsafe fn(*const (), u32),
    lo: u32,
    hi: u32,
}

// SAFETY: `state` points into the driving thread's stack frame, which
// outlives every Entry referring to it: `run` does not return until the
// region's completion latch (set under `done`'s mutex by the thread that
// executes the last chunk) has been observed, and an Entry exists in a
// deque only while its chunks are unexecuted — every pop either runs the
// chunks or re-queues the remainder, and the driver's sweep reclaims
// stranded entries before each latch wait.
unsafe impl Send for Entry {}

/// The process-global pool: per-worker deques plus the park/wake state.
struct Pool {
    /// One deque per worker, then the [`SHARED`] home of outside drivers.
    deques: Vec<Mutex<VecDeque<Entry>>>,
    /// Count of currently parked workers, guarded with the wake condvar.
    sleep: Mutex<usize>,
    wake: Condvar,
    /// Entries sitting in deques; parking predicate only (a stale zero
    /// is corrected by the park timeout).
    pending: AtomicUsize,
    /// How many worker threads have been spawned so far.
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        deques: (0..=MAX_WORKERS)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect(),
        sleep: Mutex::new(0),
        wake: Condvar::new(),
        pending: AtomicUsize::new(0),
        spawned: Mutex::new(0),
    })
}

/// Spawns workers until at least `k` exist (capped at [`MAX_WORKERS`]).
/// A failed spawn is tolerated: entries dealt to a missing worker are
/// reclaimed by the driver's sweep.
fn ensure_workers(k: usize) {
    let p = pool();
    let mut spawned = lock(&p.spawned);
    while *spawned < k.min(MAX_WORKERS) {
        let me = *spawned;
        let ok = std::thread::Builder::new()
            .name(format!("lotus-par-{me}"))
            .spawn(move || worker_loop(me))
            .is_ok();
        if !ok {
            break;
        }
        *spawned += 1;
    }
}

/// Wakes every parked worker (after a limit change or a push).
fn wake_all() {
    let p = pool();
    let sleepers = lock(&p.sleep);
    if *sleepers > 0 {
        p.wake.notify_all();
    }
}

fn worker_loop(me: usize) {
    HOME.with(|h| h.set(me));
    let p = pool();
    loop {
        // Workers beyond the active limit park until reconfigured.
        let active = me + 1 < effective_threads();
        if active {
            if let Some(e) = pop_own(p, me) {
                process(p, me, e);
                continue;
            }
            if let Some(e) = steal(p, me) {
                counters::add(Counter::PoolSteals, 1);
                process(p, me, e);
                continue;
            }
        }
        park(p, active);
    }
}

/// Parks until woken or the timeout backstop fires. An active worker
/// re-checks `pending` under the lock so a push cannot slip between its
/// last empty scan and the wait.
fn park(p: &Pool, active: bool) {
    let mut sleepers = lock(&p.sleep);
    if active && p.pending.load(Ordering::Acquire) > 0 {
        return;
    }
    *sleepers += 1;
    counters::add(Counter::PoolParks, 1);
    let (mut sleepers, _) = p
        .wake
        .wait_timeout(sleepers, PARK_TIMEOUT)
        .unwrap_or_else(PoisonError::into_inner);
    *sleepers = sleepers.saturating_sub(1);
}

fn pop_own(p: &Pool, me: usize) -> Option<Entry> {
    let e = lock(&p.deques[me]).pop_front();
    if e.is_some() {
        p.pending.fetch_sub(1, Ordering::AcqRel);
    }
    e
}

/// Steals the far half of another deque's front entry (or the whole
/// entry if it holds a single chunk); the shared driver deque is a
/// victim like any worker's.
fn steal(p: &Pool, me: usize) -> Option<Entry> {
    let n = p.deques.len();
    for k in 1..n {
        let victim = (me + k) % n;
        let mut dq = lock(&p.deques[victim]);
        let Some(front) = dq.front_mut() else {
            continue;
        };
        if front.hi - front.lo > 1 {
            let mid = front.lo + (front.hi - front.lo) / 2;
            let stolen = Entry { lo: mid, ..*front };
            front.hi = mid;
            return Some(stolen);
        }
        let e = *front;
        dq.pop_front();
        p.pending.fetch_sub(1, Ordering::AcqRel);
        return Some(e);
    }
    None
}

/// Executes the first chunk of `e`, re-queueing the remainder so idle
/// workers can steal it.
fn process(p: &Pool, me: usize, e: Entry) {
    if e.hi - e.lo > 1 {
        lock(&p.deques[me]).push_front(Entry { lo: e.lo + 1, ..e });
        p.pending.fetch_add(1, Ordering::AcqRel);
        wake_all();
    }
    counters::add(Counter::PoolTasks, 1);
    // SAFETY: the entry came from a deque, so its region is still live
    // (see the `Send` justification on `Entry`).
    unsafe { (e.exec)(e.state, e.lo) };
}

/// Shared state of one in-flight parallel region, owned by the driving
/// thread's stack frame.
struct RegionState<T, R, F> {
    /// Take-once payload per chunk.
    payloads: Vec<Mutex<Option<T>>>,
    results: Mutex<Vec<(u32, R)>>,
    f: F,
    /// Chunks not yet executed (or skipped); the completion latch arms
    /// when this reaches zero.
    remaining: AtomicUsize,
    /// Set on the first panic; later chunk bodies are skipped.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion flag, written under its mutex by whichever thread
    /// executes the last chunk — the only signal the driver trusts, so
    /// the region state cannot be freed while a completer is mid-notify.
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// Executes chunk `idx` of the region behind `state`.
///
/// # Safety
/// `state` must point to a live `RegionState<T, R, F>` whose payload
/// table has at least `idx + 1` slots.
unsafe fn exec_chunk<T, R, F: Fn(u32, T) -> R>(state: *const (), idx: u32) {
    // SAFETY: guaranteed by the caller contract above.
    let s = unsafe { &*state.cast::<RegionState<T, R, F>>() };
    let payload = lock(&s.payloads[idx as usize]).take();
    if let Some(p) = payload {
        if s.poisoned.load(Ordering::Acquire) {
            drop(p);
        } else {
            match catch_unwind(AssertUnwindSafe(|| (s.f)(idx, p))) {
                Ok(r) => lock(&s.results).push((idx, r)),
                Err(e) => {
                    s.poisoned.store(true, Ordering::Release);
                    let mut slot = lock(&s.panic);
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                }
            }
        }
    }
    if s.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let mut flag = lock(&s.done);
        *flag = true;
        s.done_cv.notify_all();
    }
}

/// Runs `f` over every payload on the pool and returns the results in
/// payload order. The calling thread drives: it executes whatever of
/// its own share is not stolen, reclaims stranded entries, and only
/// then blocks on the completion latch. If any chunk panicked, the
/// (first) payload is re-thrown here on the calling thread once all
/// chunks have finished or been skipped.
pub(crate) fn run<T, R, F>(payloads: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(u32, T) -> R + Sync,
{
    let total = payloads.len();
    let execs = effective_threads().min(total);
    if execs <= 1 || total == 0 {
        // Inline: sequential semantics, panics propagate naturally.
        return payloads
            .into_iter()
            .enumerate()
            .map(|(i, p)| f(i as u32, p))
            .collect();
    }
    ensure_workers(execs - 1);

    let state = RegionState {
        payloads: payloads.into_iter().map(|p| Mutex::new(Some(p))).collect(),
        results: Mutex::new(Vec::with_capacity(total)),
        f,
        remaining: AtomicUsize::new(total),
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    };
    let state_ptr: *const () = (&raw const state).cast();
    let exec = exec_chunk::<T, R, F>;

    let p = pool();
    let workers = (execs - 1).min(*lock(&p.spawned));
    let home = HOME.with(Cell::get);
    // Deal `total` chunks into `workers + 1` contiguous ranges; the
    // first, the driver's own, goes to the front of its home deque.
    let shares = workers + 1;
    let per = total / shares;
    let extra = total % shares;
    let mut begin = 0u32;
    for share in 0..shares {
        let len = per + usize::from(share < extra);
        let range = begin..begin + len as u32;
        begin = range.end;
        if range.is_empty() {
            continue;
        }
        let entry = Entry {
            state: state_ptr,
            exec,
            lo: range.start,
            hi: range.end,
        };
        if share == 0 {
            lock(&p.deques[home]).push_front(entry);
        } else {
            lock(&p.deques[share - 1]).push_back(entry);
        }
        p.pending.fetch_add(1, Ordering::AcqRel);
    }
    wake_all();

    while let Some(idx) = take_own(p, home, state_ptr) {
        counters::add(Counter::PoolTasks, 1);
        // SAFETY: `state` is live for the whole of this function.
        unsafe { exec(state_ptr, idx) };
    }
    loop {
        sweep(p, state_ptr, exec);
        let flag = lock(&state.done);
        if *flag {
            break;
        }
        let (flag, _) = state
            .done_cv
            .wait_timeout(flag, DRIVER_WAIT)
            .unwrap_or_else(PoisonError::into_inner);
        if *flag {
            break;
        }
    }

    if let Some(payload) = lock(&state.panic).take() {
        resume_unwind(payload);
    }
    let mut results = std::mem::take(&mut *lock(&state.results));
    results.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(results.len(), total);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Takes the first chunk of this region's first entry in deque `home`,
/// leaving the rest of the entry in place for thieves; `None` once no
/// such entry is left there.
fn take_own(p: &Pool, home: usize, state_ptr: *const ()) -> Option<u32> {
    let mut dq = lock(&p.deques[home]);
    let pos = dq.iter().position(|e| std::ptr::eq(e.state, state_ptr))?;
    let e = &mut dq[pos];
    let idx = e.lo;
    e.lo += 1;
    if e.lo == e.hi {
        dq.remove(pos);
        p.pending.fetch_sub(1, Ordering::AcqRel);
    }
    Some(idx)
}

/// Reclaims this region's unclaimed entries from every deque and runs
/// their chunks on the driving thread.
// SAFETY: only called from `run` with that region's own live
// `state_ptr`/`exec` pair, and only entries matching `state_ptr` are
// executed here.
fn sweep(p: &Pool, state_ptr: *const (), exec: unsafe fn(*const (), u32)) {
    let mut mine = Vec::new();
    for dq in &p.deques {
        let mut dq = lock(dq);
        if dq.is_empty() {
            continue;
        }
        let before = dq.len();
        let mut keep = VecDeque::with_capacity(before);
        while let Some(e) = dq.pop_front() {
            if std::ptr::eq(e.state, state_ptr) {
                mine.push(e);
            } else {
                keep.push_back(e);
            }
        }
        *dq = keep;
        let taken = before - dq.len();
        if taken > 0 {
            p.pending.fetch_sub(taken, Ordering::AcqRel);
        }
    }
    for e in mine {
        for idx in e.lo..e.hi {
            counters::add(Counter::PoolTasks, 1);
            // SAFETY: the entry referenced this driver's own live region.
            unsafe { exec(e.state, idx) };
        }
    }
}

/// Serializes the crate's tests that reconfigure the global limit.
#[cfg(test)]
pub(crate) fn limit_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_results_in_payload_order() {
        let _g = limit_lock();
        install_limit(4, || {
            let out = run((0..100u32).collect(), |_, x| x * 2);
            assert_eq!(out, (0..100u32).map(|x| x * 2).collect::<Vec<_>>());
        });
    }

    #[test]
    fn run_handles_empty_and_single() {
        let _g = limit_lock();
        install_limit(4, || {
            assert_eq!(run(Vec::<u32>::new(), |_, x| x), Vec::<u32>::new());
            assert_eq!(run(vec![7u32], |_, x| x + 1), vec![8]);
        });
    }

    #[test]
    fn panic_in_chunk_resumes_on_driver_and_pool_survives() {
        let _g = limit_lock();
        install_limit(4, || {
            let r = catch_unwind(AssertUnwindSafe(|| {
                run((0..64u32).collect(), |_, x| {
                    assert!(x != 13, "planted chunk panic");
                    x
                })
            }));
            assert!(r.is_err(), "chunk panic must reach the driver");
            // The pool still works after the panic.
            let ok = run((0..64u32).collect(), |_, x| x + 1);
            assert_eq!(ok.len(), 64);
        });
    }

    #[test]
    fn nested_regions_complete() {
        let _g = limit_lock();
        install_limit(4, || {
            let outer = run((0..8u32).collect(), |_, x| {
                let inner = run((0..16u32).collect(), move |_, y| u64::from(x + y));
                inner.iter().sum::<u64>()
            });
            let want: Vec<u64> = (0..8u64).map(|x| (0..16u64).map(|y| x + y).sum()).collect();
            assert_eq!(outer, want);
        });
    }

    #[test]
    fn idle_executor_steals_from_a_blocked_drivers_share() {
        let _g = limit_lock();
        install_limit(2, || {
            let others = Mutex::new(0u32);
            let ran = Condvar::new();
            // 8 chunks at limit 2: the driver's share is chunks 0..4. A
            // worker may steal chunk 0 before the driver takes it; then
            // the driver must run the rest instead.
            let out = run((0..8u32).collect(), |idx, _| {
                if idx > 0 {
                    *lock(&others) += 1;
                    ran.notify_all();
                    return None;
                }
                // Chunk 0 blocks until the other executor has run all
                // seven others, or gives up so a pool that cannot steal
                // the driver's share fails instead of hanging.
                let (done, _) = ran
                    .wait_timeout_while(lock(&others), Duration::from_secs(10), |n| *n < 7)
                    .unwrap_or_else(PoisonError::into_inner);
                Some(*done)
            });
            assert_eq!(
                out[0],
                Some(7),
                "chunks 1-7 must finish while chunk 0 is blocked"
            );
        });
    }

    #[test]
    fn install_restores_previous_limit() {
        let _g = limit_lock();
        let before = LIMIT.load(Ordering::Acquire);
        install_limit(3, || {
            assert_eq!(effective_threads(), 3);
        });
        assert_eq!(LIMIT.load(Ordering::Acquire), before);
    }
}
