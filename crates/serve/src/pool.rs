//! A bounded worker pool with admission control.
//!
//! The daemon's connection threads never execute counting work; they
//! submit jobs here. The queue is *bounded*: when it is full,
//! [`WorkerPool::try_submit`] refuses immediately so the caller can send
//! an explicit `Overloaded` response instead of letting requests pile up
//! behind an unbounded backlog. Workers wrap every job in
//! `lotus_resilience::isolate`, so a panicking job can never take a
//! worker thread (or the daemon) down with it.
//!
//! It is separate from `shims/par`'s work-stealing pool, which runs the
//! counting kernels' fork-join work and never refuses a task: serving
//! needs a bounded queue that refuses, and jobs that may block on fsync
//! or the network without stalling a kernel worker. Its default width
//! still comes from `rayon::current_num_threads()` so the serving layer
//! sizes itself the same way the counting kernels do.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;

use lotus_resilience::isolate;
use lotus_telemetry::sync::{TracedCondvar, TracedMutex};

/// A unit of work: always runs to completion or panics (isolated);
/// responsible for delivering its own reply.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: TracedMutex<VecDeque<Job>>,
    wake: TracedCondvar,
    capacity: usize,
    /// Set once by [`WorkerPool::shutdown`]; workers drain the queue and
    /// exit.
    shutting_down: TracedMutex<bool>,
    panics: AtomicU64,
}

impl Shared {
    fn is_shutting_down(&self) -> bool {
        *self
            .shutting_down
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Fixed-width pool of worker threads with a bounded job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: TracedMutex<Vec<JoinHandle<()>>>,
    width: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads behind a queue of `capacity` slots.
    /// Zero values are clamped to one.
    ///
    /// # Errors
    /// Returns the OS error when a worker thread cannot be spawned;
    /// already-spawned workers are shut down before returning.
    pub fn new(workers: usize, capacity: usize) -> std::io::Result<WorkerPool> {
        let width = workers.max(1);
        let capacity = capacity.max(1);
        let shared = Arc::new(Shared {
            queue: TracedMutex::new("serve.pool.queue", VecDeque::with_capacity(capacity)),
            wake: TracedCondvar::new("serve.pool.wake"),
            capacity,
            shutting_down: TracedMutex::new("serve.pool.shutting_down", false),
            panics: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(width);
        for i in 0..width {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("lotus-serve-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    let partial = WorkerPool {
                        shared,
                        workers: TracedMutex::new("serve.pool.workers", handles),
                        width: i,
                    };
                    partial.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(WorkerPool {
            shared,
            workers: TracedMutex::new("serve.pool.workers", handles),
            width,
        })
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.width
    }

    /// Capacity of the bounded queue.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Worker panics confined so far.
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Admission control: enqueues the job unless the queue is full or
    /// the pool is shutting down. Returns `false` (and drops the job)
    /// when refused — the caller replies `Overloaded`/`ShuttingDown`
    /// instead of blocking.
    pub fn try_submit(&self, job: Job) -> bool {
        if self.shared.is_shutting_down() {
            return false;
        }
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if queue.len() >= self.shared.capacity {
                return false;
            }
            queue.push_back(job);
        }
        self.shared.wake.notify_one();
        true
    }

    /// Jobs waiting in the queue right now.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Drains the queue: refuses new submissions, lets workers finish
    /// every queued job, then joins them. Idempotent; must not be called
    /// from a worker thread (it would join itself).
    pub fn shutdown(&self) {
        {
            let mut flag = self
                .shared
                .shutting_down
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if *flag {
                return;
            }
            *flag = true;
        }
        self.shared.wake.notify_all();
        let handles =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            // A panicking worker already recorded itself via `isolate`;
            // the join error carries nothing further.
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("capacity", &self.capacity())
            .field("queued", &self.queued())
            .finish()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.is_shutting_down() {
                    break None;
                }
                queue = shared
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        // Backstop isolation: jobs reply for themselves (including their
        // own panic handling), but if one unwinds anyway the worker
        // thread survives it.
        if isolate(job).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(2, 8).expect("pool");
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            assert!(pool.try_submit(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            })));
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn full_queue_refuses_admission() {
        let pool = WorkerPool::new(1, 2).expect("pool");
        let (block_tx, block_rx) = mpsc::channel::<()>();
        // Occupy the single worker so queued jobs cannot drain.
        assert!(pool.try_submit(Box::new(move || {
            let _ = block_rx.recv();
        })));
        // Wait for the worker to pick the blocker up so both queue
        // slots are genuinely free for the next two submissions.
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        assert!(pool.try_submit(Box::new(|| ())));
        assert!(pool.try_submit(Box::new(|| ())));
        // Queue now holds 2 jobs == capacity: refuse.
        assert!(!pool.try_submit(Box::new(|| ())));
        block_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new(1, 4).expect("pool");
        assert!(pool.try_submit(Box::new(|| panic!("job boom"))));
        let (tx, rx) = mpsc::channel();
        assert!(pool.try_submit(Box::new(move || {
            tx.send(42).unwrap();
        })));
        assert_eq!(rx.recv().unwrap(), 42);
        pool.shutdown();
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_refuses_new_ones() {
        let pool = WorkerPool::new(1, 16).expect("pool");
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let ran = Arc::clone(&ran);
            assert!(pool.try_submit(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            })));
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 10);
        assert!(!pool.try_submit(Box::new(|| ())));
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn zero_sizes_are_clamped() {
        let pool = WorkerPool::new(0, 0).expect("pool");
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.capacity(), 1);
    }
}
