//! A reusable *scoped* worker pool: persistent threads that execute batches of
//! closures borrowing from the caller's stack.
//!
//! [`sweep::run_parallel`](https://docs.rs) originally spawned fresh OS
//! threads per call through [`std::thread::scope`]; on the 1-CPU CI container
//! the spawn/join cost showed up as ±30% wall-clock jitter across sweep cells,
//! and the PR 10 federation driver would pay it once per *epoch* — thousands
//! of times per run. This crate keeps one set of parked threads per pool size
//! and feeds them batches instead.
//!
//! # How a scoped batch stays sound
//!
//! Worker threads outlive any single batch, so the tasks they execute must be
//! `'static` — yet the whole point is running closures that borrow the
//! caller's locals. [`WorkerPool::run`] bridges the two with one lifetime
//! erasure (the only `unsafe` in the workspace), made sound by a completion
//! barrier:
//!
//! * every submitted task is tracked by a batch counter, and `run` does not
//!   return — not even by unwinding — until the counter shows all tasks
//!   finished (`BatchWaiter`'s `Drop` blocks), so the borrows a task
//!   carries are live for its entire execution;
//! * tasks are consumed exactly once and dropped right after execution, and a
//!   pool never discards queued tasks (shutdown drains the queue first), so
//!   no erased closure outlives the batch that produced it;
//! * the calling thread participates in execution while it waits, so a pool
//!   of `n` threads plus the caller gives `n + 1` execution lanes, batches
//!   make progress even on a zero-thread pool, and nested `run` calls from
//!   inside a task cannot deadlock.
//!
//! Results are written into per-index slots, so the output order (and any
//! bitwise-deterministic computation mapped over the items) is independent of
//! thread count and scheduling — the contract `sweep::run_parallel` has had
//! since PR 2.
//!
//! # Examples
//!
//! ```
//! let pool = dias_pool::WorkerPool::new(3);
//! let base = vec![10u64, 20, 30, 40]; // borrowed by every task
//! let out = pool.run((0..4u64).collect(), |i, x| base[i] + x);
//! assert_eq!(out, vec![10, 21, 32, 43]);
//! // The same pool (same parked threads) serves any later batch, of any type.
//! let words = pool.run(vec!["a", "bb"], |_, w| w.len());
//! assert_eq!(words, vec![1, 2]);
//! ```

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A type-erased unit of work. Queued tasks are `'static` from the queue's
/// point of view; the lifetime contract is enforced by [`WorkerPool::run`]
/// (see the module docs).
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, ignoring poisoning: every critical section here is a plain
/// counter/queue update that stays consistent even if some unrelated holder
/// panicked (and task panics are caught before they can poison anything).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared injector queue all workers (and helping callers) pull from.
#[derive(Default)]
struct Injector {
    state: Mutex<InjectorState>,
    /// Signalled when a task is pushed or shutdown begins.
    ready: Condvar,
}

#[derive(Default)]
struct InjectorState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

impl Injector {
    fn push(&self, task: Task) {
        lock(&self.state).tasks.push_back(task);
        self.ready.notify_one();
    }

    /// Pops a task if one is queued, without blocking (the caller-help path).
    fn try_pop(&self) -> Option<Task> {
        lock(&self.state).tasks.pop_front()
    }

    /// Blocks until a task is available (worker path). Returns `None` only at
    /// shutdown, and only once the queue is fully drained: a pool never
    /// abandons accepted work, which the soundness argument relies on.
    fn pop_or_park(&self) -> Option<Task> {
        let mut state = lock(&self.state);
        loop {
            if let Some(task) = state.tasks.pop_front() {
                return Some(task);
            }
            if state.shutdown {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Progress of one `run` batch: how many tasks were submitted and how many
/// have finished, plus the first captured panic payload.
#[derive(Default)]
struct Batch {
    progress: Mutex<BatchProgress>,
    /// Signalled every time a task of this batch finishes.
    done: Condvar,
}

#[derive(Default)]
struct BatchProgress {
    submitted: usize,
    finished: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Batch {
    fn register_one(&self) {
        lock(&self.progress).submitted += 1;
    }

    fn finish_one(&self) {
        let mut p = lock(&self.progress);
        p.finished += 1;
        // Notify before the guard drops: once the lock is released the
        // waiter may see the batch done and return, freeing this `Batch`
        // (it lives on `run`'s stack), so nothing may touch it afterwards.
        self.done.notify_all();
    }

    /// Records a task panic; the first payload wins (later ones are dropped,
    /// matching what `std::thread::scope` reports on multiple panics).
    fn poison(&self, payload: Box<dyn Any + Send>) {
        let mut p = lock(&self.progress);
        if p.panic.is_none() {
            p.panic = Some(payload);
        }
    }

    fn is_done(&self) -> bool {
        let p = lock(&self.progress);
        p.finished == p.submitted
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock(&self.progress).panic.take()
    }

    /// Blocks until every submitted task finished. Only sound to call once
    /// the injector queue holds none of this batch's tasks (otherwise nobody
    /// may be left to run them); the waiter drains the queue first.
    fn park_until_done(&self) {
        let mut p = lock(&self.progress);
        while p.finished < p.submitted {
            p = self.done.wait(p).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Completion barrier of one batch: on drop — normal return *or* unwind —
/// helps execute queued tasks and then blocks until the batch is fully
/// finished. This is the object that discharges the lifetime-erasure
/// obligation in [`WorkerPool::run`].
struct BatchWaiter<'a> {
    pool: &'a WorkerPool,
    batch: &'a Batch,
}

impl Drop for BatchWaiter<'_> {
    fn drop(&mut self) {
        loop {
            if self.batch.is_done() {
                return;
            }
            match self.pool.injector.try_pop() {
                // Help: execute queued work (possibly another batch's —
                // harmless, it just finishes sooner). This keeps a
                // zero-thread pool live and makes nested `run` calls from
                // inside a task self-serving rather than deadlocking.
                Some(task) => task(),
                // Queue empty: every task of this batch is finished or
                // currently executing on some worker; parking is safe
                // because each of those workers will signal `finish_one`.
                None => self.batch.park_until_done(),
            }
        }
    }
}

/// A fixed-size pool of persistent worker threads executing scoped batches.
///
/// See the module docs for the soundness argument and an example. Pools are
/// usually obtained through [`shared_pool`], which caches one per size for
/// the life of the process.
pub struct WorkerPool {
    injector: &'static Injector,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` persistent threads (0 is allowed: batches
    /// then run entirely on the calling thread).
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a thread.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        // The injector is leaked so worker threads can reference it without
        // an `Arc` in every task hop; a pool's threads park forever anyway
        // once the pool itself is leaked by `shared_pool`.
        let injector: &'static Injector = Box::leak(Box::new(Injector::default()));
        let handles = (0..workers)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("dias-pool-{i}"))
                    .spawn(move || {
                        while let Some(task) = injector.pop_or_park() {
                            task();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            injector,
            workers: handles,
        }
    }

    /// Number of worker threads (the calling thread adds one execution lane
    /// on top during [`WorkerPool::run`]).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Maps `f` over `items` across the pool's threads plus the calling
    /// thread, returning results in input order. `f(i, item)` receives the
    /// item's input index; because every result is keyed by that index and
    /// the computations are independent, the output is bitwise-identical
    /// whatever the pool size.
    ///
    /// The closure and the items may borrow freely from the caller: `run`
    /// does not return until every task has finished executing.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f` once the whole batch has
    /// finished (remaining tasks still run to completion, like
    /// [`std::thread::scope`]).
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if self.workers.is_empty() || n == 1 {
            // No parallelism available (or nothing to parallelize): run
            // inline and skip the queue round-trip entirely.
            return items
                .into_iter()
                .enumerate()
                .map(|(i, x)| f(i, x))
                .collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let batch = Batch::default();
        {
            let f = &f;
            let slots = &slots;
            let batch_ref = &batch;
            // Armed before the first submission: from here on, leaving this
            // scope (return or unwind) drains and waits for the batch, so
            // the borrows below outlive every task execution.
            let waiter = BatchWaiter {
                pool: self,
                batch: batch_ref,
            };
            for (i, item) in items.into_iter().enumerate() {
                batch_ref.register_one();
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    match panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                        Ok(result) => *lock(&slots[i]) = Some(result),
                        Err(payload) => batch_ref.poison(payload),
                    }
                    batch_ref.finish_one();
                });
                // SAFETY: the task borrows `f`, `slots`, `batch` (and owns
                // `item`), all living at least as long as this call frame.
                // Erasing the lifetime is sound because the task cannot be
                // observed by anyone after execution (workers drop it
                // immediately; the queue is never discarded un-run, see
                // `Injector::pop_or_park`) and this frame provably outlives
                // every execution: `waiter` was armed above and its `Drop`
                // blocks — on return and on unwind alike — until
                // `finished == submitted`, which each task signals only
                // *after* its closure ran. Task panics are caught inside the
                // wrapper, so `finish_one` is always reached.
                let task =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) };
                self.injector.push(task);
            }
            drop(waiter); // help execute, then block until the batch is done
        }
        if let Some(payload) = batch.take_panic() {
            panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|m| {
                lock(&m)
                    .take()
                    .expect("every submitted task stored its result")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.injector.state);
            state.shutdown = true;
        }
        self.injector.ready.notify_all();
        for handle in self.workers.drain(..) {
            // Workers drain the queue before honouring shutdown, so joining
            // here never strands an accepted task.
            let _ = handle.join();
        }
    }
}

/// Returns the process-wide pool with exactly `workers` threads, creating it
/// on first use. Pools are cached (and intentionally leaked) per size: a
/// sweep that always asks for `available_parallelism() - 1` workers reuses
/// the same parked threads for every batch in the process.
pub fn shared_pool(workers: usize) -> &'static WorkerPool {
    static REGISTRY: OnceLock<Mutex<HashMap<usize, &'static WorkerPool>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = lock(registry);
    map.entry(workers)
        .or_insert_with(|| Box::leak(Box::new(WorkerPool::new(workers))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_input_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run((0..100u64).collect(), |i, x| (i as u64) * 1000 + x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 1000 + i as u64);
        }
    }

    #[test]
    fn batches_borrow_the_callers_stack() {
        let pool = WorkerPool::new(2);
        let weights = [2.0f64, 3.0, 5.0, 7.0, 11.0];
        let out = pool.run((0..5usize).collect(), |_, i| weights[i] * 10.0);
        assert_eq!(out, vec![20.0, 30.0, 50.0, 70.0, 110.0]);
        // `weights` is still usable: the batch really did only borrow it.
        assert_eq!(weights.len(), 5);
    }

    #[test]
    fn one_pool_serves_many_batches_of_different_types() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let nums = pool.run((0..8u32).collect(), |_, x| x + round);
            assert_eq!(nums[7], 7 + round);
            let lens = pool.run(vec!["x", "yy", "zzz"], |_, s| s.len());
            assert_eq!(lens, vec![1, 2, 3]);
        }
    }

    #[test]
    fn zero_worker_pool_runs_on_the_caller() {
        let pool = WorkerPool::new(0);
        let out = pool.run((0..10i32).collect(), |_, x| x * x);
        assert_eq!(out[9], 81);
    }

    #[test]
    fn panics_propagate_after_the_batch_completes() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..16usize).collect(), |_, i| {
                assert!(i != 7, "boom at 7");
                completed.fetch_add(1, Ordering::SeqCst);
                i
            })
        }));
        assert!(result.is_err());
        // Every non-panicking task still ran (no tasks were abandoned).
        assert_eq!(completed.load(Ordering::SeqCst), 15);
        // The pool survives the panic and serves the next batch.
        let ok = pool.run(vec![1, 2, 3], |_, x| x * 2);
        assert_eq!(ok, vec![2, 4, 6]);
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        // 1 worker + helping callers: an outer task issuing an inner batch
        // must drain it itself rather than wait forever.
        let pool = WorkerPool::new(1);
        let out = pool.run((0..4u64).collect(), |_, x| {
            let inner = pool.run((0..3u64).collect(), |_, y| y + 1);
            x + inner.iter().sum::<u64>()
        });
        assert_eq!(out, vec![6, 7, 8, 9]);
    }

    #[test]
    fn shared_pools_are_cached_per_size() {
        let a = shared_pool(2) as *const WorkerPool;
        let b = shared_pool(2) as *const WorkerPool;
        let c = shared_pool(3) as *const WorkerPool;
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(shared_pool(2).workers(), 2);
    }
}
