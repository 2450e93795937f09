//! A persistent worker pool for per-partition execution.
//!
//! The seed engine spawned a fresh `std::thread::scope` for every `Map` and
//! `Filter` call — thread creation and teardown on every operator, and no
//! parallelism at all for `FlatMap`, `Fold` partials, `aggBy` combining,
//! shuffle bucketing, or join probing. This module replaces that with a pool
//! created **once per `Engine::run`** and shared by every operator of the
//! run: a fixed set of workers blocked on a job channel, fed batches of
//! index-addressed tasks.
//!
//! Two dispatch modes exist so benchmarks can compare honestly:
//!
//! * [`ParallelismMode::Pool`] (the default) routes all per-partition work —
//!   narrow operators, fused pipelines, fold partials, `aggBy` combiners,
//!   shuffle bucketing, and join build/probe — through the persistent pool.
//! * [`ParallelismMode::PerOperator`] reproduces the seed's dispatch: a
//!   fresh thread scope per narrow pass (Map, Filter, FlatMap, fused
//!   pipelines — one engine path), everything else serial.
//!
//! Determinism: tasks are indexed by partition, results land in
//! per-partition slots, and error selection takes the **lowest-index**
//! failure — so the observable outcome never depends on scheduling order.
//! The simulated-cost accounting never happens on workers (charges are
//! derived from aggregate counts after the parallel section), so the cost
//! model is oblivious to the thread count.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// The outcome of one contained task: `Ok` with the closure's value, or the
/// caught panic payload (same shape as [`std::thread::Result`]).
pub type Settled<T> = std::thread::Result<T>;

/// How the engine maps per-partition work onto OS threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParallelismMode {
    /// Spawn a fresh thread scope per narrow operator; wide operators run
    /// serially. This is the pre-pool engine behavior, kept as a baseline.
    PerOperator,
    /// One persistent worker pool per run; all per-partition work (narrow
    /// *and* wide operators) is dispatched to it.
    Pool,
}

/// One batch of index-addressed tasks submitted to the pool.
///
/// `task` is a borrowed closure with its lifetime erased: it is only ever
/// dereferenced while the submitting [`WorkerPool::run`] call is blocked
/// waiting for `remaining` to reach zero, which happens strictly after the
/// last dereference.
struct Job {
    task: &'static (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    total: usize,
    state: Mutex<JobState>,
    done: Condvar,
}

struct JobState {
    remaining: usize,
    /// Caught panic payloads, tagged with the panicking task's index. The
    /// *lowest-index* payload is the one surfaced to the submitter, so the
    /// observable panic never depends on scheduling order.
    panics: Vec<(usize, Box<dyn Any + Send>)>,
}

impl Job {
    /// Claims and runs tasks until the batch is exhausted. Called by pool
    /// workers and by the submitting thread itself.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.task)(i)));
            let mut st = self.state.lock().unwrap();
            if let Err(payload) = outcome {
                st.panics.push((i, payload));
            }
            st.remaining -= 1;
            if st.remaining == 0 {
                drop(st);
                self.done.notify_all();
            }
        }
    }
}

/// A fixed-size pool of workers created once and reused for every parallel
/// section of a run.
pub struct WorkerPool {
    sender: Option<mpsc::Sender<Arc<Job>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl WorkerPool {
    /// Spawns `size` workers blocked on the job channel.
    pub fn new(size: usize) -> Self {
        let (sender, receiver) = mpsc::channel::<Arc<Job>>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("emma-worker-{i}"))
                    .spawn(move || loop {
                        let job = match receiver.lock().unwrap().recv() {
                            Ok(job) => job,
                            Err(_) => return, // pool dropped
                        };
                        job.work();
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
            size,
        }
    }

    /// The number of pool workers (the submitting thread also participates,
    /// so up to `size + 1` threads execute a batch).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `f(0..total)` across the pool, blocking until every task has
    /// finished. If any task panicked, re-raises the **lowest-index**
    /// panicking task's original payload (after all tasks settle) via
    /// [`resume_unwind`], so the message survives and the choice of payload
    /// does not depend on scheduling order.
    pub fn run(&self, total: usize, f: &(dyn Fn(usize) + Sync)) {
        if let Some((_, payload)) = self.try_run(total, f) {
            resume_unwind(payload);
        }
    }

    /// Runs `f(0..total)` across the pool with per-task panic containment:
    /// every task settles, and if any panicked the lowest-index task's
    /// `(index, payload)` is returned instead of unwinding. The pool stays
    /// fully usable afterwards — workers never unwind (panics are caught
    /// inside [`Job::work`] before any lock is held), so no mutex is ever
    /// poisoned and no worker thread is lost.
    pub fn try_run(
        &self,
        total: usize,
        f: &(dyn Fn(usize) + Sync),
    ) -> Option<(usize, Box<dyn Any + Send>)> {
        if total == 0 {
            return None;
        }
        if self.size == 0 || total == 1 {
            // Inline path: still contain per-task panics so every task runs
            // and the lowest-index payload wins, matching the pooled path.
            let mut first: Option<(usize, Box<dyn Any + Send>)> = None;
            for i in 0..total {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                    if first.is_none() {
                        first = Some((i, payload));
                    }
                }
            }
            return first;
        }
        // Erase the borrow lifetime; see the `Job` safety comment.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let job = Arc::new(Job {
            task,
            next: AtomicUsize::new(0),
            total,
            state: Mutex::new(JobState {
                remaining: total,
                panics: Vec::new(),
            }),
            done: Condvar::new(),
        });
        // Wake at most one worker per remaining task; the caller works too.
        let helpers = self.size.min(total - 1);
        if let Some(sender) = &self.sender {
            for _ in 0..helpers {
                let _ = sender.send(Arc::clone(&job));
            }
        }
        job.work();
        let mut st = job.state.lock().unwrap();
        while st.remaining > 0 {
            st = job.done.wait(st).unwrap();
        }
        let mut panics = std::mem::take(&mut st.panics);
        drop(st);
        panics.sort_by_key(|(i, _)| *i);
        panics.into_iter().next()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close the channel so workers see a recv error and exit.
        self.sender.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Per-run parallel-execution context: mode, cached thread count, the
/// row-count gate, and (in pool mode) the persistent pool itself.
pub struct Parallelism {
    mode: ParallelismMode,
    /// Cached `available_parallelism` (or the configured override) — probed
    /// once per run instead of once per operator call.
    threads: usize,
    /// Minimum total row count before an operator goes parallel; below this
    /// the fan-out overhead outweighs the work.
    threshold: u64,
    pool: Option<WorkerPool>,
}

impl Parallelism {
    /// Builds the context, probing the thread count once and (in pool mode,
    /// when useful) spawning the persistent pool.
    pub fn new(mode: ParallelismMode, threads_override: Option<usize>, threshold: u64) -> Self {
        let threads = threads_override.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let pool = match mode {
            // `threads - 1` workers: the submitting engine thread is the
            // remaining executor.
            ParallelismMode::Pool if threads > 1 => Some(WorkerPool::new(threads - 1)),
            _ => None,
        };
        Parallelism {
            mode,
            threads,
            threshold,
            pool,
        }
    }

    /// The cached worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether an operator over `total_rows` rows should fan out at all.
    fn gate(&self, total_rows: u64) -> bool {
        self.threads > 1 && total_rows >= self.threshold
    }

    /// How many threads [`Parallelism::run_settled`] runs `n` tasks over
    /// `total_rows` rows on: one when the wave runs serially, the thread
    /// count (at most `n`) when it fans out.
    pub fn executors(&self, wide: bool, n: usize, total_rows: u64) -> usize {
        // `n <= 1` has nothing to fan out — skip slot/scope setup entirely.
        let serial =
            n <= 1 || !self.gate(total_rows) || (wide && self.mode == ParallelismMode::PerOperator);
        if serial {
            1
        } else {
            self.threads.min(n)
        }
    }

    /// Index-addressed fan-out with **per-task panic containment**: every
    /// task settles and the result vector holds each task's value or its
    /// caught panic payload, in index order. This is the substrate of the
    /// engine's fault-tolerant task waves — a panicking row no longer tears
    /// down the batch, and the executor decides per slot whether to surface,
    /// convert, or retry.
    ///
    /// `wide` selects the serial/parallel policy: wide operators (fold
    /// partials, `aggBy` combining, shuffle bucketing, join probing) stay
    /// serial in per-operator mode (the seed never parallelized them),
    /// narrow passes fan out in both modes — per-operator mode spawns the
    /// seed's fresh thread scope, pool mode dispatches to the persistent
    /// pool. Below the row gate everything runs serially. The policy only moves work between
    /// threads — the settled outcomes are identical either way. That
    /// property is what lets the fault-tolerant executor vary `total_rows`
    /// per retry wave (gating on the surviving partitions' share of the
    /// batch) and race speculative task clones settled on the driver,
    /// without perturbing any deterministic counter.
    ///
    /// Task count `n` is whatever layout the caller's wave has — under
    /// skew-aware splitting a wide wave carries one task per *sub*-partition
    /// (sum of the split ways), so sub-partitions settle, fail, and retry
    /// individually with no extra plumbing here.
    pub fn run_settled<T, F>(&self, wide: bool, n: usize, total_rows: u64, f: F) -> Vec<Settled<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.executors(wide, n, total_rows) == 1 {
            return (0..n)
                .map(|i| catch_unwind(AssertUnwindSafe(|| f(i))))
                .collect();
        }
        let slots: Vec<Mutex<Option<Settled<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let fill = |i: usize| {
            // Catch inside the fill so the slot-store itself never unwinds;
            // the pool/scope below therefore cannot observe a panic.
            let outcome = catch_unwind(AssertUnwindSafe(|| f(i)));
            *slots[i].lock().unwrap() = Some(outcome);
        };
        match &self.pool {
            Some(pool) => pool.run(n, &fill),
            None => {
                // Per-operator narrow path: fresh scope, work-stealing over
                // partition indices.
                let threads = self.threads.min(n.max(1));
                let next = AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return;
                            }
                            fill(i);
                        });
                    }
                });
            }
        }
        slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("settled slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_all_tasks() {
        let pool = WorkerPool::new(3);
        let sum = AtomicU64::new(0);
        pool.run(100, &|i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
        // Reuse the same pool for a second batch.
        let sum2 = AtomicU64::new(0);
        pool.run(7, &|i| {
            sum2.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum2.load(Ordering::Relaxed), 21);
    }

    #[test]
    fn pool_size_zero_runs_inline() {
        let pool = WorkerPool::new(0);
        let sum = AtomicU64::new(0);
        pool.run(5, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn pool_propagates_panics() {
        let pool = WorkerPool::new(2);
        let hit = AtomicU64::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                hit.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // All tasks still settled before the panic surfaced.
        assert_eq!(hit.load(Ordering::Relaxed), 8);
        // The pool survives a panicked batch.
        pool.run(2, &|_| {});
    }

    #[test]
    fn pool_panic_payload_text_survives() {
        // Regression: `run` used to re-raise a generic "partition worker
        // panicked" string, discarding the original payload.
        let pool = WorkerPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 5 {
                    panic!("bad row in partition {i}");
                }
            });
        }));
        let payload = r.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("String payload");
        assert_eq!(msg, "bad row in partition 5");
    }

    #[test]
    fn pool_surfaces_lowest_index_panic() {
        let pool = WorkerPool::new(3);
        for _ in 0..20 {
            let (i, payload) = pool
                .try_run(16, &|i| {
                    if i % 2 == 1 {
                        panic!("odd {i}");
                    }
                })
                .expect("some task panicked");
            assert_eq!(i, 1);
            assert_eq!(payload.downcast_ref::<String>().unwrap(), "odd 1");
        }
    }

    #[test]
    fn pool_usable_after_panicked_batch() {
        let pool = WorkerPool::new(2);
        for round in 0..3 {
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.run(6, &|i| {
                    if i == round {
                        panic!("round {round}");
                    }
                });
            }));
            assert!(r.is_err());
            // A full successful batch runs on the same pool afterwards: no
            // worker was lost and no mutex poisoned.
            let sum = AtomicU64::new(0);
            pool.run(10, &|i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 45);
        }
    }

    #[test]
    fn run_settled_contains_panics_per_task() {
        for (mode, wide) in [
            (ParallelismMode::Pool, false),
            (ParallelismMode::Pool, true),
            (ParallelismMode::PerOperator, false),
            (ParallelismMode::PerOperator, true),
        ] {
            let par = Parallelism::new(mode, Some(4), 0);
            let settled = par.run_settled(wide, 8, u64::MAX, |i| {
                if i == 2 || i == 6 {
                    panic!("task {i} died");
                }
                i * 10
            });
            assert_eq!(settled.len(), 8);
            for (i, s) in settled.iter().enumerate() {
                match s {
                    Ok(v) => {
                        assert_ne!(i, 2);
                        assert_ne!(i, 6);
                        assert_eq!(*v, i * 10);
                    }
                    Err(p) => {
                        assert!(i == 2 || i == 6);
                        assert_eq!(
                            p.downcast_ref::<String>().unwrap(),
                            &format!("task {i} died")
                        );
                    }
                }
            }
        }
    }

    /// Settled results come back in task order, so the engine's in-order
    /// scan surfaces the lowest-index error whatever the scheduling.
    #[test]
    fn wide_errors_pick_lowest_index() {
        let par = Parallelism::new(ParallelismMode::Pool, Some(4), 0);
        let settled = par.run_settled(true, 10, u64::MAX, |i| {
            if i >= 5 {
                Err(format!("fail {i}"))
            } else {
                Ok(i as u64)
            }
        });
        let r: Result<Vec<u64>, String> = settled
            .into_iter()
            .map(|s| s.expect("no task panicked"))
            .collect();
        assert_eq!(r.unwrap_err(), "fail 5");
    }

    #[test]
    fn run_settled_preserves_partition_order() {
        let par = Parallelism::new(ParallelismMode::Pool, Some(4), 0);
        let parts: Vec<Vec<i64>> = (0..6)
            .map(|p| (0..4).map(|i| p * 10 + i).collect())
            .collect();
        let out = par.run_settled(false, parts.len(), u64::MAX, |i| parts[i].clone());
        assert_eq!(out.len(), 6);
        for (a, b) in out.iter().zip(&parts) {
            assert_eq!(a.as_ref().expect("no task panicked"), b);
        }
    }
}
