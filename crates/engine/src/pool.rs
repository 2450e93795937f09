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
//! Determinism: tasks are indexed by partition and results land in
//! per-partition slots, so the observable outcome never depends on
//! scheduling order. The simulated-cost accounting never happens on workers
//! (charges are derived from aggregate counts after the parallel section),
//! so the cost model is oblivious to the thread count.
//!
//! Panics are contained one layer up: every task wave hands this module a
//! body that catches its own panics and attributes them to a partition
//! (`Session::run_ranges`). The pool keeps one catch of its own, in
//! [`Job::work`], only so that a worker thread never dies; the submitter
//! re-raises the first payload it caught once every task has settled.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

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
    /// The first caught panic payload, re-raised by the submitter.
    panic: Option<Box<dyn Any + Send>>,
}

impl Job {
    /// Claims and runs tasks until the batch is exhausted. Called by pool
    /// workers and by the submitting thread itself. A panicking task is
    /// caught here, before any lock is held, so no worker unwinds and no
    /// mutex is poisoned.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.task)(i)));
            let mut st = self.state.lock().unwrap();
            if let Err(payload) = outcome {
                st.panic.get_or_insert(payload);
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
struct WorkerPool {
    sender: Option<mpsc::Sender<Arc<Job>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl WorkerPool {
    /// Spawns `size` workers blocked on the job channel.
    fn new(size: usize) -> Self {
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

    /// Runs `f(0..total)` across the pool and the calling thread, blocking
    /// until every task has finished. If any task panicked, re-raises the
    /// first caught payload via [`resume_unwind`] once all tasks have
    /// settled, so the message survives and the pool stays usable.
    fn run(&self, total: usize, f: &(dyn Fn(usize) + Sync)) {
        // SAFETY: only the lifetime is erased. `Job::task` is dereferenced
        // only for a claimed index below `total`, and this call returns only
        // after all `total` tasks have finished (`remaining == 0`); a worker
        // that dequeues the job later claims no index.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let job = Arc::new(Job {
            task,
            next: AtomicUsize::new(0),
            total,
            state: Mutex::new(JobState {
                remaining: total,
                panic: None,
            }),
            done: Condvar::new(),
        });
        // Wake at most one worker per remaining task; the caller works too.
        let helpers = self.size.min(total.saturating_sub(1));
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
        if let Some(payload) = st.panic.take() {
            drop(st);
            resume_unwind(payload);
        }
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
pub(crate) struct Parallelism {
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
    pub(crate) fn new(
        mode: ParallelismMode,
        threads_override: Option<usize>,
        threshold: u64,
    ) -> Self {
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

    /// Whether an operator over `total_rows` rows should fan out at all.
    fn gate(&self, total_rows: u64) -> bool {
        self.threads > 1 && total_rows >= self.threshold
    }

    /// How many threads [`Parallelism::run_settled`] runs `n` tasks over
    /// `total_rows` rows on: one when the wave runs serially, the thread
    /// count (at most `n`) when it fans out.
    pub(crate) fn executors(&self, wide: bool, n: usize, total_rows: u64) -> usize {
        // `n <= 1` has nothing to fan out — skip slot/scope setup entirely.
        let serial =
            n <= 1 || !self.gate(total_rows) || (wide && self.mode == ParallelismMode::PerOperator);
        if serial {
            1
        } else {
            self.threads.min(n)
        }
    }

    /// Index-addressed fan-out: runs `f(0..n)` and returns every task's
    /// value in index order once all of them have settled.
    ///
    /// `wide` selects the serial/parallel policy: wide operators (fold
    /// partials, `aggBy` combining, shuffle bucketing, join probing) stay
    /// serial in per-operator mode (the seed never parallelized them),
    /// narrow passes fan out in both modes — per-operator mode spawns the
    /// seed's fresh thread scope, pool mode dispatches to the persistent
    /// pool. Below the row gate everything runs serially. The policy only
    /// moves work between threads — the values are identical either way.
    /// That property is what lets the fault-tolerant executor vary
    /// `total_rows` per retry wave (gating on the surviving partitions'
    /// share of the batch) without perturbing any deterministic counter.
    ///
    /// `f` must not panic: a task wave's body contains its own panics. One
    /// that escapes anyway reaches the caller after every task has settled.
    pub(crate) fn run_settled<T, F>(&self, wide: bool, n: usize, total_rows: u64, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.executors(wide, n, total_rows) == 1 {
            return (0..n).map(f).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let fill = |i: usize| {
            let value = f(i);
            *slots[i].lock().unwrap() = Some(value);
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
            .map(|s| s.into_inner().unwrap().expect("every task filled its slot"))
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
        let r: Result<Vec<u64>, String> = settled.into_iter().collect();
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
            assert_eq!(a, b);
        }
    }
}
