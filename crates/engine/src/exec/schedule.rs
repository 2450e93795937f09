//! Task waves: every per-partition operator body runs through
//! [`Session::run_tasks`], which owns the worker pool, the failure
//! schedule's wave counter, retries and speculation. Both are private to
//! this module.
//!
//! A wave has one panic-containment layer: [`Session::run_ranges`] catches
//! a panic around each run's body and attributes it to the first partition
//! of the run that reported no outcome. The pool below it only fans the
//! runs out and collects what they return.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use super::*;
use crate::fault::{self, SpeculationPolicy, TaskFault};
use crate::pool::Parallelism;

/// Per-run dispatch state.
pub(super) struct Waves {
    /// Per-run parallel-execution context: dispatch mode, cached thread
    /// count, row gate, and (in pool mode) the persistent worker pool.
    par: Parallelism,
    /// Driver-ordered counter of task waves — the `site` identifier of the
    /// failure schedule.
    sites: u64,
}

impl Waves {
    pub(super) fn new(engine: &Engine) -> Waves {
        Waves {
            // One worker pool (and one `available_parallelism` probe) for
            // the whole run.
            par: Parallelism::new(
                engine.parallelism_mode,
                engine.worker_threads,
                engine.parallelism_threshold,
            ),
            sites: 0,
        }
    }
}

/// Rows and batches a task body ran through typed kernels, for one
/// partition. Every body passed to [`Session::run_tasks`] or
/// [`Session::run_ranges`] reports into one per partition;
/// [`Session::tally`] is the only place the two telemetry counters grow.
/// Counts are per simulated partition — a body that folds a run of
/// partitions in one pass still counts each partition's batches as that
/// partition's own pass would — so the sums do not depend on how the
/// schedule cut the wave into runs.
#[derive(Default)]
pub(super) struct Tally {
    rows: u64,
    batches: u64,
}

impl Tally {
    pub(super) fn batch(&mut self, rows: usize) {
        self.rows += rows as u64;
        self.batches += 1;
    }

    /// Folds in the tally of work a body kept apart.
    pub(super) fn add(&mut self, other: Tally) {
        self.rows += other.rows;
        self.batches += other.batches;
    }

    /// The batches `rows` rows fill, `batch_rows` to a batch, the last one
    /// perhaps short.
    pub(super) fn batches(&mut self, rows: u64, batch_rows: usize) {
        self.rows += rows;
        self.batches += rows.div_ceil(batch_rows as u64);
    }
}

/// What a run's body reports for one partition of its range, in partition
/// order ([`Session::run_ranges`]): the partition's value and its tally, or
/// its error.
pub(super) type Outcome<T> = Result<(T, Tally), ValueError>;

impl Session<'_> {
    /// [`Session::run_ranges`] for a body that takes one partition at a
    /// time: each run loops its range, up to the first partition that
    /// raises.
    pub(super) fn run_tasks<T, F>(
        &mut self,
        wide: bool,
        n: usize,
        total_rows: u64,
        f: F,
    ) -> Result<Vec<T>, ExecError>
    where
        T: Send,
        F: Fn(usize, &mut Tally) -> Result<T, ValueError> + Sync,
    {
        self.run_ranges(wide, n, total_rows, |run, out| {
            for pi in run {
                let mut tally = Tally::default();
                let outcome = f(pi, &mut tally).map(|v| (v, tally));
                let raised = outcome.is_err();
                out.push(outcome);
                if raised {
                    break;
                }
            }
        })
    }

    /// Runs `n` index-addressed partitions as tasks with panic containment
    /// and partition-granularity retry.
    ///
    /// A task is a *run*: a contiguous range of partitions, handed to one
    /// body call, which pushes one [`Outcome`] per partition of the range in
    /// order onto the vector it is handed (and may stop after the first
    /// error). Each wave cuts its pending partitions at the injected
    /// failures, at gaps, and into at most one run per executing thread
    /// within each stretch, so a wave on one thread without failures is one
    /// run. Fates, retries, stragglers and the error rule below stay per
    /// partition; a panic is the first unreported partition's of its run.
    ///
    /// Every per-partition operator body runs through this one loop.
    /// Without an injecting [`FaultConfig`] it runs under
    /// [`FaultConfig::disabled`], whose fates are all [`TaskFault::None`]:
    /// one wave, zero straggler and duplicate charges (which `cost::apply`
    /// pays as nothing), counters bit-identical to the pre-fault engine. A
    /// panicking task's payload becomes a typed error
    /// ([`fault::panic_value_error`]) competing by partition index with
    /// ordinary evaluation errors.
    ///
    /// With injection active, each wave's fates are **precomputed on the
    /// driver** (pure in `(seed, site, partition, attempt)` — never drawn
    /// inside workers, so the schedule is independent of thread scheduling):
    /// injected failures skip the task body and are retried up to
    /// `max_task_retries` with exponential backoff charged to the simulated
    /// clock; stragglers run normally but charge the wave their worst delay
    /// (stage time = slowest task); real evaluation errors and panics are
    /// deterministic, so they abort the wave — lowest partition wins: failed
    /// partitions below the lowest erring one are retried first, as their
    /// bodies may raise earlier, and the lowest outcome is raised.
    /// Retry waves gate their fan-out on the rows still pending (the
    /// surviving partitions' share of the batch), not on the original batch
    /// size; the gate only moves work between threads, so the settled
    /// outcomes and every charge are unaffected.
    ///
    /// With [`FaultConfig::speculation`] on, every straggler additionally
    /// races a deterministic backup copy whose fate comes from the
    /// independent backup stream ([`FaultConfig::backup_fault`]): the wave
    /// is charged `min(straggle_delay, speculation_overhead + backup_delay)`
    /// per straggler (worst over the wave), a winning backup counts as
    /// `speculation_wins`, and the losing copy's duplicate runtime is
    /// charged as wasted cluster work (`speculation_wasted_secs`, spread
    /// over the cluster DOP). The race is settled on the driver from the
    /// precomputed fates, so each partition is reported **exactly once** per
    /// wave that runs it — single-consumption inputs (the shuffle's
    /// owned-partition move-out) are never double-drained, which is what
    /// makes the dispatch path task-cloning-safe.
    ///
    /// Accounting order within a wave (all deliberate, documented
    /// semantics):
    /// 1. The wave settles first. A wave that aborts with a real evaluation
    ///    error or a contained panic charges **nothing** for its stragglers,
    ///    and neither do the retries that settle the partitions below it:
    ///    their delays describe work the abort discarded, so
    ///    `straggler_delays`/`retry_sim_secs` only ever count completed
    ///    waves.
    /// 2. Straggler (and speculation) charges land only after the wave
    ///    survives.
    /// 3. A partition that exhausts its retry budget reports its **own**
    ///    per-partition attempt count in [`ExecError::TaskFailed`], not the
    ///    global wave counter.
    /// 4. The simulated-time budget is checked **before** the next wave's
    ///    backoff is charged, so a budget-exhausted run never pays for a
    ///    wave that will not start and `ExecError::Timeout::at_secs`
    ///    excludes it.
    pub(super) fn run_ranges<T, F>(
        &mut self,
        wide: bool,
        n: usize,
        total_rows: u64,
        f: F,
    ) -> Result<Vec<T>, ExecError>
    where
        T: Send,
        F: Fn(Range<usize>, &mut Vec<Outcome<T>>) + Sync,
    {
        let cfg = self.fault_cfg().unwrap_or_else(FaultConfig::disabled);
        let site = self.waves.sites;
        self.waves.sites += 1;
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        // Ascending at every wave (failures are collected in settle order),
        // so "first error in wave order" is "lowest partition index".
        let mut pending: Vec<usize> = (0..n).collect();
        // Per-partition dispatch counts, so a budget-exhausted partition
        // reports how often *it* was attempted — independent of the global
        // wave counter.
        let mut attempts_made: Vec<u32> = vec![0; n];
        let mut attempt: u32 = 0;
        // The lowest erring partition's error: only failures below it retry.
        let mut raised: Option<ExecError> = None;
        loop {
            let fates: Vec<TaskFault> = pending
                .iter()
                .map(|&pi| cfg.task_fault(site, pi as u64, attempt))
                .collect();
            for &pi in &pending {
                attempts_made[pi] += 1;
            }
            // Retry waves carry only the surviving partitions: gate the
            // fan-out on their share of the batch, not the full batch.
            let wave_rows = if pending.len() == n {
                total_rows
            } else {
                total_rows * pending.len() as u64 / n.max(1) as u64
            };
            let executors = self.waves.par.executors(wide, pending.len(), wave_rows);
            let runs = cut_runs(&pending, &fates, executors);
            let reports = self
                .waves
                .par
                .run_settled(wide, runs.len(), wave_rows, |ri| {
                    let (ws, mut out) = (&runs[ri], Vec::with_capacity(runs[ri].len()));
                    let range = pending[ws.start]..pending[ws.end - 1] + 1;
                    let panicked = catch_unwind(AssertUnwindSafe(|| f(range, &mut out))).err();
                    (out, panicked)
                });
            // Each partition's outcome, by wave index; a killed task never
            // runs its body — its partition's work is lost and must be
            // redone on retry.
            let mut settled: Vec<Option<std::thread::Result<Outcome<T>>>> =
                (0..pending.len()).map(|_| None).collect();
            for (ws, (out, panicked)) in runs.iter().zip(reports) {
                let mut wis = ws.clone();
                for (outcome, wi) in out.into_iter().zip(wis.by_ref()) {
                    settled[wi] = Some(Ok(outcome));
                }
                if let Some(payload) = panicked {
                    settled[wis.next().unwrap_or(ws.end - 1)] = Some(Err(payload));
                }
            }
            // Settle before any straggler accounting.
            let mut failed: Vec<usize> = Vec::new();
            for (wi, s) in settled.into_iter().enumerate() {
                let pi = pending[wi];
                let e = match s {
                    Some(Ok(Ok((v, tally)))) => {
                        self.tally(tally);
                        results[pi] = Some(v);
                        continue;
                    }
                    None if fates[wi] == TaskFault::Fail => {
                        self.stats.tasks_failed += 1;
                        failed.push(pi);
                        continue;
                    }
                    None => unreachable!("a run reports each partition up to its first error"),
                    Some(Ok(Err(e))) => e,
                    Some(Err(payload)) => {
                        self.stats.tasks_failed += 1;
                        fault::panic_value_error(payload)
                    }
                };
                raised = Some(ExecError::Eval(e));
                break;
            }
            // The wave lasts as long as its slowest task. Without speculation
            // that is the worst straggler; with it, each straggler races a
            // backup copy and contributes whichever copy finishes first. An
            // aborting wave's stragglers describe discarded work, so they
            // must not distort `straggler_delays`/`retry_sim_secs`.
            let stragglers = if raised.is_none() { &fates[..] } else { &[] };
            let mut worst_effective = 0.0f64;
            let mut wasted = 0.0f64;
            // Which stragglers get a backup copy. The quantile policy gates
            // on the wave's injected delay profile — precomputed fates, so
            // the gate is as pure as the schedule itself.
            let clone_all = matches!(cfg.speculation_policy, SpeculationPolicy::All);
            let spec_threshold = if cfg.speculation && !clone_all {
                let delays: Vec<f64> = stragglers
                    .iter()
                    .map(|f| match f {
                        TaskFault::Straggle(d) => *d,
                        _ => 0.0,
                    })
                    .collect();
                cfg.speculation_policy.clone_threshold(&delays)
            } else {
                0.0
            };
            for (wi, fate) in stragglers.iter().enumerate() {
                let TaskFault::Straggle(delay) = *fate else {
                    continue;
                };
                self.stats.straggler_delays += 1;
                let mut effective = delay;
                if cfg.speculation && (clone_all || delay > spec_threshold) {
                    self.stats.tasks_speculated += 1;
                    let backup_finish = match cfg.backup_fault(site, pending[wi] as u64, attempt) {
                        // A backup that dies at launch can never win.
                        TaskFault::Fail => f64::INFINITY,
                        TaskFault::Straggle(b) => cfg.speculation_overhead_secs + b,
                        TaskFault::None => cfg.speculation_overhead_secs,
                    };
                    if backup_finish < delay {
                        self.stats.speculation_wins += 1;
                        effective = backup_finish;
                    }
                    // Until the winner finishes, both copies occupy
                    // executor slots: the duplicate runtime is wasted
                    // cluster work. A backup that died at launch burned
                    // only its startup overhead.
                    wasted += if backup_finish.is_finite() {
                        effective
                    } else {
                        cfg.speculation_overhead_secs
                    };
                }
                worst_effective = worst_effective.max(effective);
            }
            self.charge(Charge::Straggler(worst_effective));
            self.charge(Charge::DuplicateWork(wasted));
            if failed.is_empty() {
                if let Some(e) = raised {
                    return Err(e);
                }
                return Ok(results
                    .into_iter()
                    .map(|r| r.expect("every partition task settled"))
                    .collect());
            }
            if attempt >= cfg.max_task_retries {
                return Err(ExecError::TaskFailed {
                    partition: failed[0],
                    attempts: attempts_made[failed[0]],
                });
            }
            self.stats.tasks_retried += failed.len() as u64;
            // Budget before backoff: an exhausted budget aborts without
            // paying for a retry wave that will never start.
            self.check_budget()?;
            self.charge(Charge::Backoff(cfg.retry_backoff_secs, attempt));
            pending = failed;
            attempt += 1;
        }
    }

    /// Folds a task body's kernel telemetry into the run's.
    fn tally(&mut self, t: Tally) {
        self.stats.rows_vectorized += t.rows;
        self.stats.batches_executed += t.batches;
    }
}

/// Cuts a wave's pending partitions into runs, as ranges of wave indices: a
/// run never holds a partition whose fate is an injected failure, nor spans
/// a gap between pending partitions, and each stretch between cuts is split
/// into runs of at most `⌈live / executors⌉` partitions, `live` the
/// partitions that run.
fn cut_runs(pending: &[usize], fates: &[TaskFault], executors: usize) -> Vec<Range<usize>> {
    let live = fates.iter().filter(|&&f| f != TaskFault::Fail).count();
    let most = live.div_ceil(executors.max(1)).max(1);
    let mut runs: Vec<Range<usize>> = Vec::with_capacity(executors);
    for wi in 0..pending.len() {
        if fates[wi] == TaskFault::Fail {
            continue;
        }
        match runs.last_mut() {
            Some(r) if r.end == wi && pending[wi] == pending[wi - 1] + 1 && r.len() < most => {
                r.end += 1;
            }
            _ => runs.push(wi..wi + 1),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a clean four-task wave, then one in which task `raise` returns
    /// an error and task `panic` panics; returns that wave's first error
    /// with the run's failure and clock counters.
    fn first_error(engine: &Engine, raise: usize, panic: usize) -> (String, u64, f64, f64) {
        let catalog = Catalog::new();
        let mut session = Session::new(engine, &catalog, true);
        let clean = session.run_tasks(true, 4, 0, |pi, _| Ok(pi));
        assert_eq!(clean.expect("a clean wave settles"), [0, 1, 2, 3]);
        let err = session
            .run_tasks(true, 4, 0, |pi, _| match pi {
                _ if pi == raise => Err(ValueError::Arithmetic("raised".into())),
                _ if pi == panic => panic!("panicked"),
                _ => Ok(pi),
            })
            .expect_err("one task raises and one panics");
        let st = &session.stats;
        (
            format!("{err:?}"),
            st.tasks_failed,
            st.simulated_secs,
            st.retry_sim_secs,
        )
    }

    #[test]
    fn a_wave_without_task_hazards_settles_like_no_config() {
        let plain =
            Engine::new(ClusterSpec::tiny(), Personality::sparrow()).with_parallelism_threshold(0);
        let configs = [
            plain.clone(),
            plain.clone().with_faults(FaultConfig::disabled()),
            plain
                .clone()
                .with_faults(FaultConfig::disabled().with_cache_evict_p(0.5)),
        ];
        for (raise, panic) in [(1, 3), (3, 1)] {
            let want = first_error(&plain, raise, panic);
            assert_eq!(want.0.contains("panicked"), panic < raise, "{want:?}");
            assert_eq!(want.1, u64::from(panic < raise));
            for engine in &configs {
                assert_eq!(first_error(engine, raise, panic), want);
            }
            assert_eq!((want.2, want.3), (0.0, 0.0), "no fault charge");
        }
    }

    /// The one containment layer is `run_ranges`' catch around each run:
    /// a panic below an evaluation error is the wave's error, attributed to
    /// its partition, however the wave is dispatched and cut into runs.
    #[test]
    fn a_panic_below_an_error_raises_alike_on_every_thread_count_and_mode() {
        // A chaos seed that fails partition 0 of the first wave, so the
        // retry below the panic charges the clock.
        let chaos = (0..)
            .map(FaultConfig::chaos)
            .find(|cfg| cfg.task_fault(0, 0, 0) == TaskFault::Fail)
            .expect("some seed fails partition 0 at attempt 0");
        for faults in [FaultConfig::disabled(), chaos] {
            let mut want = None;
            for (wide, mode, threads) in [true, false]
                .into_iter()
                .flat_map(|w| [ParallelismMode::Pool, ParallelismMode::PerOperator].map(|m| (w, m)))
                .flat_map(|(w, m)| [1, 2, 4].map(|t| (w, m, t)))
            {
                let engine = Engine::new(ClusterSpec::tiny(), Personality::sparrow())
                    .with_parallelism_threshold(0)
                    .with_parallelism_mode(mode)
                    .with_worker_threads(Some(threads))
                    .with_faults(faults);
                let catalog = Catalog::new();
                let mut session = Session::new(&engine, &catalog, true);
                let err = session
                    .run_tasks(wide, 8, 800, |pi, _| match pi {
                        2 => panic!("p2"),
                        5 => Err(ValueError::Arithmetic("p5".into())),
                        _ => Ok(pi),
                    })
                    .expect_err("partition 2 panics and partition 5 raises");
                let st = &session.stats;
                let got = (
                    format!("{err:?}"),
                    st.tasks_failed,
                    st.simulated_secs.to_bits(),
                );
                assert!(got.0.contains("panicked: p2"), "{got:?}");
                let want = want.get_or_insert_with(|| got.clone());
                assert_eq!(&got, want, "wide {wide}, {mode:?}, {threads} threads");
            }
            let want = want.expect("some configuration ran");
            assert_eq!(want.1 > 1, faults.injects(), "{want:?}");
        }
    }

    #[test]
    fn an_injected_failure_below_an_error_is_retried_before_raising() {
        // A chaos seed that fails partition 1, but not 3, in the first wave.
        let fails = |cfg: &FaultConfig, pi| cfg.task_fault(0, pi, 0) == TaskFault::Fail;
        let chaos = (0..)
            .map(FaultConfig::chaos)
            .find(|cfg| fails(cfg, 1) && !fails(cfg, 3))
            .expect("some seed fails partition 1 alone");
        let plain = Engine::new(ClusterSpec::tiny(), Personality::sparrow());
        for engine in [plain.clone(), plain.with_faults(chaos)] {
            let catalog = Catalog::new();
            let mut session = Session::new(&engine, &catalog, true);
            let err = session
                .run_tasks(true, 4, 0, |pi, _| match pi {
                    1 | 3 => Err(ValueError::Arithmetic(format!("p{pi}"))),
                    _ => Ok(pi),
                })
                .expect_err("partitions 1 and 3 raise");
            assert_eq!(format!("{err:?}"), r#"Eval(Arithmetic("p1"))"#);
        }
    }

    #[test]
    fn a_wave_runs_runs_of_partitions_cut_at_its_failures() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // The first chaos seed that fails partition 3 of the first wave.
        let chaos = (0..)
            .map(FaultConfig::chaos)
            .find(|cfg| cfg.task_fault(0, 3, 0) == TaskFault::Fail)
            .expect("some seed fails partition 3 at attempt 0");
        // The attempt at which a partition's body runs: its first unfailed.
        let settles = |pi: usize| {
            (0..)
                .find(|&a| chaos.task_fault(0, pi as u64, a) != TaskFault::Fail)
                .expect("a partition settles")
        };
        let wave = |threads: usize| {
            let engine = Engine::new(ClusterSpec::tiny(), Personality::sparrow())
                .with_parallelism_threshold(0)
                .with_worker_threads(Some(threads))
                .with_faults(chaos);
            let catalog = Catalog::new();
            let mut session = Session::new(&engine, &catalog, true);
            let ran: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
            let ranges = Mutex::new(Vec::new());
            let got = session
                .run_ranges(true, 8, 800, |run, out| {
                    ranges.lock().expect("ranges lock").push(run.clone());
                    for pi in run {
                        ran[pi].fetch_add(1, Ordering::Relaxed);
                        let mut tally = Tally::default();
                        tally.batch(pi + 1);
                        out.push(Ok((pi * 10, tally)));
                    }
                })
                .expect("every partition settles within its retries");
            let ranges = ranges.into_inner().expect("ranges lock");
            assert_eq!(got, (0..8).map(|pi| pi * 10).collect::<Vec<_>>());
            for (pi, n) in ran.iter().enumerate() {
                assert_eq!(n.load(Ordering::Relaxed), 1, "partition {pi} ran once");
            }
            // A range runs in one wave, at the attempt every partition of
            // it settles at, so none of them failed there.
            for r in &ranges {
                assert!(r.clone().all(|pi| settles(pi) == settles(r.start)), "{r:?}");
            }
            (got, session.stats.clone(), ranges)
        };
        let (got, stats, ranges) = wave(1);
        assert!(settles(3) > 0);
        assert!(ranges.iter().any(|r| r.len() > 1), "{ranges:?}");
        assert_eq!(stats.rows_vectorized, (1..=8).sum::<u64>());
        assert_eq!(stats.tasks_retried, stats.tasks_failed);
        for threads in [2, 4] {
            let (t_got, t_stats, _) = wave(threads);
            assert_eq!((&t_got, &t_stats), (&got, &stats), "{threads} threads");
        }
        // A panic in the middle of a one-thread run is its partition's:
        // the partitions before it settle and tally, none after it runs.
        let one =
            Engine::new(ClusterSpec::tiny(), Personality::sparrow()).with_worker_threads(Some(1));
        let catalog = Catalog::new();
        let mut session = Session::new(&one, &catalog, true);
        let err = session
            .run_tasks(true, 8, 800, |pi, tally| {
                assert!(pi <= 5, "partition {pi} ran after the panic");
                tally.batch(1);
                match pi {
                    5 => panic!("p5"),
                    _ => Ok(pi),
                }
            })
            .expect_err("partition 5 panics");
        assert!(format!("{err:?}").contains("panicked: p5"), "{err:?}");
        assert_eq!(
            (session.stats.tasks_failed, session.stats.rows_vectorized),
            (1, 5)
        );
    }
}
