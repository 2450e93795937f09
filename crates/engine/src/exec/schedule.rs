//! Task waves: every per-partition operator body runs through
//! [`Session::run_tasks`], which owns the worker pool, the failure
//! schedule's wave counter, retries and speculation. Both are private to
//! this module.

use super::*;
use crate::fault::{self, SpeculationPolicy, TaskError, TaskFault};
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

/// Rows and batches a task body ran through typed kernels. Every body passed
/// to [`Session::run_tasks`] reports into the one it is handed;
/// [`Session::tally`] is the only place the two telemetry counters grow. A
/// body runs exactly once per partition, so the sums do not depend on the
/// schedule.
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
}

impl Session<'_> {
    /// Runs `n` index-addressed partition tasks with panic containment and
    /// partition-granularity retry.
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
    /// precomputed fates, so the task body still runs **exactly once** per
    /// partition per wave — single-consumption inputs (the shuffle's
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
            let settled = self
                .waves
                .par
                .run_settled(wide, pending.len(), wave_rows, |wi| match fates[wi] {
                    // A killed task never runs its body — its partition's
                    // work is lost and must be redone on retry.
                    TaskFault::Fail => Err(TaskError::Injected),
                    // Each body reports the rows it ran through kernels
                    // into a tally of its own, folded in as it settles.
                    _ => {
                        let mut tally = Tally::default();
                        let v = f(pending[wi], &mut tally).map_err(TaskError::Eval)?;
                        Ok((v, tally))
                    }
                });
            // Settle before any straggler accounting.
            let mut failed: Vec<usize> = Vec::new();
            for (wi, s) in settled.into_iter().enumerate() {
                let pi = pending[wi];
                let e = match s {
                    Ok(Ok((v, tally))) => {
                        self.tally(tally);
                        results[pi] = Some(v);
                        continue;
                    }
                    Ok(Err(TaskError::Injected)) => {
                        self.stats.tasks_failed += 1;
                        failed.push(pi);
                        continue;
                    }
                    Ok(Err(TaskError::Eval(e))) => e,
                    Err(payload) => {
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
}
