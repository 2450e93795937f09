//! Execution metrics and the deterministic simulated clock.
//!
//! The engine really computes results, but "runtime" in the paper's figures
//! is a function of cluster-level effects (shuffle volume, broadcast volume,
//! storage reads, memory pressure), not of this process's wall clock. The
//! [`ExecStats`] accumulator records both the physical byte/record counters
//! and the derived simulated seconds, so benchmarks can report either.

use std::fmt;

/// Accumulated execution statistics for one program run.
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// The simulated wall-clock, in seconds. Derived from an exact
    /// fixed-point accumulator (see `ExecStats::charge_secs`), so two runs
    /// that accrue the same *set* of charges produce bit-identical values
    /// even if the charges arrive in a different order — which is what lets
    /// pipeline-fused and unfused executions of the same plan agree exactly.
    pub simulated_secs: f64,
    /// Real elapsed time of the run, in seconds: from `Engine::run`'s entry
    /// until the run's state (its environment of cached bags, memos and
    /// worker pool) has been freed, so only handing back the result is
    /// outside it. Unlike `simulated_secs` (the paper's cluster cost
    /// model), this measures this process's actual wall clock and is what
    /// the pipeline-fusion benchmarks compare.
    pub wall_secs: f64,
    /// Exclusive simulated time attributed to each operator kind — an
    /// `EXPLAIN ANALYZE`-style breakdown of where the clock went.
    pub op_secs: std::collections::HashMap<&'static str, f64>,
    /// Exclusive *real* elapsed time per operator kind (the wall-clock
    /// counterpart of `op_secs`).
    pub op_wall_secs: std::collections::HashMap<&'static str, f64>,
    /// Exact fixed-point backing store for `simulated_secs`, in attoseconds
    /// (10⁻¹⁸ s). Integer addition is associative and commutative, so the
    /// total cannot drift with charge order the way repeated `f64 +=` can.
    sim_attos: u128,
    /// Bytes moved through hash shuffles.
    pub bytes_shuffled: u64,
    /// Bytes shipped through broadcasts (driver → all workers).
    pub bytes_broadcast: u64,
    /// Bytes read from the storage layer (sources + HDFS-cache reads).
    pub bytes_read_storage: u64,
    /// Bytes written to the storage layer (sinks + HDFS-cache writes).
    pub bytes_written_storage: u64,
    /// Bytes spilled by over-memory aggregation state.
    pub bytes_spilled: u64,
    /// Records processed across all operators.
    pub records_processed: u64,
    /// Dataflow stages executed.
    pub stages: u64,
    /// Cache hits (thunk re-uses that avoided recomputation).
    pub cache_hits: u64,
    /// Cache misses (thunk forcings that executed the plan).
    pub cache_misses: u64,
    /// Loop iterations driven by the driver.
    pub iterations: u64,
    /// Partition-task attempts that failed (injected faults and contained
    /// panics alike).
    pub tasks_failed: u64,
    /// Partition tasks re-dispatched after a recoverable failure.
    pub tasks_retried: u64,
    /// Task attempts that completed late as injected stragglers.
    pub straggler_delays: u64,
    /// Straggling tasks for which a speculative backup copy was launched
    /// (requires `FaultConfig::speculation`).
    pub tasks_speculated: u64,
    /// Speculative backups that finished before their straggling primary,
    /// shortening the wave.
    pub speculation_wins: u64,
    /// Simulated seconds of duplicate work burned by speculation: until the
    /// winning copy finishes, both copies occupy executor slots. Charged to
    /// the simulated clock spread over the cluster DOP.
    pub speculation_wasted_secs: f64,
    /// Eligible cache writes additionally persisted to simulated durable
    /// storage under a `CheckpointConfig`.
    pub checkpoints_written: u64,
    /// Cache evictions recovered by re-reading a checkpoint from storage
    /// instead of re-deriving plan lineage.
    pub checkpoint_restores: u64,
    /// Eligible cache writes the cost-driven placement policy declined to
    /// persist — score at or below the threshold, or over the write budget.
    /// Always 0 under `CheckpointPolicy::EveryN`.
    pub checkpoints_skipped_low_score: u64,
    /// Final auto-tuned write budget of the cost-driven placement policy
    /// (`sites_seen × budget_bytes_per_site × 2 × eviction_risk`), as of the
    /// last placement decision. Always 0 under `CheckpointPolicy::EveryN`.
    pub checkpoint_budget_bytes: u64,
    /// Cached thunk results found evicted on read, forcing lineage
    /// recomputation.
    pub cache_evictions: u64,
    /// Partitions rebuilt by lineage recomputation after an eviction.
    pub recomputed_partitions: u64,
    /// Plan nodes re-forced during lineage recomputation (the lineage-depth
    /// counterpart of `recomputed_partitions`).
    pub recomputed_plan_nodes: u64,
    /// Simulated seconds spent on retry backoff and straggler delays — a
    /// sub-total of `simulated_secs`, charged through the same deterministic
    /// fixed-point clock.
    pub retry_sim_secs: f64,
    /// Hot shuffle partitions split into sub-partitions by the skew-aware
    /// shuffle layer (requires `Engine::with_skew_splitting`).
    pub partitions_split: u64,
    /// Rows a split placed outside their original partition's first
    /// sub-partition — the data-movement price of rebalancing.
    pub split_rows_moved: u64,
    /// Worst skew ratio (`max_part_rows × parts / total_rows`) observed
    /// across skew-eligible shuffles, measured *before* splitting. 1.0 is
    /// perfectly balanced; only tracked when skew splitting is configured,
    /// and only for layouts whose hottest partition reaches
    /// `SkewConfig::min_part_rows` (the split's own noise floor).
    pub max_skew_ratio: f64,
    /// Rows evaluated through the vectorized columnar batch tier; counts
    /// each row once per fused vectorized operator chain it passed through. Rows replayed through
    /// the interpreter after a batch abort are not counted.
    pub rows_vectorized: u64,
    /// Columnar batches executed successfully by the vectorized tier.
    pub batches_executed: u64,
    /// Operator executions over a non-empty input that were not fully
    /// type-specializable (or have no columnar form, like FlatMap) and ran
    /// on the interpreter — "no silent slow paths": every refusal is
    /// visible here. A fused `aggBy` whose fold does not specialize counts
    /// once.
    pub vector_fallbacks: u64,
    /// Keyed-operator sites (a shuffle, `groupBy`, a join side, stateful
    /// create/update) over a non-empty input whose key body resisted
    /// specialization while the vectorized tier was active, so its keys were
    /// evaluated row-at-a-time. The key-path analogue of `vector_fallbacks`.
    pub key_path_fallbacks: u64,
}

/// Attoseconds per second — the resolution of the simulated clock.
pub(crate) const ATTOS_PER_SEC: f64 = 1e18;

impl ExecStats {
    /// Adds simulated time.
    ///
    /// Each charge is rounded once to an integer attosecond count and summed
    /// exactly; `simulated_secs` is re-derived from the integer total. The
    /// rounding is per-charge-value (deterministic), so any two executions
    /// that issue the same multiset of charges — regardless of order — end
    /// at bit-identical `simulated_secs`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative charge — in release builds too.
    /// A NaN or negative `secs` would otherwise saturate to 0 in the
    /// `as u128` cast and silently desync the sim clock from the charges
    /// actually issued; a corrupted clock is worse than an abort, because
    /// every determinism check downstream compares it bit-for-bit.
    pub(crate) fn charge_secs(&mut self, secs: f64) {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "bad simulated-time charge: {secs}"
        );
        self.sim_attos += (secs * ATTOS_PER_SEC).round() as u128;
        self.simulated_secs = self.sim_attos as f64 / ATTOS_PER_SEC;
    }

    /// A copy with the four evaluation-tier telemetry counters
    /// (`rows_vectorized`, `batches_executed`, `vector_fallbacks`,
    /// `key_path_fallbacks`) zeroed. They record which tier ran each site —
    /// the only fields allowed to differ between the kernels and the
    /// interpreter (`OptimizerFlags::compiled_eval` off), or between two
    /// plan shapes of one program — so differential tests compare everything
    /// else with `==`.
    pub fn without_tier_telemetry(&self) -> ExecStats {
        ExecStats {
            rows_vectorized: 0,
            batches_executed: 0,
            vector_fallbacks: 0,
            key_path_fallbacks: 0,
            ..self.clone()
        }
    }

    /// The exact fixed-point clock, in attoseconds. Lets the service layer
    /// aggregate session clocks with the same order-independent integer
    /// arithmetic the per-run clock uses.
    pub(crate) fn sim_attos(&self) -> u128 {
        self.sim_attos
    }

    /// The `n` most expensive operator kinds, by exclusive simulated time,
    /// most expensive first.
    pub fn top_operators(&self, n: usize) -> Vec<(&'static str, f64)> {
        let mut ops: Vec<(&'static str, f64)> =
            self.op_secs.iter().map(|(k, v)| (*k, *v)).collect();
        ops.sort_by(|a, b| b.1.total_cmp(&a.1));
        ops.truncate(n);
        ops
    }
}

/// Equality compares the deterministic simulation counters only: wall-clock
/// fields (`wall_secs`, `op_wall_secs`) vary run to run, and the per-operator
/// attribution breakdown (`op_secs`) is excluded because fused and unfused
/// executions of the same plan attribute the same total to different operator
/// labels (`Pipeline` vs. `Map`/`Filter`/`FlatMap`).
impl PartialEq for ExecStats {
    fn eq(&self, other: &Self) -> bool {
        self.sim_attos == other.sim_attos
            && self.bytes_shuffled == other.bytes_shuffled
            && self.bytes_broadcast == other.bytes_broadcast
            && self.bytes_read_storage == other.bytes_read_storage
            && self.bytes_written_storage == other.bytes_written_storage
            && self.bytes_spilled == other.bytes_spilled
            && self.records_processed == other.records_processed
            && self.stages == other.stages
            && self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
            && self.iterations == other.iterations
            && self.tasks_failed == other.tasks_failed
            && self.tasks_retried == other.tasks_retried
            && self.straggler_delays == other.straggler_delays
            && self.tasks_speculated == other.tasks_speculated
            && self.speculation_wins == other.speculation_wins
            && self.speculation_wasted_secs == other.speculation_wasted_secs
            && self.checkpoints_written == other.checkpoints_written
            && self.checkpoint_restores == other.checkpoint_restores
            && self.checkpoints_skipped_low_score == other.checkpoints_skipped_low_score
            && self.checkpoint_budget_bytes == other.checkpoint_budget_bytes
            && self.cache_evictions == other.cache_evictions
            && self.recomputed_partitions == other.recomputed_partitions
            && self.recomputed_plan_nodes == other.recomputed_plan_nodes
            && self.retry_sim_secs == other.retry_sim_secs
            && self.partitions_split == other.partitions_split
            && self.split_rows_moved == other.split_rows_moved
            && self.max_skew_ratio == other.max_skew_ratio
            && self.rows_vectorized == other.rows_vectorized
            && self.batches_executed == other.batches_executed
            && self.vector_fallbacks == other.vector_fallbacks
            && self.key_path_fallbacks == other.key_path_fallbacks
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}s  shuffle={}  bcast={}  read={}  write={}  spill={}  records={}  stages={}  cache {}/{} hit/miss  iters={}",
            self.simulated_secs,
            human_bytes(self.bytes_shuffled),
            human_bytes(self.bytes_broadcast),
            human_bytes(self.bytes_read_storage),
            human_bytes(self.bytes_written_storage),
            human_bytes(self.bytes_spilled),
            self.records_processed,
            self.stages,
            self.cache_hits,
            self.cache_misses,
            self.iterations,
        )?;
        // Failure observability: appended only when something actually went
        // wrong, so fault-free output keeps its familiar one-line shape.
        if self.tasks_failed > 0 || self.tasks_retried > 0 {
            write!(
                f,
                "  failed={}  retried={}  retry_sim={:.2}s",
                self.tasks_failed, self.tasks_retried, self.retry_sim_secs
            )?;
        }
        if self.straggler_delays > 0 {
            write!(f, "  stragglers={}", self.straggler_delays)?;
        }
        if self.tasks_speculated > 0 {
            write!(
                f,
                "  speculated={}  spec_wins={}  spec_wasted={:.2}s",
                self.tasks_speculated, self.speculation_wins, self.speculation_wasted_secs
            )?;
        }
        if self.checkpoints_written > 0
            || self.checkpoint_restores > 0
            || self.checkpoints_skipped_low_score > 0
        {
            write!(
                f,
                "  ckpt={}w/{}r",
                self.checkpoints_written, self.checkpoint_restores
            )?;
            if self.checkpoints_skipped_low_score > 0 || self.checkpoint_budget_bytes > 0 {
                write!(
                    f,
                    "/{}skip  ckpt_budget={}",
                    self.checkpoints_skipped_low_score,
                    human_bytes(self.checkpoint_budget_bytes)
                )?;
            }
        }
        if self.cache_evictions > 0 {
            write!(
                f,
                "  evicted={}  recomputed={}p/{}n",
                self.cache_evictions, self.recomputed_partitions, self.recomputed_plan_nodes
            )?;
        }
        if self.partitions_split > 0 || self.max_skew_ratio > 0.0 {
            write!(
                f,
                "  skew={:.2}  split={}  moved={}",
                self.max_skew_ratio, self.partitions_split, self.split_rows_moved
            )?;
        }
        if self.rows_vectorized > 0 || self.vector_fallbacks > 0 || self.key_path_fallbacks > 0 {
            write!(
                f,
                "  vectorized={}r/{}b  vec_fallbacks={}",
                self.rows_vectorized, self.batches_executed, self.vector_fallbacks
            )?;
            if self.key_path_fallbacks > 0 {
                write!(f, "  key_fallbacks={}", self.key_path_fallbacks)?;
            }
        }
        Ok(())
    }
}

/// Formats a byte count with a binary-unit suffix.
pub(crate) fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b}B")
    } else {
        format!("{v:.1}{}", UNITS[u])
    }
}

/// Execution errors.
#[derive(Debug)]
pub enum ExecError {
    /// The simulated clock exceeded the configured timeout
    /// (the paper's "did not finish within one hour").
    Timeout {
        /// Simulated seconds at abort.
        at_secs: f64,
        /// The configured budget.
        budget_secs: f64,
    },
    /// An expression-evaluation error (type mismatch, unbound variable, …).
    Eval(emma_compiler::value::ValueError),
    /// Driver-level loop safety cap exceeded.
    LoopCap(usize),
    /// A partition task kept failing (injected faults) past its retry
    /// budget: `attempts` total attempts were made.
    TaskFailed {
        /// Partition index of the task that exhausted its budget.
        partition: usize,
        /// Total attempts made (1 initial + retries).
        attempts: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Timeout {
                at_secs,
                budget_secs,
            } => write!(
                f,
                "timed out: simulated clock {at_secs:.1}s exceeded budget {budget_secs:.1}s"
            ),
            ExecError::Eval(e) => write!(f, "evaluation error: {e}"),
            ExecError::LoopCap(n) => write!(f, "loop exceeded {n} iterations"),
            ExecError::TaskFailed {
                partition,
                attempts,
            } => write!(
                f,
                "partition task {partition} failed after {attempts} attempts (retry budget exhausted)"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<emma_compiler::value::ValueError> for ExecError {
    fn from(e: emma_compiler::value::ValueError) -> Self {
        ExecError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut s = ExecStats::default();
        s.charge_secs(1.5);
        s.charge_secs(2.5);
        assert!((s.simulated_secs - 4.0).abs() < 1e-12);
    }

    // Regression (release-mode clock corruption): `charge_secs` used to
    // guard bad charges with `debug_assert!` only, so in release a NaN or
    // negative value rode through `(secs * ATTOS_PER_SEC).round() as u128`,
    // saturated to 0, and silently desynced the sim clock. The guard is now
    // a hard `assert!` identical in both build modes.
    #[test]
    #[should_panic(expected = "bad simulated-time charge")]
    fn charge_rejects_nan() {
        ExecStats::default().charge_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "bad simulated-time charge")]
    fn charge_rejects_negative() {
        ExecStats::default().charge_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "bad simulated-time charge")]
    fn charge_rejects_infinity() {
        ExecStats::default().charge_secs(f64::INFINITY);
    }

    #[test]
    fn charge_order_is_irrelevant() {
        // The motivating case for the fixed-point clock: f64 `+=` in a
        // different order can drift by ULPs; the attosecond accumulator
        // cannot.
        let charges = [0.1, 1e-9, 2.5e3, 0.3, 7.77e-6, 123.456, 1e-12];
        let mut a = ExecStats::default();
        let mut b = ExecStats::default();
        for c in charges {
            a.charge_secs(c);
        }
        for c in charges.iter().rev() {
            b.charge_secs(*c);
        }
        assert_eq!(a.simulated_secs.to_bits(), b.simulated_secs.to_bits());
    }

    #[test]
    fn eq_ignores_wall_time_and_attribution() {
        let mut a = ExecStats::default();
        let mut b = ExecStats::default();
        a.wall_secs = 1.0;
        b.wall_secs = 9.0;
        b.op_wall_secs.insert("Map", 3.0);
        // Fused runs label time "Pipeline" where unfused runs say "Map";
        // attribution must not break counter equality.
        a.op_secs.insert("Map", 2.0);
        b.op_secs.insert("Pipeline", 2.0);
        assert_eq!(a, b);
        b.records_processed = 1;
        assert_ne!(a, b);
    }

    #[test]
    fn display_includes_written_bytes() {
        // Regression: sink/cache-spill traffic used to be invisible in bench
        // output because `bytes_written_storage` was omitted.
        let s = ExecStats {
            bytes_written_storage: 2048,
            ..Default::default()
        };
        assert!(s.to_string().contains("write=2.0KiB"), "{s}");
    }

    #[test]
    fn display_appends_fault_counters_only_when_nonzero() {
        let mut s = ExecStats::default();
        let clean = s.to_string();
        assert!(!clean.contains("failed="), "{clean}");
        assert!(!clean.contains("stragglers="), "{clean}");
        assert!(!clean.contains("evicted="), "{clean}");
        s.tasks_failed = 3;
        s.tasks_retried = 3;
        s.retry_sim_secs = 1.5;
        s.straggler_delays = 2;
        s.cache_evictions = 1;
        s.recomputed_partitions = 8;
        s.recomputed_plan_nodes = 4;
        let noisy = s.to_string();
        assert!(
            noisy.contains("failed=3  retried=3  retry_sim=1.50s"),
            "{noisy}"
        );
        assert!(noisy.contains("stragglers=2"), "{noisy}");
        assert!(noisy.contains("evicted=1  recomputed=8p/4n"), "{noisy}");
    }

    #[test]
    fn display_appends_speculation_and_checkpoint_counters_only_when_used() {
        let mut s = ExecStats::default();
        let clean = s.to_string();
        assert!(!clean.contains("speculated="), "{clean}");
        assert!(!clean.contains("ckpt="), "{clean}");
        s.tasks_speculated = 4;
        s.speculation_wins = 3;
        s.speculation_wasted_secs = 0.75;
        s.checkpoints_written = 6;
        s.checkpoint_restores = 2;
        let noisy = s.to_string();
        assert!(
            noisy.contains("speculated=4  spec_wins=3  spec_wasted=0.75s"),
            "{noisy}"
        );
        assert!(noisy.contains("ckpt=6w/2r"), "{noisy}");
    }

    #[test]
    fn display_appends_placement_counters_only_when_the_policy_skipped() {
        // EveryN runs never skip, so the ckpt section keeps its PR 4 shape.
        let every_n = ExecStats {
            checkpoints_written: 6,
            checkpoint_restores: 2,
            ..Default::default()
        };
        assert!(!every_n.to_string().contains("skip"), "{every_n}");
        let cost_driven = ExecStats {
            checkpoints_written: 6,
            checkpoint_restores: 2,
            checkpoints_skipped_low_score: 3,
            checkpoint_budget_bytes: 2048,
            ..Default::default()
        };
        let noisy = cost_driven.to_string();
        assert!(
            noisy.contains("ckpt=6w/2r/3skip  ckpt_budget=2.0KiB"),
            "{noisy}"
        );
        // A cost-driven run that skipped everything still surfaces it.
        let all_skipped = ExecStats {
            checkpoints_skipped_low_score: 4,
            ..Default::default()
        };
        assert!(all_skipped.to_string().contains("ckpt=0w/0r/4skip"));
    }

    #[test]
    fn eq_compares_placement_counters() {
        let a = ExecStats::default();
        for make in [
            |s: &mut ExecStats| s.checkpoints_skipped_low_score = 1,
            |s: &mut ExecStats| s.checkpoint_budget_bytes = 1,
        ] {
            let mut b = ExecStats::default();
            make(&mut b);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn display_appends_skew_counters_only_when_tracked() {
        let mut s = ExecStats::default();
        assert!(!s.to_string().contains("skew="), "{s}");
        s.max_skew_ratio = 3.5;
        s.partitions_split = 2;
        s.split_rows_moved = 4096;
        let noisy = s.to_string();
        assert!(noisy.contains("skew=3.50  split=2  moved=4096"), "{noisy}");
        // A skew-configured run that never split still reports the ratio.
        let watched = ExecStats {
            max_skew_ratio: 1.0,
            ..Default::default()
        };
        assert!(watched.to_string().contains("skew=1.00  split=0"));
    }

    #[test]
    fn eq_compares_skew_counters() {
        let a = ExecStats::default();
        let b = ExecStats {
            partitions_split: 1,
            ..Default::default()
        };
        assert_ne!(a, b);
        let c = ExecStats {
            max_skew_ratio: 2.0,
            ..Default::default()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn display_appends_vectorization_counters_only_when_tracked() {
        let mut s = ExecStats::default();
        assert!(!s.to_string().contains("vectorized="), "{s}");
        s.rows_vectorized = 2048;
        s.batches_executed = 2;
        s.vector_fallbacks = 1;
        let noisy = s.to_string();
        assert!(
            noisy.contains("vectorized=2048r/2b  vec_fallbacks=1"),
            "{noisy}"
        );
        // A vectorized run where everything fell back still reports it.
        let fallback_only = ExecStats {
            vector_fallbacks: 3,
            ..Default::default()
        };
        assert!(fallback_only.to_string().contains("vec_fallbacks=3"));
        // Key-path refusals appear only when any occurred.
        assert!(!fallback_only.to_string().contains("key_fallbacks="));
        let key_only = ExecStats {
            key_path_fallbacks: 2,
            ..Default::default()
        };
        let shown = key_only.to_string();
        assert!(shown.contains("key_fallbacks=2"), "{shown}");
    }

    #[test]
    fn eq_compares_vectorization_counters() {
        let a = ExecStats::default();
        for make in [
            |s: &mut ExecStats| s.rows_vectorized = 1,
            |s: &mut ExecStats| s.batches_executed = 1,
            |s: &mut ExecStats| s.vector_fallbacks = 1,
            |s: &mut ExecStats| s.key_path_fallbacks = 1,
        ] {
            let mut b = ExecStats::default();
            make(&mut b);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn eq_compares_speculation_and_checkpoint_counters() {
        let a = ExecStats::default();
        let b = ExecStats {
            speculation_wins: 1,
            ..Default::default()
        };
        assert_ne!(a, b);
        let c = ExecStats {
            checkpoint_restores: 1,
            ..Default::default()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn task_failed_error_displays() {
        let e = ExecError::TaskFailed {
            partition: 7,
            attempts: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("partition task 7"), "{msg}");
        assert!(msg.contains("4 attempts"), "{msg}");
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.0KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0MiB");
    }

    #[test]
    fn errors_display() {
        let e = ExecError::Timeout {
            at_secs: 3700.0,
            budget_secs: 3600.0,
        };
        assert!(e.to_string().contains("timed out"));
    }
}
