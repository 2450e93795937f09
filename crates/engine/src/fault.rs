//! Deterministic fault injection for the simulated cluster.
//!
//! The paper's target runtimes owe much of their architecture to failure
//! handling — lineage-based recomputation is the founding idea of RDDs
//! (Zaharia et al., NSDI 2012), and straggler/failure mitigation goes back
//! to MapReduce (Dean & Ghemawat, OSDI 2004). This module supplies the
//! failure *model* for our simulated cluster: individual partition tasks can
//! fail, run slow (stragglers), and cached results can be evicted, each at a
//! configurable per-event probability.
//!
//! Determinism is the design constraint everything here serves. Every
//! decision is a **pure function of `(seed, identifiers)`**: a task-fault
//! draw depends only on the fault seed, the batch's *site* number (assigned
//! in driver order, which is deterministic), the partition index, and the
//! attempt number; a cache-eviction draw depends only on the seed and the
//! driver-ordered eviction-event number. No decision ever reads shared
//! mutable RNG state from inside a worker task, so the failure schedule is
//! identical across thread counts, dispatch modes, and runs — two runs with
//! the same seed produce bit-identical [`crate::metrics::ExecStats`],
//! including `simulated_secs`.
//!
//! The draws themselves go through the workspace's [`rand`] shim
//! (xoshiro256** seeded via SplitMix64), one freshly seeded generator per
//! decision.
//!
//! Retry granularity follows the physical task layout. When the skew-aware
//! shuffle ([`crate::skew`]) splits a hot partition into sub-partitions, each
//! sub-partition becomes its own partition task: it draws its own fate (its
//! `part` identifier is its slot index in the split layout) and retries
//! independently, so one failing sub-partition never forces re-execution of
//! its siblings.

use std::any::Any;

use emma_compiler::value::ValueError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault-injection knobs for one engine run. All probabilities default to
/// zero, which disables injection entirely: the engine then draws no fault
/// and pays no fault charge, and every deterministic counter stays
/// bit-identical to a run without a `FaultConfig` at all (enforced by
/// `crates/bench/tests/fault_matrix.rs`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the failure schedule. Identical seeds (with identical knobs)
    /// reproduce identical failures, stragglers, and evictions.
    pub seed: u64,
    /// Probability that one partition task attempt fails outright
    /// (simulating a lost executor / killed container).
    pub task_fail_p: f64,
    /// Probability that one partition task attempt runs slow without
    /// failing. The batch is charged the slowest straggler's delay on the
    /// simulated clock (stage time = slowest task).
    pub straggler_p: f64,
    /// Base straggler delay in simulated seconds; the actual delay of one
    /// straggling task is drawn uniformly from `[0.5, 1.5) ×` this value.
    pub straggler_secs: f64,
    /// Probability that a cached thunk result has been evicted when a read
    /// attempts to hit it — forcing lineage recomputation of its plan.
    pub cache_evict_p: f64,
    /// How many times one partition task is retried after an injected
    /// failure before the run gives up with
    /// [`crate::metrics::ExecError::TaskFailed`].
    pub max_task_retries: u32,
    /// Base of the exponential retry backoff: before retry attempt `a`
    /// (1-based), the wave waits `retry_backoff_secs × 2^(a-1)` simulated
    /// seconds, charged to the simulated clock and to
    /// [`crate::metrics::ExecStats::retry_sim_secs`].
    pub retry_backoff_secs: f64,
    /// Whether the scheduler launches speculative backup copies of straggling
    /// tasks (MapReduce's backup-task mitigation, Dean & Ghemawat OSDI 2004).
    /// When on, a straggler's wave is charged
    /// `min(straggle_delay, speculation_overhead_secs + backup_delay)` —
    /// whichever copy finishes first — and the loser's duplicate runtime is
    /// accounted as wasted cluster work. Off by default (and off in both
    /// presets), so enabling the fault machinery without this knob keeps
    /// every counter bit-identical to the PR 3 engine.
    pub speculation: bool,
    /// Launch cost of one backup copy in simulated seconds: scheduling delay
    /// plus re-reading the task's input split. A backup can only win its race
    /// when `speculation_overhead_secs + backup_delay < straggle_delay`.
    pub speculation_overhead_secs: f64,
    /// Which stragglers get a backup copy when `speculation` is on. The
    /// default, [`SpeculationPolicy::All`], keeps the historical
    /// clone-every-straggler behavior.
    pub speculation_policy: SpeculationPolicy,
}

/// Selects which straggling tasks receive a speculative backup copy.
///
/// The policy is evaluated per wave from the wave's *injected* delays — a
/// pure function of the precomputed fate schedule, so it replays identically
/// across thread counts and dispatch modes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum SpeculationPolicy {
    /// Clone every straggler (the original behavior).
    #[default]
    All,
    /// Clone only stragglers slower than the wave's `q`-quantile of task
    /// delays (non-straggling tasks count as 0.0 delay). With `q = 0.75`,
    /// only the slowest quarter of a wave's tasks race a backup — fewer
    /// wasted duplicate slots at the price of tolerating mild stragglers.
    Quantile(f64),
}

impl SpeculationPolicy {
    /// The delay threshold above which a straggler is cloned, given the
    /// wave's full delay profile (one entry per task, 0.0 for non-stragglers).
    /// `All` admits every positive delay. Pure: sorts a copy, no RNG.
    pub(crate) fn clone_threshold(&self, wave_delays: &[f64]) -> f64 {
        match *self {
            SpeculationPolicy::All => 0.0,
            SpeculationPolicy::Quantile(q) => {
                if wave_delays.is_empty() {
                    return 0.0;
                }
                let mut sorted = wave_delays.to_vec();
                sorted.sort_by(f64::total_cmp);
                let q = q.clamp(0.0, 1.0);
                let idx = ((q * sorted.len() as f64).ceil() as usize)
                    .saturating_sub(1)
                    .min(sorted.len() - 1);
                sorted[idx]
            }
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultConfig {
    /// A config that injects nothing (all probabilities zero) but keeps a
    /// sensible retry budget — useful for asserting that merely *enabling*
    /// the fault machinery changes no counter.
    pub fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            task_fail_p: 0.0,
            straggler_p: 0.0,
            straggler_secs: 5.0,
            cache_evict_p: 0.0,
            max_task_retries: 3,
            retry_backoff_secs: 1.0,
            speculation: false,
            speculation_overhead_secs: 0.25,
            speculation_policy: SpeculationPolicy::All,
        }
    }

    /// An aggressive preset for fault-matrix tests: frequent task failures,
    /// stragglers, and cache evictions with a retry budget deep enough that
    /// every workload still completes correctly.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            task_fail_p: 0.05,
            straggler_p: 0.05,
            straggler_secs: 2.0,
            cache_evict_p: 0.25,
            max_task_retries: 8,
            retry_backoff_secs: 0.5,
            speculation: false,
            speculation_overhead_secs: 0.25,
            speculation_policy: SpeculationPolicy::All,
        }
    }

    /// [`FaultConfig::chaos`] with speculative execution switched on — the
    /// same failure/straggler/eviction schedule, but stragglers race backup
    /// copies instead of stalling their wave.
    pub fn chaos_speculative(seed: u64) -> Self {
        Self::chaos(seed).with_speculation(true)
    }

    /// Sets the failure-schedule seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-attempt task-failure probability.
    pub fn with_task_fail_p(mut self, p: f64) -> Self {
        self.task_fail_p = p;
        self
    }

    /// Sets the per-attempt straggler probability.
    pub fn with_straggler_p(mut self, p: f64) -> Self {
        self.straggler_p = p;
        self
    }

    /// Sets the base straggler delay in simulated seconds.
    pub fn with_straggler_secs(mut self, secs: f64) -> Self {
        self.straggler_secs = secs;
        self
    }

    /// Sets the per-read cache-eviction probability.
    pub fn with_cache_evict_p(mut self, p: f64) -> Self {
        self.cache_evict_p = p;
        self
    }

    /// Sets the retry budget per partition task.
    pub fn with_max_task_retries(mut self, n: u32) -> Self {
        self.max_task_retries = n;
        self
    }

    /// Sets the exponential-backoff base in simulated seconds.
    pub fn with_retry_backoff_secs(mut self, secs: f64) -> Self {
        self.retry_backoff_secs = secs;
        self
    }

    /// Enables or disables speculative backup copies for stragglers.
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculation = on;
        self
    }

    /// Selects which stragglers get backup copies (see [`SpeculationPolicy`]).
    pub fn with_speculation_policy(mut self, policy: SpeculationPolicy) -> Self {
        self.speculation_policy = policy;
        self
    }

    /// Whether any injection probability is nonzero. When false the engine
    /// draws no eviction and runs its task waves under [`Self::disabled`].
    pub fn injects(&self) -> bool {
        self.task_fail_p > 0.0 || self.straggler_p > 0.0 || self.cache_evict_p > 0.0
    }

    /// The fault (if any) injected into attempt `attempt` of partition task
    /// `part` of batch `site`. Pure: depends only on the config and the
    /// three identifiers.
    pub fn task_fault(&self, site: u64, part: u64, attempt: u32) -> TaskFault {
        self.draw_fault(STREAM_TASK, site, part, attempt)
    }

    /// The fate of the speculative *backup copy* launched for a straggling
    /// attempt. Drawn from its own stream salt so backups never perturb the
    /// primary schedule: switching speculation on replays the exact same
    /// primary failures, stragglers, and evictions. A backup is exposed to
    /// the same hazard rates as the task it duplicates — it can fail at
    /// launch or straggle itself.
    pub fn backup_fault(&self, site: u64, part: u64, attempt: u32) -> TaskFault {
        self.draw_fault(STREAM_BACKUP, site, part, attempt)
    }

    fn draw_fault(&self, stream: u64, site: u64, part: u64, attempt: u32) -> TaskFault {
        if self.task_fail_p <= 0.0 && self.straggler_p <= 0.0 {
            return TaskFault::None;
        }
        let mut rng = self.decision_rng(stream, site, part, attempt as u64);
        if self.task_fail_p > 0.0 && rng.gen_bool(self.task_fail_p) {
            return TaskFault::Fail;
        }
        if self.straggler_p > 0.0 && rng.gen_bool(self.straggler_p) {
            let jitter = 0.5 + rng.gen::<f64>();
            return TaskFault::Straggle(self.straggler_secs * jitter);
        }
        TaskFault::None
    }

    /// Whether cache-read event number `event` (driver-ordered) finds its
    /// entry evicted. Pure: depends only on the config and the event number.
    pub fn cache_evicted(&self, event: u64) -> bool {
        if self.cache_evict_p <= 0.0 {
            return false;
        }
        let mut rng = self.decision_rng(STREAM_EVICT, event, 0, 0);
        rng.gen_bool(self.cache_evict_p)
    }

    /// One freshly seeded generator per decision, so draws never depend on
    /// how many draws other tasks made (i.e. on scheduling order).
    fn decision_rng(&self, stream: u64, a: u64, b: u64, c: u64) -> StdRng {
        let mut h = self.seed ^ fmix64(stream);
        h = fmix64(h ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = fmix64(h ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        h = fmix64(h ^ c.wrapping_mul(0x1656_67B1_9E37_79F9));
        StdRng::seed_from_u64(h)
    }
}

/// Decision-stream salts, so task faults and evictions with coinciding
/// identifiers draw from unrelated parts of the seed space.
const STREAM_TASK: u64 = 0x7461_736b; // "task"
const STREAM_EVICT: u64 = 0x6576_6963; // "evic"
const STREAM_BACKUP: u64 = 0x6261_636b; // "back"

/// 64-bit avalanche mixer (MurmurHash3 finalizer).
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}

/// Opt-in simulated checkpointing policy ([`crate::Engine::with_checkpoints`]),
/// the lineage/checkpoint tradeoff of RDDs (Zaharia et al., NSDI 2012).
/// Selected cache writes are additionally persisted to simulated durable
/// storage at a charged write cost (`bytes_written_storage`); a later cache
/// eviction of a persisted result restores it with a storage read instead of
/// re-deriving its whole `Plan` lineage, so deep iterative recovery becomes
/// O(delta to the nearest checkpoint) instead of O(lineage depth) —
/// observable via `ExecStats::recomputed_plan_nodes`. Without a config the
/// engine never persists or restores anything and every counter stays
/// bit-identical to an engine without the feature.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointConfig {
    /// Which eligible cache writes actually get persisted.
    pub policy: CheckpointPolicy,
    /// Minimum lineage size (logical operators, `Plan::lineage_size`) below
    /// which a cache site is not worth persisting: a bare source scan's
    /// recovery path *is* re-reading the source.
    pub min_lineage: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            policy: CheckpointPolicy::EveryN(1),
            min_lineage: 2,
        }
    }
}

impl CheckpointConfig {
    /// Persist every `interval`-th eligible cache write (clamped to ≥ 1).
    pub fn every(interval: u64) -> Self {
        CheckpointConfig {
            policy: CheckpointPolicy::EveryN(interval.max(1)),
            ..Self::default()
        }
    }

    /// Cost-driven placement with the default [`CostDrivenConfig`]: persist
    /// the cache sites whose recomputation-cost × eviction-risk score clears
    /// the threshold, within the auto-tuned write budget.
    pub fn cost_driven() -> Self {
        CheckpointConfig {
            policy: CheckpointPolicy::CostDriven(CostDrivenConfig::default()),
            ..Self::default()
        }
    }

    /// Sets the placement policy.
    pub fn with_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// How checkpoint sites are chosen among the eligible cache writes. Both
/// variants are pure functions of driver-ordered state, so the set of
/// persisted sites replays bit-identically across thread counts, dispatch
/// modes, and runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CheckpointPolicy {
    /// Persist every `n`-th eligible cache write, counted in driver order
    /// (1 = persist every eligible write) — the original fixed-interval
    /// policy, bit-identical to the pre-policy engine. A zero written
    /// directly into the variant is clamped to 1 at the use site.
    EveryN(u64),
    /// Persist the sites whose estimated recomputation cost × eviction risk
    /// clears a threshold, within a write budget auto-tuned from the
    /// observed eviction rate. See [`CostDrivenConfig`].
    CostDriven(CostDrivenConfig),
}

/// Knobs of the cost-driven checkpoint placement policy.
///
/// Each eligible cache write is scored
/// `lineage_size × partition_bytes × eviction_risk`, doubled (by default)
/// when the site's own materialization triggered a skew split — hot
/// partitions are exactly where recomputation is most expensive. The site is
/// persisted iff its score strictly exceeds [`score_threshold`] *and* the
/// bytes written so far stay within the running budget
/// `sites_seen × budget_bytes_per_site × 2 × eviction_risk` — so a rising
/// observed eviction rate widens the budget and a risk-free run (no
/// configured `cache_evict_p`, no observed evictions) persists nothing,
/// because a checkpoint that can never be restored is pure write cost.
///
/// `eviction_risk` blends the configured [`FaultConfig::cache_evict_p`]
/// prior with the observed eviction rate as a Beta-style pseudo-count
/// estimate: `(evictions + w·prior) / (reads + w)` with
/// `w =` [`risk_prior_weight`]. Every input is a deterministic
/// driver-ordered counter, so scoring replays bit-identically.
///
/// [`score_threshold`]: CostDrivenConfig::score_threshold
/// [`risk_prior_weight`]: CostDrivenConfig::risk_prior_weight
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostDrivenConfig {
    /// Persist only sites whose score (lineage × bytes × risk × boost) is
    /// strictly above this. 0.0 admits every site with any eviction risk.
    pub score_threshold: f64,
    /// Budget scale: simulated-storage bytes earned per eligible site seen,
    /// before the ×2×risk auto-tuning factor.
    pub budget_bytes_per_site: u64,
    /// Score multiplier for sites immediately downstream of a shuffle that
    /// triggered skew splitting (`partitions_split` grew while the site
    /// materialized).
    pub skew_boost: f64,
    /// Pseudo-count weight of the configured `cache_evict_p` prior in the
    /// eviction-risk estimate; higher values trust the prior longer before
    /// the observed rate takes over.
    pub risk_prior_weight: f64,
}

impl Default for CostDrivenConfig {
    fn default() -> Self {
        CostDrivenConfig {
            score_threshold: 0.0,
            budget_bytes_per_site: 1 << 20,
            skew_boost: 2.0,
            risk_prior_weight: 8.0,
        }
    }
}

impl CostDrivenConfig {
    /// Sets the minimum (exclusive) score a site must reach to be persisted.
    pub fn with_score_threshold(mut self, t: f64) -> Self {
        self.score_threshold = t;
        self
    }

    /// Sets the per-site byte allowance that scales the write budget.
    pub fn with_budget_bytes_per_site(mut self, bytes: u64) -> Self {
        self.budget_bytes_per_site = bytes;
        self
    }

    /// Sets the score multiplier for sites downstream of a skew split.
    pub fn with_skew_boost(mut self, boost: f64) -> Self {
        self.skew_boost = boost;
        self
    }

    /// Blended eviction-risk estimate in `[0, 1]`: the observed eviction
    /// rate (`evictions / reads`) shrunk toward the configured prior
    /// `prior_p` by `risk_prior_weight` pseudo-observations. Pure arithmetic
    /// over deterministic counters.
    pub fn eviction_risk(&self, evictions: u64, reads: u64, prior_p: f64) -> f64 {
        let w = self.risk_prior_weight.max(0.0);
        let denom = reads as f64 + w;
        if denom <= 0.0 {
            return prior_p.clamp(0.0, 1.0);
        }
        ((evictions as f64 + w * prior_p.clamp(0.0, 1.0)) / denom).clamp(0.0, 1.0)
    }

    /// The placement score of one eligible cache site: estimated
    /// recomputation cost (lineage depth × partition bytes) × eviction risk,
    /// boosted when the site sits just downstream of a skew-split shuffle.
    pub fn score(&self, lineage: usize, bytes: u64, risk: f64, downstream_of_split: bool) -> f64 {
        let boost = if downstream_of_split {
            self.skew_boost.max(0.0)
        } else {
            1.0
        };
        lineage as f64 * bytes as f64 * risk * boost
    }

    /// The running write budget after `sites_seen` eligible sites at the
    /// current risk estimate: `sites_seen × budget_bytes_per_site × 2 ×
    /// risk`, rounded down. Risk 0 ⇒ budget 0 ⇒ nothing is persisted.
    pub fn budget_bytes(&self, sites_seen: u64, risk: f64) -> u64 {
        (sites_seen as f64 * self.budget_bytes_per_site as f64 * 2.0 * risk.clamp(0.0, 1.0)) as u64
    }
}

/// The injected fate of one partition-task attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TaskFault {
    /// Runs normally.
    None,
    /// Fails (retryable up to the configured budget).
    Fail,
    /// Completes, but this many simulated seconds late.
    Straggle(f64),
}

/// Converts a caught panic payload into the typed error the executor
/// surfaces. A payload that *is* a [`ValueError`] (a UDF error thrown across
/// an unwind boundary) is downcast back into the typed error; string
/// payloads keep their message; anything else gets a generic marker. The
/// original text is never discarded.
pub(crate) fn panic_value_error(payload: Box<dyn Any + Send>) -> ValueError {
    let payload = match payload.downcast::<ValueError>() {
        Ok(e) => return *e,
        Err(p) => p,
    };
    let msg = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "opaque panic payload".to_string(),
        },
    };
    ValueError::Unknown(format!("partition task panicked: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_identifiers() {
        let cfg = FaultConfig::chaos(42);
        for site in 0..50u64 {
            for part in 0..8u64 {
                for attempt in 0..3u32 {
                    assert_eq!(
                        cfg.task_fault(site, part, attempt),
                        cfg.task_fault(site, part, attempt)
                    );
                }
            }
        }
        for ev in 0..200u64 {
            assert_eq!(cfg.cache_evicted(ev), cfg.cache_evicted(ev));
        }
    }

    #[test]
    fn rates_roughly_match_probabilities() {
        let cfg = FaultConfig::disabled()
            .with_seed(7)
            .with_task_fail_p(0.2)
            .with_straggler_p(0.1);
        let mut fails = 0;
        let mut straggles = 0;
        let n = 20_000u64;
        for site in 0..n {
            match cfg.task_fault(site, 0, 0) {
                TaskFault::Fail => fails += 1,
                TaskFault::Straggle(secs) => {
                    assert!(
                        (0.5 * cfg.straggler_secs..1.5 * cfg.straggler_secs).contains(&secs),
                        "delay out of range: {secs}"
                    );
                    straggles += 1;
                }
                TaskFault::None => {}
            }
        }
        assert!((3_000..5_000).contains(&fails), "fails={fails}");
        // Straggle draws condition on not failing: ~0.8 × 0.1.
        assert!((1_000..2_300).contains(&straggles), "straggles={straggles}");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultConfig::chaos(1);
        let b = FaultConfig::chaos(2);
        let schedule = |cfg: &FaultConfig| {
            (0..500u64)
                .map(|site| cfg.task_fault(site, 0, 0))
                .collect::<Vec<_>>()
        };
        assert_ne!(schedule(&a), schedule(&b));
    }

    #[test]
    fn disabled_injects_nothing() {
        let cfg = FaultConfig::disabled();
        assert!(!cfg.injects());
        for site in 0..100 {
            assert_eq!(cfg.task_fault(site, 0, 0), TaskFault::None);
            assert!(!cfg.cache_evicted(site));
        }
    }

    #[test]
    fn backup_schedule_is_pure_and_independent_of_the_primary() {
        let cfg = FaultConfig::chaos_speculative(42);
        assert!(cfg.speculation);
        let mut diverged = false;
        for site in 0..200u64 {
            for part in 0..4u64 {
                assert_eq!(
                    cfg.backup_fault(site, part, 0),
                    cfg.backup_fault(site, part, 0)
                );
                if cfg.backup_fault(site, part, 0) != cfg.task_fault(site, part, 0) {
                    diverged = true;
                }
            }
        }
        // Same identifiers, different stream salt: the backup copy's fate is
        // not a replay of the primary's.
        assert!(diverged);
    }

    #[test]
    fn speculation_is_off_in_both_presets() {
        assert!(!FaultConfig::disabled().speculation);
        assert!(!FaultConfig::chaos(7).speculation);
        assert!(FaultConfig::disabled().with_speculation(true).speculation);
    }

    #[test]
    fn speculation_policy_defaults_to_clone_everything() {
        assert_eq!(
            FaultConfig::disabled().speculation_policy,
            SpeculationPolicy::All
        );
        assert_eq!(
            FaultConfig::chaos(7).speculation_policy,
            SpeculationPolicy::All
        );
        let cfg = FaultConfig::chaos_speculative(7)
            .with_speculation_policy(SpeculationPolicy::Quantile(0.9));
        assert_eq!(cfg.speculation_policy, SpeculationPolicy::Quantile(0.9));
    }

    #[test]
    fn quantile_threshold_picks_the_wave_quantile() {
        let all = SpeculationPolicy::All;
        assert_eq!(all.clone_threshold(&[0.0, 3.0, 1.0]), 0.0);

        let q75 = SpeculationPolicy::Quantile(0.75);
        // Sorted: [0, 0, 1, 4]; ceil(0.75×4)−1 = 2 → threshold 1.0. Only the
        // 4.0s straggler clears it; the 1.0s one equals it and is tolerated.
        assert_eq!(q75.clone_threshold(&[0.0, 4.0, 1.0, 0.0]), 1.0);
        assert_eq!(q75.clone_threshold(&[]), 0.0);
        // All-quiet wave: threshold 0.0, and no straggler exists to clone.
        assert_eq!(q75.clone_threshold(&[0.0, 0.0]), 0.0);
        // q clamps: Quantile(2.0) behaves like the max.
        assert_eq!(
            SpeculationPolicy::Quantile(2.0).clone_threshold(&[1.0, 5.0]),
            5.0
        );
        // Determinism: same profile, same threshold.
        let profile = [0.7, 0.0, 2.4, 0.0, 9.1, 0.3];
        assert_eq!(
            q75.clone_threshold(&profile).to_bits(),
            q75.clone_threshold(&profile).to_bits()
        );
    }

    #[test]
    fn checkpoint_config_clamps_interval() {
        assert_eq!(
            CheckpointConfig::every(0).policy,
            CheckpointPolicy::EveryN(1)
        );
        assert_eq!(
            CheckpointConfig::every(5).policy,
            CheckpointPolicy::EveryN(5)
        );
        assert_eq!(CheckpointConfig::default().min_lineage, 2);
        assert_eq!(
            CheckpointConfig::default().policy,
            CheckpointPolicy::EveryN(1)
        );
        assert!(matches!(
            CheckpointConfig::cost_driven().policy,
            CheckpointPolicy::CostDriven(_)
        ));
    }

    #[test]
    fn eviction_risk_blends_prior_with_observed_rate() {
        let cfg = CostDrivenConfig::default();
        // No observations: the estimate is exactly the prior.
        assert_eq!(cfg.eviction_risk(0, 0, 0.25), 0.25);
        // Heavy observation swamps the prior.
        let r = cfg.eviction_risk(900, 1_000, 0.0);
        assert!(r > 0.85 && r < 0.9, "risk={r}");
        // All-evicted converges toward (but never above) 1.0.
        let r = cfg.eviction_risk(1_000, 1_000, 1.0);
        assert_eq!(r, 1.0);
        assert!(cfg.eviction_risk(1_000, 1_000, 0.0) < 1.0);
        // Clamped on bogus priors.
        assert_eq!(cfg.eviction_risk(0, 0, 7.0), 1.0);
        assert_eq!(cfg.eviction_risk(0, 0, -3.0), 0.0);
        // Zero prior weight: pure observed rate, and the empty case is the
        // clamped prior instead of 0/0.
        let raw = CostDrivenConfig {
            risk_prior_weight: 0.0,
            ..cfg
        };
        assert_eq!(raw.eviction_risk(1, 4, 0.9), 0.25);
        assert_eq!(raw.eviction_risk(0, 0, 0.9), 0.9);
    }

    #[test]
    fn score_multiplies_cost_risk_and_skew_boost() {
        let cfg = CostDrivenConfig::default();
        assert_eq!(cfg.score(10, 100, 0.5, false), 500.0);
        assert_eq!(cfg.score(10, 100, 0.5, true), 1_000.0);
        assert_eq!(cfg.score(10, 100, 0.0, true), 0.0);
        let flat = cfg.with_skew_boost(1.0);
        assert_eq!(
            flat.score(10, 100, 0.5, true),
            flat.score(10, 100, 0.5, false)
        );
        // A negative boost never turns the score negative-useful: clamped to 0.
        assert_eq!(cfg.with_skew_boost(-2.0).score(10, 100, 0.5, true), 0.0);
        // Pure: identical inputs give bit-identical scores.
        assert_eq!(
            cfg.score(13, 4_096, 0.375, true).to_bits(),
            cfg.score(13, 4_096, 0.375, true).to_bits()
        );
    }

    #[test]
    fn budget_scales_with_sites_and_risk() {
        let cfg = CostDrivenConfig::default().with_budget_bytes_per_site(1_000);
        assert_eq!(cfg.budget_bytes(10, 0.5), 10_000);
        assert_eq!(cfg.budget_bytes(10, 1.0), 20_000);
        // Risk 0 ⇒ budget 0: a checkpoint that can never be restored is pure
        // write cost.
        assert_eq!(cfg.budget_bytes(10, 0.0), 0);
        assert_eq!(cfg.budget_bytes(0, 1.0), 0);
    }

    #[test]
    fn panic_payloads_downcast_to_typed_errors() {
        let e = panic_value_error(Box::new(ValueError::Arithmetic("div by zero".into())));
        assert_eq!(e, ValueError::Arithmetic("div by zero".into()));
        let e = panic_value_error(Box::new("plain &str".to_string()));
        assert_eq!(
            e,
            ValueError::Unknown("partition task panicked: plain &str".into())
        );
        let e = panic_value_error(Box::new(17u32));
        assert_eq!(
            e,
            ValueError::Unknown("partition task panicked: opaque panic payload".into())
        );
    }
}
