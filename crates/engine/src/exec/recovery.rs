//! Thunks and what happens to a cached result: memoization, the shared
//! cache, eviction and lineage recomputation, checkpoints and their
//! restores. The eviction and checkpoint counters are private to this
//! module, so no other module can draw either decision.

use std::sync::atomic::{AtomicBool, Ordering};

use super::*;
use crate::fault::CheckpointPolicy;

/// A lazily forced, optionally memoized dataflow binding — the paper's
/// `Thunk[A]` (Fig. 3b, "Driver to Dataflows").
pub(super) struct Thunk {
    /// The plan, with any top-level `Cache` marker stripped into
    /// `cache_enabled`.
    plan: Arc<Plan>,
    /// Environment snapshot at definition time.
    env: EnvSnapshot,
    /// Whether the result is materialized on first force.
    cache_enabled: bool,
    /// Whether fault injection may evict the memoized result, forcing
    /// lineage recomputation of `plan`. False for driver-materialized
    /// bindings (stateful-update deltas) whose `plan` is a placeholder, not
    /// real lineage.
    evictable: bool,
    /// The memoized result (only used when `cache_enabled`).
    memo: Mutex<Option<Partitioned>>,
    /// Whether the memoized result has been persisted to simulated durable
    /// storage under the engine's [`crate::fault::CheckpointConfig`]. A
    /// persisted thunk recovers from an eviction with a storage read instead
    /// of lineage recomputation.
    persisted: AtomicBool,
}

impl Thunk {
    /// The binding of `plan` in `env`, memoized if a top-level `Cache`
    /// marker says so. `ready` is a bag the driver already materialized (a
    /// stateful update's delta): `plan` is then a placeholder, not lineage,
    /// so the result is never evicted.
    pub(super) fn bind(plan: &Plan, env: EnvSnapshot, ready: Option<Partitioned>) -> Binding {
        let (plan, cached) = match plan {
            Plan::Cache { input } => ((**input).clone(), true),
            other => (other.clone(), false),
        };
        Binding::Bag(Arc::new(Thunk {
            plan: Arc::new(plan),
            env,
            cache_enabled: cached || ready.is_some(),
            evictable: ready.is_none(),
            memo: Mutex::new(ready),
            persisted: AtomicBool::new(false),
        }))
    }
}

/// Each thunk's captured scope owns the thunks its variables were bound to
/// before, so the derived drop of a loop variable's last binding would nest
/// as deep as the loop ran, on whatever stack the owner happens to be.
/// Unlink the chain iteratively instead: a thunk reached here is dropped
/// with an empty scope.
impl Drop for Thunk {
    fn drop(&mut self) {
        let mut scopes = vec![std::mem::take(&mut self.env)];
        while let Some(scope) = scopes.pop() {
            // Only the last owner frees what a scope or thunk captured.
            for binding in Arc::into_inner(scope).into_iter().flatten() {
                if let (_, Binding::Bag(thunk)) = binding {
                    if let Some(mut thunk) = Arc::into_inner(thunk) {
                        scopes.push(std::mem::take(&mut thunk.env));
                    }
                }
            }
        }
    }
}

/// Driver-ordered event counters of the eviction and checkpoint decisions.
#[derive(Default)]
pub(super) struct Recovery {
    /// Cache-read events under fault injection (the eviction schedule's
    /// identifier space).
    cache_events: u64,
    /// Checkpoint-eligible cache writes — the identifier space
    /// `CheckpointPolicy` selects from. Advances only when checkpointing is
    /// configured.
    checkpoint_events: u64,
    /// Simulated-storage bytes spent on checkpoints so far — the running
    /// total the cost-driven policy's write budget is charged against.
    /// (`ExecStats::bytes_written_storage` can't serve: it also counts sink
    /// writes and spills.)
    checkpoint_bytes_written: u64,
}

impl Session<'_> {
    pub(super) fn force(&mut self, thunk: &Arc<Thunk>) -> Result<Partitioned, ExecError> {
        if thunk.cache_enabled {
            let hit = thunk.memo.lock().unwrap().clone();
            if let Some(hit) = hit {
                // Under fault injection a cached result may have been
                // evicted (a lost executor took its cache blocks with it):
                // instead of aborting, drop the memo and re-force the
                // thunk's `Plan` lineage — nested `RefBag`s re-force their
                // own thunks, recursing through `Plan::Cache` boundaries, so
                // arbitrarily deep lineage rebuilds (and re-caches). The
                // eviction draw is a pure function of the driver-ordered
                // cache-event number, never of scheduling.
                if thunk.evictable {
                    if let Some(cfg) = self.fault_cfg() {
                        let event = self.recovery.cache_events;
                        self.recovery.cache_events += 1;
                        if cfg.cache_evicted(event) {
                            self.stats.cache_evictions += 1;
                            if thunk.persisted.load(Ordering::Relaxed) {
                                // The executor's in-memory copy is lost, but
                                // the checkpoint survives in durable
                                // storage: restore it with a storage read
                                // and a fresh cache write instead of
                                // re-deriving lineage — recovery cost is
                                // O(delta to this checkpoint), not
                                // O(lineage depth).
                                self.stats.checkpoint_restores += 1;
                                let bytes = hit.total_bytes();
                                self.charge(Charge::StorageRead(bytes));
                                self.charge(Charge::CacheWrite(bytes));
                                return Ok(hit);
                            }
                            *thunk.memo.lock().unwrap() = None;
                            self.stats.recomputed_plan_nodes += thunk.plan.lineage_size() as u64;
                            let result = self.materialize(thunk)?;
                            self.stats.recomputed_partitions += result.parts.len() as u64;
                            return Ok(result);
                        }
                    }
                }
                self.stats.cache_hits += 1;
                self.charge(Charge::CacheRead(hit.total_bytes()));
                return Ok(hit);
            }
            // First materialization: under a service-installed shared cache
            // ([`super::Engine::with_shared_cache`]), closed plans at
            // evictable cache sites consult the cross-session store before
            // executing. The lookup/insert outcome is a pure function of the
            // cache contents at session start — which the service's
            // driver-ordered scheduler makes a pure function of the
            // submission sequence — so runs replay bit-identically across
            // thread counts and dispatch modes.
            let shared = match (&self.engine.shared_cache, thunk.evictable) {
                (Some(cache), true) => crate::service::shareable_fingerprint(&thunk.plan)
                    .map(|fp| (Arc::clone(cache), fp)),
                _ => None,
            };
            if let Some((cache, fp)) = &shared {
                if let Some(data) = cache.lookup(*fp, &thunk.plan, self.engine.shared_session) {
                    // Served from the shared store: pay a cache read instead
                    // of plan execution plus a cache write.
                    self.stats.cache_hits += 1;
                    self.charge(Charge::CacheRead(data.total_bytes()));
                    *thunk.memo.lock().unwrap() = Some(data.clone());
                    return Ok(data);
                }
            }
            let result = self.materialize(thunk)?;
            if let Some((cache, fp)) = shared {
                cache.insert(fp, &thunk.plan, result.clone(), self.engine.shared_session);
            }
            Ok(result)
        } else {
            // Lazy lineage: every force recomputes from scratch.
            self.stats.cache_misses += 1;
            self.exec_bag(&thunk.plan.clone(), &thunk.env.clone())
        }
    }

    /// Materializes a cached thunk — first use, or again after an eviction:
    /// executes its plan, counts the miss, charges the cache write, offers
    /// the result to the checkpoint policy (noting whether a skew split
    /// happened under it) and memoizes it.
    fn materialize(&mut self, thunk: &Arc<Thunk>) -> Result<Partitioned, ExecError> {
        let splits_before = self.stats.partitions_split;
        let result = self.exec_bag(&thunk.plan.clone(), &thunk.env.clone())?;
        self.stats.cache_misses += 1;
        self.charge(Charge::CacheWrite(result.total_bytes()));
        let split = self.stats.partitions_split > splits_before;
        self.maybe_checkpoint(thunk, &result, split);
        *thunk.memo.lock().unwrap() = Some(result.clone());
        Ok(result)
    }

    /// Persists an eligible cache write to simulated durable storage under
    /// the engine's [`crate::fault::CheckpointConfig`]. Eligibility and
    /// selection are driver-ordered (the `checkpoint_events` counter plus,
    /// for the cost-driven policy, the driver-ordered eviction counters), so
    /// the checkpoint placement — like every other fault decision — is
    /// independent of thread count and dispatch mode. The write is charged
    /// at full storage bandwidth and shows up in `bytes_written_storage`,
    /// which is the price paid for O(delta) recovery.
    ///
    /// `downstream_of_split` reports whether materializing this site's own
    /// plan grew `partitions_split` — i.e. the site sits immediately after a
    /// shuffle the skew layer had to split. The cost-driven policy boosts
    /// such sites: hot partitions are where recomputation is most expensive.
    fn maybe_checkpoint(&mut self, thunk: &Thunk, d: &Partitioned, downstream_of_split: bool) {
        let Some(ck) = self.engine.checkpoints else {
            return;
        };
        if !thunk.evictable || !thunk.plan.checkpoint_eligible(ck.min_lineage) {
            return;
        }
        let event = self.recovery.checkpoint_events;
        self.recovery.checkpoint_events += 1;
        let bytes = d.total_bytes();
        let persist = match ck.policy {
            // Clamped at the use site: constructing the variant directly
            // bypasses `CheckpointConfig::every`'s clamp, and a raw 0 would
            // otherwise panic on the modulo.
            CheckpointPolicy::EveryN(n) => event.is_multiple_of(n.max(1)),
            CheckpointPolicy::CostDriven(cost) => {
                // Risk blends the configured eviction probability with the
                // rate observed so far; every input is a driver-ordered
                // deterministic counter, so the whole decision replays
                // bit-identically.
                let prior = self.fault_cfg().map_or(0.0, |f| f.cache_evict_p);
                let events = self.recovery.cache_events;
                let risk = cost.eviction_risk(self.stats.cache_evictions, events, prior);
                let score = cost.score(thunk.plan.lineage_size(), bytes, risk, downstream_of_split);
                // `event + 1` sites seen including this one: the budget
                // auto-tunes upward as eviction pressure rises and collapses
                // to zero when nothing is ever at risk.
                let budget = cost.budget_bytes(event + 1, risk);
                self.stats.checkpoint_budget_bytes = budget;
                let written = self.recovery.checkpoint_bytes_written;
                let chosen =
                    score > cost.score_threshold && written.saturating_add(bytes) <= budget;
                if !chosen {
                    self.stats.checkpoints_skipped_low_score += 1;
                }
                chosen
            }
        };
        if !persist {
            return;
        }
        thunk.persisted.store(true, Ordering::Relaxed);
        self.stats.checkpoints_written += 1;
        self.recovery.checkpoint_bytes_written += bytes;
        self.charge(Charge::StorageWrite(bytes));
    }
}
