//! Multi-query session service: concurrent compiled programs over a shared
//! store of cached bags.
//!
//! The engine executes one [`CompiledProgram`] per [`Engine::run`]; the
//! production north star is a long-lived service absorbing many programs
//! whose compiled plans — and the intermediate bags they cache — outlive any
//! single run. This module adds that layer (DESIGN.md §3.11):
//!
//! * [`SharedCatalogCache`] — a cross-session memo keyed by plan-node
//!   fingerprint ([`shareable_fingerprint`]): when two queries cache the
//!   same closed sub-plan over the service's catalog, the second reads the
//!   first's materialized copy instead of recomputing it. Traffic is
//!   counted per session and in aggregate ([`SessionCacheStats`],
//!   [`ServiceStats`]).
//! * An **admission controller** — each submitted program is scored with
//!   the engine's cost model (estimated simulated seconds × estimated
//!   working-set bytes, [`CostEstimate`]) against the [`ServiceConfig`]
//!   budgets, producing [`AdmissionDecision::Run`], [`Queue`][q], or
//!   [`Reject`][r] deterministically in submission order.
//! * A **driver-ordered scheduler** — [`SessionService::drain`] executes
//!   admitted sessions in session-id order and promotes queued sessions
//!   strictly FIFO as budget frees up, so given the same submission
//!   sequence the per-session results, [`ExecStats`], admission decisions,
//!   and the aggregate sim clock replay bit-identically across 1/2/4
//!   worker threads and both dispatch modes — the same determinism
//!   contract every prior subsystem (faults, skew, checkpoints,
//!   vectorization) upholds. Parallelism lives *inside* each
//!   [`Engine::run`]; serializing the session order is what keeps the
//!   shared-cache contents a pure function of the submission sequence.
//!
//! [q]: AdmissionDecision::Queue
//! [r]: AdmissionDecision::Reject

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use emma_compiler::interp::Catalog;
use emma_compiler::pipeline::{CStmt, CTerm, CompiledProgram};
use emma_compiler::plan::{PipelineStage, Plan};
use emma_compiler::value::Value;

use crate::cluster::ClusterSpec;
use crate::cost;
use crate::dataset::Partitioned;
use crate::exec::{Engine, EngineRun};
use crate::metrics::{ExecError, ExecStats, ATTOS_PER_SEC};

// ------------------------------------------------------------ fingerprints

/// Fingerprint of a *shareable* plan: `Some(hash)` iff the plan is closed —
/// it references no driver bindings ([`Plan::RefBag`] / [`Plan::OfScalar`])
/// and every embedded UDF captures nothing — so its result is a pure
/// function of the plan and the catalog. Catalog `read`s (sources, and
/// `read`s inside FlatMap bodies) are fine: the service pins one catalog
/// for all sessions. Non-shareable plans return `None` and never touch the
/// shared cache.
///
/// The fingerprint hashes the full structural debug rendering of the plan,
/// and [`SharedCatalogCache`] verifies candidates with plan equality on
/// every hit, so a hash collision costs a comparison — never a wrong bag.
pub fn shareable_fingerprint(plan: &Plan) -> Option<u64> {
    let mut closed = true;
    plan.visit(&mut |p| {
        // Driver-environment references: the result depends on session
        // state, not just the plan.
        closed &= !matches!(p, Plan::RefBag { .. } | Plan::OfScalar { .. });
        p.for_each_term(|t| closed = closed && t.free_vars().is_empty());
    });
    if !closed {
        return None;
    }
    let mut h = DefaultHasher::new();
    format!("{plan:?}").hash(&mut h);
    Some(h.finish())
}

// ------------------------------------------------------------ shared cache

/// Shared-cache traffic attributed to one session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionCacheStats {
    /// Shared-cache lookups issued (one per first materialization of a
    /// shareable cache site).
    pub reads: u64,
    /// Lookups that found a memoized copy — from any session, including
    /// an earlier site of the same session.
    pub hits: u64,
    /// Hits on an entry a *different* session materialized: the
    /// cross-query sharing the service exists for.
    pub cross_hits: u64,
}

/// One memoized sub-plan result.
#[derive(Debug)]
struct SharedEntry {
    /// The exact plan (hash collisions are resolved by equality).
    plan: Plan,
    /// The materialized bag (cheaply clonable partitions).
    data: Partitioned,
    /// Session that paid for the materialization.
    owner: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<u64, Vec<SharedEntry>>,
    count: usize,
    bytes: u64,
    stats: HashMap<u64, SessionCacheStats>,
}

/// Cross-session memo of materialized cache-site results, keyed by
/// [`shareable_fingerprint`].
///
/// Installed into engines by [`SessionService`]; consulted on
/// the first materialization of every evictable, cache-enabled thunk whose
/// plan is closed. A hit is charged to the reading session as an ordinary
/// cache read; a miss executes the plan as usual and publishes the result
/// for later sessions. Entries are verified by plan equality on every hit,
/// so fingerprint collisions can never serve the wrong bag.
#[derive(Debug, Default)]
pub struct SharedCatalogCache {
    inner: Mutex<CacheInner>,
}

impl SharedCatalogCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up `plan` under fingerprint `fp`, recording the read (and any
    /// hit) against `session`.
    pub(crate) fn lookup(&self, fp: u64, plan: &Plan, session: u64) -> Option<Partitioned> {
        let mut inner = self.inner.lock().unwrap();
        let found = inner
            .entries
            .get(&fp)
            .and_then(|bucket| bucket.iter().find(|e| &e.plan == plan))
            .map(|e| (e.data.clone(), e.owner));
        let st = inner.stats.entry(session).or_default();
        st.reads += 1;
        let (data, owner) = found?;
        st.hits += 1;
        if owner != session {
            st.cross_hits += 1;
        }
        Some(data)
    }

    /// Publishes a freshly materialized result under `fp` for `session`.
    /// First writer wins; a concurrent duplicate is dropped (both copies
    /// are bit-identical by the determinism contract).
    pub(crate) fn insert(&self, fp: u64, plan: &Plan, data: Partitioned, session: u64) {
        let bytes = data.total_bytes();
        let mut inner = self.inner.lock().unwrap();
        let bucket = inner.entries.entry(fp).or_default();
        if bucket.iter().any(|e| &e.plan == plan) {
            return;
        }
        bucket.push(SharedEntry {
            plan: plan.clone(),
            data,
            owner: session,
        });
        inner.count += 1;
        inner.bytes += bytes;
    }

    /// Number of memoized sub-plan results.
    pub fn entries(&self) -> usize {
        self.inner.lock().unwrap().count
    }

    /// Approximate bytes held across all entries.
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().unwrap().bytes
    }

    /// Traffic counters for one session (zero if the session never ran).
    pub fn session_stats(&self, session: u64) -> SessionCacheStats {
        self.inner
            .lock()
            .unwrap()
            .stats
            .get(&session)
            .copied()
            .unwrap_or_default()
    }
}

// ------------------------------------------------------- admission control

/// Budgets the admission controller scores submissions against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Maximum sessions resident (admitted but not yet completed) at once.
    /// Clamped to at least 1 at the decision site, so a raw 0 queues
    /// instead of deadlocking.
    pub max_concurrent: usize,
    /// Total estimated working-set bytes resident sessions may reserve
    /// together. A single program whose estimated working set alone
    /// exceeds this is rejected outright.
    pub memory_budget_bytes: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrent: 4,
            memory_budget_bytes: 256 << 20,
        }
    }
}

impl ServiceConfig {
    /// Sets the resident-session cap.
    pub fn with_max_concurrent(mut self, n: usize) -> Self {
        self.max_concurrent = n;
        self
    }

    /// Sets the aggregate working-set budget in bytes.
    pub fn with_memory_budget_bytes(mut self, bytes: u64) -> Self {
        self.memory_budget_bytes = bytes;
        self
    }
}

/// The admission controller's verdict for one submission, decided at
/// [`SessionService::submit`] time and never revised (a queued session that
/// later runs keeps `Queue` as its recorded decision — the decision is part
/// of the deterministic submission-order transcript).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admitted immediately: fits the resident-count and byte budgets.
    Run,
    /// Over budget right now; parked FIFO and promoted as sessions finish.
    Queue,
    /// Estimated working set exceeds the whole memory budget — can never
    /// fit, so it is refused rather than queued forever.
    Reject,
}

/// The cost-model score the admission controller assigns a submission:
/// a deterministic, coarse static estimate (loops are assumed to run
/// [`LOOP_ITERS_GUESS`] iterations; selectivities are fixed constants) —
/// pessimistic enough to rank programs, cheap enough to run at submit time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostEstimate {
    /// Estimated simulated seconds, from the same cluster constants
    /// ([`ClusterSpec`]) the engine charges at run time.
    pub est_secs: f64,
    /// Estimated peak working set: bytes pinned at cache sites plus the
    /// largest intermediate bag.
    pub working_set_bytes: u64,
    /// The admission score: `est_secs × working_set_bytes`.
    pub score: f64,
}

/// Loop-body weight of the static cost estimate: `while` / `foreach`
/// bodies are assumed to execute this many times.
pub const LOOP_ITERS_GUESS: f64 = 8.0;

/// Fallback bytes-per-row when an input has no sampleable first row.
const DEFAULT_ROW_BYTES: f64 = 16.0;

/// Fallback `(rows, bytes)` of an input whose cardinality the static
/// estimate cannot see: a driver-dependent one (`RefBag` / `OfScalar`) or a
/// dataset missing from the catalog.
const UNKNOWN_SHAPE: (f64, f64) = (256.0, 256.0 * DEFAULT_ROW_BYTES);

/// Scores a compiled program against a catalog with the engine's cluster
/// constants — the admission controller's cost model. Pure in its inputs,
/// so identical submissions always produce identical estimates.
pub fn estimate_cost(prog: &CompiledProgram, catalog: &Catalog, engine: &Engine) -> CostEstimate {
    let mut est = Estimator {
        catalog,
        spec: &engine.spec,
        secs: 0.0,
        cached_bytes: 0.0,
        peak_bytes: 0.0,
    };
    est.stmts(&prog.body, 1.0);
    let working_set_bytes = (est.cached_bytes + est.peak_bytes) as u64;
    CostEstimate {
        est_secs: est.secs,
        working_set_bytes,
        score: est.secs * working_set_bytes as f64,
    }
}

struct Estimator<'a> {
    catalog: &'a Catalog,
    spec: &'a ClusterSpec,
    secs: f64,
    cached_bytes: f64,
    peak_bytes: f64,
}

impl Estimator<'_> {
    fn stmts(&mut self, body: &[CStmt], mult: f64) {
        for stmt in body {
            let mult = match stmt {
                CStmt::While { .. } | CStmt::ForEach { .. } => mult * LOOP_ITERS_GUESS,
                _ => mult,
            };
            stmt.for_each_term(|t| {
                if let CTerm::Plan(plan) = t {
                    self.plan(plan, mult);
                }
            });
            // Upper bound: both branches of a conditional are charged.
            stmt.blocks().for_each(|b| self.stmts(b, mult));
        }
    }

    /// Estimates one plan, charging `self.secs`; returns `(rows, bytes)`
    /// of the node's output.
    fn plan(&mut self, p: &Plan, mult: f64) -> (f64, f64) {
        let spec = self.spec;
        let (rows, bytes) = match p {
            Plan::Source { name } => {
                let (rows, bytes) = self.catalog.get(name).map_or(UNKNOWN_SHAPE, |r| shape(r));
                // Sources pay a storage scan.
                self.secs += cost::disk_secs(spec, mult * bytes);
                (rows, bytes)
            }
            Plan::Literal { rows } => shape(rows),
            Plan::RefBag { .. } | Plan::OfScalar { .. } => UNKNOWN_SHAPE,
            Plan::Map { input, .. } => self.plan(input, mult),
            Plan::Filter { input, .. } => {
                let (r, b) = self.plan(input, mult);
                (r * 0.5, b * 0.5)
            }
            Plan::FlatMap { input, .. } => {
                let (r, b) = self.plan(input, mult);
                (r * 2.0, b * 2.0)
            }
            Plan::Join { left, right, .. } => {
                let (lr, lb) = self.plan(left, mult);
                let (rr, rb) = self.plan(right, mult);
                // Both sides shuffle to meet.
                self.secs += cost::net_secs(spec, mult * (lb + rb));
                (lr + rr, lb + rb)
            }
            Plan::Cross { left, right } => {
                let (lr, lb) = self.plan(left, mult);
                let (rr, rb) = self.plan(right, mult);
                (lr * rr, (lb * rr + rb * lr).min(f64::MAX))
            }
            Plan::GroupBy { input, .. } => {
                let (r, b) = self.plan(input, mult);
                self.secs += cost::net_secs(spec, mult * b);
                (r * 0.5, b)
            }
            Plan::AggBy { input, .. } | Plan::Distinct { input } => {
                let (r, b) = self.plan(input, mult);
                self.secs += cost::net_secs(spec, mult * b);
                (r * 0.5, b * 0.5)
            }
            Plan::Fold { input, .. } => {
                self.plan(input, mult);
                (1.0, DEFAULT_ROW_BYTES)
            }
            Plan::Plus { left, right } => {
                let (lr, lb) = self.plan(left, mult);
                let (rr, rb) = self.plan(right, mult);
                (lr + rr, lb + rb)
            }
            Plan::Minus { left, right } => {
                let (lr, lb) = self.plan(left, mult);
                self.plan(right, mult);
                (lr, lb)
            }
            Plan::Cache { input } => {
                let (r, b) = self.plan(input, mult);
                // Cache sites pin their bytes for the session's lifetime;
                // counted once, however many loop iterations re-force them.
                self.cached_bytes += b;
                (r, b)
            }
            Plan::Repartition { input, .. } => {
                let (r, b) = self.plan(input, mult);
                self.secs += cost::net_secs(spec, mult * b);
                (r, b)
            }
            Plan::Pipeline { input, stages } => {
                let (mut r, mut b) = self.plan(input, mult);
                for s in stages {
                    let f = match s {
                        PipelineStage::Map { .. } => 1.0,
                        PipelineStage::Filter { .. } => 0.5,
                        PipelineStage::FlatMap { .. } => 2.0,
                    };
                    r *= f;
                    b *= f;
                }
                (r, b)
            }
        };
        self.secs += cost::cpu_secs(spec, mult * rows);
        self.peak_bytes = self.peak_bytes.max(bytes);
        (rows, bytes)
    }
}

/// Rows and bytes of `rows`, sized by the first.
fn shape(rows: &[Value]) -> (f64, f64) {
    let n = rows.len() as f64;
    let per = rows
        .first()
        .map_or(DEFAULT_ROW_BYTES, |v| v.approx_bytes() as f64);
    (n, n * per)
}

// ------------------------------------------------------------- the service

/// Aggregate accounting across every session the service has seen.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Programs submitted.
    pub submitted: u64,
    /// Sessions admitted to run — immediately or after queueing.
    pub admitted: u64,
    /// Submissions parked by the admission controller (they still count in
    /// `admitted` once promoted).
    pub queued: u64,
    /// Submissions refused outright.
    pub rejected: u64,
    /// Sessions that ran to completion.
    pub completed: u64,
    /// Sessions whose run returned an error (the service keeps going).
    pub failed: u64,
    /// Shared-cache lookups across all sessions.
    pub shared_cache_reads: u64,
    /// Shared-cache hits across all sessions.
    pub shared_cache_hits: u64,
    /// Hits served by an entry a different session materialized.
    pub shared_cache_cross_hits: u64,
    /// Total simulated seconds across completed sessions, summed on the
    /// same exact fixed-point clock [`ExecStats`] uses — bit-identical for
    /// any replay of the same submission sequence.
    pub simulated_secs: f64,
}

/// Everything the service records about one submitted program.
#[derive(Debug)]
pub struct SessionReport {
    /// Session id — the submission index.
    pub id: u64,
    /// The admission decision made at submit time.
    pub decision: AdmissionDecision,
    /// The admission controller's score.
    pub estimate: CostEstimate,
    /// The run outcome; `None` until [`SessionService::drain`] executes the
    /// session, and forever `None` for rejected submissions.
    pub outcome: Option<Result<EngineRun, ExecError>>,
    /// Shared-cache traffic this session generated.
    pub cache_stats: SessionCacheStats,
}

impl SessionReport {
    /// The successful run, if any.
    pub fn run(&self) -> Option<&EngineRun> {
        match &self.outcome {
            Some(Ok(run)) => Some(run),
            _ => None,
        }
    }

    /// The run's deterministic counters, if the session completed.
    pub fn stats(&self) -> Option<&ExecStats> {
        self.run().map(|r| &r.stats)
    }
}

/// A long-lived session service: admits compiled programs against shared
/// budgets and executes them over one catalog and one
/// [`SharedCatalogCache`].
///
/// ```
/// use emma_compiler::bag_expr::BagExpr;
/// use emma_compiler::interp::Catalog;
/// use emma_compiler::pipeline::{parallelize, OptimizerFlags};
/// use emma_compiler::program::{Program, Stmt};
/// use emma_compiler::value::Value;
/// use emma_engine::cluster::{ClusterSpec, Personality};
/// use emma_engine::service::{ServiceConfig, SessionService};
/// use emma_engine::Engine;
///
/// let catalog = Catalog::new().with("xs", (0..64).map(Value::Int).collect());
/// let prog = parallelize(
///     &Program::new(vec![Stmt::write("out", BagExpr::read("xs"))]),
///     &OptimizerFlags::all(),
/// );
/// let engine = Engine::new(ClusterSpec::tiny(), Personality::sparrow());
/// let mut svc = SessionService::new(engine, catalog, ServiceConfig::default());
/// let (id, _) = svc.submit(&prog);
/// svc.drain();
/// assert_eq!(svc.report(id).run().unwrap().writes["out"].len(), 64);
/// ```
#[derive(Debug)]
pub struct SessionService {
    engine: Engine,
    catalog: Catalog,
    config: ServiceConfig,
    cache: Arc<SharedCatalogCache>,
    /// Submitted programs, taken when their session runs.
    progs: Vec<Option<CompiledProgram>>,
    reports: Vec<SessionReport>,
    /// Admitted sessions not yet executed, in admission order.
    runnable: VecDeque<u64>,
    /// Queued sessions, strict FIFO.
    queue: VecDeque<u64>,
    /// Sessions admitted but not yet completed.
    resident: usize,
    /// Working-set bytes reserved by resident sessions.
    reserved_bytes: u64,
    stats: ServiceStats,
    /// Exact fixed-point backing store for `stats.simulated_secs`.
    agg_attos: u128,
}

impl SessionService {
    /// Creates a service over one engine configuration and one catalog.
    /// Any shared cache the engine already carries is replaced by this
    /// service's own.
    pub fn new(engine: Engine, catalog: Catalog, config: ServiceConfig) -> Self {
        SessionService {
            engine,
            catalog,
            config,
            cache: Arc::new(SharedCatalogCache::new()),
            progs: Vec::new(),
            reports: Vec::new(),
            runnable: VecDeque::new(),
            queue: VecDeque::new(),
            resident: 0,
            reserved_bytes: 0,
            stats: ServiceStats::default(),
            agg_attos: 0,
        }
    }

    /// Submits a program: scores it with [`estimate_cost`] and decides
    /// admission against the configured budgets. Decisions are a pure
    /// function of the submission sequence — no clocks, no randomness —
    /// so any replay of the same sequence reproduces them exactly.
    pub fn submit(&mut self, prog: &CompiledProgram) -> (u64, AdmissionDecision) {
        let id = self.reports.len() as u64;
        let estimate = estimate_cost(prog, &self.catalog, &self.engine);
        self.stats.submitted += 1;
        let decision = if estimate.working_set_bytes > self.config.memory_budget_bytes {
            self.stats.rejected += 1;
            AdmissionDecision::Reject
        } else if self.admissible(estimate.working_set_bytes) {
            self.admit(id, estimate.working_set_bytes);
            AdmissionDecision::Run
        } else {
            self.queue.push_back(id);
            self.stats.queued += 1;
            AdmissionDecision::Queue
        };
        self.progs.push(match decision {
            AdmissionDecision::Reject => None,
            _ => Some(prog.clone()),
        });
        self.reports.push(SessionReport {
            id,
            decision,
            estimate,
            outcome: None,
            cache_stats: SessionCacheStats::default(),
        });
        (id, decision)
    }

    fn admissible(&self, working_set: u64) -> bool {
        self.resident < self.config.max_concurrent.max(1)
            && self.reserved_bytes.saturating_add(working_set) <= self.config.memory_budget_bytes
    }

    fn admit(&mut self, id: u64, working_set: u64) {
        self.resident += 1;
        self.reserved_bytes += working_set;
        self.runnable.push_back(id);
        self.stats.admitted += 1;
    }

    /// Runs every admitted session to completion, in session-id order,
    /// promoting queued sessions strictly FIFO (head-of-line: a stuck head
    /// never lets a smaller later submission jump it — fairness is part of
    /// the determinism contract) as budget frees up. Per-session errors
    /// are recorded in the session's report; the service keeps draining.
    pub fn drain(&mut self) -> &[SessionReport] {
        while let Some(id) = self.runnable.pop_front() {
            let prog = self.progs[id as usize].take().expect("admitted program");
            let engine = self
                .engine
                .clone()
                .with_shared_cache(Arc::clone(&self.cache), id);
            let outcome = engine.run(&prog, &self.catalog);
            self.resident -= 1;
            self.reserved_bytes -= self.reports[id as usize].estimate.working_set_bytes;
            match &outcome {
                Ok(run) => {
                    self.stats.completed += 1;
                    // Summed as exact integer attos: aggregate clock
                    // equality is as strict as the per-run clock's.
                    self.agg_attos += run.stats.sim_attos();
                    self.stats.simulated_secs = self.agg_attos as f64 / ATTOS_PER_SEC;
                }
                Err(_) => self.stats.failed += 1,
            }
            let cs = self.cache.session_stats(id);
            self.stats.shared_cache_reads += cs.reads;
            self.stats.shared_cache_hits += cs.hits;
            self.stats.shared_cache_cross_hits += cs.cross_hits;
            self.reports[id as usize].cache_stats = cs;
            self.reports[id as usize].outcome = Some(outcome);
            // Freed budget promotes queued sessions, oldest first.
            while let Some(&head) = self.queue.front() {
                let ws = self.reports[head as usize].estimate.working_set_bytes;
                if !self.admissible(ws) {
                    break;
                }
                self.queue.pop_front();
                self.admit(head, ws);
            }
        }
        &self.reports
    }

    /// All session reports, in submission order.
    pub fn reports(&self) -> &[SessionReport] {
        &self.reports
    }

    /// One session's report.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`SessionService::submit`].
    pub fn report(&self, id: u64) -> &SessionReport {
        &self.reports[id as usize]
    }

    /// Aggregate service accounting.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The cross-session cache, for inspection.
    pub fn shared_cache(&self) -> &Arc<SharedCatalogCache> {
        &self.cache
    }

    /// The configured budgets.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emma_compiler::expr::{Lambda, ScalarExpr};

    fn closed_plan() -> Plan {
        Plan::Map {
            input: Box::new(Plan::Source { name: "xs".into() }),
            f: Lambda::new(["x"], ScalarExpr::var("x")),
        }
    }

    #[test]
    fn closed_plans_fingerprint_and_driver_refs_do_not() {
        assert!(shareable_fingerprint(&closed_plan()).is_some());
        let open = Plan::RefBag { name: "b".into() };
        assert!(shareable_fingerprint(&open).is_none());
        let captures = Plan::Map {
            input: Box::new(Plan::Source { name: "xs".into() }),
            f: Lambda::new(["x"], ScalarExpr::var("driver_var")),
        };
        assert!(shareable_fingerprint(&captures).is_none());
    }

    #[test]
    fn fingerprint_is_structural() {
        let a = shareable_fingerprint(&closed_plan()).unwrap();
        let b = shareable_fingerprint(&closed_plan()).unwrap();
        assert_eq!(a, b);
        let other = shareable_fingerprint(&Plan::Source { name: "ys".into() }).unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn cache_counts_reads_hits_and_cross_hits() {
        let cache = SharedCatalogCache::new();
        let plan = closed_plan();
        let fp = shareable_fingerprint(&plan).unwrap();
        assert!(cache.lookup(fp, &plan, 0).is_none());
        cache.insert(fp, &plan, Partitioned::default(), 0);
        assert!(cache.lookup(fp, &plan, 0).is_some());
        assert!(cache.lookup(fp, &plan, 1).is_some());
        assert_eq!(
            cache.session_stats(0),
            SessionCacheStats {
                reads: 2,
                hits: 1,
                cross_hits: 0
            }
        );
        assert_eq!(
            cache.session_stats(1),
            SessionCacheStats {
                reads: 1,
                hits: 1,
                cross_hits: 1
            }
        );
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn cache_verifies_plan_equality_on_fingerprint_collision() {
        let cache = SharedCatalogCache::new();
        let plan = closed_plan();
        let fp = shareable_fingerprint(&plan).unwrap();
        cache.insert(fp, &plan, Partitioned::default(), 0);
        // Same bucket, different plan: must miss, never serve the wrong bag.
        let other = Plan::Source { name: "ys".into() };
        assert!(cache.lookup(fp, &other, 0).is_none());
    }
}
