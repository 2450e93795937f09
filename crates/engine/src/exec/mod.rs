//! The driver/dataflow executor.
//!
//! Executes a [`CompiledProgram`] against a [`Catalog`]: driver statements
//! run sequentially; bag bindings become lazy, memoizing **thunks** (paper,
//! Section 4.3.2); dataflow plans execute stage by stage over
//! [`Partitioned`] collections, *really producing rows* while a deterministic
//! cost model charges simulated time for every cluster-level effect
//! (storage reads, shuffles with skew, broadcasts, group materialization
//! memory pressure, cache writes/reads).
//!
//! Physical decisions that the paper defers to just-in-time dataflow
//! generation — notably broadcast vs. repartition joins — are resolved here,
//! when actual input sizes are known. This module holds the driver and the
//! one plan dispatch; each submodule owns one decision and the run state it
//! decides with: `prepare` the UDF tier, `schedule` the task wave, `keyed`
//! where rows go, `recovery` what a cached result costs, and `operators`
//! each physical operator.

mod keyed;
mod prepare;
mod recovery;
mod schedule;

/// The physical operators, one module per family.
mod operators {
    pub(super) mod agg;
    pub(super) mod join;
    pub(super) mod narrow;
    pub(super) mod stateful;
}

// The submodules glob-import this module: what follows is also their
// shared vocabulary.
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use emma_compiler::bag_expr::BagExpr;
use emma_compiler::expr::{Lambda, ScalarExpr, Term};
use emma_compiler::interp::{self, Catalog, Env};
use emma_compiler::pipeline::{AuxDef, CRValue, CStmt, CompiledProgram};
use emma_compiler::plan::Plan;
use emma_compiler::value::{Value, ValueError};
use emma_compiler::vectorized::{self, BatchConfig, VectorPipeline};
use emma_core::ops::{self, InsertionMap};

use crate::cluster::{ClusterSpec, Personality};
use crate::cost::{self, Charge};
use crate::dataset::{value_hash, Part, Partitioned, Partitioning};
use crate::fault::{CheckpointConfig, FaultConfig};
use crate::metrics::{ExecError, ExecStats};
use crate::pool::ParallelismMode;
use crate::skew::{self, SkewConfig, SplitKind, SplitPlan};
use operators::stateful::EngineState;
use recovery::Thunk;
use schedule::Tally;

/// A driver binding: scalar value, bag thunk, or stateful bag.
#[derive(Clone)]
enum Binding {
    Scalar(Value),
    Bag(Arc<Thunk>),
    Stateful(Arc<Mutex<EngineState>>),
}

type EnvSnapshot = Arc<HashMap<String, Binding>>;

/// A configured runtime engine (cluster + personality).
#[derive(Clone, Debug)]
pub struct Engine {
    /// Simulated hardware.
    pub spec: ClusterSpec,
    /// Behavioral profile (Sparrow = Spark-like, Flamingo = Flink-like).
    pub personality: Personality,
    /// Simulated-time budget; `None` = unlimited.
    pub timeout_secs: Option<f64>,
    /// Driver loop-iteration safety cap.
    pub max_loop_iters: usize,
    /// How per-partition work maps onto OS threads (see
    /// [`ParallelismMode`]). The default routes everything through one
    /// persistent worker pool per run.
    pub parallelism_mode: ParallelismMode,
    /// Worker-thread count override; `None` probes `available_parallelism`
    /// once per run.
    pub worker_threads: Option<usize>,
    /// Minimum total row count before an operator fans out across threads.
    pub parallelism_threshold: u64,
    /// Deterministic fault-injection knobs; `None` (the default) and a
    /// config with all probabilities zero both take the fault-free
    /// execution path with bit-identical counters.
    pub faults: Option<FaultConfig>,
    /// Opt-in simulated checkpointing of eligible cache sites; `None` (the
    /// default) persists nothing and leaves every counter bit-identical to
    /// an engine without the feature.
    pub checkpoints: Option<CheckpointConfig>,
    /// Opt-in skew-aware shuffle splitting; `None` (the default) never
    /// consults partition sizes and leaves every counter bit-identical to an
    /// engine without the feature.
    pub skew: Option<SkewConfig>,
    /// Batch size of the typed column kernels every specializable site runs
    /// through (see [`Engine::with_vectorized_eval`]). The interpreter
    /// replays every batch they abort and runs every site they refuse.
    /// Ignored when the program runs on the interpreter alone
    /// (`CompiledProgram::compiled_eval == false`), the one way to turn the
    /// kernels off.
    pub vectorized: BatchConfig,
    /// Cross-session result cache installed by the service layer
    /// ([`crate::service::SessionService`]); `None` (the default) never
    /// consults it and leaves every counter bit-identical to an engine
    /// without the feature.
    pub(crate) shared_cache: Option<Arc<crate::service::SharedCatalogCache>>,
    /// Session id this run's shared-cache traffic is attributed to (only
    /// meaningful with `shared_cache` set).
    pub(crate) shared_session: u64,
}

/// Default for [`Engine::parallelism_threshold`]: below this many rows the
/// fan-out overhead outweighs the per-partition work.
pub const DEFAULT_PARALLELISM_THRESHOLD: u64 = 4_096;

impl Engine {
    /// Creates an engine.
    pub fn new(spec: ClusterSpec, personality: Personality) -> Self {
        Engine {
            spec,
            personality,
            timeout_secs: None,
            max_loop_iters: 100_000,
            parallelism_mode: ParallelismMode::Pool,
            worker_threads: None,
            parallelism_threshold: DEFAULT_PARALLELISM_THRESHOLD,
            faults: None,
            checkpoints: None,
            skew: None,
            vectorized: BatchConfig::default(),
            shared_cache: None,
            shared_session: 0,
        }
    }

    /// The Spark-like engine on the paper-scaled cluster.
    pub fn sparrow() -> Self {
        Self::new(ClusterSpec::paper_scaled(), Personality::sparrow())
    }

    /// The Flink-like engine on the paper-scaled cluster.
    pub fn flamingo() -> Self {
        Self::new(ClusterSpec::paper_scaled(), Personality::flamingo())
    }

    /// Sets a simulated-time budget (the paper uses a one-hour timeout).
    ///
    /// Ill-formed budgets are normalized at the check site rather than
    /// trusted: NaN and negative values clamp to `0.0` (every run that
    /// charges any simulated time aborts with [`ExecError::Timeout`]), and
    /// `+∞` never fires — the same as no timeout. Without the clamp a NaN
    /// budget would make the `simulated_secs > budget` comparison silently
    /// never fire, turning a nonsense configuration into an unlimited one.
    pub fn with_timeout(mut self, secs: f64) -> Self {
        self.timeout_secs = Some(secs);
        self
    }

    /// Selects the thread-dispatch mode (persistent pool vs. the legacy
    /// per-operator thread scopes).
    pub fn with_parallelism_mode(mut self, mode: ParallelismMode) -> Self {
        self.parallelism_mode = mode;
        self
    }

    /// Overrides the worker-thread count (`None` = probe the machine once
    /// per run).
    pub fn with_worker_threads(mut self, threads: Option<usize>) -> Self {
        self.worker_threads = threads;
        self
    }

    /// Sets the minimum total row count before operators fan out across
    /// threads.
    pub fn with_parallelism_threshold(mut self, rows: u64) -> Self {
        self.parallelism_threshold = rows;
        self
    }

    /// Enables deterministic fault injection (task failures, stragglers,
    /// cache evictions) with the given knobs. Identical configs reproduce
    /// identical failure schedules and bit-identical [`ExecStats`]; a config
    /// with all probabilities zero is indistinguishable from no config.
    pub fn with_faults(mut self, cfg: FaultConfig) -> Self {
        self.faults = Some(cfg);
        self
    }

    /// Enables simulated checkpointing: eligible cache writes are also
    /// persisted to simulated durable storage (a charged
    /// `bytes_written_storage` write), so a later cache eviction restores
    /// the result with a storage read instead of re-deriving its plan
    /// lineage — recovery depth becomes O(delta to the nearest checkpoint)
    /// instead of O(lineage depth).
    pub fn with_checkpoints(mut self, cfg: CheckpointConfig) -> Self {
        self.checkpoints = Some(cfg);
        self
    }

    /// Enables skew-aware shuffle splitting: shuffle write paths of
    /// skew-eligible wide operators ([`Plan::skew_eligibility`]) detect hot
    /// partitions (rows > `skew_factor ×` mean) and split them into
    /// sub-partitions by a secondary hash, so downstream wide operators see
    /// a balanced layout. Split decisions are pure functions of the observed
    /// partition sizes and the config, so schedules replay bit-identically
    /// across thread counts and dispatch modes; the secondary shuffles and
    /// build-side replication a split requires are charged to the simulated
    /// clock. Off by default — without a config, no partition sizes are
    /// inspected and every counter stays bit-identical to an engine without
    /// the feature.
    pub fn with_skew_splitting(mut self, cfg: SkewConfig) -> Self {
        self.skew = Some(cfg);
        self
    }

    /// Sets the batch size of the typed kernels, the engine's default
    /// evaluation tier: fully type-specializable Map/Filter/Fold-element
    /// bodies (and fused Map/Filter pipelines) are lowered to typed
    /// `i64`/`f64`/`bool`/string column kernels and evaluated over reusable
    /// scratch buffers in batches of `cfg.batch_rows` rows (at least 1);
    /// every operator whose program resists static typing runs on the
    /// interpreter and is counted in [`ExecStats::vector_fallbacks`] — the
    /// engine, not the caller, picks the tier per site, and no slow path is
    /// silent. A fused `aggBy` whose `uni` is slot-wise
    /// (sum/count/min/max/exists/forall slots) runs whole — `key`, `sng` and
    /// `uni`, combiner and merge — as one columnar aggregation kernel over
    /// typed per-group accumulator columns; one that is not is a single
    /// counted refusal. Every keyed operator's key extraction (shuffle
    /// routing, `groupBy`, both join sides, stateful create/update) batches
    /// the same way; a site whose key body does not specialize is counted in
    /// [`ExecStats::key_path_fallbacks`]. Rows, errors, and error order are
    /// preserved exactly: a batch that produces any error (or does not
    /// conform to the specialized input shape) is re-run row-at-a-time
    /// through the interpreter, so the first error in evaluation order
    /// reproduces bit-identically. Specialization is decided on the driver
    /// from a prefix of the first non-empty input partition (shape from the
    /// first row; the extra rows only inform string dictionary encoding), so
    /// fallback counts replay bit-identically across thread counts and
    /// dispatch modes.
    pub fn with_vectorized_eval(mut self, cfg: BatchConfig) -> Self {
        self.vectorized = cfg;
        self
    }

    /// Installs a cross-session shared result cache
    /// ([`crate::service::SharedCatalogCache`]), attributing this run's
    /// traffic to `session`. The first materialization of every evictable,
    /// cache-enabled thunk whose plan is *closed* (no driver references —
    /// see [`crate::service::shareable_fingerprint`]) consults the cache: a
    /// hit is charged as an ordinary cache read and counts in
    /// [`ExecStats::cache_hits`]; a miss executes the plan as usual and
    /// publishes the result. With a fresh cache and no duplicate shareable
    /// cache sites inside the program, no lookup can hit, so the run stays
    /// bit-identical to the same engine without the cache — which is the
    /// service layer's single-session identity contract.
    pub(crate) fn with_shared_cache(
        mut self,
        cache: Arc<crate::service::SharedCatalogCache>,
        session: u64,
    ) -> Self {
        self.shared_cache = Some(cache);
        self.shared_session = session;
        self
    }

    /// Runs a compiled program to completion, on the calling thread.
    ///
    /// Deep lazy-lineage chains (an uncached iterative program re-forces the
    /// previous iteration's thunk from inside the current plan) recurse
    /// proportionally to the iteration count, so a run that has used
    /// [`CALLER_STACK_BUDGET`] of the caller's stack continues on a dedicated
    /// thread with a large one (see [`Session::exec_plan`]). Shallow
    /// programs — every loop-free one, and loops whose carried bags are
    /// cached — never leave the calling thread: no spawn, no hand-off, and
    /// every allocation of the run stays in the caller's allocator arena.
    /// The caller must have that budget, and one operator's frames below
    /// it, free on its stack; a default 2 MiB spawned thread has.
    pub fn run(&self, prog: &CompiledProgram, catalog: &Catalog) -> Result<EngineRun, ExecError> {
        let wall_start = std::time::Instant::now();
        let mut session = Session::new(self, catalog, prog.compiled_eval);
        session.exec_stmts(&prog.body)?;
        let mut scalars = HashMap::new();
        for (k, b) in &session.env {
            if let Binding::Scalar(v) = b {
                scalars.insert(k.clone(), v.clone());
            }
        }
        // The clock stops once the run's state — its env of cached bags,
        // memos and pool — is freed: that is part of the run.
        let writes = std::mem::take(&mut session.writes);
        let mut stats = std::mem::take(&mut session.stats);
        drop(session);
        stats.wall_secs = wall_start.elapsed().as_secs_f64();
        Ok(EngineRun {
            writes,
            scalars,
            stats,
        })
    }
}

/// Bytes of the caller's stack a run may use before it continues on a
/// dedicated one: small next to a default 2 MiB spawned thread (the test
/// suites pass from 512 KiB ones), large enough that no shallow plan pays
/// for a thread.
const CALLER_STACK_BUDGET: usize = 256 * 1024;

/// Stack of the thread a deep run continues on.
const DEEP_STACK_BYTES: usize = 256 * 1024 * 1024;

/// The address of a local one frame below the caller's: how far two calls
/// are apart on one stack is the distance between their marks.
#[inline(never)]
fn stack_mark() -> usize {
    let mark = 0u8;
    std::hint::black_box(&mark) as *const u8 as usize
}

/// Runs `f` to completion on a fresh thread with a [`DEEP_STACK_BYTES`]
/// stack. A panic in `f` re-raises on the caller with its original payload.
fn on_deep_stack<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("emma-engine".into())
            .stack_size(DEEP_STACK_BYTES)
            .spawn_scoped(scope, f)
            .expect("spawn engine thread")
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    })
}

/// The observable outcome of a run.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Bags materialized to sinks.
    pub writes: HashMap<String, Vec<Value>>,
    /// Final scalar driver bindings.
    pub scalars: HashMap<String, Value>,
    /// Cost-model accounting.
    pub stats: ExecStats,
}

enum PlanResult {
    Bag(Partitioned),
    Scalar(Value),
}

struct Session<'a> {
    engine: &'a Engine,
    catalog: &'a Catalog,
    env: HashMap<String, Binding>,
    stats: ExecStats,
    writes: HashMap<String, Vec<Value>>,
    /// Inclusive simulated time of already-finished child plan nodes within
    /// the currently executing node's frame (drives the exclusive per-op
    /// attribution in `stats.op_secs`).
    children_inclusive: f64,
    /// Wall-clock counterpart of `children_inclusive` (drives
    /// `stats.op_wall_secs`).
    children_wall_inclusive: f64,
    /// [`stack_mark`] of [`Engine::run`] while the run is still on its
    /// caller's stack; `None` once it continues on the deep one.
    caller_stack: Option<usize>,
    /// Batch config of the typed kernels ([`emma_compiler::vectorized`]),
    /// `batch_rows` ≥ 1; `None` when the program runs on the interpreter
    /// alone. Read through [`Session::kernels_on`] / [`Session::batch_rows`].
    kernels: Option<BatchConfig>,
    waves: schedule::Waves,
    recovery: recovery::Recovery,
}

impl<'a> Session<'a> {
    fn new(engine: &'a Engine, catalog: &'a Catalog, compiled_eval: bool) -> Self {
        Session {
            engine,
            catalog,
            env: HashMap::new(),
            stats: ExecStats::default(),
            writes: HashMap::new(),
            children_inclusive: 0.0,
            children_wall_inclusive: 0.0,
            caller_stack: Some(stack_mark()),
            // `batch_rows` is a pub field: clamp a literal 0 here, once, for
            // every chunking site.
            kernels: compiled_eval.then(|| BatchConfig::new(engine.vectorized.batch_rows)),
            waves: schedule::Waves::new(engine),
            recovery: recovery::Recovery::default(),
        }
    }

    fn dop(&self) -> usize {
        self.engine.spec.dop()
    }

    /// Pays for one physical effect ([`cost::apply`]); `None` is nothing
    /// to pay.
    fn charge(&mut self, charge: impl Into<Option<Charge>>) {
        let e = self.engine;
        if let Some(charge) = charge.into() {
            cost::apply(&mut self.stats, &e.spec, &e.personality, charge);
        }
    }

    fn check_budget(&self) -> Result<(), ExecError> {
        if let Some(budget) = self.engine.timeout_secs {
            // Normalized at the use site like the checkpoint `EveryN(0)`
            // clamp: NaN and negative budgets become 0.0 (deterministic
            // timeout as soon as any time is charged) instead of a
            // comparison that silently never fires.
            let budget = budget.max(0.0);
            if self.stats.simulated_secs > budget {
                return Err(ExecError::Timeout {
                    at_secs: self.stats.simulated_secs,
                    budget_secs: budget,
                });
            }
        }
        Ok(())
    }

    fn snapshot(&self) -> EnvSnapshot {
        Arc::new(self.env.clone())
    }

    /// The active fault config, if it actually injects anything.
    fn fault_cfg(&self) -> Option<FaultConfig> {
        self.engine.faults.filter(FaultConfig::injects)
    }

    // ------------------------------------------------------------ statements

    fn exec_stmts(&mut self, stmts: &[CStmt]) -> Result<(), ExecError> {
        for s in stmts {
            self.exec_stmt(s)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &CStmt) -> Result<(), ExecError> {
        match s {
            CStmt::Bind { name, value, .. } => {
                let binding = match value {
                    CRValue::Bag(plan) => Thunk::bind(plan, self.snapshot(), None),
                    CRValue::Scalar { pre, expr } => {
                        self.exec_aux(pre)?;
                        Binding::Scalar(self.eval_driver_scalar(expr)?)
                    }
                };
                self.env.insert(name.clone(), binding);
                Ok(())
            }
            CStmt::While { pre, cond, body } => {
                let mut iters = 0usize;
                loop {
                    self.exec_aux(pre)?;
                    if !self
                        .eval_driver_scalar(cond)?
                        .as_bool()
                        .map_err(ExecError::Eval)?
                    {
                        return Ok(());
                    }
                    iters += 1;
                    if iters > self.engine.max_loop_iters {
                        return Err(ExecError::LoopCap(self.engine.max_loop_iters));
                    }
                    self.charge(Charge::Iteration);
                    self.exec_stmts(body)?;
                    self.check_budget()?;
                }
            }
            CStmt::ForEach {
                var,
                pre,
                seq,
                body,
            } => {
                self.exec_aux(pre)?;
                let seq_v = self.eval_driver_scalar(seq)?;
                let items = seq_v.as_bag().map_err(ExecError::Eval)?.to_vec();
                for item in items {
                    self.env.insert(var.clone(), Binding::Scalar(item));
                    self.charge(Charge::Iteration);
                    self.exec_stmts(body)?;
                    self.check_budget()?;
                }
                Ok(())
            }
            CStmt::If {
                pre,
                cond,
                then_branch,
                else_branch,
            } => {
                self.exec_aux(pre)?;
                if self
                    .eval_driver_scalar(cond)?
                    .as_bool()
                    .map_err(ExecError::Eval)?
                {
                    self.exec_stmts(then_branch)
                } else {
                    self.exec_stmts(else_branch)
                }
            }
            CStmt::StatefulCreate { name, plan, key } => self.stateful_create(name, plan, key),
            CStmt::StatefulUpdate {
                state,
                delta,
                messages,
                message_key,
                update,
            } => self.stateful_update(state, delta, messages, message_key, update),
            CStmt::Write { sink, plan } => {
                let env = self.snapshot();
                let d = self.exec_bag(plan, &env)?;
                self.charge(Charge::StorageWrite(d.total_bytes()));
                self.writes.insert(sink.clone(), d.collect_rows());
                self.check_budget()
            }
        }
    }

    /// Forces the auxiliary dataflows feeding a driver scalar expression.
    fn exec_aux(&mut self, pre: &[AuxDef]) -> Result<(), ExecError> {
        for aux in pre {
            let env = self.snapshot();
            let v = match self.exec_plan(&aux.plan, &env)? {
                PlanResult::Scalar(v) => v,
                PlanResult::Bag(d) => {
                    // `collect` data motion: cluster → driver.
                    self.charge(Charge::DriverLink(d.total_bytes()));
                    Value::bag(d.collect_rows())
                }
            };
            self.env.insert(aux.name.clone(), Binding::Scalar(v));
        }
        Ok(())
    }

    /// Evaluates a residual driver expression (no folds remain after
    /// extraction; only scalar bindings are consulted).
    fn eval_driver_scalar(&mut self, e: &ScalarExpr) -> Result<Value, ExecError> {
        self.eval_over(e, &self.scalar_view())
    }

    /// Evaluates a scalar expression over `base` with the interpreter.
    fn eval_over(&self, e: &ScalarExpr, base: &HashMap<String, Value>) -> Result<Value, ExecError> {
        interp::eval_scalar(e, &mut Env::new(base), self.catalog).map_err(ExecError::Eval)
    }

    fn scalar_view(&self) -> HashMap<String, Value> {
        self.env
            .iter()
            .filter_map(|(k, b)| match b {
                Binding::Scalar(v) => Some((k.clone(), v.clone())),
                Binding::Bag(_) | Binding::Stateful(_) => None,
            })
            .collect()
    }

    // ------------------------------------------------------------- dataflow

    fn exec_bag(&mut self, plan: &Plan, env: &EnvSnapshot) -> Result<Partitioned, ExecError> {
        match self.exec_plan(plan, env)? {
            PlanResult::Bag(d) => Ok(d),
            PlanResult::Scalar(v) => Err(ExecError::Eval(ValueError::type_mismatch("Bag", &v))),
        }
    }

    /// Executes a plan node, attributing its *exclusive* simulated time to
    /// its operator kind (children — including thunk forcings — are measured
    /// through their own `exec_plan` frames and subtracted).
    ///
    /// Every plan-level recursion (operator inputs, thunk forcings) passes
    /// through here, so this is where a run that has used up
    /// [`CALLER_STACK_BUDGET`] moves to the deep stack; the frames above
    /// return to the caller's stack as they unwind.
    fn exec_plan(&mut self, plan: &Plan, env: &EnvSnapshot) -> Result<PlanResult, ExecError> {
        self.exec_node(plan, |s| s.exec_plan_inner(plan, env))
    }

    /// Runs `run` as the frame of plan node `plan` ([`Session::exec_plan`]):
    /// the one place time is attributed to a node and a deep run moves to
    /// the deep stack.
    fn exec_node<R: Send>(
        &mut self,
        plan: &Plan,
        run: impl FnOnce(&mut Self) -> Result<R, ExecError> + Send,
    ) -> Result<R, ExecError> {
        if let Some(base) = self.caller_stack {
            if stack_mark().abs_diff(base) > CALLER_STACK_BUDGET {
                self.caller_stack = None;
                let result = on_deep_stack(|| self.exec_node(plan, run));
                self.caller_stack = Some(base);
                return result;
            }
        }
        let before = self.stats.simulated_secs;
        let wall_before = std::time::Instant::now();
        let saved_children = std::mem::replace(&mut self.children_inclusive, 0.0);
        let saved_wall = std::mem::replace(&mut self.children_wall_inclusive, 0.0);
        let result = run(self);
        let inclusive = self.stats.simulated_secs - before;
        let exclusive = (inclusive - self.children_inclusive).max(0.0);
        *self.stats.op_secs.entry(plan.op_name()).or_insert(0.0) += exclusive;
        self.children_inclusive = saved_children + inclusive;
        let wall_inclusive = wall_before.elapsed().as_secs_f64();
        let wall_exclusive = (wall_inclusive - self.children_wall_inclusive).max(0.0);
        *self.stats.op_wall_secs.entry(plan.op_name()).or_insert(0.0) += wall_exclusive;
        self.children_wall_inclusive = saved_wall + wall_inclusive;
        result
    }

    fn exec_plan_inner(&mut self, plan: &Plan, env: &EnvSnapshot) -> Result<PlanResult, ExecError> {
        self.check_budget()?;
        match plan {
            Plan::Source { name } => {
                let d = Partitioned::of_dataset(self.catalog, name, self.dop())
                    .map_err(ExecError::Eval)?;
                self.charge(Charge::Source(d.total_bytes()));
                self.charge(Charge::cpu(d.total_rows(), d.max_part_rows()));
                Ok(PlanResult::Bag(d))
            }
            Plan::Literal { rows } => {
                let d = Partitioned::from_rows(rows.clone(), self.dop());
                // Driver → cluster shipping.
                self.charge(Charge::DriverLink(d.total_bytes()));
                Ok(PlanResult::Bag(d))
            }
            Plan::OfScalar { expr } => {
                let base = self.eval_base(&[Term::Scalar(expr)], env)?;
                let v = self.eval_over(expr, &base)?;
                let rows = v.as_bag().map_err(ExecError::Eval)?.to_vec();
                let d = Partitioned::from_rows(rows, self.dop());
                self.charge(Charge::DriverLink(d.total_bytes()));
                Ok(PlanResult::Bag(d))
            }
            Plan::RefBag { name } => {
                let binding = env
                    .get(name)
                    .or_else(|| self.env.get(name))
                    .cloned()
                    .ok_or_else(|| ExecError::Eval(ValueError::UnboundVariable(name.clone())))?;
                match binding {
                    Binding::Bag(thunk) => Ok(PlanResult::Bag(self.force(&thunk)?)),
                    Binding::Stateful(state) => {
                        let snap = state.lock().unwrap().snapshot();
                        self.charge(Charge::StateSnapshot(snap.total_bytes()));
                        Ok(PlanResult::Bag(snap))
                    }
                    Binding::Scalar(v) => {
                        let rows = v.as_bag().map_err(ExecError::Eval)?.to_vec();
                        Ok(PlanResult::Bag(Partitioned::from_rows(rows, self.dop())))
                    }
                }
            }
            Plan::Map { .. }
            | Plan::Filter { .. }
            | Plan::FlatMap { .. }
            | Plan::Pipeline { .. } => Ok(PlanResult::Bag(self.exec_narrow(plan, None, env)?.data)),
            Plan::Fold { input, fold } => self.exec_fold(input, fold, env),
            Plan::Join { .. } => self.exec_join(plan, env),
            Plan::Cross { left, right } => {
                let l = self.exec_bag(left, env)?;
                let r = self.exec_bag(right, env)?;
                // Broadcast the (smaller) right side and pair locally.
                let r_rows = r.collect_rows();
                self.charge(Charge::Broadcast(r.total_bytes()));
                let parts = self.run_tasks(true, l.parts.len(), l.total_rows(), |pi, _| {
                    let pairs = l.parts[pi].iter().flat_map(|lrow| {
                        (r_rows.iter()).map(move |rrow| Value::tuple([lrow.clone(), rrow.clone()]))
                    });
                    Ok(pairs.collect())
                })?;
                let produced = l.total_rows() * r_rows.len() as u64;
                self.charge(Charge::Stage);
                self.charge(Charge::cpu(produced, produced / self.dop().max(1) as u64));
                Ok(PlanResult::Bag(Partitioned {
                    parts,
                    partitioning: None,
                }))
            }
            Plan::GroupBy { input, key } => {
                let d = self.exec_keyed_input(input, key, env, true)?;
                let kind = self.split_kind(plan.skew_eligibility());
                self.exec_group_by(d, key, kind, env)
            }
            Plan::AggBy { input, key, fold } => {
                let split = self.split_kind(plan.skew_eligibility());
                self.exec_agg_by(input, key, fold, split, env)
            }
            Plan::Plus { left, right } => {
                let l = self.exec_bag(left, env)?;
                let r = self.exec_bag(right, env)?;
                let mut parts = l.parts;
                parts.extend(r.parts);
                Ok(PlanResult::Bag(Partitioned {
                    parts,
                    partitioning: None,
                }))
            }
            Plan::Minus { left, right } => {
                let identity = Lambda::new(["x"], ScalarExpr::var("x"));
                let l = self.exec_keyed_input(left, &identity, env, false)?;
                let r = self.exec_keyed_input(right, &identity, env, false)?;
                let ls = self.shuffle(l, &identity, env, None)?;
                let rs = self.shuffle(r, &identity, env, None)?;
                let records = ls.total_rows() + rs.total_rows();
                let parts = self.run_tasks(true, ls.parts.len(), records, |pi, _| {
                    let (left, right) = (ls.parts[pi].iter(), rs.parts[pi].iter());
                    Ok(ops::minus(left, right).cloned().collect())
                })?;
                self.charge(Charge::Stage);
                self.charge(Charge::cpu(records, ls.max_part_rows()));
                Ok(PlanResult::Bag(Partitioned {
                    parts,
                    partitioning: None,
                }))
            }
            Plan::Distinct { input } => {
                let identity = Lambda::new(["x"], ScalarExpr::var("x"));
                let d = self.exec_keyed_input(input, &identity, env, false)?;
                // Key-preserving split keeps all copies of a row in one
                // sub-partition, so per-partition dedup stays exact.
                let kind = self.split_kind(plan.skew_eligibility());
                let s = self.shuffle(d, &identity, env, kind)?;
                let parts = self.run_tasks(true, s.parts.len(), s.total_rows(), |pi, _| {
                    Ok(ops::distinct(s.parts[pi].iter()).cloned().collect())
                })?;
                self.charge(Charge::Stage);
                self.charge(Charge::cpu(s.total_rows(), s.max_part_rows()));
                Ok(PlanResult::Bag(Partitioned {
                    parts,
                    partitioning: None,
                }))
            }
            Plan::Repartition { input, key } => {
                let d = self.exec_keyed_input(input, key, env, false)?;
                let s = self.shuffle(d, key, env, None)?;
                Ok(PlanResult::Bag(s))
            }
            Plan::Cache { input } => {
                // Cache markers are normally stripped into the binding thunk;
                // an inline one is transparent for correctness.
                self.exec_plan(input, env)
            }
        }
    }
}
