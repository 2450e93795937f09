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
//! when actual input sizes are known.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use emma_compiler::bag_expr::BagExpr;
use emma_compiler::compiled::{self, CompiledBag, CompiledEval, Machine};
use emma_compiler::expr::{FoldOp, Lambda, ScalarExpr, Term};
use emma_compiler::interp::{self, Catalog, Env};
use emma_compiler::pipeline::{AuxDef, CRValue, CStmt, CompiledProgram};
use emma_compiler::plan::{JoinKind, JoinStrategy, Plan, SkewEligibility};
use emma_compiler::value::{Value, ValueError};
use emma_compiler::vectorized::{
    self, AggInput, AggKernel, BatchConfig, VecStageSpec, VectorPipeline,
};
use emma_core::ops::{self, InsertionMap};

use emma_compiler::plan::PipelineStage;

use crate::cluster::{ClusterSpec, Personality};
use crate::cost::{self, Charge};
use crate::dataset::{value_hash, Measured, Part, Partitioned, Partitioning};
use crate::fault::{self, CheckpointConfig, FaultConfig, SpeculationPolicy, TaskError, TaskFault};
use crate::metrics::{ExecError, ExecStats};
use crate::pool::{Parallelism, ParallelismMode};
use crate::skew::{self, SkewConfig, SplitKind, SplitPlan};

/// A lazily forced, optionally memoized dataflow binding — the paper's
/// `Thunk[A]` (Fig. 3b, "Driver to Dataflows").
struct Thunk {
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
    /// storage under the engine's [`CheckpointConfig`]. A persisted thunk
    /// recovers from an eviction with a storage read instead of lineage
    /// recomputation.
    persisted: std::sync::atomic::AtomicBool,
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

/// Keyed state held in place on the cluster: hash-partitioned by the element
/// key, updated point-wise, never re-shuffled — the paper's observation that
/// PageRank "stores the vertices and their ranks already partitioned by the
/// vertex ID in-memory in a form that is ready to be consumed by the next
/// iteration".
struct EngineState {
    key: Lambda,
    /// Per-partition entries by key, in first-insertion order.
    parts: Vec<InsertionMap<Value, Value>>,
    /// The skew split the creating shuffle applied, if any. Message routing
    /// must replay the same two-level hash (`bucket`, then key-preserving
    /// sub-hash) to find an entry's slot.
    split: Option<SplitPlan>,
}

impl EngineState {
    fn snapshot(&self) -> Partitioned {
        Partitioned {
            parts: (self.parts.iter())
                .map(|entries| entries.values().cloned().collect())
                .collect(),
            partitioning: self.partitioning(),
        }
    }

    /// What the state's layout, and a delta's, may claim: a split layout is
    /// two-level-hashed, not `hash % n`, so it must never satisfy a plain
    /// partitioning request (or let a downstream shuffle be elided).
    fn partitioning(&self) -> Option<Partitioning> {
        self.split.is_none().then(|| Partitioning {
            key: self.key.clone(),
            parts: self.parts.len(),
        })
    }

    /// The state slot, out of `nparts`, for a message routed to shuffle
    /// bucket `pi` whose key hashed to `h` — the same two-level placement
    /// the creating shuffle (`split`) used, so updates always find their
    /// entry locally.
    fn slot_for(split: Option<&SplitPlan>, nparts: usize, pi: usize, h: u64) -> usize {
        match split {
            None => pi % nparts,
            Some(sp) => {
                let b = pi % sp.ways.len();
                let w = sp.ways[b];
                let sub = if w > 1 {
                    (skew::sub_hash(h) % w as u64) as usize
                } else {
                    0
                };
                sp.offsets[b] + sub
            }
        }
    }
}

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
    /// Batch size of the vectorized columnar kernels every specializable
    /// site runs through (see [`Engine::with_vectorized_eval`]); on by
    /// default. `None` pins the scalar compiled tier — the kernels'
    /// abort-replay and refusal path — for differential tests: rows, errors
    /// and every cost-model counter are the same, only the four tier
    /// telemetry counters ([`ExecStats::without_tier_telemetry`]) stay 0.
    /// Ignored when the program runs the interpreter
    /// (`CompiledProgram::compiled_eval == false`).
    pub vectorized: Option<BatchConfig>,
    /// Opt-in cross-session result cache installed by the service layer
    /// ([`crate::service::SessionService`]); `None` (the default) never
    /// consults it and leaves every counter bit-identical to an engine
    /// without the feature.
    pub shared_cache: Option<Arc<crate::service::SharedCatalogCache>>,
    /// Session id this run's shared-cache traffic is attributed to (only
    /// meaningful with `shared_cache` set).
    pub shared_session: u64,
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
            vectorized: Some(BatchConfig::default()),
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

    /// Sets the batch size of the vectorized tier, the engine's default
    /// evaluation stack: fully type-specializable Map/Filter/Fold-element
    /// bodies (and fused Map/Filter pipelines) are lowered to typed
    /// `i64`/`f64`/`bool`/string column kernels and evaluated over reusable
    /// scratch buffers in batches of `cfg.batch_rows` rows (at least 1);
    /// every operator whose program resists static typing runs the scalar
    /// compiled tier and is counted in [`ExecStats::vector_fallbacks`] — the
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
    /// through the scalar tier, so the first error in evaluation order
    /// reproduces bit-identically. Specialization is decided on the driver
    /// from a prefix of the first non-empty input partition (shape from the
    /// first row; the extra rows only inform string dictionary encoding), so
    /// fallback counts replay bit-identically across thread counts and
    /// dispatch modes.
    pub fn with_vectorized_eval(mut self, cfg: BatchConfig) -> Self {
        self.vectorized = Some(cfg);
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
    pub fn with_shared_cache(
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
        let mut session = Session {
            engine: self,
            catalog,
            env: HashMap::new(),
            stats: ExecStats::default(),
            writes: HashMap::new(),
            children_inclusive: 0.0,
            children_wall_inclusive: 0.0,
            // One worker pool (and one `available_parallelism` probe) for
            // the whole run.
            par: Parallelism::new(
                self.parallelism_mode,
                self.worker_threads,
                self.parallelism_threshold,
            ),
            compiled: prog.compiled_eval,
            // The kernels are specialized from compiled slot programs, so
            // the interpreter tier never consults them. `batch_rows` is a pub
            // field: clamp a literal 0 here, once, for every chunking site.
            vectorized: self
                .vectorized
                .filter(|_| prog.compiled_eval)
                .map(|cfg| BatchConfig::new(cfg.batch_rows)),
            lam_cache: HashMap::new(),
            bag_cache: HashMap::new(),
            task_sites: 0,
            cache_events: 0,
            checkpoint_events: 0,
            checkpoint_bytes_written: 0,
            caller_stack: Some(stack_mark()),
        };
        session.exec_stmts(&prog.body)?;
        let mut scalars = HashMap::new();
        for (k, b) in &session.env {
            if let Binding::Scalar(v) = b {
                scalars.insert(k.clone(), v.clone());
            }
        }
        let mut stats = session.stats;
        stats.wall_secs = wall_start.elapsed().as_secs_f64();
        Ok(EngineRun {
            writes: session.writes,
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

/// Mutable per-task evaluation state: an interpreter [`Env`] over the
/// broadcast base scope, or a compiled-evaluator [`Machine`]. One context is
/// created per partition task and reused across its rows.
enum EvCtx<'b> {
    Env(Env<'b>),
    Machine(Machine),
}

/// A scalar UDF readied for per-row evaluation: either the reference
/// interpreter with its base-scope lookups pre-resolved ([`Env::prefetch`]),
/// or a slot-compiled evaluator with its capture slots bound. Built once per
/// operator execution by [`Session::prepare_lambda`].
enum PreparedScalar<'p> {
    Interp {
        lam: &'p Lambda,
        /// Every name the body references — prefetched into the `Env` so
        /// per-row lookups scan locals instead of probing the base map.
        prefetch: Vec<&'p str>,
    },
    Compiled {
        code: Arc<CompiledEval>,
        caps: Vec<Option<Value>>,
    },
}

impl<'p> PreparedScalar<'p> {
    /// A fresh per-task evaluation context over `base`.
    fn ctx<'b>(&self, base: &'b HashMap<String, Value>) -> EvCtx<'b>
    where
        'p: 'b,
    {
        match self {
            PreparedScalar::Interp { prefetch, .. } => {
                let mut env = Env::new(base);
                let names: &[&'b str] = prefetch.as_slice();
                env.prefetch(names.iter().copied());
                EvCtx::Env(env)
            }
            PreparedScalar::Compiled { .. } => EvCtx::Machine(Machine::new()),
        }
    }

    /// Applies the UDF to argument values.
    fn call<'b>(
        &self,
        args: &[Value],
        cx: &mut EvCtx<'b>,
        catalog: &Catalog,
    ) -> Result<Value, ValueError>
    where
        'p: 'b,
    {
        match (self, cx) {
            (PreparedScalar::Interp { lam, .. }, EvCtx::Env(env)) => {
                interp::eval_lambda(lam, args, env, catalog)
            }
            (PreparedScalar::Compiled { code, caps }, EvCtx::Machine(m)) => {
                code.eval(args, caps, m, catalog)
            }
            _ => unreachable!("context built by a different evaluation tier"),
        }
    }

    /// Applies the UDF to argument values the caller owns, moving them into
    /// the evaluator's slots ([`CompiledEval::eval_owned`]) instead of
    /// cloning — skips per-row `Arc` refcount churn on the fused hot paths
    /// that drain owned rows. The interpreter tier borrows as before.
    fn call_owned<'b, const N: usize>(
        &self,
        args: [Value; N],
        cx: &mut EvCtx<'b>,
        catalog: &Catalog,
    ) -> Result<Value, ValueError>
    where
        'p: 'b,
    {
        match (self, cx) {
            (PreparedScalar::Interp { lam, .. }, EvCtx::Env(env)) => {
                interp::eval_lambda(lam, &args, env, catalog)
            }
            (PreparedScalar::Compiled { code, caps }, EvCtx::Machine(m)) => {
                code.eval_owned(args, caps, m, catalog)
            }
            _ => unreachable!("context built by a different evaluation tier"),
        }
    }
}

/// A FlatMap body readied for per-row evaluation; see [`PreparedScalar`].
enum PreparedBag<'p> {
    Interp {
        param: &'p str,
        body: &'p BagExpr,
        prefetch: Vec<&'p str>,
    },
    Compiled {
        code: Arc<CompiledBag>,
        caps: Vec<Option<Value>>,
    },
}

impl<'p> PreparedBag<'p> {
    fn ctx<'b>(&self, base: &'b HashMap<String, Value>) -> EvCtx<'b>
    where
        'p: 'b,
    {
        match self {
            PreparedBag::Interp { prefetch, .. } => {
                let mut env = Env::new(base);
                let names: &[&'b str] = prefetch.as_slice();
                env.prefetch(names.iter().copied());
                EvCtx::Env(env)
            }
            PreparedBag::Compiled { .. } => EvCtx::Machine(Machine::new()),
        }
    }

    /// Evaluates the body with the element parameter bound to `row`, then
    /// hands each produced row to `sink` ([`CompiledBag::eval`]).
    fn call<'b>(
        &self,
        row: Value,
        cx: &mut EvCtx<'b>,
        catalog: &Catalog,
        mut sink: impl FnMut(Value) -> Result<(), ValueError>,
    ) -> Result<(), ValueError>
    where
        'p: 'b,
    {
        match (self, cx) {
            (PreparedBag::Interp { param, body, .. }, EvCtx::Env(env)) => {
                interp::eval_bag_with_binding(body, param, row, env, catalog)?
                    .into_iter()
                    .try_for_each(sink)
            }
            (PreparedBag::Compiled { code, caps }, EvCtx::Machine(m)) => {
                code.eval(row, caps, m, catalog, &mut sink)
            }
            _ => unreachable!("context built by a different evaluation tier"),
        }
    }
}

/// One narrow (per-element, partition-local) operator's UDF, borrowed from a
/// standalone `Map` / `Filter` / `FlatMap` node or from a fused
/// [`PipelineStage`]: [`Session::exec_narrow`] runs both shapes.
#[derive(Clone, Copy)]
enum Narrow<'p> {
    Map(&'p Lambda),
    Filter(&'p Lambda),
    FlatMap(&'p str, &'p BagExpr),
}

impl<'p> From<&'p PipelineStage> for Narrow<'p> {
    fn from(stage: &'p PipelineStage) -> Self {
        match stage {
            PipelineStage::Map { f } => Narrow::Map(f),
            PipelineStage::Filter { p } => Narrow::Filter(p),
            PipelineStage::FlatMap { param, body } => Narrow::FlatMap(param, body),
        }
    }
}

/// A narrow stage with its UDF prepared for the active tier.
enum PreparedStage<'p> {
    Map(PreparedScalar<'p>),
    Filter(PreparedScalar<'p>),
    FlatMap(PreparedBag<'p>),
}

impl<'p> PreparedStage<'p> {
    fn ctx<'b>(&self, base: &'b HashMap<String, Value>) -> EvCtx<'b>
    where
        'p: 'b,
    {
        match self {
            PreparedStage::Map(f) | PreparedStage::Filter(f) => f.ctx(base),
            PreparedStage::FlatMap(b) => b.ctx(base),
        }
    }
}

/// Rows and batches a task body ran through typed kernels. Every body passed
/// to [`Session::run_tasks`] reports into the one it is handed, and driver
/// loops into a local one; [`Session::tally`] is the only place the two
/// telemetry counters grow. A body runs exactly once per partition, so the
/// sums do not depend on the schedule.
#[derive(Default)]
struct Tally {
    rows: u64,
    batches: u64,
}

impl Tally {
    fn batch(&mut self, rows: usize) {
        self.rows += rows as u64;
        self.batches += 1;
    }
}

/// Where a keyed operator wants its input rows ([`Session::keyed`]).
enum Placement {
    /// Where they are: both sides of a broadcast join.
    InPlace,
    /// Hash-partitioned by the key — a shuffle, unless the layout already
    /// satisfies it — with hot buckets split if a flavor is given.
    Hashed(Option<SplitKind>),
}

/// The one input shape of every keyed operator (`groupBy`, both join sides,
/// stateful create/update): the partitions, a row-aligned `(hash, key)` list
/// per partition ([`Keyed::keys`]) and the skew split the shuffle applied.
///
/// Who evaluates a key, and who raises its error, is decided here and
/// nowhere else. When rows moved, the shuffle evaluated every key and raised
/// the first error itself. When the layout already satisfied the key, the
/// same batched evaluator runs where the consumer asks for a partition's
/// keys — in its existing task wave or driver loop — and hands back the
/// error-free prefix plus the error that ended it. The consumer raises that
/// error when its loop reaches the row, so an error of its own UDF at an
/// earlier row still comes first, as in a row-at-a-time interleaving.
struct Keyed<'p> {
    data: Partitioned,
    keys: Keys<'p>,
    split: Option<SplitPlan>,
}

enum Keys<'p> {
    Routed(Vec<Vec<(u64, Value)>>),
    InPlace(KeyEval<'p>),
}

impl Keyed<'_> {
    /// The keys of partition `pi`, aligned with its rows.
    fn keys(&self, pi: usize, catalog: &Catalog, tally: &mut Tally) -> PartKeys<'_> {
        match &self.keys {
            Keys::Routed(all) => PartKeys {
                keys: Cow::Borrowed(&all[pi]),
                err: None,
            },
            Keys::InPlace(eval) => eval.keys(&self.data.parts[pi], catalog, tally),
        }
    }
}

/// One partition's `(hash, key)` pairs: row-aligned up to the first row whose
/// key raised, then that error.
struct PartKeys<'k> {
    keys: Cow<'k, [(u64, Value)]>,
    err: Option<ValueError>,
}

impl PartKeys<'_> {
    /// One item per row, for `rows.zip(keys.iter())`: the pairs, then the
    /// error at the row that raised it.
    fn iter(&self) -> impl Iterator<Item = Result<&(u64, Value), ValueError>> {
        self.keys.iter().map(Ok).chain(self.err.clone().map(Err))
    }
}

/// A key UDF readied for batch evaluation: prepared for the active tier over
/// its own base scope, with the driver's specialize-or-refuse decision.
struct KeyEval<'p> {
    prep: PreparedScalar<'p>,
    vec: Option<(VectorPipeline, usize)>,
    base: HashMap<String, Value>,
}

impl KeyEval<'_> {
    fn keys(&self, rows: &[Value], catalog: &Catalog, tally: &mut Tally) -> PartKeys<'static> {
        let (keys, err) = batch_keys(rows, self, catalog, tally);
        PartKeys {
            keys: Cow::Owned(keys),
            err,
        }
    }
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
    /// Per-run parallel-execution context: dispatch mode, cached thread
    /// count, row gate, and (in pool mode) the persistent worker pool.
    par: Parallelism,
    /// Whether UDFs run through slot-compiled evaluators
    /// ([`emma_compiler::compiled`]) instead of the reference interpreter.
    compiled: bool,
    /// Batch config of the vectorized columnar tier
    /// ([`emma_compiler::vectorized`]), `batch_rows` ≥ 1; `None` = scalar
    /// tiers only (the interpreter, or a pinned scalar compiled tier).
    vectorized: Option<BatchConfig>,
    /// Per-run compilation memo: each distinct lambda AST is lowered once,
    /// however many operator executions (loop iterations, re-forced thunks)
    /// evaluate it.
    lam_cache: HashMap<Lambda, Arc<CompiledEval>>,
    /// Compilation memo for FlatMap bodies, keyed by `(param, body)`.
    bag_cache: HashMap<(String, BagExpr), Arc<CompiledBag>>,
    /// Driver-ordered counter of task batches submitted under fault
    /// injection — the `site` identifier of the failure schedule. Advances
    /// only when injection is active, so a zero-probability config consumes
    /// nothing and stays bit-identical to no config.
    task_sites: u64,
    /// Driver-ordered counter of cache-read events under fault injection
    /// (the eviction schedule's identifier space).
    cache_events: u64,
    /// Driver-ordered counter of checkpoint-eligible cache writes — the
    /// identifier space `CheckpointPolicy` selects from. Advances only when
    /// checkpointing is configured.
    checkpoint_events: u64,
    /// Simulated-storage bytes spent on checkpoints so far — the running
    /// total the cost-driven policy's write budget is charged against.
    /// (`ExecStats::bytes_written_storage` can't serve: it also counts sink
    /// writes and spills.)
    checkpoint_bytes_written: u64,
    /// [`stack_mark`] of [`Engine::run`] while the run is still on its
    /// caller's stack; `None` once it continues on the deep one.
    caller_stack: Option<usize>,
}

impl<'a> Session<'a> {
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

    // ----------------------------------------------- fault-tolerant dispatch

    /// The active fault config, if it actually injects anything.
    fn fault_cfg(&self) -> Option<FaultConfig> {
        self.engine.faults.filter(FaultConfig::injects)
    }

    /// Runs `n` index-addressed partition tasks with panic containment and —
    /// under fault injection — partition-granularity retry.
    ///
    /// Every per-partition operator body goes through here. Without an
    /// injecting [`FaultConfig`] this is a single contained wave: no charge
    /// is issued and no schedule state is consumed, so counters stay
    /// bit-identical to the pre-fault engine; the only observable change is
    /// that a panicking task no longer aborts the process — its payload is
    /// converted to a typed error ([`fault::panic_value_error`]) competing
    /// by partition index with ordinary evaluation errors.
    ///
    /// With injection active, each wave's fates are **precomputed on the
    /// driver** (pure in `(seed, site, partition, attempt)` — never drawn
    /// inside workers, so the schedule is independent of thread scheduling):
    /// injected failures skip the task body and are retried up to
    /// `max_task_retries` with exponential backoff charged to the simulated
    /// clock; stragglers run normally but charge the wave their worst delay
    /// (stage time = slowest task); real evaluation errors and panics are
    /// deterministic, so they abort immediately — lowest partition wins.
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
    ///    error or a contained panic charges **nothing** for its stragglers:
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
    fn run_tasks<T, F>(
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
        // Each body reports the rows it ran through kernels into a tally of
        // its own, folded in as its task settles.
        let f = |pi: usize| {
            let mut tally = Tally::default();
            f(pi, &mut tally).map(|v| (v, tally))
        };
        let Some(cfg) = self.fault_cfg() else {
            let settled = self.par.run_settled(wide, n, total_rows, f);
            let mut out = Vec::with_capacity(n);
            for s in settled {
                match s {
                    Ok(Ok((v, tally))) => {
                        self.tally(tally);
                        out.push(v);
                    }
                    Ok(Err(e)) => return Err(ExecError::Eval(e)),
                    Err(payload) => {
                        self.stats.tasks_failed += 1;
                        return Err(ExecError::Eval(fault::panic_value_error(payload)));
                    }
                }
            }
            return Ok(out);
        };
        let site = self.task_sites;
        self.task_sites += 1;
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        // Ascending at every wave (failures are collected in settle order),
        // so "first error in wave order" is "lowest partition index".
        let mut pending: Vec<usize> = (0..n).collect();
        // Per-partition dispatch counts, so a budget-exhausted partition
        // reports how often *it* was attempted — independent of the global
        // wave counter.
        let mut attempts_made: Vec<u32> = vec![0; n];
        let mut attempt: u32 = 0;
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
            let wave_start = (attempt > 0).then(std::time::Instant::now);
            let settled =
                self.par
                    .run_settled(wide, pending.len(), wave_rows, |wi| match fates[wi] {
                        // A killed task never runs its body — its partition's
                        // work is lost and must be redone on retry.
                        TaskFault::Fail => Err(TaskError::Injected),
                        _ => f(pending[wi]).map_err(TaskError::Eval),
                    });
            if let Some(t0) = wave_start {
                self.stats.retry_wall_secs += t0.elapsed().as_secs_f64();
            }
            // Settle before any straggler accounting: an aborting wave
            // (real eval error / contained panic) discards its work, so its
            // stragglers must not distort `straggler_delays`/`retry_sim_secs`.
            let mut failed: Vec<usize> = Vec::new();
            for (wi, s) in settled.into_iter().enumerate() {
                let pi = pending[wi];
                match s {
                    Ok(Ok((v, tally))) => {
                        self.tally(tally);
                        results[pi] = Some(v);
                    }
                    Ok(Err(TaskError::Injected)) => {
                        self.stats.tasks_failed += 1;
                        failed.push(pi);
                    }
                    Ok(Err(TaskError::Eval(e))) => return Err(ExecError::Eval(e)),
                    Err(payload) => {
                        self.stats.tasks_failed += 1;
                        return Err(ExecError::Eval(fault::panic_value_error(payload)));
                    }
                }
            }
            // The wave lasts as long as its slowest task. Without
            // speculation that is the worst straggler; with it, each
            // straggler races a backup copy and contributes whichever copy
            // finishes first.
            let mut worst_effective = 0.0f64;
            let mut wasted = 0.0f64;
            // Which stragglers get a backup copy. The quantile policy gates
            // on the wave's injected delay profile — precomputed fates, so
            // the gate is as pure as the schedule itself.
            let clone_all = matches!(cfg.speculation_policy, SpeculationPolicy::All);
            let spec_threshold = if cfg.speculation && !clone_all {
                let delays: Vec<f64> = fates
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
            for (wi, fate) in fates.iter().enumerate() {
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

    /// Folds a task body's (or driver loop's) kernel telemetry into the run's.
    fn tally(&mut self, t: Tally) {
        self.stats.rows_vectorized += t.rows;
        self.stats.batches_executed += t.batches;
    }

    // ------------------------------------------------------ UDF preparation

    /// Readies a scalar UDF for per-row evaluation under the active tier:
    /// compiled (memoized lowering + capture binding against `base`) or
    /// interpreted (base-scope prefetch).
    fn prepare_lambda<'p>(
        &mut self,
        lam: &'p Lambda,
        base: &HashMap<String, Value>,
    ) -> PreparedScalar<'p> {
        if self.compiled {
            let code = match self.lam_cache.get(lam) {
                Some(c) => Arc::clone(c),
                None => {
                    let c = Arc::new(compiled::compile_lambda(lam));
                    self.lam_cache.insert(lam.clone(), Arc::clone(&c));
                    c
                }
            };
            let caps = code.bind(base);
            PreparedScalar::Compiled { code, caps }
        } else {
            let prefetch = compiled::var_names(Term::Lambda(lam));
            PreparedScalar::Interp { lam, prefetch }
        }
    }

    /// Readies a FlatMap body for per-row evaluation (see
    /// [`prepare_lambda`](Self::prepare_lambda)).
    fn prepare_bag<'p>(
        &mut self,
        param: &'p str,
        body: &'p BagExpr,
        base: &HashMap<String, Value>,
    ) -> PreparedBag<'p> {
        if self.compiled {
            let code = match self.bag_cache.get(&(param.to_string(), body.clone())) {
                Some(c) => Arc::clone(c),
                None => {
                    let c = Arc::new(compiled::compile_bag_body(param, body));
                    self.bag_cache
                        .insert((param.to_string(), body.clone()), Arc::clone(&c));
                    c
                }
            };
            let caps = code.bind(base);
            PreparedBag::Compiled { code, caps }
        } else {
            let prefetch = compiled::var_names(Term::Bag(body));
            PreparedBag::Interp {
                param,
                body,
                prefetch,
            }
        }
    }

    // ------------------------------------------------- vectorized batch tier

    /// The driver's specialize-or-refuse decision for one site of the
    /// vectorized columnar tier: runs `specialize` — a chain of prepared
    /// Map/Filter stages, a wide operator's key UDF, or one phase of a fused
    /// `aggBy` (`key`, `sng` and `uni` together) — against the driver-side
    /// sample and returns the kernel program plus the batch size. A site
    /// with no columnar form (a FlatMap stage, a byte-sampled intermediate,
    /// a fold that is not slot-wise) or one that resists static typing is
    /// `None` with one refusal counted in `refusals`:
    /// [`ExecStats::vector_fallbacks`], or its key-path analogue
    /// [`ExecStats::key_path_fallbacks`]. The interpreter tier and an empty
    /// input (no sample row to type against, no row for a slow path to run
    /// on) return `None` without counting.
    ///
    /// `samples` is a prefix of the first non-empty partition
    /// ([`sample_rows`]): the first row defines the column shapes, the rest
    /// inform the string-column dictionary-encoding decision. The partition
    /// layout is a pure function of the simulated cluster, so the decision
    /// (and the counter) replays bit-identically across thread counts and
    /// dispatch modes.
    fn try_vectorize<K>(
        &mut self,
        samples: Option<&[Value]>,
        refusals: fn(&mut ExecStats) -> &mut u64,
        specialize: impl FnOnce(&[Value]) -> Option<K>,
    ) -> Option<(K, usize)> {
        let cfg = self.vectorized?;
        let kernel = specialize(samples?);
        if kernel.is_none() {
            *refusals(&mut self.stats) += 1;
        }
        kernel.map(|k| (k, cfg.batch_rows))
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
                match value {
                    CRValue::Bag(plan) => {
                        let (inner, cached) = strip_cache(plan);
                        let thunk = Thunk {
                            plan: Arc::new(inner),
                            env: self.snapshot(),
                            cache_enabled: cached,
                            evictable: true,
                            memo: Mutex::new(None),
                            persisted: std::sync::atomic::AtomicBool::new(false),
                        };
                        self.env.insert(name.clone(), Binding::Bag(Arc::new(thunk)));
                    }
                    CRValue::Scalar { pre, expr } => {
                        self.exec_aux(pre)?;
                        let v = self.eval_driver_scalar(expr)?;
                        self.env.insert(name.clone(), Binding::Scalar(v));
                    }
                }
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
            CStmt::StatefulCreate { name, plan, key } => {
                let env = self.snapshot();
                let d = self.exec_bag(plan, &env)?;
                // Stateful bags split key-preservingly: every copy of a key
                // lands in the same sub-partition, so per-slot lookups stay
                // local and updates route through the same two-level hash.
                let kind = self
                    .engine
                    .skew
                    .is_some()
                    .then_some(SplitKind::KeyPreserving);
                let keyed = self.keyed(d, key, &env, Placement::Hashed(kind))?;
                let mut tally = Tally::default();
                let mut parts = Vec::with_capacity(keyed.data.parts.len());
                for (pi, part) in keyed.data.parts.iter().enumerate() {
                    let keys = keyed.keys(pi, self.catalog, &mut tally);
                    let rows = part.iter().cloned();
                    let entries = ops::create(rows, &mut keys.iter(), |ks, _| next_key(ks));
                    parts.push(entries.map_err(ExecError::Eval)?);
                }
                self.tally(tally);
                let split = keyed.split;
                self.env.insert(
                    name.clone(),
                    Binding::Stateful(Arc::new(Mutex::new(EngineState {
                        key: key.clone(),
                        parts,
                        split,
                    }))),
                );
                self.check_budget()
            }
            CStmt::StatefulUpdate {
                state,
                delta,
                messages,
                message_key,
                update,
            } => {
                let env = self.snapshot();
                let msgs = self.exec_bag(messages, &env)?;
                // Whatever else `state` names, no stateful bag is an unbound
                // one — the interpreter's error, at the interpreter's point.
                let Some(Binding::Stateful(cell)) = self.env.get(state).cloned() else {
                    return Err(ExecError::Eval(ValueError::UnboundVariable(state.clone())));
                };
                // Route messages to their state elements: a shuffle on the
                // message key, colocated with the state partitioning.
                let routed = self.keyed(msgs, message_key, &env, Placement::Hashed(None))?;
                let base = self.eval_base(&[Term::Lambda(update)], &env)?;
                let up_prep = self.prepare_lambda(update, &base);
                let mut ucx = up_prep.ctx(&base);
                let mut tally = Tally::default();
                let mut st = cell.lock().unwrap();
                let delta_partitioning = st.partitioning();
                let EngineState { parts, split, .. } = &mut *st;
                let nparts = parts.len().max(1);
                let mut delta_parts: Vec<Vec<Value>> = vec![Vec::new(); nparts];
                for (pi, part) in routed.data.parts.iter().enumerate() {
                    let keys = routed.keys(pi, self.catalog, &mut tally);
                    // State was hash-partitioned by key with the same
                    // partition count (plus the secondary split hash when the
                    // creating shuffle split), so the entry is local.
                    let slot = |h| EngineState::slot_for(split.as_ref(), nparts, pi, h);
                    let changed = ops::update(
                        parts,
                        slot,
                        part.iter(),
                        &mut (keys.iter(), &mut ucx),
                        |(ks, _), _| next_key(ks),
                        |(_, ucx), current, msg| {
                            let new =
                                up_prep.call(&[current.clone(), msg.clone()], ucx, self.catalog)?;
                            Ok((!new.is_null()).then_some(new))
                        },
                    )
                    .map_err(ExecError::Eval)?;
                    for e in changed {
                        delta_parts[slot(e.hash)].push(e.value);
                    }
                }
                drop(st);
                let processed = routed.data.total_rows();
                self.tally(tally);
                self.charge(Charge::cpu(processed, processed / self.dop().max(1) as u64));
                let delta_data = Partitioned {
                    parts: delta_parts.into_iter().map(Part::from).collect(),
                    partitioning: delta_partitioning,
                };
                // Bind the delta as an already-materialized bag. The plan is
                // a placeholder, not lineage — never evict it.
                let thunk = Thunk {
                    plan: Arc::new(Plan::Literal { rows: vec![] }),
                    env: self.snapshot(),
                    cache_enabled: true,
                    evictable: false,
                    memo: Mutex::new(Some(delta_data)),
                    persisted: std::sync::atomic::AtomicBool::new(false),
                };
                self.env
                    .insert(delta.clone(), Binding::Bag(Arc::new(thunk)));
                self.check_budget()
            }
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
        if let Some(base) = self.caller_stack {
            if stack_mark().abs_diff(base) > CALLER_STACK_BUDGET {
                self.caller_stack = None;
                let result = on_deep_stack(|| self.exec_plan(plan, env));
                self.caller_stack = Some(base);
                return result;
            }
        }
        let before = self.stats.simulated_secs;
        let wall_before = std::time::Instant::now();
        let saved_children = std::mem::replace(&mut self.children_inclusive, 0.0);
        let saved_wall = std::mem::replace(&mut self.children_wall_inclusive, 0.0);
        let result = self.exec_plan_inner(plan, env);
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
            Plan::Map { input, f } => self.exec_narrow(input, &[Narrow::Map(f)], env),
            Plan::Filter { input, p } => self.exec_narrow(input, &[Narrow::Filter(p)], env),
            Plan::FlatMap { input, param, body } => {
                self.exec_narrow(input, &[Narrow::FlatMap(param, body)], env)
            }
            Plan::Fold { input, fold } => {
                let d = self.exec_bag(input, env)?;
                let base = self.eval_base(&fold.terms(), env)?;
                let zero = self.eval_over(&fold.zero, &base)?;
                let sng_prep = self.prepare_lambda(&fold.sng, &base);
                let uni_prep = self.prepare_lambda(&fold.uni, &base);
                // Fold each partition locally, ship partials, combine. The
                // element function is Map-shaped, so it can run columnar;
                // the combiner chain is inherently sequential and stays
                // scalar.
                let catalog = self.catalog;
                let vec_run = self.try_vectorize(
                    sample_rows(&d.parts),
                    |st| &mut st.vector_fallbacks,
                    |rows| vectorized::specialize_sampled(&[vec_spec(&sng_prep, false)?], rows),
                );
                let partials =
                    self.run_tasks(true, d.parts.len(), d.total_rows(), |pi, tally| {
                        fold_partition(
                            &d.parts[pi],
                            vec_run.as_ref(),
                            &sng_prep,
                            &uni_prep,
                            &base,
                            zero.clone(),
                            catalog,
                            tally,
                        )
                    })?;
                // The partials are one more partition: the one shipped to the
                // driver.
                let partials = Part::from(partials);
                let partial_bytes = partials.bytes();
                let mut acc = zero;
                let mut ucx = uni_prep.ctx(&base);
                for p in partials.into_rows() {
                    acc = uni_prep
                        .call_owned([acc, p], &mut ucx, self.catalog)
                        .map_err(ExecError::Eval)?;
                }
                self.charge(Charge::FoldPartials(partial_bytes));
                self.charge(Charge::Cpu(
                    d.total_rows(),
                    d.max_part_rows(),
                    fold.sng.static_cost() + fold.uni.static_cost(),
                ));
                self.charge(Charge::cpu_bytes(
                    fold.sng.static_byte_cost() + fold.uni.static_byte_cost(),
                    || d.max_part_bytes(),
                ));
                Ok(PlanResult::Scalar(acc))
            }
            Plan::Join {
                left,
                right,
                lkey,
                rkey,
                residual,
                kind,
                strategy,
            } => {
                let probe_split = self.split_kind(plan.skew_eligibility());
                self.exec_join(
                    left,
                    right,
                    lkey,
                    rkey,
                    residual.as_ref(),
                    *kind,
                    *strategy,
                    probe_split,
                    env,
                )
            }
            Plan::Cross { left, right } => {
                let l = self.exec_bag(left, env)?;
                let r = self.exec_bag(right, env)?;
                // Broadcast the (smaller) right side and pair locally.
                let r_rows = r.collect_rows();
                self.charge(Charge::Broadcast(r.total_bytes()));
                let mut parts = Vec::with_capacity(l.parts.len());
                let mut produced = 0u64;
                for part in &l.parts {
                    let mut out = Vec::with_capacity(part.len() * r_rows.len());
                    for lrow in part.iter() {
                        for rrow in &r_rows {
                            out.push(Value::tuple([lrow.clone(), rrow.clone()]));
                        }
                    }
                    produced += out.len() as u64;
                    parts.push(out.into());
                }
                self.charge(Charge::Stage);
                self.charge(Charge::cpu(produced, produced / self.dop().max(1) as u64));
                Ok(PlanResult::Bag(Partitioned {
                    parts,
                    partitioning: None,
                }))
            }
            Plan::GroupBy { input, key } => {
                let d = self.exec_bag(input, env)?;
                let kind = self.split_kind(plan.skew_eligibility());
                let keyed = self.keyed(d, key, env, Placement::Hashed(kind))?;
                if keyed.split.is_some() {
                    return self.exec_group_by_split(keyed);
                }
                // Materialize groups per partition; charge memory pressure.
                let mut tally = Tally::default();
                let mut parts = Vec::with_capacity(keyed.data.parts.len());
                for (pi, part) in keyed.data.parts.iter().enumerate() {
                    let keys = keyed.keys(pi, self.catalog, &mut tally);
                    let groups = group_part(part, &keys).map_err(ExecError::Eval)?;
                    parts.push(interp::group_rows(groups).into());
                }
                self.tally(tally);
                let shuffled = &keyed.data;
                self.charge(Charge::GroupMaterialization(
                    shuffled.part_bytes().collect(),
                ));
                self.charge(Charge::cpu(shuffled.total_rows(), shuffled.max_part_rows()));
                Ok(PlanResult::Bag(Partitioned {
                    parts,
                    partitioning: Some(Partitioning {
                        key: Lambda::new(["g"], ScalarExpr::var("g").get(0)),
                        parts: shuffled.num_parts(),
                    }),
                }))
            }
            Plan::AggBy { input, key, fold } => {
                let d = self.exec_bag(input, env)?;
                let split = self.split_kind(plan.skew_eligibility());
                self.exec_agg_by(d, key, fold, split, env)
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
                let l = self.exec_bag(left, env)?;
                let r = self.exec_bag(right, env)?;
                let ls = self.shuffle(l, &identity, env, None)?;
                let rs = self.shuffle(r, &identity, env, None)?;
                let pairs = ls.parts.iter().zip(&rs.parts);
                let parts = pairs
                    .map(|(lp, rp)| ops::minus(lp.iter(), rp.iter()).cloned().collect())
                    .collect();
                self.charge(Charge::Stage);
                let records = ls.total_rows() + rs.total_rows();
                self.charge(Charge::cpu(records, ls.max_part_rows()));
                Ok(PlanResult::Bag(Partitioned {
                    parts,
                    partitioning: None,
                }))
            }
            Plan::Distinct { input } => {
                let identity = Lambda::new(["x"], ScalarExpr::var("x"));
                let d = self.exec_bag(input, env)?;
                // Key-preserving split keeps all copies of a row in one
                // sub-partition, so per-partition dedup stays exact.
                let kind = self.split_kind(plan.skew_eligibility());
                let s = self.shuffle(d, &identity, env, kind)?;
                let parts = (s.parts.iter())
                    .map(|part| ops::distinct(part.iter()).cloned().collect())
                    .collect();
                self.charge(Charge::Stage);
                self.charge(Charge::cpu(s.total_rows(), s.max_part_rows()));
                Ok(PlanResult::Bag(Partitioned {
                    parts,
                    partitioning: None,
                }))
            }
            Plan::Repartition { input, key } => {
                let d = self.exec_bag(input, env)?;
                let s = self.shuffle(d, key, env, None)?;
                Ok(PlanResult::Bag(s))
            }
            Plan::Cache { input } => {
                // Cache markers are normally stripped into the binding thunk;
                // an inline one is transparent for correctness.
                self.exec_plan(input, env)
            }
            Plan::Pipeline { input, stages } => {
                let stages: Vec<Narrow> = stages.iter().map(Narrow::from).collect();
                let out = self.exec_narrow(input, &stages, env)?;
                self.check_budget()?;
                Ok(out)
            }
        }
    }

    /// Runs a chain of narrow operators over `input` in one per-partition
    /// pass with no intermediate materialization: a fused `Plan::Pipeline`,
    /// or a standalone `Map` / `Filter` / `FlatMap` as its one-stage case.
    /// The engine picks the tier for the whole chain — typed column kernels
    /// when it specializes, the scalar flat loop otherwise (a counted
    /// refusal) — and then issues each stage's charges from its entry sizes.
    fn exec_narrow(
        &mut self,
        input: &Plan,
        stages: &[Narrow<'_>],
        env: &EnvSnapshot,
    ) -> Result<PlanResult, ExecError> {
        let d = self.exec_bag(input, env)?;
        // Per-stage base environments, evaluated in stage order so thunk
        // forcings, broadcasts, and cache hits/misses happen exactly as the
        // unfused chain's would.
        let mut bases = Vec::with_capacity(stages.len());
        for stage in stages {
            bases.push(match *stage {
                Narrow::Map(f) | Narrow::Filter(f) => self.eval_base(&[Term::Lambda(f)], env)?,
                Narrow::FlatMap(_, body) => self.eval_base(&[Term::Bag(body)], env)?,
            });
        }
        let mut prepared: Vec<PreparedStage> = Vec::with_capacity(stages.len());
        for (stage, base) in stages.iter().zip(&bases) {
            prepared.push(match *stage {
                Narrow::Map(f) => PreparedStage::Map(self.prepare_lambda(f, base)),
                Narrow::Filter(p) => PreparedStage::Filter(self.prepare_lambda(p, base)),
                Narrow::FlatMap(param, body) => {
                    PreparedStage::FlatMap(self.prepare_bag(param, body, base))
                }
            });
        }
        // The first stage's broadcast-scan charge is known before any row
        // runs — charge it up front so a quadratic scan still aborts on the
        // simulated clock instead of really executing. Later stages' input
        // sizes only exist after the fused pass; their (identical) charges
        // are issued below.
        if let Narrow::Map(f) | Narrow::Filter(f) = stages[0] {
            let scan_rows = broadcast_fold_scan_rows(&f.body, &bases[0], self.catalog);
            self.charge(Charge::BroadcastScans(d.max_part_rows(), scan_rows));
            self.check_budget()?;
        }
        let nstages = stages.len();
        // Whether stage i's input rows are materialized groups (the
        // `consumes_grouped_rows` test, looking back through fused Filter
        // stages).
        let grouped: Vec<bool> = (0..nstages)
            .map(|i| {
                let mut j = i;
                loop {
                    if j == 0 {
                        break consumes_grouped_rows(input);
                    }
                    match stages[j - 1] {
                        Narrow::Filter(_) => j -= 1,
                        _ => break false,
                    }
                }
            })
            .collect();
        let nested: Vec<usize> = stages
            .iter()
            .map(|s| match s {
                Narrow::Map(f) => count_nested_bag_folds(&f.body),
                _ => 0,
            })
            .collect();
        // Per-stage byte weights: stages whose UDFs contain length-scaling
        // builtins (`StrContains`) charge a byte term against their entry
        // bytes.
        let byte_costs: Vec<f64> = stages
            .iter()
            .map(|s| match *s {
                Narrow::Map(f) | Narrow::Filter(f) => f.static_byte_cost(),
                Narrow::FlatMap(_, body) => body.static_byte_cost(),
            })
            .collect();
        // Byte totals of an intermediate are only needed where a Map stage
        // charges nested-bag-fold re-scans over grouped input, or where a
        // later stage carries a byte-weighted builtin (stage 0 charges from
        // the materialized input directly).
        let mut need_bytes = vec![false; nstages + 1];
        for i in 1..nstages {
            need_bytes[i] = (nested[i] > 0 && grouped[i]) || byte_costs[i] > 0.0;
        }
        // FlatMap stages (bag-producing) and byte-sampled intermediates
        // (nested-bag-fold re-scans and byte-weighted builtins past the head
        // stage charge from per-row sizes) have no columnar form — a counted
        // refusal. A byte-weighted *head* stage charges from the
        // materialized input and vectorizes fine.
        let specs: Option<Vec<VecStageSpec>> = if need_bytes.contains(&true) {
            None
        } else {
            prepared
                .iter()
                .map(|s| match s {
                    PreparedStage::Map(p) => vec_spec(p, false),
                    PreparedStage::Filter(p) => vec_spec(p, true),
                    PreparedStage::FlatMap(_) => None,
                })
                .collect()
        };
        let vec_run = self.try_vectorize(
            sample_rows(&d.parts),
            |st| &mut st.vector_fallbacks,
            |rows| vectorized::specialize_sampled(specs.as_deref()?, rows),
        );
        let catalog = self.catalog;
        let results = self.run_tasks(false, d.parts.len(), d.total_rows(), |pi, tally| {
            let (rows, vec) = (&d.parts[pi], vec_run.as_ref());
            run_pipeline_partition(rows, vec, &prepared, &bases, catalog, &need_bytes, tally)
        })?;
        let mut parts = Vec::with_capacity(results.len());
        let mut counts_total = vec![0u64; nstages + 1];
        let mut counts_max = vec![0u64; nstages + 1];
        let mut bytes_max = vec![0u64; nstages + 1];
        for (rows, counts, bytes) in results {
            for i in 0..=nstages {
                counts_total[i] += counts[i];
                counts_max[i] = counts_max[i].max(counts[i]);
                bytes_max[i] = bytes_max[i].max(bytes[i]);
            }
            parts.push(rows.into());
        }
        // Issue each stage's charges from its (now known) input sizes, on
        // the driver, in one order whatever the chain length: record-weighted
        // CPU, then the byte term, then nested-bag-fold re-scans — so a fused
        // chain and its unfused operators agree on the simulated clock bit
        // for bit, whichever tier ran the rows.
        let dop = self.dop().max(1) as u64;
        for (i, stage) in stages.iter().enumerate() {
            // The head stage sees the materialized input; later stages
            // tracked their entry bytes via `need_bytes`.
            let entry_bytes = || {
                if i == 0 {
                    d.max_part_bytes()
                } else {
                    bytes_max[i]
                }
            };
            match *stage {
                Narrow::Map(f) | Narrow::Filter(f) => {
                    if i > 0 {
                        let scan_rows = broadcast_fold_scan_rows(&f.body, &bases[i], self.catalog);
                        self.charge(Charge::BroadcastScans(counts_max[i], scan_rows));
                        self.check_budget()?;
                    }
                    self.charge(Charge::Cpu(counts_total[i], counts_max[i], f.static_cost()));
                }
                Narrow::FlatMap(_, body) => {
                    let produced = counts_total[i + 1];
                    self.charge(Charge::Cpu(
                        counts_total[i] + produced,
                        counts_max[i] + produced / dop,
                        body.static_cost(),
                    ));
                }
            }
            self.charge(Charge::cpu_bytes(byte_costs[i], entry_bytes));
            // Folds over *materialized group values* re-scan their data;
            // folds over small per-record bags (e.g. a vertex's neighbor
            // list carried through a join) do not — the charge applies only
            // when the stage consumes a grouping operator's output.
            if grouped[i] {
                self.charge(Charge::nested_bag_folds(nested[i], entry_bytes));
            }
        }
        // A Filter preserves the physical layout; Map/FlatMap drop it.
        let partitioning = stages
            .iter()
            .all(|s| matches!(s, Narrow::Filter(_)))
            .then(|| d.partitioning.clone())
            .flatten();
        Ok(PlanResult::Bag(Partitioned {
            parts,
            partitioning,
        }))
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_join(
        &mut self,
        left: &Plan,
        right: &Plan,
        lkey: &Lambda,
        rkey: &Lambda,
        residual: Option<&Lambda>,
        kind: JoinKind,
        strategy: JoinStrategy,
        probe_split: Option<SplitKind>,
        env: &EnvSnapshot,
    ) -> Result<PlanResult, ExecError> {
        let l = self.exec_bag(left, env)?;
        let r = self.exec_bag(right, env)?;
        let base = self.eval_base(residual.map(Term::Lambda).as_slice(), env)?;

        // Just-in-time strategy resolution from actual input sizes. What
        // this measures of the right side, its shuffle then carries.
        let strategy = match strategy {
            JoinStrategy::Auto => {
                if r.total_bytes() <= self.engine.spec.broadcast_threshold {
                    JoinStrategy::Broadcast
                } else {
                    JoinStrategy::Repartition
                }
            }
            s => s,
        };

        self.charge(Charge::Stage);

        let (probe, build) = match strategy {
            JoinStrategy::Broadcast => {
                // Ship the entire right side to every node, as one build
                // partition every probe task reads; left stays put.
                let bytes = r.total_bytes();
                self.charge(Charge::DriverLink(bytes));
                self.charge(Charge::Broadcast(bytes));
                let whole = Partitioned {
                    parts: vec![r.collect_rows().into()],
                    partitioning: None,
                };
                (
                    self.keyed(l, lkey, env, Placement::InPlace)?,
                    self.keyed(whole, rkey, env, Placement::InPlace)?,
                )
            }
            JoinStrategy::Repartition | JoinStrategy::Auto => {
                // Only the probe (left) side splits — the build side's
                // partitions are replicated across their bucket's
                // sub-partitions instead, which is the classic skew-join
                // move when the build side is the small one.
                let probe = self.keyed(l, lkey, env, Placement::Hashed(probe_split))?;
                let build = self.keyed(r, rkey, env, Placement::Hashed(None))?;
                if let Some(sp) = &probe.split {
                    // Each extra probe sub-partition re-reads its bucket's
                    // build partition from the shuffle output.
                    let bytes = (sp.ways.iter().zip(&build.data.parts))
                        .filter(|(&w, _)| w > 1)
                        .map(|(&w, part)| part.bytes() * (w as u64 - 1))
                        .sum();
                    self.charge(Charge::ReplicatedBuild(bytes));
                }
                (probe, build)
            }
        };
        let res_prep = residual.map(|res| self.prepare_lambda(res, &base));

        // Build a hash table per build partition, probe with the left — one
        // probe task per left partition, fanned out on the pool. A build
        // partition's keys and table (hash → row slots in ascending order =
        // the per-key match order, collisions resolved by key equality at
        // probe time) are made once, by the first probe task that reads it,
        // and shared with the rest: every task of a broadcast join, every
        // sub-partition of a split bucket. A build-key error is what each of
        // those tasks returns, before it looks at a probe row.
        type BuildTable<'k> = (PartKeys<'k>, HashMap<u64, Vec<usize>>);
        let tables: Vec<OnceLock<Result<BuildTable<'_>, ValueError>>> =
            build.data.parts.iter().map(|_| OnceLock::new()).collect();
        let catalog = self.catalog;
        let lwork = &probe.data;
        let probe_rows = lwork.total_rows() + build.data.total_rows();
        let outs = self.run_tasks(true, lwork.parts.len(), probe_rows, |pi, tally| {
            // Under a probe split, every sub-partition of a hot bucket reads
            // that bucket's (replicated) build partition.
            let ri = match &probe.split {
                Some(sp) => sp.parent(pi),
                None => pi.min(tables.len() - 1),
            };
            let rrows = &build.data.parts[ri];
            let built = tables[ri].get_or_init(|| {
                let keys = build.keys(ri, catalog, tally);
                let mut table: HashMap<u64, Vec<usize>> = HashMap::new();
                for (slot, hk) in keys.iter().enumerate() {
                    table.entry(hk?.0).or_default().push(slot);
                }
                Ok((keys, table))
            });
            let (rkeys, table) = built.as_ref().map_err(Clone::clone)?;
            let lkeys = probe.keys(pi, catalog, tally);
            let mut rescx = res_prep.as_ref().map(|p| p.ctx(&base));
            let mut out = Vec::new();
            for (lrow, hk) in lwork.parts[pi].iter().zip(lkeys.iter()) {
                let (h, k) = hk?;
                let slots = table.get(h).map(Vec::as_slice).unwrap_or(&[]);
                let mut any = false;
                for &slot in slots {
                    if rkeys.keys[slot].1 != *k {
                        continue;
                    }
                    let rrow = &rrows[slot];
                    let pass = match (&res_prep, &mut rescx) {
                        (Some(res), Some(cx)) => res
                            .call(&[lrow.clone(), rrow.clone()], cx, catalog)?
                            .as_bool()?,
                        _ => true,
                    };
                    if pass {
                        any = true;
                        if kind == JoinKind::Inner {
                            out.push(Value::tuple([lrow.clone(), rrow.clone()]));
                        } else {
                            break;
                        }
                    }
                }
                match kind {
                    JoinKind::LeftSemi if any => out.push(lrow.clone()),
                    JoinKind::LeftAnti if !any => out.push(lrow.clone()),
                    _ => {}
                }
            }
            Ok(out)
        })?;
        let produced: u64 = outs.iter().map(|out| out.len() as u64).sum();
        self.charge(Charge::cpu(
            lwork.total_rows() + produced,
            lwork.max_part_rows() + produced / self.dop().max(1) as u64,
        ));
        // Semi/anti joins keep their probe rows where they are, so they keep
        // the probe layout's claim: the left key after a repartition, the
        // left input's own under broadcast, none if the probe side was split
        // (two-level-hashed).
        let partitioning = (kind != JoinKind::Inner)
            .then(|| lwork.partitioning.clone())
            .flatten();
        let parts = outs.into_iter().map(Part::from).collect();
        Ok(PlanResult::Bag(Partitioned {
            parts,
            partitioning,
        }))
    }

    /// The split-path `groupBy`: phase 1 groups each sub-partition locally in
    /// parallel (one retryable task per sub-partition — retry granularity
    /// follows the split), phase 2 merges each hot bucket's partial groups in
    /// slot order — a key-preserving secondary shuffle restricted to the hot
    /// buckets, charged like the physical data motion it is. Because
    /// [`SplitKind::Balanced`] sub-partitions are contiguous chunks,
    /// the merged output reproduces the unsplit path's rows, order, and
    /// partition layout exactly; only the cost profile changes — the group
    /// materialization pressure is paid on the balanced sub-partition layout,
    /// which is the point of splitting (a hot reducer's superlinear spill
    /// penalty becomes several in-memory sub-reducers).
    fn exec_group_by_split(&mut self, keyed: Keyed<'_>) -> Result<PlanResult, ExecError> {
        let plan = keyed.split.as_ref().expect("the caller saw a split");
        let shuffled = &keyed.data;
        // Phase 1: local grouping per sub-partition, first-occurrence order.
        let catalog = self.catalog;
        let mut grouped: Vec<InsertionMap<Value, Vec<Value>>> = self.run_tasks(
            true,
            shuffled.parts.len(),
            shuffled.total_rows(),
            |pi, tally| group_part(&shuffled.parts[pi], &keyed.keys(pi, catalog, tally)),
        )?;
        self.charge(Charge::GroupMaterialization(
            shuffled.part_bytes().collect(),
        ));
        self.charge(Charge::cpu(shuffled.total_rows(), shuffled.max_part_rows()));
        // Phase 2: sub-partitions 1.. of each split bucket physically move
        // to the bucket's merging reducer — the key-preserving secondary
        // shuffle, restricted to the hot buckets.
        let hot = plan.ways.iter().zip(&plan.offsets).filter(|(&w, _)| w > 1);
        let (moved_bytes, moved_rows): (Vec<u64>, Vec<u64>) = hot
            .map(|(&w, &off)| {
                let moved = &shuffled.parts[off + 1..off + w];
                let bytes: u64 = moved.iter().map(Part::bytes).sum();
                (bytes, moved.iter().map(|p| p.len() as u64).sum::<u64>())
            })
            .unzip();
        self.charge(Charge::SplitMerge(moved_bytes));
        // Merge chunk partial groups in slot order: first-occurrence key
        // order and per-key row order match the unsplit serial loop exactly,
        // because Balanced chunks are contiguous and in order.
        let mut parts = Vec::with_capacity(plan.ways.len());
        for (b, &w) in plan.ways.iter().enumerate() {
            let off = plan.offsets[b];
            let mut merged = std::mem::take(&mut grouped[off]);
            for chunk in &mut grouped[off + 1..off + w] {
                for mut g in std::mem::take(chunk) {
                    merged
                        .entry_hashed(g.hash, g.key, Vec::new)
                        .append(&mut g.value);
                }
            }
            parts.push(interp::group_rows(merged).into());
        }
        // The merge appends pre-grouped run vectors — no key UDF, no
        // hashing — so it carries the memcpy-class minimum record weight,
        // not the full grouping cost phase 1 already paid.
        let max_bucket_rows = moved_rows.iter().copied().max().unwrap_or(0);
        self.charge(Charge::Cpu(moved_rows.iter().sum(), max_bucket_rows, 2.0));
        let n = parts.len();
        Ok(PlanResult::Bag(Partitioned {
            parts,
            partitioning: Some(Partitioning {
                key: Lambda::new(["g"], ScalarExpr::var("g").get(0)),
                parts: n,
            }),
        }))
    }

    fn exec_agg_by(
        &mut self,
        d: Partitioned,
        key: &Lambda,
        fold: &FoldOp,
        split: Option<SplitKind>,
        env: &EnvSnapshot,
    ) -> Result<PlanResult, ExecError> {
        let base = self.eval_base(&fold.terms(), env)?;
        let base2 = self.eval_base(&[Term::Lambda(key)], env)?;
        let zero = self.eval_over(&fold.zero, &base)?;
        let key_prep = self.prepare_lambda(key, &base2);
        let sng_prep = self.prepare_lambda(&fold.sng, &base);
        let uni_prep = self.prepare_lambda(&fold.uni, &base);

        // Columnar decision, made once on the driver (see
        // [`Self::try_vectorize`]) so every combiner task agrees.
        let agg_vec = self.try_vectorize(
            sample_rows(&d.parts),
            |st| &mut st.vector_fallbacks,
            |rows| {
                let input = AggInput::Rows {
                    key: compiled_parts(&key_prep)?,
                    sng: compiled_parts(&sng_prep)?,
                    zero: &zero,
                };
                vectorized::specialize_agg(&input, compiled_parts(&uni_prep)?.0, rows)
            },
        );

        // Combiner phase: per-partition partial aggregation, fanned out on
        // the pool. The key hash is computed once per group (kernel) or row
        // (scalar loop) and carried with each partial so neither the partial
        // shuffle nor the merge phase re-hashes. A specialized fold runs as
        // one columnar kernel over typed accumulator columns; everything the
        // kernel did not cover — the whole partition when the fold did not
        // specialize, the tail from the first aborted batch otherwise — goes
        // through the scalar loop in its `key`, `sng`, `uni` per-row order,
        // seeded with the kernel's groups, so values, first-seen group order
        // and the first error reproduce exactly.
        let catalog = self.catalog;
        let partial_lists = self.run_tasks(true, d.parts.len(), d.total_rows(), |pi, tally| {
            let part = &d.parts[pi];
            let (groups, covered) = agg_kernel_prefix(agg_vec.as_ref(), part, tally);
            let (partials, hashes): (Vec<Value>, Vec<u64>) = if covered == part.len() {
                groups
                    .into_iter()
                    .map(|(k, acc)| {
                        let h = value_hash(&k);
                        (Value::tuple([k, acc]), h)
                    })
                    .unzip()
            } else {
                let mut accs = InsertionMap::new();
                for (k, acc) in groups {
                    accs.insert_hashed(value_hash(&k), k, acc);
                }
                let mut cx = (
                    key_prep.ctx(&base2),
                    sng_prep.ctx(&base),
                    uni_prep.ctx(&base),
                );
                ops::agg(
                    &mut accs,
                    &part[covered..],
                    &mut cx,
                    |(kcx, ..), row| {
                        key_prep
                            .call(std::slice::from_ref(*row), kcx, catalog)
                            .map(ops::hashed)
                    },
                    &zero,
                    |(_, scx, _), row| sng_prep.call(std::slice::from_ref(row), scx, catalog),
                    |(.., ucx), a, b| uni_prep.call_owned([a, b], ucx, catalog),
                )?;
                accs.into_iter()
                    .map(|e| (Value::tuple([e.key, e.value]), e.hash))
                    .unzip()
            };
            // Measured here, by the task that just built them.
            let partials = Part::from(partials);
            partials.bytes();
            Ok((partials, hashes))
        })?;
        self.charge(Charge::Cpu(
            d.total_rows(),
            d.max_part_rows(),
            key.static_cost() + fold.sng.static_cost() + fold.uni.static_cost(),
        ));
        self.charge(Charge::cpu_bytes(
            key.static_byte_cost() + fold.sng.static_byte_cost() + fold.uni.static_byte_cost(),
            || d.max_part_bytes(),
        ));

        // Shuffle only the partial aggregates (one per key per partition)
        // through the generic shuffle's routing, bucketed by the hashes the
        // combiner carried instead of by a `t.0` key extractor re-evaluated
        // and re-hashed on every partial. Because the combiner already
        // collapsed each partition to one partial per key, partial buckets
        // are rarely skewed — but heavy key *cardinality* skew still
        // concentrates partials, and the key-preserving split keeps every
        // copy of a key in one sub-partition, so the merge phase stays a
        // plain per-partition reduction.
        let partial_key = Lambda::new(["t"], ScalarExpr::var("t").get(0));
        let (shuffled, hash_b, agg_split) = self.land(partial_lists, partial_key, split);

        // Merge phase: the same reduction over the partials, keyed by
        // `partial.0` and combining `partial.1` with the same slot ops —
        // columnar when the combiner's fold specialized (a refused fold was
        // already counted there), scalar for whatever the kernel did not
        // cover, looking partials up by their carried hashes. Each
        // partition is drained by the one task body that runs for it (an
        // injected failure skips the body), so the scalar loop moves keys
        // and accumulators out of the partial rows instead of cloning them.
        let merge_vec = match agg_vec {
            Some(_) => self.try_vectorize(
                sample_rows(&shuffled.parts),
                |st| &mut st.vector_fallbacks,
                |rows| {
                    let uni = compiled_parts(&uni_prep)?.0;
                    vectorized::specialize_agg(&AggInput::Partials, uni, rows)
                },
            ),
            None => None,
        };
        let (merge_rows, merge_max_rows) = (shuffled.total_rows(), shuffled.max_part_rows());
        let merge_parts = shuffled.num_parts();
        let cells: Vec<Mutex<Option<Vec<Value>>>> = shuffled
            .parts
            .into_iter()
            .map(|p| Mutex::new(Some(p.into_rows())))
            .collect();
        let merged_lists = self.run_tasks(true, merge_parts, merge_rows, |pi, tally| {
            let rows = cells[pi]
                .lock()
                .expect("partial partition lock poisoned")
                .take()
                .expect("partial partition drained once");
            let (groups, covered) = agg_kernel_prefix(merge_vec.as_ref(), &rows, tally);
            let merged: Vec<Value> = if covered == rows.len() {
                groups
                    .into_iter()
                    .map(|(k, acc)| Value::tuple([k, acc]))
                    .collect()
            } else {
                let mut accs = InsertionMap::new();
                for (k, acc) in groups {
                    accs.insert_hashed(value_hash(&k), k, acc);
                }
                let mut ucx = uni_prep.ctx(&base);
                for (row, &h) in rows.into_iter().zip(&hash_b[pi]).skip(covered) {
                    let (k, a) = split_partial(row);
                    match accs.get_mut_hashed(h, &k) {
                        Some(acc) => {
                            *acc =
                                uni_prep.call_owned([std::mem::take(acc), a], &mut ucx, catalog)?
                        }
                        None => accs.insert_hashed(h, k, a),
                    }
                }
                interp::agg_rows(accs)
            };
            Ok(Part::from(merged))
        })?;
        self.charge(Charge::cpu(merge_rows, merge_max_rows));
        self.charge(Charge::Stage);
        // A split layout routes by the two-level (primary, secondary) hash —
        // it is not plain hash-partitioning, so advertise nothing.
        let partitioning = agg_split.is_none().then(|| Partitioning {
            key: Lambda::new(["g"], ScalarExpr::var("g").get(0)),
            parts: merge_parts,
        });
        Ok(PlanResult::Bag(Partitioned {
            parts: merged_lists,
            partitioning,
        }))
    }

    /// Hash-repartitions a dataset by a key for a consumer that reads no
    /// keys (`distinct`, `minus`, `Repartition`), charging shuffle costs with
    /// skew awareness. When the layout already matches nothing moves, and no
    /// key evaluator is built, sampled or counted.
    fn shuffle(
        &mut self,
        d: Partitioned,
        key: &Lambda,
        env: &EnvSnapshot,
        split: Option<SplitKind>,
    ) -> Result<Partitioned, ExecError> {
        if placed_by(&d, key, self.dop()) {
            return Ok(d);
        }
        Ok(self.keyed(d, key, env, Placement::Hashed(split))?.data)
    }

    /// Maps a consumer's [`SkewEligibility`] to the split flavor the shuffle
    /// may apply — `None` (never split) unless skew splitting is configured.
    fn split_kind(&self, elig: SkewEligibility) -> Option<SplitKind> {
        self.engine.skew?;
        match elig {
            SkewEligibility::Balanced => Some(SplitKind::Balanced),
            SkewEligibility::KeyPreserving => Some(SplitKind::KeyPreserving),
            SkewEligibility::Ineligible => None,
        }
    }

    /// Consults the skew config about the observed per-partition row counts:
    /// tracks the pre-split skew ratio and returns the split plan, if any.
    /// Pure in `(config, sizes)` — thread count and dispatch mode never
    /// enter, so schedules replay bit-identically.
    fn plan_bucket_splits(&mut self, kind: Option<SplitKind>, sizes: &[u64]) -> Option<SplitPlan> {
        let cfg = self.engine.skew?;
        kind?;
        let ratio = skew::observed_skew_ratio(&cfg, sizes);
        if ratio > self.stats.max_skew_ratio {
            self.stats.max_skew_ratio = ratio;
        }
        skew::plan_splits(&cfg, sizes)
    }

    /// Puts `d` where a keyed operator wants it and says how its keys are
    /// read ([`Keyed`]). The specialize-or-refuse decision for the key body
    /// is taken here, on the driver, from a sample of `d` before any row
    /// moves — pure in the simulated layout, so it (and a
    /// `key_path_fallbacks` bump) replays bit-identically across schedules.
    ///
    /// A layout that already satisfies the placement is handed back as it
    /// is, with the evaluator for the consumer to run. Otherwise rows move:
    /// one bucketing task per source partition evaluates its keys, raising
    /// the first key error, and — unless a holder of the partition already
    /// has — measures the rows it has just read; [`Session::land`] then
    /// routes each row with its `(hash, key)` pair and its width.
    fn keyed<'p>(
        &mut self,
        d: Partitioned,
        key: &'p Lambda,
        env: &EnvSnapshot,
        placement: Placement,
    ) -> Result<Keyed<'p>, ExecError> {
        let parts_n = self.dop();
        let base = self.eval_base(&[Term::Lambda(key)], env)?;
        let prep = self.prepare_lambda(key, &base);
        let vec = self.try_vectorize(
            sample_rows(&d.parts),
            |st| &mut st.key_path_fallbacks,
            |rows| vectorized::specialize_sampled(&[vec_spec(&prep, false)?], rows),
        );
        let eval = KeyEval { prep, vec, base };
        let split = match placement {
            Placement::Hashed(split) if !placed_by(&d, key, parts_n) => split,
            _ => {
                return Ok(Keyed {
                    data: d,
                    keys: Keys::InPlace(eval),
                    split: None,
                })
            }
        };
        let catalog = self.catalog;
        let keys = self.run_tasks(true, d.parts.len(), d.total_rows(), |pi, tally| {
            let part = &d.parts[pi];
            let keys = eval.keys(part, catalog, tally);
            match keys.err {
                Some(e) => Err(e),
                None => {
                    // Measured while the key pass has it in cache, unless a
                    // holder already did.
                    part.bytes();
                    Ok(keys.keys.into_owned())
                }
            }
        })?;
        let routed = d.parts.into_iter().zip(keys).collect();
        let (data, keys, split) = self.land(routed, key.clone(), split);
        Ok(Keyed {
            data,
            keys: Keys::Routed(keys),
            split,
        })
    }

    /// The routing half of every shuffle, generic over what rides next to
    /// each row (the `(hash, key)` pair of a keyed shuffle, the bare hash of
    /// an `aggBy` partial). `sources` holds each source partition and what
    /// rides with its rows, row-aligned: destinations (`hash % dop`) are
    /// counted, allocated once at their exact size, and filled by one scatter
    /// in source order — so a destination holds source 0's rows for it, then
    /// source 1's, each in row order: the order a serial loop produces, and
    /// the one `apply_split`, the groupBy merge and the join probe rely on.
    /// Each row's width is scattered with it, so every destination is born
    /// measured and no charge below walks a row. A source no one else holds
    /// is drained; one a cache still references pays a per-row clone.
    /// Hot buckets are then split if `split` names a flavor and the engine
    /// has a [`SkewConfig`] (the returned [`SplitPlan`] says which
    /// sub-partitions belong to which bucket), and the shuffle is charged on
    /// the layout that lands: a split one is smaller at the hottest receiver
    /// but pays more per-file seeks. It carries `partitioning: None` —
    /// two-level-hashed, it must never satisfy a plain partitioning request.
    fn land<S: KeyHash>(
        &mut self,
        sources: Vec<(Part, Vec<S>)>,
        key: Lambda,
        split: Option<SplitKind>,
    ) -> (Partitioned, Vec<Vec<S>>, Option<SplitPlan>) {
        let parts_n = self.dop();
        let dest = |s: &S| (s.key_hash() % parts_n as u64) as usize;
        let mut sizes = vec![0u64; parts_n];
        for s in sources.iter().flat_map(|(_, side)| side) {
            sizes[dest(s)] += 1;
        }
        let mut buckets: Vec<Measured> = sizes
            .iter()
            .map(|&n| Measured::with_capacity(n as usize))
            .collect();
        let mut side: Vec<Vec<S>> = sizes
            .iter()
            .map(|&n| Vec::with_capacity(n as usize))
            .collect();
        for ((row, w), s) in sources
            .into_iter()
            .flat_map(|(part, side)| part.into_measured().drain().zip(side))
        {
            let b = dest(&s);
            buckets[b].push(row, w);
            side[b].push(s);
        }
        let plan = self.plan_bucket_splits(split, &sizes);
        let partitioning = match (&plan, split) {
            (Some(plan), Some(kind)) => {
                let moved;
                (buckets, side, moved) = apply_split(plan, kind, buckets, side);
                self.stats.partitions_split += plan.partitions_split();
                self.stats.split_rows_moved += moved;
                None
            }
            _ => Some(Partitioning {
                key,
                parts: parts_n,
            }),
        };
        let out = Partitioned {
            parts: buckets.into_iter().map(Measured::finish).collect(),
            partitioning,
        };
        self.charge(Charge::Shuffle(out.part_bytes().collect()));
        (out, side, plan)
    }

    // ------------------------------------------------------------- thunks

    fn force(&mut self, thunk: &Arc<Thunk>) -> Result<Partitioned, ExecError> {
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
                        let event = self.cache_events;
                        self.cache_events += 1;
                        if cfg.cache_evicted(event) {
                            self.stats.cache_evictions += 1;
                            if thunk.persisted.load(std::sync::atomic::Ordering::Relaxed) {
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
            // ([`Engine::with_shared_cache`]), closed plans at evictable
            // cache sites consult the cross-session store before executing.
            // The lookup/insert outcome is a pure function of the cache
            // contents at session start — which the service's driver-ordered
            // scheduler makes a pure function of the submission sequence —
            // so runs replay bit-identically across thread counts and
            // dispatch modes.
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
    /// the engine's [`CheckpointConfig`]. Eligibility and selection are
    /// driver-ordered (the `checkpoint_events` counter plus, for the
    /// cost-driven policy, the driver-ordered eviction counters), so the
    /// checkpoint placement — like every other fault decision — is
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
        let event = self.checkpoint_events;
        self.checkpoint_events += 1;
        let bytes = d.total_bytes();
        let persist = match ck.policy {
            // Clamped at the use site: constructing the variant directly
            // bypasses `CheckpointConfig::every`'s clamp, and a raw 0 would
            // otherwise panic on the modulo.
            fault::CheckpointPolicy::EveryN(n) => event.is_multiple_of(n.max(1)),
            fault::CheckpointPolicy::CostDriven(cost) => {
                // Risk blends the configured eviction probability with the
                // rate observed so far; every input is a driver-ordered
                // deterministic counter, so the whole decision replays
                // bit-identically.
                let prior = self.fault_cfg().map_or(0.0, |f| f.cache_evict_p);
                let risk = cost.eviction_risk(self.stats.cache_evictions, self.cache_events, prior);
                let score = cost.score(thunk.plan.lineage_size(), bytes, risk, downstream_of_split);
                // `event + 1` sites seen including this one: the budget
                // auto-tunes upward as eviction pressure rises and collapses
                // to zero when nothing is ever at risk.
                let budget = cost.budget_bytes(event + 1, risk);
                self.stats.checkpoint_budget_bytes = budget;
                let chosen = score > cost.score_threshold
                    && self.checkpoint_bytes_written.saturating_add(bytes) <= budget;
                if !chosen {
                    self.stats.checkpoints_skipped_low_score += 1;
                }
                chosen
            }
        };
        if !persist {
            return;
        }
        thunk
            .persisted
            .store(true, std::sync::atomic::Ordering::Relaxed);
        self.stats.checkpoints_written += 1;
        self.checkpoint_bytes_written += bytes;
        self.charge(Charge::StorageWrite(bytes));
    }

    // -------------------------------------------- broadcasts for UDF capture

    /// Builds the base evaluation environment for a site's UDF terms,
    /// charging a broadcast for every driver bag they capture (and every
    /// catalog dataset read directly inside them — physically the same data
    /// motion).
    fn eval_base(
        &mut self,
        terms: &[Term<'_>],
        env: &EnvSnapshot,
    ) -> Result<HashMap<String, Value>, ExecError> {
        let mut names: Vec<String> = Vec::new();
        let mut reads: Vec<&str> = Vec::new();
        for t in terms {
            names.extend(t.free_vars());
            t.walk(&mut |t| {
                if let Term::Bag(BagExpr::Read { source }) = t {
                    reads.push(source)
                }
            });
        }
        let mut base = HashMap::new();
        let mut seen = std::collections::HashSet::new();
        for name in names {
            if !seen.insert(name.clone()) {
                continue;
            }
            let binding = env.get(&name).or_else(|| self.env.get(&name)).cloned();
            match binding {
                Some(Binding::Scalar(v)) => {
                    base.insert(name, v);
                }
                Some(Binding::Bag(thunk)) => {
                    // Driver → UDFs: force, collect, broadcast.
                    let d = self.force(&thunk)?;
                    let bytes = d.total_bytes();
                    self.charge(Charge::DriverLink(bytes));
                    self.charge(Charge::Broadcast(bytes));
                    base.insert(name, Value::bag(d.collect_rows()));
                }
                Some(Binding::Stateful(state)) => {
                    let snap = state.lock().unwrap().snapshot();
                    let bytes = snap.total_bytes();
                    self.charge(Charge::DriverLink(bytes));
                    self.charge(Charge::Broadcast(bytes));
                    base.insert(name, Value::bag(snap.collect_rows()));
                }
                None => {
                    // Unbound here; may be a catalog read inside the UDF or a
                    // lambda-internal binder — leave resolution to eval time.
                }
            }
        }
        let mut seen_reads = std::collections::HashSet::new();
        for src in reads {
            if !seen_reads.insert(src) {
                continue;
            }
            // A dataset scanned from inside a UDF must be shipped to every
            // worker: storage read + broadcast.
            if let Ok(d) = Partitioned::of_dataset(self.catalog, src, self.dop()) {
                let bytes = d.total_bytes();
                self.charge(Charge::StorageRead(bytes));
                self.charge(Charge::Broadcast(bytes));
            }
        }
        Ok(base)
    }
}

/// What rides next to a row through a shuffle: at least the key hash that
/// routes it.
trait KeyHash {
    fn key_hash(&self) -> u64;
}

impl KeyHash for u64 {
    fn key_hash(&self) -> u64 {
        *self
    }
}

impl KeyHash for (u64, Value) {
    fn key_hash(&self) -> u64 {
        self.0
    }
}

/// Whether `d` is already hash-partitioned by `key` into `parts_n` parts.
fn placed_by(d: &Partitioned, key: &Lambda, parts_n: usize) -> bool {
    d.partitioning
        .as_ref()
        .is_some_and(|p| p.satisfies(key, parts_n))
}

/// Applies a [`SplitPlan`] to freshly bucketed shuffle output, producing the
/// sub-partitioned layout (rows and what rides next to them stay
/// row-aligned, and each row keeps its width, so sub-partitions are born
/// measured like the buckets they came from) plus the number of rows placed
/// outside their bucket's first sub-partition.
///
/// [`SplitKind::Balanced`] cuts a hot bucket into contiguous, near-equal row
/// chunks — concatenating the sub-partitions in slot order reproduces the
/// bucket's exact row order, which is what lets the groupBy merge phase and
/// the join probe emit bit-identical rows. [`SplitKind::KeyPreserving`]
/// routes each row by a secondary hash of its carried key hash, so every
/// copy of a key lands in the same sub-partition (required by per-key
/// consumers like `aggBy` merge, `Distinct`, and stateful routing) at the
/// price of weaker balancing — a single dominant key stays whole.
fn apply_split<S: KeyHash>(
    plan: &SplitPlan,
    kind: SplitKind,
    buckets: Vec<Measured>,
    side: Vec<Vec<S>>,
) -> (Vec<Measured>, Vec<Vec<S>>, u64) {
    let mut out_rows: Vec<Measured> = Vec::with_capacity(plan.output_parts);
    let mut out_side: Vec<Vec<S>> = Vec::with_capacity(plan.output_parts);
    let mut moved = 0u64;
    for ((b, rows), ss) in buckets.into_iter().enumerate().zip(side) {
        let w = plan.ways[b];
        if w <= 1 {
            out_rows.push(rows);
            out_side.push(ss);
            continue;
        }
        match kind {
            SplitKind::Balanced => {
                let n = rows.len();
                let mut rows_iter = rows.drain();
                let mut side_iter = ss.into_iter();
                for j in 0..w {
                    let len = (j + 1) * n / w - j * n / w;
                    out_rows.push(rows_iter.by_ref().take(len).collect());
                    out_side.push(side_iter.by_ref().take(len).collect());
                    if j > 0 {
                        moved += len as u64;
                    }
                }
            }
            SplitKind::KeyPreserving => {
                let mut sub_rows: Vec<Measured> = (0..w).map(|_| Measured::default()).collect();
                let mut sub_side: Vec<Vec<S>> = (0..w).map(|_| Vec::new()).collect();
                for ((row, width), s) in rows.drain().zip(ss) {
                    let sub = (skew::sub_hash(s.key_hash()) % w as u64) as usize;
                    if sub != 0 {
                        moved += 1;
                    }
                    sub_rows[sub].push(row, width);
                    sub_side[sub].push(s);
                }
                out_rows.extend(sub_rows);
                out_side.extend(sub_side);
            }
        }
    }
    (out_rows, out_side, moved)
}

/// The next of a partition's row-aligned keys ([`PartKeys::iter`]): the key
/// callback of an [`ops`] operator fed that partition's rows in order, so a
/// key error surfaces at its own row.
fn next_key<'k>(
    keys: &mut impl Iterator<Item = Result<&'k (u64, Value), ValueError>>,
) -> Result<(u64, Value), ValueError> {
    keys.next().expect("one key per row").cloned()
}

/// Groups one partition's rows by their row-aligned keys ([`ops::group`]),
/// whether the partition is grouped whole on the driver or a sub-partition
/// in a task.
fn group_part(
    rows: &[Value],
    keys: &PartKeys<'_>,
) -> Result<InsertionMap<Value, Vec<Value>>, ValueError> {
    ops::group(rows.iter().cloned(), &mut keys.iter(), |ks, _| next_key(ks))
}

/// Whether a plan's output rows are materialized `(key, {{values}})` groups
/// (looking through partition-preserving operators).
fn consumes_grouped_rows(plan: &Plan) -> bool {
    match plan {
        Plan::GroupBy { .. } => true,
        Plan::Filter { input, .. } | Plan::Cache { input } | Plan::Repartition { input, .. } => {
            consumes_grouped_rows(input)
        }
        _ => false,
    }
}

/// How many rows of the first non-empty partition the driver samples when
/// specializing a vectorized program. One row fixes the column shapes; the
/// rest let the string-column dictionary heuristic
/// ([`vectorized::DICT_MIN_SAMPLE`]) observe cardinality.
const SPECIALIZE_SAMPLE_ROWS: usize = 64;

/// The driver-side specialization sample: a prefix (up to
/// [`SPECIALIZE_SAMPLE_ROWS`] rows) of the first non-empty partition.
/// Deterministic in the simulated partition layout — thread count and
/// dispatch mode never enter. `None` when every partition is empty.
fn sample_rows(parts: &[Part]) -> Option<&[Value]> {
    parts
        .iter()
        .find(|p| !p.is_empty())
        .map(|p| &p[..p.len().min(SPECIALIZE_SAMPLE_ROWS)])
}

/// One chunk's outcome in [`batch_or_replay`].
enum Chunk<'a> {
    /// The kernels evaluated the chunk and appended their output rows.
    Ran,
    /// The kernels aborted on these input rows (or the site has none): the
    /// scalar tier evaluates them row-at-a-time.
    Replay(&'a [Value]),
}

/// The one loop every consumer of a [`VectorPipeline`] runs: `rows` in
/// chunks of `batch_rows`, each through the kernels — adding to the
/// per-stage counts and appending to the output rows, both returned at the
/// end — with a successful batch tallied and an aborted one (shape mismatch
/// or a runtime error on a selected lane) handed to `each` for replay
/// through the scalar tier, which reproduces values and the first error in
/// evaluation order bit-identically. An abort leaves counts and rows
/// untouched and `each` gets both either way, so the two paths write the
/// same outputs. Without a kernel program the rows are one replayed chunk.
/// Scalar replay contexts are `each`'s to build lazily: a partition whose
/// every batch vectorizes never allocates them.
fn batch_or_replay<E>(
    rows: &[Value],
    vec: Option<&(VectorPipeline, usize)>,
    nstages: usize,
    tally: &mut Tally,
    mut each: impl FnMut(Chunk<'_>, &mut [u64], &mut Vec<Value>) -> Result<(), E>,
) -> Result<(Vec<Value>, Vec<u64>), E> {
    let mut kernel = vec.map(|(vp, _)| (vp, vp.new_scratch()));
    let mut counts = vec![0u64; nstages + 1];
    let mut out = Vec::new();
    for chunk in rows.chunks(vec.map_or(usize::MAX, |(_, n)| *n)) {
        let ran = kernel
            .as_mut()
            .is_some_and(|(vp, scratch)| vp.run_batch(chunk, scratch, &mut counts, &mut out));
        let outcome = if ran {
            tally.batch(chunk.len());
            Chunk::Ran
        } else {
            Chunk::Replay(chunk)
        };
        each(outcome, &mut counts, &mut out)?;
    }
    Ok((out, counts))
}

/// Evaluates a key UDF over `rows` — batch-at-a-time through the vectorized
/// tier when the key body specialized, row-at-a-time otherwise
/// ([`batch_or_replay`]) — returning the row-aligned `(hash, key)` pairs up
/// to the first row whose key raised, and that error. A key UDF reads only
/// its own row, so evaluating it ahead of the rows' consumer changes
/// nothing the consumer can observe.
fn batch_keys(
    rows: &[Value],
    eval: &KeyEval<'_>,
    catalog: &Catalog,
    tally: &mut Tally,
) -> (Vec<(u64, Value)>, Option<ValueError>) {
    let mut hks: Vec<(u64, Value)> = Vec::with_capacity(rows.len());
    let mut cx: Option<EvCtx> = None;
    let err = batch_or_replay(rows, eval.vec.as_ref(), 1, tally, |chunk, _, keys| {
        match chunk {
            Chunk::Ran => hks.extend(keys.drain(..).map(|k| (value_hash(&k), k))),
            Chunk::Replay(chunk) => {
                let cx = cx.get_or_insert_with(|| eval.prep.ctx(&eval.base));
                for row in chunk {
                    let k = eval.prep.call(std::slice::from_ref(row), cx, catalog)?;
                    hks.push((value_hash(&k), k));
                }
            }
        }
        Ok(())
    })
    .err();
    (hks, err)
}

/// Folds `rows` through a columnar aggregation kernel batch by batch, up to
/// the first batch that aborts (a non-conforming or erroring lane). Returns
/// the groups folded so far in first-seen order and the number of leading
/// rows they cover; the caller folds `rows[covered..]` through the scalar
/// loop seeded with those groups. Without a kernel (or rows) nothing is
/// covered.
fn agg_kernel_prefix(
    kernel: Option<&(AggKernel, usize)>,
    rows: &[Value],
    tally: &mut Tally,
) -> (Vec<(Value, Value)>, usize) {
    let Some((kernel, batch_rows)) = kernel.filter(|_| !rows.is_empty()) else {
        return (Vec::new(), 0);
    };
    let mut st = kernel.new_state();
    let mut covered = 0usize;
    for chunk in rows.chunks(*batch_rows) {
        if !kernel.absorb(chunk, &mut st) {
            break;
        }
        covered += chunk.len();
        tally.batch(chunk.len());
    }
    (kernel.finish(st), covered)
}

/// Splits an `aggBy` partial `(key, acc)` — built by the combiner, so always
/// a pair — into its two fields, moving them out unless the row is shared.
fn split_partial(row: Value) -> (Value, Value) {
    let Value::Tuple(mut fs) = row else {
        unreachable!("aggBy partials are (key, acc) tuples");
    };
    match Arc::get_mut(&mut fs) {
        Some([k, a]) => (std::mem::take(k), std::mem::take(a)),
        _ => (fs[0].clone(), fs[1].clone()),
    }
}

/// The vectorized-tier view of a prepared Map/Filter stage: its compiled
/// slot program plus bound capture slots. `None` for the interpreter tier
/// (the batch tier requires compiled evaluation, so this is defensive).
fn vec_spec<'s>(prep: &'s PreparedScalar<'_>, filter: bool) -> Option<VecStageSpec<'s>> {
    compiled_parts(prep).map(|(code, caps)| {
        if filter {
            VecStageSpec::Filter(code, caps)
        } else {
            VecStageSpec::Map(code, caps)
        }
    })
}

/// A prepared UDF's compiled slot program plus bound capture slots; `None`
/// for the interpreter tier.
fn compiled_parts<'s>(
    prep: &'s PreparedScalar<'_>,
) -> Option<(&'s CompiledEval, &'s [Option<Value>])> {
    match prep {
        PreparedScalar::Compiled { code, caps } => Some((code, caps)),
        PreparedScalar::Interp { .. } => None,
    }
}

/// Folds one partition. A specialized element function runs as a columnar
/// batch first ([`batch_or_replay`]), then the (inherently sequential)
/// combiner chain drains the batch's outputs in row order. An aborted batch
/// — and every row when `sng` did not specialize — runs the scalar
/// *interleaved* loop from the batch-entry accumulator: re-deriving the
/// element values for already-combined rows is free of observable effects
/// (UDFs are pure), so the first error in the reference `sng/uni`
/// interleaving order reproduces exactly.
#[allow(clippy::too_many_arguments)]
fn fold_partition(
    rows: &[Value],
    sng_vec: Option<&(VectorPipeline, usize)>,
    sng: &PreparedScalar<'_>,
    uni: &PreparedScalar<'_>,
    base: &HashMap<String, Value>,
    zero: Value,
    catalog: &Catalog,
    tally: &mut Tally,
) -> Result<Value, ValueError> {
    let mut ucx = uni.ctx(base);
    let mut scx: Option<EvCtx> = None;
    let mut acc = zero;
    let mut combine = |acc: &mut Value, s: Value| {
        uni.call_owned([std::mem::take(acc), s], &mut ucx, catalog)
            .map(|next| *acc = next)
    };
    batch_or_replay(rows, sng_vec, 1, tally, |chunk, _, buf| match chunk {
        Chunk::Ran => buf.drain(..).try_for_each(|s| combine(&mut acc, s)),
        Chunk::Replay(batch) => {
            let scx = scx.get_or_insert_with(|| sng.ctx(base));
            batch.iter().try_for_each(|row| {
                let s = sng.call(std::slice::from_ref(row), scx, catalog)?;
                combine(&mut acc, s)
            })
        }
    })?;
    Ok(acc)
}

/// The scalar flat loop over a Map/Filter-only stage chain: each row stays
/// in a register-resident local through every stage. Shared between the
/// fused pipeline pass and the vectorized tier's batch-abort replay.
#[allow(clippy::too_many_arguments)]
fn run_scalar_chain<'p, 'b>(
    rows: &[Value],
    stages: &'b [PreparedStage<'p>],
    ctxs: &mut [EvCtx<'b>],
    catalog: &Catalog,
    need_bytes: &[bool],
    counts: &mut [u64],
    bytes: &mut [u64],
    out: &mut Vec<Value>,
) -> Result<(), ValueError>
where
    'p: 'b,
{
    let nstages = stages.len();
    'rows: for row in rows {
        let mut cur = row.clone();
        for (i, stage) in stages.iter().enumerate() {
            counts[i] += 1;
            if need_bytes[i] {
                bytes[i] += cur.approx_bytes();
            }
            match stage {
                PreparedStage::Map(f) => {
                    cur = f.call_owned([cur], &mut ctxs[i], catalog)?;
                }
                PreparedStage::Filter(p) => {
                    let keep = p
                        .call(std::slice::from_ref(&cur), &mut ctxs[i], catalog)?
                        .as_bool()?;
                    if !keep {
                        continue 'rows;
                    }
                }
                PreparedStage::FlatMap(_) => unreachable!("chain is Map/Filter-only"),
            }
        }
        counts[nstages] += 1;
        if need_bytes[nstages] {
            bytes[nstages] += cur.approx_bytes();
        }
        out.push(cur);
    }
    Ok(())
}

/// Output rows plus the per-stage row and byte counters of one partition.
type PartitionPass = (Vec<Value>, Vec<u64>, Vec<u64>);

/// Runs every fused stage over one partition in a single pass: each row is
/// pushed through the whole stage chain with no intermediate collection
/// materialized. Returns the output rows plus, per stage boundary `i`, the
/// number of rows that entered stage `i` (`counts[nstages]` = output rows)
/// and — where `need_bytes[i]` — their byte total, so the caller can issue
/// exactly the charges the unfused chain would. A specialized chain (`vec`)
/// runs columnar, batch by batch, and only an aborted batch takes the scalar
/// pass ([`batch_or_replay`]): the per-stage entry counts are identical
/// whichever path each batch took, and there are no byte totals to keep,
/// since a chain that needs them never specializes.
fn run_pipeline_partition<'p, 'b>(
    rows: &[Value],
    vec: Option<&(VectorPipeline, usize)>,
    stages: &'b [PreparedStage<'p>],
    bases: &'b [HashMap<String, Value>],
    catalog: &Catalog,
    need_bytes: &[bool],
    tally: &mut Tally,
) -> Result<PartitionPass, ValueError>
where
    'p: 'b,
{
    let mut bytes = vec![0u64; stages.len() + 1];
    let mut ctxs: Option<Vec<EvCtx<'b>>> = None;
    let flat_map = stages
        .iter()
        .any(|s| matches!(s, PreparedStage::FlatMap(_)));
    let (out, counts) = batch_or_replay(rows, vec, stages.len(), tally, |chunk, counts, out| {
        let Chunk::Replay(rows) = chunk else {
            return Ok(());
        };
        let ctxs =
            ctxs.get_or_insert_with(|| stages.iter().zip(bases).map(|(s, b)| s.ctx(b)).collect());
        if flat_map {
            let bytes = &mut bytes;
            return rows.iter().cloned().try_for_each(|row| {
                push_row(row, stages, ctxs, catalog, need_bytes, counts, bytes, out)
            });
        }
        // Map/Filter-only chains (the common fused shape) run as one flat
        // loop: each row stays in a register-resident local through every
        // stage, with no per-stage recursion.
        run_scalar_chain(
            rows, stages, ctxs, catalog, need_bytes, counts, &mut bytes, out,
        )
    })?;
    Ok((out, counts, bytes))
}

/// Pushes one row into the first of `stages` (and onward); every slice is
/// the suffix that belongs to those stages, `counts` / `bytes` / `need_bytes`
/// one longer for the output boundary. A FlatMap stage's context stays
/// borrowed by its body while the rows it produced run the stages after it.
#[allow(clippy::too_many_arguments)]
fn push_row<'p, 'b>(
    row: Value,
    stages: &'b [PreparedStage<'p>],
    ctxs: &mut [EvCtx<'b>],
    catalog: &Catalog,
    need_bytes: &[bool],
    counts: &mut [u64],
    bytes: &mut [u64],
    out: &mut Vec<Value>,
) -> Result<(), ValueError>
where
    'p: 'b,
{
    counts[0] += 1;
    if need_bytes[0] {
        bytes[0] += row.approx_bytes();
    }
    let (Some((stage, stages)), Some((cx, ctxs))) = (stages.split_first(), ctxs.split_first_mut())
    else {
        out.push(row);
        return Ok(());
    };
    let (need_bytes, counts, bytes) = (&need_bytes[1..], &mut counts[1..], &mut bytes[1..]);
    let mut next = |v| push_row(v, stages, ctxs, catalog, need_bytes, counts, bytes, out);
    match stage {
        PreparedStage::Map(f) => next(f.call_owned([row], cx, catalog)?),
        PreparedStage::Filter(p) => {
            if p.call(std::slice::from_ref(&row), cx, catalog)?.as_bool()? {
                next(row)
            } else {
                Ok(())
            }
        }
        PreparedStage::FlatMap(b) => b.call(row, cx, catalog, next),
    }
}

/// Strips a top-level `Cache` marker.
fn strip_cache(plan: &Plan) -> (Plan, bool) {
    match plan {
        Plan::Cache { input } => ((**input).clone(), true),
        other => (other.clone(), false),
    }
}

/// Sums the row counts of folds over *broadcast* bags (chains rooted at a
/// driver `Ref` or catalog `Read`) appearing in an expression — each record
/// processed by the enclosing UDF linearly scans these bags (the naive
/// `exists` of an un-unnested predicate). The caller charges
/// `records × rows × native_op_cost`; at the paper's scale this is exactly
/// why the un-unnested TPC-H Q4 cannot finish within an hour.
pub(crate) fn broadcast_fold_scan_rows(
    e: &ScalarExpr,
    base: &HashMap<String, Value>,
    catalog: &Catalog,
) -> u64 {
    fn chain_root_rows(b: &BagExpr, base: &HashMap<String, Value>, catalog: &Catalog) -> u64 {
        match b {
            BagExpr::Ref { name } => base
                .get(name)
                .and_then(|v| v.as_bag().ok())
                .map(|rows| rows.len() as u64)
                .unwrap_or(0),
            BagExpr::Read { source } => catalog.get(source).map(|r| r.len() as u64).unwrap_or(0),
            BagExpr::Map { input, .. }
            | BagExpr::Filter { input, .. }
            | BagExpr::FlatMap { input, .. } => chain_root_rows(input, base, catalog),
            _ => 0,
        }
    }
    let mut rows = 0;
    e.for_each_child(|c| {
        rows += match c {
            // A first-class `BagOf` is built, not scanned.
            Term::Bag(b) if matches!(e, ScalarExpr::Fold(..)) => chain_root_rows(b, base, catalog),
            Term::Scalar(c) => broadcast_fold_scan_rows(c, base, catalog),
            Term::Lambda(lam) => broadcast_fold_scan_rows(&lam.body, base, catalog),
            Term::Bag(_) | Term::BagLambda(..) => 0,
        }
    });
    rows
}

/// Counts fold terms that consume *nested* bags (chains rooted at an
/// `OfValue`, i.e. materialized group values or other first-class nested
/// collections). Each such fold re-scans its group's materialized values —
/// with first-class `DataBag` groups this is a real per-aggregate pass over
/// the data (and over *spilled* data when the groups exceeded memory), which
/// is why the paper's un-fused Q1 (ten folds) dies while the un-fused Fig. 5
/// aggregation (one fold) merely degrades.
pub(crate) fn count_nested_bag_folds(e: &ScalarExpr) -> usize {
    /// Whether an input chain (not a `flatMap` body) starts at an `OfValue`.
    fn bag_has_ofvalue_root(b: &BagExpr) -> bool {
        let mut rooted = matches!(b, BagExpr::OfValue(_));
        b.for_each_child(|c| {
            if let Term::Bag(input) = c {
                rooted = rooted || bag_has_ofvalue_root(input);
            }
        });
        rooted
    }
    let mut n = 0;
    e.for_each_child(|c| {
        n += match c {
            Term::Bag(b) if matches!(e, ScalarExpr::Fold(..)) => {
                usize::from(bag_has_ofvalue_root(b))
            }
            Term::Scalar(c) => count_nested_bag_folds(c),
            Term::Lambda(lam) => count_nested_bag_folds(&lam.body),
            Term::Bag(_) | Term::BagLambda(..) => 0,
        }
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_block(k: &Value) -> &Arc<[Value]> {
        match k {
            Value::Tuple(fs) => fs,
            other => panic!("expected a tuple key, got {other:?}"),
        }
    }

    #[test]
    fn split_partial_moves_a_unique_partial_and_clones_a_shared_one() {
        let key = || Value::tuple([Value::Int(1), Value::str("k")]);
        let acc = Value::Float(2.5);

        let (k, a) = split_partial(Value::tuple([key(), acc.clone()]));
        assert_eq!((&k, &a), (&key(), &acc));
        assert_eq!(Arc::strong_count(key_block(&k)), 1);

        let cached = Value::tuple([key(), acc.clone()]);
        let (k, a) = split_partial(cached.clone());
        assert_eq!((&k, &a), (&key(), &acc));
        assert_eq!(cached, Value::tuple([key(), acc.clone()]));
        let kept = cached.field(0).unwrap();
        assert!(Arc::ptr_eq(key_block(&k), key_block(kept)));
        assert_eq!(Arc::strong_count(key_block(&k)), 2);
    }
}
