//! The UDF tiers: which evaluator runs a site's UDFs. A UDF is prepared for
//! the interpreter or the scalar compiled tier once per operator execution,
//! and each site's typed-kernel program is specialized or refused on the
//! driver. The tier flag, the batch config and the compile memos are private
//! to this module.

use std::collections::HashSet;
use std::hash::Hash;
use std::ops::Deref;

use emma_compiler::compiled::{self, CompiledBag, CompiledEval, Machine};
use emma_compiler::vectorized::{VecStageSpec, VectorScratch};

use super::*;

/// The run's evaluation tier and its per-run compilation memos: each
/// distinct UDF is lowered once, however many operator executions (loop
/// iterations, re-forced thunks) evaluate it.
pub(super) struct Tiers {
    /// Whether UDFs run through slot-compiled evaluators
    /// ([`emma_compiler::compiled`]) instead of the reference interpreter.
    compiled: bool,
    /// Batch config of the vectorized columnar tier
    /// ([`emma_compiler::vectorized`]), `batch_rows` ≥ 1; `None` = scalar
    /// tiers only (the interpreter, or a pinned scalar compiled tier).
    vectorized: Option<BatchConfig>,
    /// Scalar UDFs, keyed by the lambda and its [`literal_bits`].
    lambdas: HashMap<(Lambda, Vec<u64>), Arc<CompiledEval>>,
    /// FlatMap bodies, keyed by `(param, body)` and the body's
    /// [`literal_bits`].
    bags: HashMap<(String, BagExpr, Vec<u64>), Arc<CompiledBag>>,
}

impl Tiers {
    pub(super) fn new(engine: &Engine, compiled_eval: bool) -> Tiers {
        Tiers {
            compiled: compiled_eval,
            // The kernels are specialized from compiled slot programs, so
            // the interpreter tier never consults them. `batch_rows` is a pub
            // field: clamp a literal 0 here, once, for every chunking site.
            vectorized: (engine.vectorized)
                .filter(|_| compiled_eval)
                .map(|cfg| BatchConfig::new(cfg.batch_rows)),
            lambdas: HashMap::new(),
            bags: HashMap::new(),
        }
    }
}

/// The memoized lowering of `key`, compiled on first use.
fn memo<K: Eq + Hash, V>(
    cache: &mut HashMap<K, Arc<V>>,
    key: K,
    compile: impl FnOnce() -> V,
) -> Arc<V> {
    Arc::clone(cache.entry(key).or_insert_with(|| Arc::new(compile())))
}

/// The type and bits of every literal in `udf`, in visit order. A memo key
/// carries them beside the UDF because `Value`'s numeric equality
/// (`Int(2) == Float(2.0)`, `0.0 == -0.0`) would otherwise give two UDFs
/// that differ only in a literal one compiled program.
fn literal_bits(udf: Term) -> Vec<u64> {
    fn push(v: &Value, out: &mut Vec<u64>) {
        match v {
            Value::Null => out.push(0),
            Value::Bool(b) => out.extend([1, u64::from(*b)]),
            Value::Int(i) => out.extend([2, *i as u64]),
            Value::Float(f) => out.extend([3, f.to_bits()]),
            // String equality is exact already.
            Value::Str(_) => out.push(4),
            Value::Vector(xs) => {
                out.extend([5, xs.len() as u64]);
                out.extend(xs.iter().map(|x| x.to_bits()));
            }
            Value::Tuple(vs) => {
                out.extend([6, vs.len() as u64]);
                vs.iter().for_each(|v| push(v, out));
            }
            Value::Bag(vs) => {
                out.extend([7, vs.len() as u64]);
                vs.iter().for_each(|v| push(v, out));
            }
        }
    }
    let mut out = Vec::new();
    udf.walk(&mut |t| match t {
        Term::Scalar(ScalarExpr::Lit(v)) => push(v, &mut out),
        Term::Bag(BagExpr::Values(vs)) => vs.iter().for_each(|v| push(v, &mut out)),
        _ => {}
    });
    out
}

/// Mutable per-task evaluation state: an interpreter [`Env`] over the
/// broadcast base scope, or a compiled-evaluator [`Machine`]. One context is
/// created per partition task and reused across its rows.
pub(super) enum EvCtx<'b> {
    Env(Env<'b>),
    Machine(Machine),
}

/// A UDF readied for per-row evaluation: either the reference interpreter
/// with its base-scope lookups pre-resolved ([`Env::prefetch`]), or a
/// slot-compiled evaluator with its capture slots bound. Built once per
/// operator execution by [`Session::prepare_lambda`] /
/// [`Session::prepare_bag`].
pub(super) enum Prepared<'p, U, C> {
    Interp {
        udf: U,
        /// Every name the body references — prefetched into the `Env` so
        /// per-row lookups scan locals instead of probing the base map.
        prefetch: Vec<&'p str>,
    },
    Compiled {
        code: Arc<C>,
        caps: Vec<Option<Value>>,
    },
}

/// A scalar UDF readied for evaluation.
pub(super) type PreparedScalar<'p> = Prepared<'p, &'p Lambda, CompiledEval>;

/// A FlatMap body — its element parameter and bag expression — readied for
/// evaluation.
pub(super) type PreparedBag<'p> = Prepared<'p, (&'p str, &'p BagExpr), CompiledBag>;

impl<'p, U, C> Prepared<'p, U, C> {
    /// A fresh per-task evaluation context over `base`.
    pub(super) fn ctx<'b>(&self, base: &'b HashMap<String, Value>) -> EvCtx<'b>
    where
        'p: 'b,
    {
        match self {
            Prepared::Interp { prefetch, .. } => {
                let mut env = Env::new(base);
                let names: &[&'b str] = prefetch.as_slice();
                env.prefetch(names.iter().copied());
                EvCtx::Env(env)
            }
            Prepared::Compiled { .. } => EvCtx::Machine(Machine::new()),
        }
    }
}

impl<'p> PreparedScalar<'p> {
    /// Applies the UDF to argument values.
    pub(super) fn call<'b>(
        &self,
        args: &[Value],
        cx: &mut EvCtx<'b>,
        catalog: &Catalog,
    ) -> Result<Value, ValueError>
    where
        'p: 'b,
    {
        match (self, cx) {
            (Prepared::Interp { udf, .. }, EvCtx::Env(env)) => {
                interp::eval_lambda(udf, args, env, catalog)
            }
            (Prepared::Compiled { code, caps }, EvCtx::Machine(m)) => {
                code.eval(args, caps, m, catalog)
            }
            _ => unreachable!("context built by a different evaluation tier"),
        }
    }

    /// Applies the UDF to argument values the caller owns, moving them into
    /// the evaluator's slots ([`CompiledEval::eval_owned`]) instead of
    /// cloning — skips per-row `Arc` refcount churn on the fused hot paths
    /// that drain owned rows. The interpreter tier borrows as before.
    pub(super) fn call_owned<'b, const N: usize>(
        &self,
        args: [Value; N],
        cx: &mut EvCtx<'b>,
        catalog: &Catalog,
    ) -> Result<Value, ValueError>
    where
        'p: 'b,
    {
        match (self, cx) {
            (Prepared::Interp { udf, .. }, EvCtx::Env(env)) => {
                interp::eval_lambda(udf, &args, env, catalog)
            }
            (Prepared::Compiled { code, caps }, EvCtx::Machine(m)) => {
                code.eval_owned(args, caps, m, catalog)
            }
            _ => unreachable!("context built by a different evaluation tier"),
        }
    }
}

impl<'p> PreparedBag<'p> {
    /// Evaluates the body with the element parameter bound to `row`, then
    /// hands each produced row to `sink` ([`CompiledBag::eval`]).
    pub(super) fn call<'b>(
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
            (Prepared::Interp { udf, .. }, EvCtx::Env(env)) => {
                let (param, body) = *udf;
                let rows = interp::eval_bag_with_binding(body, param, row, env, catalog)?;
                rows.into_iter().try_for_each(sink)
            }
            (Prepared::Compiled { code, caps }, EvCtx::Machine(m)) => {
                code.eval(row, caps, m, catalog, &mut sink)
            }
            _ => unreachable!("context built by a different evaluation tier"),
        }
    }
}

/// A narrow stage with its UDF prepared for the active tier.
pub(super) enum PreparedStage<'p> {
    Map(PreparedScalar<'p>),
    Filter(PreparedScalar<'p>),
    FlatMap(PreparedBag<'p>),
}

impl<'p> PreparedStage<'p> {
    pub(super) fn ctx<'b>(&self, base: &'b HashMap<String, Value>) -> EvCtx<'b>
    where
        'p: 'b,
    {
        match self {
            PreparedStage::Map(f) | PreparedStage::Filter(f) => f.ctx(base),
            PreparedStage::FlatMap(b) => b.ctx(base),
        }
    }
}

impl Session<'_> {
    /// Readies a scalar UDF for per-row evaluation under the active tier:
    /// compiled (memoized lowering + capture binding against `base`) or
    /// interpreted (base-scope prefetch).
    pub(super) fn prepare_lambda<'p>(
        &mut self,
        lam: &'p Lambda,
        base: &HashMap<String, Value>,
    ) -> PreparedScalar<'p> {
        if !self.tiers.compiled {
            let prefetch = compiled::var_names(Term::Lambda(lam));
            return Prepared::Interp { udf: lam, prefetch };
        }
        let key = (lam.clone(), literal_bits(Term::Lambda(lam)));
        let code = memo(&mut self.tiers.lambdas, key, || {
            compiled::compile_lambda(lam)
        });
        Prepared::Compiled {
            caps: code.bind(base),
            code,
        }
    }

    /// Readies a FlatMap body for per-row evaluation (see
    /// [`prepare_lambda`](Self::prepare_lambda)).
    pub(super) fn prepare_bag<'p>(
        &mut self,
        param: &'p str,
        body: &'p BagExpr,
        base: &HashMap<String, Value>,
    ) -> PreparedBag<'p> {
        if !self.tiers.compiled {
            let prefetch = compiled::var_names(Term::Bag(body));
            return Prepared::Interp {
                udf: (param, body),
                prefetch,
            };
        }
        let key = (param.into(), body.clone(), literal_bits(Term::Bag(body)));
        let code = memo(&mut self.tiers.bags, key, || {
            compiled::compile_bag_body(param, body)
        });
        Prepared::Compiled {
            caps: code.bind(base),
            code,
        }
    }

    /// Whether sites run typed kernels where they specialize: the one tier
    /// in which [`Session::try_vectorize`] reads its sample.
    pub(super) fn kernels_on(&self) -> bool {
        self.tiers.vectorized.is_some()
    }

    /// The typed kernels' batch size; `None` when they are off.
    pub(super) fn batch_rows(&self) -> Option<usize> {
        self.tiers.vectorized.map(|cfg| cfg.batch_rows)
    }

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
    pub(super) fn try_vectorize<K>(
        &mut self,
        samples: Option<&[Value]>,
        refusals: fn(&mut ExecStats) -> &mut u64,
        specialize: impl FnOnce(&[Value]) -> Option<K>,
    ) -> Option<(K, usize)> {
        let cfg = self.tiers.vectorized?;
        let kernel = specialize(samples?);
        if kernel.is_none() {
            *refusals(&mut self.stats) += 1;
        }
        kernel.map(|k| (k, cfg.batch_rows))
    }

    /// The base scope [`Session::eval_base`] builds for `terms` when
    /// building it pays for nothing: every name they capture is a driver
    /// scalar (or no binding at all) and none of them reads a dataset. Such
    /// a scope can be built ahead of the point where `eval_base` would build
    /// it without moving a charge. `None` otherwise.
    pub(super) fn scalar_base(
        &self,
        terms: &[Term<'_>],
        env: &EnvSnapshot,
    ) -> Option<HashMap<String, Value>> {
        let mut base = HashMap::new();
        for t in terms {
            let mut reads = false;
            t.walk(&mut |t| reads |= matches!(t, Term::Bag(BagExpr::Read { .. })));
            if reads {
                return None;
            }
            for name in t.free_vars() {
                match env.get(&name).or_else(|| self.env.get(&name)) {
                    Some(Binding::Scalar(v)) => {
                        base.insert(name, v.clone());
                    }
                    Some(Binding::Bag(_) | Binding::Stateful(_)) => return None,
                    None => {}
                }
            }
        }
        Some(base)
    }

    /// Builds the base evaluation environment for a site's UDF terms,
    /// charging a broadcast for every driver bag they capture (and every
    /// catalog dataset read directly inside them — physically the same data
    /// motion).
    pub(super) fn eval_base(
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
        let mut seen = HashSet::new();
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
        let mut seen_reads = HashSet::new();
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

/// How many rows of the first non-empty partition the driver samples when
/// specializing a vectorized program. One row fixes the column shapes; the
/// rest let the string-column dictionary heuristic
/// ([`emma_compiler::vectorized::DICT_MIN_SAMPLE`]) observe cardinality.
pub(super) const SPECIALIZE_SAMPLE_ROWS: usize = 64;

/// The driver-side specialization sample: a prefix (up to
/// [`SPECIALIZE_SAMPLE_ROWS`] rows) of the first non-empty partition.
/// Deterministic in the simulated partition layout — thread count and
/// dispatch mode never enter. `None` when every partition is empty.
pub(super) fn sample_rows<P: Deref<Target = [Value]>>(parts: &[P]) -> Option<&[Value]> {
    parts
        .iter()
        .find(|p| !p.is_empty())
        .map(|p| &p[..p.len().min(SPECIALIZE_SAMPLE_ROWS)])
}

/// One chunk's outcome in [`batch_or_replay`].
pub(super) enum Chunk<'a> {
    /// The kernels evaluated `rows` and appended one output row per lane of
    /// `lanes`, in order — lanes of the rows the kernels read ([`Feed`]).
    Ran { rows: &'a [Value], lanes: &'a [u32] },
    /// The kernels aborted on these input rows (or the site has none): the
    /// scalar tier evaluates them row-at-a-time.
    Replay(&'a [Value]),
}

impl<'a> Chunk<'a> {
    /// The input rows of the chunk.
    pub(super) fn rows(&self) -> &'a [Value] {
        match *self {
            Chunk::Ran { rows, .. } | Chunk::Replay(rows) => rows,
        }
    }
}

/// A site's kernel program readied for one task: the program, its batch
/// size, what it reads of a batch ([`Feed`]), and scratch the task reuses
/// for every batch it runs, however many [`batch_or_replay`] calls they come
/// in.
pub(super) struct Kernel<'v> {
    vp: &'v VectorPipeline,
    batch_rows: usize,
    scratch: VectorScratch,
    feed: Feed<'v>,
}

impl<'v> Kernel<'v> {
    /// The program over a site's input rows, or — `unnest` the field path
    /// of the chain's unnest head — over the pairs the head yields.
    pub(super) fn new(
        (vp, batch_rows): &'v (VectorPipeline, usize),
        unnest: Option<&'v [usize]>,
    ) -> Self {
        Kernel {
            vp,
            batch_rows: *batch_rows,
            scratch: vp.new_scratch(),
            feed: Feed::new(unnest),
        }
    }

    pub(super) fn batch_rows(&self) -> usize {
        self.batch_rows
    }
}

/// What a site's kernels read of a batch of its input rows: the rows
/// themselves, or — under an unnest head, a chain's leading `FlatMap` whose
/// body is `OfValue(x.f…).map(y => (x, y))` — the `(x, y)` pairs that body
/// yields for them, built into a buffer the task reuses.
pub(super) struct Feed<'p> {
    unnest: Option<&'p [usize]>,
    pairs: Vec<Value>,
}

impl<'p> Feed<'p> {
    pub(super) fn new(unnest: Option<&'p [usize]>) -> Self {
        Feed {
            unnest,
            pairs: Vec::new(),
        }
    }

    /// Runs `kernel` over what it reads of the batch `rows`, with the
    /// per-stage counts from the stage it starts at: under an unnest head
    /// the stages after it, the head's own count — the batch's rows — added
    /// once the kernel ran. `false`, with `counts` untouched, when the
    /// kernel aborted or a parent has no bag at the head's path: the batch
    /// then replays through the scalar tier, which raises the error.
    pub(super) fn run(
        &mut self,
        rows: &[Value],
        counts: &mut [u64],
        kernel: impl FnOnce(&[Value], &mut [u64]) -> bool,
    ) -> bool {
        let Some(path) = self.unnest else {
            return kernel(rows, counts);
        };
        self.pairs.clear();
        if !unnest(rows, path, &mut self.pairs) || !kernel(&self.pairs, &mut counts[1..]) {
            return false;
        }
        counts[0] += rows.len() as u64;
        true
    }
}

/// Pushes the pair `(x, y)` for each element `y` of each parent `x`'s bag at
/// `path`, in order: the rows an unnest head yields. `false` when some
/// parent's `path` is missing or holds no bag.
pub(super) fn unnest(parents: &[Value], path: &[usize], pairs: &mut Vec<Value>) -> bool {
    parents
        .iter()
        .all(|x| match path.iter().try_fold(x, |v, &i| v.field(i).ok()) {
            Some(Value::Bag(ys)) => {
                pairs.extend(ys.iter().map(|y| Value::tuple([x.clone(), y.clone()])));
                true
            }
            _ => false,
        })
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
pub(super) fn batch_or_replay<E>(
    rows: &[Value],
    mut kernel: Option<&mut Kernel<'_>>,
    nstages: usize,
    tally: &mut Tally,
    mut each: impl FnMut(Chunk<'_>, &mut [u64], &mut Vec<Value>) -> Result<(), E>,
) -> Result<(Vec<Value>, Vec<u64>), E> {
    let mut counts = vec![0u64; nstages + 1];
    let mut out = Vec::new();
    let batch_rows = kernel.as_ref().map_or(usize::MAX, |k| k.batch_rows);
    for chunk in rows.chunks(batch_rows) {
        let ran = (kernel.as_deref_mut()).is_some_and(|k| {
            let (vp, scratch) = (k.vp, &mut k.scratch);
            let run =
                |rows: &[Value], counts: &mut [u64]| vp.run_batch(rows, scratch, counts, &mut out);
            k.feed.run(chunk, &mut counts, run)
        });
        let outcome = match &kernel {
            Some(k) if ran => {
                tally.batch(chunk.len());
                Chunk::Ran {
                    rows: chunk,
                    lanes: k.vp.out_lanes(&k.scratch),
                }
            }
            _ => Chunk::Replay(chunk),
        };
        each(outcome, &mut counts, &mut out)?;
    }
    Ok((out, counts))
}

/// The vectorized-tier view of a prepared Map/Filter stage: its compiled
/// slot program plus bound capture slots. `None` for the interpreter tier
/// (the batch tier requires compiled evaluation, so this is defensive).
pub(super) fn vec_spec<'s>(prep: &'s PreparedScalar<'_>, filter: bool) -> Option<VecStageSpec<'s>> {
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
pub(super) fn compiled_parts<'s>(
    prep: &'s PreparedScalar<'_>,
) -> Option<(&'s CompiledEval, &'s [Option<Value>])> {
    match prep {
        Prepared::Compiled { code, caps } => Some((code, caps)),
        Prepared::Interp { .. } => None,
    }
}
