//! The UDF tiers: every UDF is prepared for the interpreter once per
//! operator execution, and each site's typed-kernel program is specialized
//! or refused on the driver from the UDF's quoted tree and the base scope
//! its free names resolve in. The interpreter replays every batch the
//! kernels abort and runs every site they refuse. Only this module reads
//! the run's batch config.

use std::collections::HashSet;
use std::ops::Deref;

use emma_compiler::vectorized::{VecStageSpec, VectorScratch};

use super::*;

/// A UDF readied for per-row evaluation by the interpreter, with its
/// base-scope lookups pre-resolved ([`Env::prefetch`]). Built once per
/// operator execution by [`prepare_lambda`] / [`prepare_bag`].
pub(super) struct Prepared<'p, U> {
    udf: U,
    /// Every name the body references — prefetched into the `Env` so
    /// per-row lookups scan locals instead of probing the base map.
    prefetch: Vec<&'p str>,
}

/// A scalar UDF readied for evaluation.
pub(super) type PreparedScalar<'p> = Prepared<'p, &'p Lambda>;

/// A FlatMap body — its element parameter and bag expression — readied for
/// evaluation.
pub(super) type PreparedBag<'p> = Prepared<'p, (&'p str, &'p BagExpr)>;

impl<'p, U> Prepared<'p, U> {
    /// A fresh per-task interpreter environment over `base`, reused across
    /// the task's rows.
    pub(super) fn ctx<'b>(&self, base: &'b HashMap<String, Value>) -> Env<'b>
    where
        'p: 'b,
    {
        let mut env = Env::new(base);
        let names: &[&'b str] = self.prefetch.as_slice();
        env.prefetch(names.iter().copied());
        env
    }
}

impl<'p> PreparedScalar<'p> {
    /// The UDF.
    pub(super) fn udf(&self) -> &'p Lambda {
        self.udf
    }

    /// Applies the UDF to argument values.
    pub(super) fn call<'b>(
        &self,
        args: &[Value],
        env: &mut Env<'b>,
        catalog: &Catalog,
    ) -> Result<Value, ValueError>
    where
        'p: 'b,
    {
        interp::eval_lambda(self.udf, args, env, catalog)
    }
}

impl<'p> PreparedBag<'p> {
    /// Evaluates the body with the element parameter bound to `row`, whole,
    /// then hands each produced row to `sink`, in order: an error in the
    /// body precedes any error of `sink`.
    pub(super) fn call<'b>(
        &self,
        row: Value,
        env: &mut Env<'b>,
        catalog: &Catalog,
        sink: impl FnMut(Value) -> Result<(), ValueError>,
    ) -> Result<(), ValueError>
    where
        'p: 'b,
    {
        let (param, body) = self.udf;
        let rows = interp::eval_bag_with_binding(body, param, row, env, catalog)?;
        rows.into_iter().try_for_each(sink)
    }
}

/// Readies a scalar UDF for per-row evaluation.
pub(super) fn prepare_lambda(lam: &Lambda) -> PreparedScalar<'_> {
    Prepared {
        udf: lam,
        prefetch: interp::var_names(Term::Lambda(lam)),
    }
}

/// Readies a FlatMap body for per-row evaluation; the kernels read no
/// FlatMap body.
pub(super) fn prepare_bag<'p>(param: &'p str, body: &'p BagExpr) -> PreparedBag<'p> {
    Prepared {
        udf: (param, body),
        prefetch: interp::var_names(Term::Bag(body)),
    }
}

/// A narrow stage with its UDF prepared.
pub(super) enum PreparedStage<'p> {
    Map(PreparedScalar<'p>),
    Filter(PreparedScalar<'p>),
    FlatMap(PreparedBag<'p>),
}

impl<'p> PreparedStage<'p> {
    pub(super) fn ctx<'b>(&self, base: &'b HashMap<String, Value>) -> Env<'b>
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
    /// Whether sites run typed kernels where they specialize: the one tier
    /// in which [`Session::try_vectorize`] reads its sample.
    pub(super) fn kernels_on(&self) -> bool {
        self.kernels.is_some()
    }

    /// The typed kernels' batch size; `None` when they are off.
    pub(super) fn batch_rows(&self) -> Option<usize> {
        self.kernels.map(|cfg| cfg.batch_rows)
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
        let cfg = self.kernels?;
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
    /// interpreter evaluates them row-at-a-time.
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
    /// then replays through the interpreter, which raises the error.
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
/// through the interpreter, which reproduces values and the first error in
/// evaluation order bit-identically. An abort leaves counts and rows
/// untouched and `each` gets both either way, so the two paths write the
/// same outputs. Without a kernel program the rows are one replayed chunk.
/// Interpreter environments are `each`'s to build lazily: a partition whose
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

/// The typed-kernel view of a prepared Map/Filter stage over its base
/// scope.
pub(super) fn vec_spec<'s>(
    prep: &PreparedScalar<'s>,
    base: &'s HashMap<String, Value>,
    filter: bool,
) -> VecStageSpec<'s> {
    if filter {
        VecStageSpec::Filter(prep.udf(), base)
    } else {
        VecStageSpec::Map(prep.udf(), base)
    }
}
