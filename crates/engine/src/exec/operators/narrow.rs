//! Narrow operators: a fused `Pipeline`, or a standalone `Map` / `Filter` /
//! `FlatMap` as its one-stage case, run in one pass per partition — which,
//! for a keyed consumer, is also the write side of its shuffle.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};

use emma_compiler::plan::PipelineStage;
use emma_compiler::vectorized::VecStageSpec;

use crate::dataset::Widths;
use crate::exec::keyed::{KeyCursor, KeyEval, KeyTap, KeyedInput, PartKeys};
use crate::exec::prepare::{
    batch_or_replay, sample_rows, unnest, vec_spec, Chunk, EvCtx, Kernel, PreparedStage,
    SPECIALIZE_SAMPLE_ROWS,
};
use crate::exec::*;

/// One narrow (per-element, partition-local) operator's UDF, borrowed from a
/// standalone `Map` / `Filter` / `FlatMap` node or from a fused
/// [`PipelineStage`]: [`Session::exec_narrow`] runs both shapes.
#[derive(Clone, Copy)]
pub(crate) enum Narrow<'p> {
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

/// A narrow plan node's input and stages; `None` for any other node.
fn narrow_chain(plan: &Plan) -> Option<(&Plan, Vec<Narrow<'_>>)> {
    Some(match plan {
        Plan::Map { input, f } => (input, vec![Narrow::Map(f)]),
        Plan::Filter { input, p } => (input, vec![Narrow::Filter(p)]),
        Plan::FlatMap { input, param, body } => (input, vec![Narrow::FlatMap(param, body)]),
        Plan::Pipeline { input, stages } => (input, stages.iter().map(Narrow::from).collect()),
        _ => return None,
    })
}

/// The field path of a chain's *unnest head* — stage 0 a `FlatMap` whose
/// body is `OfValue(x.f…).map(y => (x, y))`, the shape lowering gives a
/// dependent generator over a nested bag — when no other stage is a
/// `FlatMap`. The kernels then read the `(x, y)` pairs the head yields
/// ([`unnest`]).
fn unnest_path(stages: &[Narrow<'_>]) -> Option<Vec<usize>> {
    let (Narrow::FlatMap(x, body), rest) = stages.split_first()? else {
        return None;
    };
    if rest.iter().any(|s| matches!(s, Narrow::FlatMap(..))) {
        return None;
    }
    let BagExpr::Map { input, f } = body else {
        return None;
    };
    let (BagExpr::OfValue(src), [y]) = (&**input, f.params.as_slice()) else {
        return None;
    };
    let pair = ScalarExpr::Tuple(vec![ScalarExpr::var(*x), ScalarExpr::var(y.as_str())]);
    if y == x || f.body != pair {
        return None;
    }
    let (mut path, mut e) = (Vec::new(), &**src);
    while let ScalarExpr::Field(inner, i) = e {
        path.push(*i);
        e = inner;
    }
    path.reverse();
    (*e == ScalarExpr::var(*x)).then_some(path)
}

/// Whether a narrow node's chain can run on the kernels whole: it has no
/// `FlatMap` stage, or its only one is an unnest head ([`unnest_path`]).
pub(crate) fn kernel_shaped(plan: &Plan) -> bool {
    narrow_chain(plan).is_some_and(|(_, stages)| {
        let flat_map = |s: &Narrow| matches!(s, Narrow::FlatMap(..));
        !stages.iter().any(flat_map) || unnest_path(&stages).is_some()
    })
}

/// A narrow chain readied to run ([`Session::narrow_site`]): its input, and
/// for each stage its UDF prepared over its base scope and what its charges
/// need.
pub(crate) struct NarrowSite<'p> {
    plan: &'p Plan,
    stages: Vec<Narrow<'p>>,
    /// The chain's input partitions.
    pub(crate) input: Partitioned,
    bases: Vec<HashMap<String, Value>>,
    prepared: Vec<PreparedStage<'p>>,
    /// Whether stage `i`'s input rows are materialized groups (the
    /// `consumes_grouped_rows` test, looking back through fused Filter
    /// stages).
    grouped: Vec<bool>,
    /// Folds over nested bags in each stage's UDF.
    nested: Vec<usize>,
    /// Per-stage byte weights: stages whose UDFs contain length-scaling
    /// builtins (`StrContains`) charge a byte term against their entry
    /// bytes.
    byte_costs: Vec<f64>,
    /// Per stage boundary, whether the wave totals the bytes that enter it.
    need_bytes: Vec<bool>,
    /// The field path of the chain's unnest head ([`unnest_path`]).
    unnest: Option<Vec<usize>>,
}

impl NarrowSite<'_> {
    /// Number of stages.
    pub(crate) fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// The stages as a typed-kernel chain — after the unnest head, whose
    /// pairs the kernels read, when there is one. Every other FlatMap stage
    /// (bag-producing) and byte-sampled intermediates (nested-bag-fold
    /// re-scans and byte-weighted builtins past the head stage charge from
    /// per-row sizes) have no columnar form. A byte-weighted *head* stage
    /// charges from the materialized input and vectorizes fine.
    pub(crate) fn specs(&self) -> Option<Vec<VecStageSpec<'_>>> {
        if self.need_bytes.contains(&true) {
            return None;
        }
        let head = usize::from(self.unnest.is_some());
        (self.prepared[head..].iter())
            .map(|s| match s {
                PreparedStage::Map(p) => vec_spec(p, false),
                PreparedStage::Filter(p) => vec_spec(p, true),
                PreparedStage::FlatMap(_) => None,
            })
            .collect()
    }

    /// The field path of the chain's unnest head, if it has one.
    pub(crate) fn unnest(&self) -> Option<&[usize]> {
        self.unnest.as_deref()
    }

    /// The rows the chain's kernels specialize against: [`sample_rows`] of
    /// the input, or under an unnest head the first pairs it yields,
    /// walking parents in partition order. `None` when there are none.
    pub(crate) fn sample(&self) -> Option<Cow<'_, [Value]>> {
        let Some(path) = self.unnest() else {
            return sample_rows(&self.input.parts).map(Cow::Borrowed);
        };
        let mut pairs = Vec::new();
        for x in self.input.parts.iter().flat_map(|p| p.iter()) {
            if pairs.len() >= SPECIALIZE_SAMPLE_ROWS {
                break;
            }
            // A parent with no bag at the path yields nothing here; its
            // batch replays on the scalar tier, which raises.
            unnest(std::slice::from_ref(x), path, &mut pairs);
        }
        pairs.truncate(SPECIALIZE_SAMPLE_ROWS);
        (!pairs.is_empty()).then_some(Cow::Owned(pairs))
    }

    /// Runs the chain over `rows` through the scalar tier
    /// ([`run_pipeline_partition`] without kernels): the rows it leaves,
    /// with each stage boundary's row count added to `counts`.
    pub(crate) fn scalar_pass(
        &self,
        rows: &[Value],
        catalog: &Catalog,
        counts: &mut [u64],
    ) -> Result<Vec<Value>, ValueError> {
        let mut tally = Tally::default();
        let (out, entered, _) = run_pipeline_partition(
            rows,
            None,
            &self.prepared,
            &self.bases,
            catalog,
            &self.need_bytes,
            &mut tally,
            None,
        )?;
        counts.iter_mut().zip(entered).for_each(|(c, n)| *c += n);
        Ok(out)
    }
}

/// A chain's row counts per stage boundary, over the partitions of its
/// wave: in total, in the largest partition, and the largest partition's
/// entry bytes where the wave totals them.
pub(crate) struct StageCounts {
    total: Vec<u64>,
    max: Vec<u64>,
    bytes_max: Vec<u64>,
}

impl StageCounts {
    pub(crate) fn new(nstages: usize) -> Self {
        let zeros = vec![0; nstages + 1];
        StageCounts {
            total: zeros.clone(),
            max: zeros.clone(),
            bytes_max: zeros,
        }
    }

    /// Adds one partition's counts and entry bytes.
    pub(crate) fn add(&mut self, counts: &[u64], bytes: &[u64]) {
        for (i, &n) in counts.iter().enumerate() {
            self.total[i] += n;
            self.max[i] = self.max[i].max(n);
        }
        for (max, &b) in self.bytes_max.iter_mut().zip(bytes) {
            *max = (*max).max(b);
        }
    }

    /// The rows the chain leaves: in total, and in the largest partition.
    pub(crate) fn out(&self) -> (u64, u64) {
        let last = self.total.len() - 1;
        (self.total[last], self.max[last])
    }
}

impl Session<'_> {
    /// Runs a narrow plan node — a fused `Plan::Pipeline`, or a standalone
    /// `Map` / `Filter` / `FlatMap` as its one-stage case — in one
    /// per-partition pass with no intermediate materialization
    /// ([`Session::narrow_site`], then [`Session::run_narrow`]).
    pub(crate) fn exec_narrow(
        &mut self,
        plan: &Plan,
        tap: Option<KeyTap<'_>>,
        env: &EnvSnapshot,
    ) -> Result<KeyedInput, ExecError> {
        let site = self.narrow_site(plan, env)?;
        self.run_narrow(site, tap)
    }

    /// Readies a narrow chain to run: runs its input, builds each stage's
    /// base scope — in stage order, so thunk forcings, broadcasts and cache
    /// hits/misses happen exactly as the unfused chain's would — and
    /// prepares its UDF, and charges what the head stage is known to cost
    /// before any row runs.
    pub(crate) fn narrow_site<'p>(
        &mut self,
        plan: &'p Plan,
        env: &EnvSnapshot,
    ) -> Result<NarrowSite<'p>, ExecError> {
        let (input, stages) = narrow_chain(plan).expect("narrow_site readies narrow plan nodes");
        let d = self.exec_bag(input, env)?;
        let mut bases = Vec::with_capacity(stages.len());
        for stage in &stages {
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
        // are issued by `charge_stages`.
        if let Narrow::Map(f) | Narrow::Filter(f) = stages[0] {
            let scan_rows = broadcast_fold_scan_rows(&f.body, &bases[0], self.catalog);
            self.charge(Charge::BroadcastScans(d.max_part_rows(), scan_rows));
            self.check_budget()?;
        }
        let nstages = stages.len();
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
        Ok(NarrowSite {
            plan,
            unnest: unnest_path(&stages),
            stages,
            input: d,
            bases,
            prepared,
            grouped,
            nested,
            byte_costs,
            need_bytes,
        })
    }

    /// Runs a readied narrow chain in one per-partition pass. The engine
    /// picks the tier for the whole chain — typed column kernels when it
    /// specializes, the scalar flat loop otherwise (a counted refusal) —
    /// and then issues each stage's charges from its entry sizes
    /// ([`Session::charge_stages`]).
    ///
    /// With a [`KeyTap`] each task also takes, from every output row while
    /// it is in cache, its key ([`KeyCursor`]) and its width ([`RowTap`]):
    /// the partitions come out measured, with their keys. The key's tier is
    /// decided on the driver before the wave, from the sample the finished
    /// output would have given ([`output_sample`]).
    pub(crate) fn run_narrow(
        &mut self,
        site: NarrowSite<'_>,
        tap: Option<KeyTap<'_>>,
    ) -> Result<KeyedInput, ExecError> {
        let d = &site.input;
        let specs = site.specs();
        let vec_run = self.try_vectorize(
            site.sample().as_deref(),
            |st| &mut st.vector_fallbacks,
            |rows| vectorized::specialize_sampled(specs.as_deref()?, rows),
        );
        let catalog = self.catalog;
        let (prepared, bases, need_bytes) = (&site.prepared, &site.bases, &site.need_bytes);
        // A Filter preserves the physical layout; Map/FlatMap drop it.
        let filter_only = site.stages.iter().all(|s| matches!(s, Narrow::Filter(_)));
        let partitioning = filter_only.then(|| d.partitioning.clone()).flatten();
        let key = match tap.filter(|t| t.wanted(partitioning.as_ref(), self.dop())) {
            Some(tap) => {
                let sample = (self.kernels_on())
                    .then(|| output_sample(&d.parts, prepared, bases, catalog, need_bytes))
                    .flatten();
                Some(self.key_eval(tap.key, tap.base, sample.as_deref()))
            }
            None => None,
        };
        let results = self.run_tasks(false, d.parts.len(), d.total_rows(), |pi, tally| {
            let part = &d.parts[pi];
            let kernel = vec_run.as_ref().map(|v| Kernel::new(v, site.unnest()));
            let mut tap = key.as_ref().map(|k| RowTap::new(k, part, filter_only));
            let pass = run_pipeline_partition(
                part,
                kernel,
                prepared,
                bases,
                catalog,
                need_bytes,
                tally,
                tap.as_mut(),
            )?;
            let taken = tap.map(|t| t.finish(&pass.0, catalog, tally));
            Ok((pass, taken))
        })?;
        let mut parts = Vec::with_capacity(results.len());
        let mut keys = Vec::with_capacity(results.len());
        let mut counts = StageCounts::new(site.stages.len());
        for ((rows, entered, bytes), taken) in results {
            counts.add(&entered, &bytes);
            parts.push(match taken {
                Some((widths, part_keys)) => {
                    keys.push(part_keys);
                    Part::measured(rows, widths)
                }
                None => rows.into(),
            });
        }
        self.charge_stages(&site, &counts)?;
        Ok(KeyedInput {
            data: Partitioned {
                parts,
                partitioning,
            },
            keys: key.map(|_| keys),
        })
    }

    /// Issues each stage's charges from its (now known) input sizes, on the
    /// driver, in one order whatever the chain length: record-weighted CPU,
    /// then the byte term, then nested-bag-fold re-scans — so a fused chain
    /// and its unfused operators agree on the simulated clock bit for bit,
    /// whichever tier ran the rows, and whether the chain ran as a wave of
    /// its own or inside its consumer's.
    pub(crate) fn charge_stages(
        &mut self,
        site: &NarrowSite<'_>,
        counts: &StageCounts,
    ) -> Result<(), ExecError> {
        let dop = self.dop().max(1) as u64;
        for (i, stage) in site.stages.iter().enumerate() {
            // The head stage sees the materialized input; later stages
            // tracked their entry bytes via `need_bytes`.
            let entry_bytes = || {
                if i == 0 {
                    site.input.max_part_bytes()
                } else {
                    counts.bytes_max[i]
                }
            };
            match *stage {
                Narrow::Map(f) | Narrow::Filter(f) => {
                    if i > 0 {
                        let scan_rows =
                            broadcast_fold_scan_rows(&f.body, &site.bases[i], self.catalog);
                        self.charge(Charge::BroadcastScans(counts.max[i], scan_rows));
                        self.check_budget()?;
                    }
                    self.charge(Charge::Cpu(counts.total[i], counts.max[i], f.static_cost()));
                }
                Narrow::FlatMap(_, body) => {
                    let produced = counts.total[i + 1];
                    self.charge(Charge::Cpu(
                        counts.total[i] + produced,
                        counts.max[i] + produced / dop,
                        body.static_cost(),
                    ));
                }
            }
            self.charge(Charge::cpu_bytes(site.byte_costs[i], entry_bytes));
            // Folds over *materialized group values* re-scan their data;
            // folds over small per-record bags (e.g. a vertex's neighbor
            // list carried through a join) do not — the charge applies only
            // when the stage consumes a grouping operator's output.
            if site.grouped[i] {
                self.charge(Charge::nested_bag_folds(site.nested[i], entry_bytes));
            }
        }
        if matches!(site.plan, Plan::Pipeline { .. }) {
            self.check_budget()?;
        }
        Ok(())
    }
}

/// What a task of a keyed consumer's input wave takes from each output row
/// while the row is in cache: its key, and its width — carried over from the
/// input row when a `Filter`-only chain keeps rows a holder already measured,
/// measured afresh otherwise.
struct RowTap<'e, 'p> {
    keys: KeyCursor<'e, 'p>,
    widths: Widths,
    carried: Option<&'e [u64]>,
}

impl<'e, 'p> RowTap<'e, 'p> {
    fn new(key: &'e KeyEval<'p>, input: &'e Part, filter_only: bool) -> Self {
        RowTap {
            keys: key.cursor(),
            widths: Widths::with_capacity(input.len()),
            carried: input.carried_widths().filter(|_| filter_only),
        }
    }

    /// Whether a chunk must say which of its input rows it kept.
    fn wants_lanes(&self) -> bool {
        self.carried.is_some()
    }

    /// Takes the rows a chunk of input rows starting at `at` appended to
    /// `out` — one per lane of `lanes` when [`RowTap::wants_lanes`].
    fn took(&mut self, at: usize, lanes: &[u32], out: &[Value], catalog: &Catalog) {
        let new = &out[self.widths.len()..];
        match self.carried {
            Some(widths) => {
                debug_assert_eq!(new.len(), lanes.len());
                for &lane in lanes {
                    self.widths.carry(widths[at + lane as usize]);
                }
            }
            None => new.iter().for_each(|row| self.widths.walk(row)),
        }
        self.keys.advance(out, false, catalog);
    }

    /// The widths of all of a task's output rows, and their keys.
    fn finish(
        mut self,
        out: &[Value],
        catalog: &Catalog,
        tally: &mut Tally,
    ) -> (Widths, PartKeys<'static>) {
        self.keys.advance(out, true, catalog);
        (self.widths, self.keys.finish(tally))
    }
}

/// The rows a keyed consumer would specialize its key against if the wave
/// had already run ([`sample_rows`] of the output): a prefix of the first
/// partition the chain leaves non-empty, taken on the driver by the scalar
/// tier from as few input rows as it needs. `None` when every partition
/// comes out empty — and when the chain raises or panics first, because
/// then the wave does too, before anyone reads a key.
fn output_sample(
    parts: &[Part],
    stages: &[PreparedStage<'_>],
    bases: &[HashMap<String, Value>],
    catalog: &Catalog,
    need_bytes: &[bool],
) -> Option<Vec<Value>> {
    let sample = || -> Result<Option<Vec<Value>>, ValueError> {
        let mut tally = Tally::default();
        for part in parts {
            let mut out = Vec::new();
            for rows in part.chunks(SPECIALIZE_SAMPLE_ROWS) {
                let pass = run_pipeline_partition(
                    rows, None, stages, bases, catalog, need_bytes, &mut tally, None,
                )?;
                out.extend(pass.0);
                if out.len() >= SPECIALIZE_SAMPLE_ROWS {
                    break;
                }
            }
            if !out.is_empty() {
                out.truncate(SPECIALIZE_SAMPLE_ROWS);
                return Ok(Some(out));
            }
        }
        Ok(None)
    };
    catch_unwind(AssertUnwindSafe(sample)).ok()?.ok()?
}

/// The scalar flat loop over a Map/Filter-only stage chain: each row stays
/// in a register-resident local through every stage. Shared between the
/// fused pipeline pass and the vectorized tier's batch-abort replay. `kept`,
/// if given, gets the index of each row that reaches the output.
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
    mut kept: Option<&mut Vec<u32>>,
) -> Result<(), ValueError>
where
    'p: 'b,
{
    let nstages = stages.len();
    'rows: for (lane, row) in rows.iter().enumerate() {
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
        if let Some(kept) = kept.as_deref_mut() {
            kept.push(lane as u32);
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
/// exactly the charges the unfused chain would. A specialized chain
/// (`kernel`) runs columnar, batch by batch, and only an aborted batch takes
/// the scalar pass ([`batch_or_replay`]): the per-stage entry counts are
/// identical whichever path each batch took, and there are no byte totals to
/// keep, since a chain that needs them never specializes. A `tap` sees each
/// chunk's output rows right after the chunk produced them.
#[allow(clippy::too_many_arguments)]
fn run_pipeline_partition<'p, 'b>(
    rows: &[Value],
    mut kernel: Option<Kernel<'_>>,
    stages: &'b [PreparedStage<'p>],
    bases: &'b [HashMap<String, Value>],
    catalog: &Catalog,
    need_bytes: &[bool],
    tally: &mut Tally,
    mut tap: Option<&mut RowTap<'_, '_>>,
) -> Result<PartitionPass, ValueError>
where
    'p: 'b,
{
    let mut bytes = vec![0u64; stages.len() + 1];
    let mut ctxs: Option<Vec<EvCtx<'b>>> = None;
    let flat_map = stages
        .iter()
        .any(|s| matches!(s, PreparedStage::FlatMap(_)));
    let (mut at, mut kept) = (0, Vec::new());
    let nstages = stages.len();
    let (out, counts) = batch_or_replay(
        rows,
        kernel.as_mut(),
        nstages,
        tally,
        |chunk, counts, out| {
            let start = at;
            at += chunk.rows().len();
            let lanes = match chunk {
                Chunk::Ran { lanes, .. } => lanes,
                Chunk::Replay(rows) => {
                    let ctxs = ctxs.get_or_insert_with(|| {
                        stages.iter().zip(bases).map(|(s, b)| s.ctx(b)).collect()
                    });
                    if flat_map {
                        let bytes = &mut bytes;
                        rows.iter().cloned().try_for_each(|row| {
                            push_row(row, stages, ctxs, catalog, need_bytes, counts, bytes, out)
                        })?;
                    } else {
                        // Map/Filter-only chains (the common fused shape) run as
                        // one flat loop: each row stays in a register-resident
                        // local through every stage, with no per-stage recursion.
                        kept.clear();
                        let wanted = tap.as_ref().is_some_and(|t| t.wants_lanes());
                        let record = wanted.then_some(&mut kept);
                        run_scalar_chain(
                            rows, stages, ctxs, catalog, need_bytes, counts, &mut bytes, out,
                            record,
                        )?;
                    }
                    &kept
                }
            };
            if let Some(tap) = tap.as_deref_mut() {
                tap.took(start, lanes, out, catalog);
            }
            Ok(())
        },
    )?;
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

/// Sums the row counts of folds over *broadcast* bags (chains rooted at a
/// driver `Ref` or catalog `Read`) appearing in an expression — each record
/// processed by the enclosing UDF linearly scans these bags (the naive
/// `exists` of an un-unnested predicate). The caller charges
/// `records × rows × native_op_cost`; at the paper's scale this is exactly
/// why the un-unnested TPC-H Q4 cannot finish within an hour.
fn broadcast_fold_scan_rows(
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
fn count_nested_bag_folds(e: &ScalarExpr) -> usize {
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
