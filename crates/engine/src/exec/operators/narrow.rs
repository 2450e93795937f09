//! Narrow operators: a fused `Pipeline`, or a standalone `Map` / `Filter` /
//! `FlatMap` as its one-stage case, run in one pass per partition.

use emma_compiler::plan::PipelineStage;
use emma_compiler::vectorized::VecStageSpec;

use crate::exec::prepare::{batch_or_replay, sample_rows, vec_spec, Chunk, EvCtx, PreparedStage};
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

impl Session<'_> {
    /// Runs a chain of narrow operators over `input` in one per-partition
    /// pass with no intermediate materialization: a fused `Plan::Pipeline`,
    /// or a standalone `Map` / `Filter` / `FlatMap` as its one-stage case.
    /// The engine picks the tier for the whole chain — typed column kernels
    /// when it specializes, the scalar flat loop otherwise (a counted
    /// refusal) — and then issues each stage's charges from its entry sizes.
    pub(crate) fn exec_narrow(
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
