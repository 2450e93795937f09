//! Aggregations: the driver-side `fold`, `groupBy` (whole or over a skew
//! split) and `aggBy`'s combiner and merge phases.
//!
//! One loop folds a partition, [`Combiner::fold_part`]: an `aggBy`'s
//! combiner over its input's rows or inside its input chain's wave, and a
//! driver-side `fold` as a combiner with one constant key.

use std::borrow::Cow;
use std::mem::take;
use std::ops::Range;

use emma_compiler::expr::FoldOp;
use emma_compiler::vectorized::{AggInput, AggKernel, AggState, Partials, VecStageSpec};

use crate::dataset::{Measured, Payload};
use crate::exec::keyed::{next_key, KeyedInput, PartKeys, Placement};
use crate::exec::operators::narrow::{kernel_shaped, NarrowSite, StageCounts};
use crate::exec::prepare::{
    prepare_lambda, sample_rows, Feed, PreparedScalar, SPECIALIZE_SAMPLE_ROWS,
};
use crate::exec::*;

/// The layout claim of grouped rows: hash-partitioned by their key, `.0`.
fn by_group_key(parts: usize) -> Partitioning {
    Partitioning {
        key: Lambda::new(["g"], ScalarExpr::var("g").get(0)),
        parts,
    }
}

impl Session<'_> {
    /// Runs a `Plan::Fold` as a combiner with one constant key: each
    /// partition folds into at most one group ([`Combiner::fold_part`]) and
    /// ships its accumulator, or `zero` when it has none, to the driver,
    /// which combines the partials with `uni`.
    pub(crate) fn exec_fold(
        &mut self,
        input: &Plan,
        fold: &FoldOp,
        env: &EnvSnapshot,
    ) -> Result<PlanResult, ExecError> {
        let d = self.exec_bag(input, env)?;
        let base = self.eval_base(&fold.terms(), env)?;
        let key = Lambda::new(["_"], ScalarExpr::lit(Value::Int(0)));
        let comb = self.combiner(&key, fold, base, HashMap::new())?;
        let kernel = self.try_vectorize(
            sample_rows(&d.parts),
            |st| &mut st.vector_fallbacks,
            |rows| comb.specialize(&[], rows),
        );
        let catalog = self.catalog;
        let partials = self.run_tasks(true, d.parts.len(), d.total_rows(), |pi, tally| {
            let (_, folded) =
                comb.fold_part(&d.parts[pi], None, kernel.as_ref(), catalog, tally)?;
            Ok(folded?.only_acc().unwrap_or_else(|| comb.zero.clone()))
        })?;
        // The partials are one more partition: the one shipped to the
        // driver.
        let partials = Part::from(partials);
        let partial_bytes = partials.bytes();
        let mut acc = comb.zero.clone();
        let mut ucx = comb.uni.ctx(&comb.base);
        for p in partials.into_rows() {
            acc = comb
                .uni
                .call(&[acc, p], &mut ucx, self.catalog)
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

    /// Runs a `Plan::GroupBy`: groups each partition of the keyed input in
    /// first-occurrence order and charges the groups' memory pressure.
    /// Phase 1 groups every partition in one wave — under a skew split one
    /// retryable task per sub-partition, so retry granularity follows the
    /// split. Phase 2 runs only for a split: it merges each hot bucket's
    /// partial groups in slot order — a key-preserving secondary shuffle
    /// restricted to the hot buckets, charged like the physical data motion
    /// it is. Because
    /// [`SplitKind::Balanced`] sub-partitions are contiguous chunks, the
    /// merged output reproduces the unsplit path's rows, order, and
    /// partition layout exactly; only the cost profile changes — the group
    /// materialization pressure is paid on the balanced sub-partition
    /// layout, which is the point of splitting (a hot reducer's superlinear
    /// spill penalty becomes several in-memory sub-reducers).
    pub(crate) fn exec_group_by(
        &mut self,
        d: KeyedInput,
        key: &Lambda,
        kind: Option<SplitKind>,
        env: &EnvSnapshot,
    ) -> Result<PlanResult, ExecError> {
        let keyed = self.keyed(d, key, env, Placement::Hashed(kind))?;
        let (shuffled, catalog) = (&keyed.data, self.catalog);
        let n = shuffled.parts.len();
        let mut grouped = self.run_tasks(true, n, shuffled.total_rows(), |pi, tally| {
            group_part(&shuffled.parts[pi], &keyed.keys(pi, catalog, tally))
        })?;
        self.charge(Charge::GroupMaterialization(
            shuffled.part_bytes().collect(),
        ));
        self.charge(Charge::cpu(shuffled.total_rows(), shuffled.max_part_rows()));
        if let Some(plan) = &keyed.split {
            // Phase 2: sub-partitions 1.. of each hot bucket physically move
            // to the bucket's merging reducer — the key-preserving secondary
            // shuffle, restricted to the hot buckets.
            let hot = || plan.offsets.iter().zip(&plan.ways).filter(|(_, &w)| w > 1);
            let (moved_bytes, moved_rows): (Vec<u64>, Vec<u64>) = hot()
                .map(|(&off, &w)| {
                    let moved = &shuffled.parts[off + 1..off + w];
                    let bytes: u64 = moved.iter().map(Part::bytes).sum();
                    (bytes, moved.iter().map(|p| p.len() as u64).sum::<u64>())
                })
                .unzip();
            self.charge(Charge::SplitMerge(moved_bytes));
            // Merge chunk partial groups in slot order: first-occurrence key
            // order and per-key row order match the unsplit grouping
            // exactly, because Balanced chunks are contiguous and in order.
            for (&off, &w) in hot() {
                let (merged, chunks) = grouped[off..off + w].split_first_mut().expect("w > 1");
                for mut g in chunks.iter_mut().flat_map(take) {
                    merged
                        .entry_hashed(g.hash, g.key, Vec::new)
                        .append(&mut g.value);
                }
            }
            // The merge appends pre-grouped run vectors — no key UDF, no
            // hashing — so it carries the memcpy-class minimum record weight,
            // not the full grouping cost phase 1 already paid.
            let max_bucket_rows = moved_rows.iter().copied().max().unwrap_or(0);
            self.charge(Charge::Cpu(moved_rows.iter().sum(), max_bucket_rows, 2.0));
            grouped = (plan.offsets.iter())
                .map(|&off| take(&mut grouped[off]))
                .collect();
        }
        let parts: Vec<Part> = (grouped.into_iter())
            .map(|g| interp::group_rows(g).into())
            .collect();
        Ok(PlanResult::Bag(Partitioned {
            partitioning: Some(by_group_key(parts.len())),
            parts,
        }))
    }

    /// Runs a `Plan::AggBy`: per-partition partial aggregation, a shuffle
    /// of the partials only, and a merge of each key's partials.
    ///
    /// Over a `Map`, `Filter` or a `Pipeline` of them — led, perhaps, by an
    /// unnest head, the `FlatMap` of a dependent generator over a nested bag
    /// — the combiner runs inside the chain's wave when it can
    /// ([`Session::exec_fused_agg_by`]):
    /// the kernels are on, the key's and the fold's base scopes pay for
    /// nothing (so they can be built ahead of the chain's wave without
    /// moving a charge), and the chain and the fold specialize together.
    /// Every other site runs its input first and the combiner as a wave of
    /// its own. Either way [`Combiner::fold_part`] folds each partition.
    pub(crate) fn exec_agg_by(
        &mut self,
        input: &Plan,
        key: &Lambda,
        fold: &FoldOp,
        split: Option<SplitKind>,
        env: &EnvSnapshot,
    ) -> Result<PlanResult, ExecError> {
        let scopes = (kernel_shaped(input) && self.kernels_on())
            .then(|| {
                let fold_base = self.scalar_base(&fold.terms(), env)?;
                Some((fold_base, self.scalar_base(&[Term::Lambda(key)], env)?))
            })
            .flatten();
        let d = match scopes {
            Some((base, key_base)) => {
                let site = self.narrow_site(input, env)?;
                // A `zero` that raises is raised below, after the chain's
                // wave, where the two waves raise it.
                if let Ok(comb) = self.combiner(key, fold, base, key_base) {
                    if let Some(kernel) = self.fused_kernel(&site, &comb, key, fold) {
                        return self.exec_fused_agg_by(site, comb, kernel, key, fold, split);
                    }
                }
                // A chain whose kernels have no row to read — an empty
                // input, or an unnest head over empty bags — leaves no rows
                // (or raises): it runs in the `aggBy`'s frame.
                if site.sample().is_some() {
                    self.exec_node(input, |s| s.run_narrow(site, None))?.data
                } else {
                    self.run_narrow(site, None)?.data
                }
            }
            None => self.exec_bag(input, env)?,
        };
        let base = self.eval_base(&fold.terms(), env)?;
        let key_base = self.eval_base(&[Term::Lambda(key)], env)?;
        let comb = self.combiner(key, fold, base, key_base)?;

        // Columnar decision, made once on the driver (see
        // [`Session::try_vectorize`]) so every combiner task agrees.
        let agg_vec = self.try_vectorize(
            sample_rows(&d.parts),
            |st| &mut st.vector_fallbacks,
            |rows| comb.specialize(&[], rows),
        );

        // Combiner phase: per-partition partial aggregation, fanned out on
        // the pool ([`Combiner::fold_part`]). The key hash is computed once
        // per group (kernel) or row (scalar loop) and carried with each
        // partial so neither the partial shuffle nor the merge phase
        // re-hashes.
        let catalog = self.catalog;
        let partial_lists = self.run_tasks(true, d.parts.len(), d.total_rows(), |pi, tally| {
            let (_, folded) =
                comb.fold_part(&d.parts[pi], None, agg_vec.as_ref(), catalog, tally)?;
            Ok(folded?.shipped())
        })?;
        self.charge_combiner(key, fold, d.total_rows(), d.max_part_rows(), || {
            d.max_part_bytes()
        });
        self.merge_partials(partial_lists, agg_vec, &comb, split)
    }

    /// Readies an `aggBy`'s UDFs — or a driver-side `fold`'s, under a
    /// constant key — over their base scopes: `zero` evaluated, `key`,
    /// `sng` and `uni` prepared for the active tier.
    fn combiner<'p>(
        &mut self,
        key: &'p Lambda,
        fold: &'p FoldOp,
        base: HashMap<String, Value>,
        key_base: HashMap<String, Value>,
    ) -> Result<Combiner<'p>, ExecError> {
        Ok(Combiner {
            zero: self.eval_over(&fold.zero, &base)?,
            key: prepare_lambda(key),
            sng: prepare_lambda(&fold.sng),
            uni: prepare_lambda(&fold.uni),
            base,
            key_base,
        })
    }

    /// The combiner kernel that runs `site`'s chain as its prefix, when the
    /// chain needs no byte totals, the combiner's UDFs carry no byte weight
    /// (neither exists without the chain's output rows) and the chain and
    /// the fold specialize together against the chain's input sample.
    /// `None` counts nothing: the site then runs as two waves, which take
    /// their own decisions and count their own refusals.
    fn fused_kernel(
        &self,
        site: &NarrowSite<'_>,
        comb: &Combiner<'_>,
        key: &Lambda,
        fold: &FoldOp,
    ) -> Option<(AggKernel, usize)> {
        if combiner_weights(key, fold).1 > 0.0 {
            return None;
        }
        let specs = site.specs()?;
        let kernel = comb.specialize(&specs, &site.sample()?)?;
        Some((kernel, self.batch_rows()?))
    }

    /// Runs an `aggBy` whose combiner kernel takes its input chain as a
    /// prefix ([`Session::fused_kernel`]): each task runs its partition's
    /// chain and combiner in one pass ([`Combiner::fold_part`] over the
    /// chain), and the chain's rows are never materialized.
    ///
    /// The two waves' counting stays. A task tallies the chain's batches
    /// and the combiner's as the two waves did, and the chain's stages are
    /// charged from the counts the kernel took. Errors keep their order: a
    /// chain error ends the task and the wave, as in the chain's own wave; a
    /// fold error is held while the task finishes its partition's chain. The
    /// combiner's wave site still settles after the chain's charges, with
    /// bodies that hand over what each task held — its partials or its
    /// first fold error — so the failure schedule, its retries and the
    /// error it raises are the two waves' own.
    fn exec_fused_agg_by(
        &mut self,
        site: NarrowSite<'_>,
        comb: Combiner<'_>,
        agg_vec: (AggKernel, usize),
        key: &Lambda,
        fold: &FoldOp,
        split: Option<SplitKind>,
    ) -> Result<PlanResult, ExecError> {
        let (d, catalog) = (&site.input, self.catalog);
        let n = d.parts.len();
        let ran = self.run_tasks(false, n, d.total_rows(), |pi, tally| {
            let part = &d.parts[pi];
            let (entered, folded) =
                comb.fold_part(part, Some(&site), Some(&agg_vec), catalog, tally)?;
            Ok((entered, folded.map(Folded::shipped)))
        })?;
        let mut counts = StageCounts::new(site.n_stages());
        let held: Vec<Mutex<Option<_>>> = ran
            .into_iter()
            .map(|(entered, partials)| {
                counts.add(&entered, &[]);
                Mutex::new(Some(partials))
            })
            .collect();
        self.charge_stages(&site, &counts)?;
        let partial_lists = self.run_tasks(true, n, 0, |pi, _| {
            let cell = held[pi].lock().expect("held partials lock poisoned").take();
            cell.expect("held partials settled once")
        })?;
        let (rows, max_rows) = counts.out();
        self.charge_combiner(key, fold, rows, max_rows, || {
            unreachable!("a fused combiner's UDFs carry no byte weight")
        });
        self.merge_partials(partial_lists, Some(agg_vec), &comb, split)
    }

    /// Charges a combiner wave over `rows` rows, `max_rows` in the largest
    /// partition, whose largest partition is `max_bytes` bytes.
    fn charge_combiner(
        &mut self,
        key: &Lambda,
        fold: &FoldOp,
        rows: u64,
        max_rows: u64,
        max_bytes: impl FnOnce() -> u64,
    ) {
        let (weight, byte_weight) = combiner_weights(key, fold);
        self.charge(Charge::Cpu(rows, max_rows, weight));
        self.charge(Charge::cpu_bytes(byte_weight, max_bytes));
    }

    /// The exchange and merge phase of an `aggBy` over its combiners'
    /// partials, `agg_vec` the combiner kernel if the fold specialized.
    fn merge_partials(
        &mut self,
        partial_lists: Vec<Shipped>,
        agg_vec: Option<(AggKernel, usize)>,
        comb: &Combiner<'_>,
        split: Option<SplitKind>,
    ) -> Result<PlanResult, ExecError> {
        let (catalog, uni_prep, base) = (self.catalog, &comb.uni, &comb.base);

        // Shuffle only the partials (one per key per partition) through the
        // shuffle's routing: the accumulators move beside the `(hash, key)`
        // pairs the combiner carried, each charged as the `(key, acc)` pair
        // it stands for. They move as typed columns when every task's
        // kernel covered its partition, and all as rows otherwise — one
        // decision, made here. Because the combiner already
        // collapsed each partition to one partial per key, partial buckets
        // are rarely skewed — but heavy key *cardinality* skew still
        // concentrates partials, and the key-preserving split keeps every
        // copy of a key in one sub-partition, so the merge phase stays a
        // plain per-partition reduction.
        let as_rows = |m: Measured| match &agg_vec {
            Some((kernel, _)) => m.into_rows_with(|cols, i| kernel.acc_value(cols, i)),
            None => m,
        };
        let columns = partial_lists.iter().all(|(m, _)| m.is_columns());
        let partial_lists = match columns {
            true => partial_lists,
            false => partial_lists
                .into_iter()
                .map(|(m, keys)| (as_rows(m), keys))
                .collect(),
        };
        let landed = self.land(partial_lists, split);

        // Merge phase: the same reduction over the partials, grouped by the
        // carried keys under `Value` equality and combining the
        // accumulators with the same slot ops — columnar when the
        // combiner's fold specialized (a refused fold was already counted
        // there), scalar for whatever the kernel did not cover. The kernel
        // folds landed columns as they are; its specialize-or-refuse
        // decision samples the first partials as values, and a refusal
        // turns the columns into rows. Each partition is drained by the one
        // task body that runs for it (an injected failure skips the body),
        // so keys and accumulators are moved, never cloned or rebuilt.
        let merge_vec = match &agg_vec {
            Some((kernel, _)) => {
                let first = landed.dests.iter().find(|m| m.len() > 0);
                let sample = first
                    .map(|m| m.head(SPECIALIZE_SAMPLE_ROWS, |cols, i| kernel.acc_value(cols, i)));
                self.try_vectorize(
                    sample.as_deref(),
                    |st| &mut st.vector_fallbacks,
                    |rows| vectorized::specialize_agg(&AggInput::Partials, uni_prep.udf(), rows),
                )
            }
            None => None,
        };
        let lens = landed.dests.iter().map(|d| d.len() as u64);
        let (merge_rows, merge_max_rows) = (lens.clone().sum(), lens.max().unwrap_or(0));
        let merge_parts = landed.dests.len();
        let cells: Vec<Mutex<Option<_>>> = landed
            .dests
            .into_iter()
            .zip(landed.keys)
            .map(|(accs, keys)| {
                let accs = if merge_vec.is_some() {
                    accs
                } else {
                    as_rows(accs)
                };
                Mutex::new(Some((accs.into_payload(), keys)))
            })
            .collect();
        let merged_lists = self.run_tasks(true, merge_parts, merge_rows, |pi, tally| {
            let (accs, keys) = cells[pi]
                .lock()
                .expect("partial partition lock poisoned")
                .take()
                .expect("partial partition drained once");
            let n = keys.len();
            let prefix = agg_kernel_prefix(merge_vec.as_ref(), n, tally, |k, rows, st| {
                let batch = match &accs {
                    Payload::Accs(cols) => Partials::Columns(cols, rows.start),
                    Payload::Rows(accs) => Partials::Values(&accs[rows.clone()]),
                };
                k.absorb_partials(batch, &keys[rows], st)
            });
            let (groups, covered) = match prefix {
                Some((kernel, st, covered)) => (kernel.finish(st), covered),
                None => (Vec::new(), 0),
            };
            let merged: Vec<Value> = if covered == n {
                groups
                    .into_iter()
                    .map(|(k, acc)| Value::tuple([k, acc]))
                    .collect()
            } else {
                let Payload::Rows(accs) = accs else {
                    unreachable!("a merge kernel folds every landed column")
                };
                let mut merged = seeded(groups);
                let mut ucx = uni_prep.ctx(base);
                for ((h, k), a) in keys.into_iter().zip(accs).skip(covered) {
                    match merged.get_mut_hashed(h, &k) {
                        Some(acc) => *acc = uni_prep.call(&[take(acc), a], &mut ucx, catalog)?,
                        None => merged.insert_hashed(h, k, a),
                    }
                }
                interp::agg_rows(merged)
            };
            Ok(Part::from(merged))
        })?;
        self.charge(Charge::cpu(merge_rows, merge_max_rows));
        self.charge(Charge::Stage);
        // A split layout routes by the two-level (primary, secondary) hash —
        // it is not plain hash-partitioning, so advertise nothing.
        let partitioning = landed.split.is_none().then(|| by_group_key(merge_parts));
        Ok(PlanResult::Bag(Partitioned {
            parts: merged_lists,
            partitioning,
        }))
    }
}

/// An `aggBy`'s or a `fold`'s UDFs readied over their base scopes
/// ([`Session::combiner`]).
struct Combiner<'p> {
    key: PreparedScalar<'p>,
    sng: PreparedScalar<'p>,
    uni: PreparedScalar<'p>,
    zero: Value,
    /// The fold's base scope: `zero`'s, `sng`'s and `uni`'s.
    base: HashMap<String, Value>,
    key_base: HashMap<String, Value>,
}

/// The scalar fold's interpreter environments: `key`'s, `sng`'s and `uni`'s.
type FoldCtx<'b> = (Env<'b>, Env<'b>, Env<'b>);

/// A combiner's partials: the accumulators, with the `(hash, key)` pairs
/// that route them.
type Shipped = (Measured, Vec<(u64, Value)>);

impl<'p> Combiner<'p> {
    /// The combiner kernel over rows that `stages` (a chain of kernel
    /// stages, or none) leave, specialized against `rows`.
    fn specialize(&self, stages: &[VecStageSpec<'_>], rows: &[Value]) -> Option<AggKernel> {
        let input = AggInput::Rows {
            stages,
            key: (self.key.udf(), &self.key_base),
            sng: (self.sng.udf(), &self.base),
            zero: &self.zero,
        };
        vectorized::specialize_agg(&input, self.uni.udf(), rows)
    }

    /// Folds `rows` into `accs` through the interpreter, in the `key`,
    /// `sng`, `uni` per-row order, up to the first error; `cx` holds the
    /// environments from one call to the next, built on first use.
    fn fold_rows<'b>(
        &'b self,
        accs: &mut InsertionMap<Value, Value>,
        rows: &[Value],
        cx: &mut Option<FoldCtx<'b>>,
        catalog: &Catalog,
    ) -> Result<(), ValueError>
    where
        'p: 'b,
    {
        let cx = cx.get_or_insert_with(|| {
            let (base, key_base) = (&self.base, &self.key_base);
            (
                self.key.ctx(key_base),
                self.sng.ctx(base),
                self.uni.ctx(base),
            )
        });
        ops::agg(
            accs,
            rows,
            cx,
            |(kcx, ..), row| {
                let key = self.key.call(std::slice::from_ref(*row), kcx, catalog);
                key.map(ops::hashed)
            },
            &self.zero,
            |(_, scx, _), row| self.sng.call(std::slice::from_ref(row), scx, catalog),
            |(.., ucx), a, b| self.uni.call(&[a, b], ucx, catalog),
        )
    }

    /// Folds one partition — the rows `chain` leaves of it, or its rows
    /// themselves without a chain — in batches of input rows. A batch the
    /// kernel takes runs the chain, `key` and `sng` — over the pairs an
    /// unnest head yields ([`Feed`]) — and folds the rows the chain leaves;
    /// it tallies one batch of the chain's, and one of the combiner's each
    /// time the rows it folded fill a batch, as a combiner's own wave
    /// batches the chain's output. From the first batch that aborts (a
    /// non-conforming row, or an error on a lane) on — and throughout,
    /// without a kernel — the partition runs through the scalar chain and
    /// the scalar fold, seeded with the kernel's groups. A chain error ends
    /// the task. The first fold error is held while the chain runs to the
    /// partition's end, and then takes the place of the groups. Returns the
    /// rows that entered each of the chain's stage boundaries, and the
    /// groups.
    fn fold_part<'k>(
        &self,
        part: &[Value],
        chain: Option<&NarrowSite<'_>>,
        kernel: Option<&'k (AggKernel, usize)>,
        catalog: &Catalog,
        tally: &mut Tally,
    ) -> Result<(Vec<u64>, Result<Folded<'k>, ValueError>), ValueError> {
        let nstages = chain.map_or(0, |site| site.n_stages());
        let batch_rows = kernel.map_or(usize::MAX, |&(_, batch_rows)| batch_rows);
        let mut entered = vec![0u64; nstages + 1];
        let mut st = kernel.map(|(kernel, _)| (kernel, kernel.new_state()));
        let (mut accs, mut held, mut cx) = (InsertionMap::new(), None, None);
        let mut feed = Feed::new(chain.and_then(|site| site.unnest()));
        // Rows the kernel folded that no combiner batch has tallied yet.
        let mut folded = 0;
        for chunk in part.chunks(batch_rows) {
            if let Some((kernel, state)) = st.as_mut() {
                let out = entered[nstages];
                let ran = feed.run(chunk, &mut entered, |rows, counts| {
                    let ran = kernel.absorb(rows, state);
                    if ran {
                        kernel.count(state, counts);
                    }
                    ran
                });
                if ran {
                    if chain.is_some() {
                        tally.batch(chunk.len());
                    }
                    folded += (entered[nstages] - out) as usize;
                    while folded >= batch_rows {
                        tally.batch(batch_rows);
                        folded -= batch_rows;
                    }
                    continue;
                }
                let (kernel, st) = st.take().expect("the kernel folds until it aborts");
                accs = seeded(kernel.finish(st));
            }
            let rows = match chain {
                Some(site) => Cow::Owned(site.interp_pass(chunk, catalog, &mut entered)?),
                None => Cow::Borrowed(chunk),
            };
            if held.is_none() {
                held = self.fold_rows(&mut accs, &rows, &mut cx, catalog).err();
            }
        }
        let groups = match (held, st) {
            (Some(e), _) => Err(e),
            (None, Some((kernel, st))) => {
                if folded > 0 {
                    tally.batch(folded);
                }
                Ok(Folded::Kernel(kernel, st))
            }
            (None, None) => Ok(Folded::Rows(accs)),
        };
        Ok((entered, groups))
    }
}

/// One partition's groups ([`Combiner::fold_part`]): the kernel's state
/// when the kernel folded every row, the scalar loop's groups otherwise.
/// A task moves it once, into what it ships, so the state is not boxed.
#[allow(clippy::large_enum_variant)]
enum Folded<'k> {
    Kernel(&'k AggKernel, AggState),
    Rows(InsertionMap<Value, Value>),
}

impl Folded<'_> {
    /// The groups as a combiner's partials; a kernel's accumulators ship as
    /// its typed columns.
    fn shipped(self) -> Shipped {
        match self {
            Folded::Kernel(kernel, st) => {
                let (keys, cols) = kernel.finish_columns(st);
                Measured::partial_columns(keys, cols, kernel.acc_width())
            }
            Folded::Rows(accs) => {
                Measured::partials(accs.into_iter().map(|e| (e.hash, e.key, e.value)))
            }
        }
    }

    /// The accumulator of the one group a constant key leaves, if any.
    fn only_acc(self) -> Option<Value> {
        match self {
            Folded::Kernel(kernel, st) => kernel.finish(st).pop().map(|(_, acc)| acc),
            Folded::Rows(accs) => accs.into_iter().next().map(|e| e.value),
        }
    }
}

/// A combiner's record weight and byte weight: its key's, `sng`'s and
/// `uni`'s together.
fn combiner_weights(key: &Lambda, fold: &FoldOp) -> (f64, f64) {
    (
        key.static_cost() + fold.sng.static_cost() + fold.uni.static_cost(),
        key.static_byte_cost() + fold.sng.static_byte_cost() + fold.uni.static_byte_cost(),
    )
}

/// A kernel's finished groups as the scalar loop's seed: first-seen order,
/// each key with its hash.
fn seeded(groups: Vec<(Value, Value)>) -> InsertionMap<Value, Value> {
    let mut accs = InsertionMap::new();
    for (k, acc) in groups {
        accs.insert_hashed(value_hash(&k), k, acc);
    }
    accs
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

/// Folds `n` rows through a columnar aggregation kernel batch by batch, up
/// to the first batch that aborts (a non-conforming or erroring lane):
/// `absorb` folds the rows of one batch's range. Returns the kernel, its
/// state and the number of leading rows folded; the caller folds the rest
/// through the scalar loop seeded with the state's groups. Without a kernel
/// (or rows) nothing is folded: `None`.
fn agg_kernel_prefix<'k>(
    kernel: Option<&'k (AggKernel, usize)>,
    n: usize,
    tally: &mut Tally,
    mut absorb: impl FnMut(&AggKernel, Range<usize>, &mut AggState) -> bool,
) -> Option<(&'k AggKernel, AggState, usize)> {
    let (kernel, batch_rows) = kernel.filter(|_| n > 0)?;
    let mut st = kernel.new_state();
    let mut covered = 0usize;
    while covered < n {
        let end = n.min(covered + batch_rows);
        if !absorb(kernel, covered..end, &mut st) {
            break;
        }
        tally.batch(end - covered);
        covered = end;
    }
    Some((kernel, st, covered))
}
