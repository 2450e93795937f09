//! Aggregations: the driver-side `fold`, `groupBy` (whole or over a skew
//! split) and `aggBy`'s combiner and merge phases.

use emma_compiler::expr::FoldOp;
use emma_compiler::vectorized::{AggInput, AggKernel};

use crate::exec::keyed::{next_key, KeyedInput, PartKeys, Placement};
use crate::exec::prepare::{
    batch_or_replay, compiled_parts, sample_rows, vec_spec, Chunk, EvCtx, Kernel, PreparedScalar,
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
    /// Runs a `Plan::Fold`: folds each partition locally, ships the
    /// partials to the driver and combines them there.
    pub(crate) fn exec_fold(
        &mut self,
        input: &Plan,
        fold: &FoldOp,
        env: &EnvSnapshot,
    ) -> Result<PlanResult, ExecError> {
        let d = self.exec_bag(input, env)?;
        let base = self.eval_base(&fold.terms(), env)?;
        let zero = self.eval_over(&fold.zero, &base)?;
        let sng_prep = self.prepare_lambda(&fold.sng, &base);
        let uni_prep = self.prepare_lambda(&fold.uni, &base);
        // The element function is Map-shaped, so it can run columnar; the
        // combiner chain is inherently sequential and stays scalar.
        let catalog = self.catalog;
        let vec_run = self.try_vectorize(
            sample_rows(&d.parts),
            |st| &mut st.vector_fallbacks,
            |rows| vectorized::specialize_sampled(&[vec_spec(&sng_prep, false)?], rows),
        );
        let partials = self.run_tasks(true, d.parts.len(), d.total_rows(), |pi, tally| {
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

    /// Runs a `Plan::GroupBy`: groups each partition of the keyed input in
    /// first-occurrence order and charges the groups' memory pressure.
    /// Unsplit, the driver groups each partition whole. Under a skew split,
    /// phase 1 groups each sub-partition in parallel (one retryable task per
    /// sub-partition — retry granularity follows the split), and phase 2
    /// merges each hot bucket's partial groups in slot order — a
    /// key-preserving secondary shuffle restricted to the hot buckets,
    /// charged like the physical data motion it is. Because
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
        let group = |pi: usize, tally: &mut Tally| {
            group_part(&shuffled.parts[pi], &keyed.keys(pi, catalog, tally))
        };
        let mut grouped: Vec<InsertionMap<Value, Vec<Value>>> = match &keyed.split {
            None => {
                let mut tally = Tally::default();
                let groups: Result<_, _> = (0..n).map(|pi| group(pi, &mut tally)).collect();
                let groups = groups.map_err(ExecError::Eval)?;
                self.tally(tally);
                groups
            }
            Some(_) => self.run_tasks(true, n, shuffled.total_rows(), group)?,
        };
        self.charge(Charge::GroupMaterialization(
            shuffled.part_bytes().collect(),
        ));
        self.charge(Charge::cpu(shuffled.total_rows(), shuffled.max_part_rows()));
        let Some(plan) = &keyed.split else {
            let parts = grouped.into_iter().map(|g| interp::group_rows(g).into());
            return Ok(PlanResult::Bag(Partitioned {
                parts: parts.collect(),
                partitioning: Some(by_group_key(n)),
            }));
        };
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
        Ok(PlanResult::Bag(Partitioned {
            parts,
            partitioning: Some(by_group_key(plan.ways.len())),
        }))
    }

    /// Runs a `Plan::AggBy`: per-partition partial aggregation, a shuffle
    /// of the partials only, and a merge of each key's partials.
    pub(crate) fn exec_agg_by(
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
        // [`Session::try_vectorize`]) so every combiner task agrees.
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
        let partitioning = agg_split.is_none().then(|| by_group_key(merge_parts));
        Ok(PlanResult::Bag(Partitioned {
            parts: merged_lists,
            partitioning,
        }))
    }
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
    let mut kernel = sng_vec.map(Kernel::new);
    let mut acc = zero;
    let mut combine = |acc: &mut Value, s: Value| {
        uni.call_owned([std::mem::take(acc), s], &mut ucx, catalog)
            .map(|next| *acc = next)
    };
    batch_or_replay(
        rows,
        kernel.as_mut(),
        1,
        tally,
        |chunk, _, buf| match chunk {
            Chunk::Ran { .. } => buf.drain(..).try_for_each(|s| combine(&mut acc, s)),
            Chunk::Replay(batch) => {
                let scx = scx.get_or_insert_with(|| sng.ctx(base));
                batch.iter().try_for_each(|row| {
                    let s = sng.call(std::slice::from_ref(row), scx, catalog)?;
                    combine(&mut acc, s)
                })
            }
        },
    )?;
    Ok(acc)
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
