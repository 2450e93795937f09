//! Where a keyed operator's rows go and who evaluates their keys: the one
//! [`Keyed`] layout every keyed operator reads, the shuffle's routing half
//! ([`Session::land`]) and skew split planning.

use std::borrow::Cow;

use emma_compiler::plan::SkewEligibility;

use super::prepare::{batch_or_replay, sample_rows, vec_spec, Chunk, EvCtx, PreparedScalar};
use super::*;
use crate::dataset::Measured;

/// Where a keyed operator wants its input rows ([`Session::keyed`]).
pub(super) enum Placement {
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
pub(super) struct Keyed<'p> {
    pub(super) data: Partitioned,
    keys: Keys<'p>,
    pub(super) split: Option<SplitPlan>,
}

enum Keys<'p> {
    Routed(Vec<Vec<(u64, Value)>>),
    InPlace(KeyEval<'p>),
}

impl Keyed<'_> {
    /// The keys of partition `pi`, aligned with its rows.
    pub(super) fn keys(&self, pi: usize, catalog: &Catalog, tally: &mut Tally) -> PartKeys<'_> {
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
pub(super) struct PartKeys<'k> {
    pub(super) keys: Cow<'k, [(u64, Value)]>,
    err: Option<ValueError>,
}

impl PartKeys<'_> {
    /// One item per row, for `rows.zip(keys.iter())`: the pairs, then the
    /// error at the row that raised it.
    pub(super) fn iter(&self) -> impl Iterator<Item = Result<&(u64, Value), ValueError>> {
        self.keys.iter().map(Ok).chain(self.err.clone().map(Err))
    }
}

/// The next of a partition's row-aligned keys ([`PartKeys::iter`]): the key
/// callback of an [`emma_core::ops`] operator fed that partition's rows in
/// order, so a key error surfaces at its own row.
pub(super) fn next_key<'k>(
    keys: &mut impl Iterator<Item = Result<&'k (u64, Value), ValueError>>,
) -> Result<(u64, Value), ValueError> {
    keys.next().expect("one key per row").cloned()
}

/// A key UDF readied for batch evaluation: prepared for the active tier over
/// its own base scope, with the driver's specialize-or-refuse decision.
struct KeyEval<'p> {
    prep: PreparedScalar<'p>,
    vec: Option<(VectorPipeline, usize)>,
    base: HashMap<String, Value>,
}

impl KeyEval<'_> {
    /// Evaluates the key over `rows` — batch-at-a-time through the
    /// vectorized tier when the key body specialized, row-at-a-time
    /// otherwise ([`batch_or_replay`]) — returning the row-aligned
    /// `(hash, key)` pairs up to the first row whose key raised, and that
    /// error. A key UDF reads only its own row, so evaluating it ahead of
    /// the rows' consumer changes nothing the consumer can observe.
    fn keys(&self, rows: &[Value], catalog: &Catalog, tally: &mut Tally) -> PartKeys<'static> {
        let mut hks: Vec<(u64, Value)> = Vec::with_capacity(rows.len());
        let mut cx: Option<EvCtx> = None;
        let err = batch_or_replay(rows, self.vec.as_ref(), 1, tally, |chunk, _, keys| {
            match chunk {
                Chunk::Ran => hks.extend(keys.drain(..).map(|k| (value_hash(&k), k))),
                Chunk::Replay(chunk) => {
                    let cx = cx.get_or_insert_with(|| self.prep.ctx(&self.base));
                    for row in chunk {
                        let k = self.prep.call(std::slice::from_ref(row), cx, catalog)?;
                        hks.push((value_hash(&k), k));
                    }
                }
            }
            Ok(())
        })
        .err();
        PartKeys {
            keys: Cow::Owned(hks),
            err,
        }
    }
}

impl Session<'_> {
    /// Hash-repartitions a dataset by a key for a consumer that reads no
    /// keys (`distinct`, `minus`, `Repartition`), charging shuffle costs with
    /// skew awareness. When the layout already matches nothing moves, and no
    /// key evaluator is built, sampled or counted.
    pub(super) fn shuffle(
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
    pub(super) fn split_kind(&self, elig: SkewEligibility) -> Option<SplitKind> {
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
    pub(super) fn keyed<'p>(
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
    /// has a [`crate::skew::SkewConfig`] (the returned [`SplitPlan`] says
    /// which sub-partitions belong to which bucket), and the shuffle is
    /// charged on the layout that lands: a split one is smaller at the
    /// hottest receiver but pays more per-file seeks. It carries
    /// `partitioning: None` — two-level-hashed, it must never satisfy a
    /// plain partitioning request.
    pub(super) fn land<S: KeyHash>(
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
}

/// What rides next to a row through a shuffle: at least the key hash that
/// routes it.
pub(super) trait KeyHash {
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
