//! Where a keyed operator's rows go and who evaluates their keys: the one
//! [`Keyed`] layout every keyed operator reads, the entry that runs its input
//! ([`Session::exec_keyed_input`]), the shuffle's routing half
//! ([`Session::land`]) and skew split planning.

use std::borrow::Cow;

use emma_compiler::plan::SkewEligibility;

use super::prepare::{
    batch_or_replay, sample_rows, vec_spec, Chunk, EvCtx, Kernel, PreparedScalar,
};
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

/// A keyed operator's input as its plan produced it
/// ([`Session::exec_keyed_input`]): the partitions and, when the wave that
/// produced them also took their keys, each partition's [`PartKeys`].
pub(super) struct KeyedInput {
    pub(super) data: Partitioned,
    pub(super) keys: Option<Vec<PartKeys<'static>>>,
}

impl From<Partitioned> for KeyedInput {
    fn from(data: Partitioned) -> Self {
        KeyedInput { data, keys: None }
    }
}

impl KeyedInput {
    /// The rows as one partition — a broadcast join's build side — with the
    /// keys the wave took, concatenated in partition order up to the first
    /// one that raised.
    pub(super) fn gathered(self) -> KeyedInput {
        let keys = self.keys.map(|parts| {
            let mut whole = PartKeys {
                keys: Cow::Owned(Vec::new()),
                err: None,
            };
            for part in parts {
                whole.keys.to_mut().extend(part.keys.into_owned());
                if part.err.is_some() {
                    whole.err = part.err;
                    break;
                }
            }
            vec![whole]
        });
        KeyedInput {
            data: Partitioned {
                parts: vec![self.data.collect_rows().into()],
                partitioning: None,
            },
            keys,
        }
    }
}

/// The one input shape of every keyed operator (`groupBy`, both join sides,
/// stateful create/update): the partitions, a row-aligned `(hash, key)` list
/// per partition ([`Keyed::keys`]) and the skew split the shuffle applied.
///
/// Who evaluates a key, and who raises its error, is decided here and
/// nowhere else. When rows moved, every key was evaluated before they did
/// and the first error was raised before they moved. When the layout
/// already satisfied the key, the keys are read where the rows are: taken
/// by the wave that produced them, or by the same batched evaluator where
/// the consumer asks for a partition's keys — in its existing task wave or
/// driver loop. Either way the consumer gets the error-free prefix plus the
/// error that ended it, and raises that error when its loop reaches the
/// row, so an error of its own UDF at an earlier row still comes first, as
/// in a row-at-a-time interleaving.
pub(super) struct Keyed<'p> {
    pub(super) data: Partitioned,
    keys: Keys<'p>,
    pub(super) split: Option<SplitPlan>,
}

enum Keys<'p> {
    /// Evaluated before the consumer runs: moved with the rows by the
    /// shuffle, or taken per partition by the wave that produced them.
    Ready(Vec<PartKeys<'static>>),
    InPlace(KeyEval<'p>),
}

impl Keyed<'_> {
    /// The keys of partition `pi`, aligned with its rows.
    pub(super) fn keys(&self, pi: usize, catalog: &Catalog, tally: &mut Tally) -> PartKeys<'_> {
        match &self.keys {
            Keys::Ready(all) => PartKeys {
                keys: Cow::Borrowed(&all[pi].keys),
                err: all[pi].err.clone(),
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
pub(super) struct KeyEval<'p> {
    prep: PreparedScalar<'p>,
    vec: Option<(VectorPipeline, usize)>,
    base: HashMap<String, Value>,
}

impl<'p> KeyEval<'p> {
    /// Evaluates the key over `rows` — batch-at-a-time through the
    /// vectorized tier when the key body specialized, row-at-a-time
    /// otherwise ([`batch_or_replay`]) — returning the row-aligned
    /// `(hash, key)` pairs up to the first row whose key raised, and that
    /// error. A key UDF reads only its own row, so evaluating it ahead of
    /// the rows' consumer changes nothing the consumer can observe.
    fn keys(&self, rows: &[Value], catalog: &Catalog, tally: &mut Tally) -> PartKeys<'static> {
        let mut cursor = self.cursor();
        cursor.advance(rows, true, catalog);
        cursor.finish(tally)
    }

    /// A [`KeyCursor`] at the first row of a partition.
    pub(super) fn cursor(&self) -> KeyCursor<'_, 'p> {
        KeyCursor {
            eval: self,
            kernel: self.vec.as_ref().map(Kernel::new),
            cx: None,
            tally: Tally::default(),
            done: 0,
            keys: Vec::new(),
            err: None,
        }
    }
}

/// One partition's keys, taken while its rows are still being produced:
/// [`KeyEval::keys`] over rows that arrive a chunk at a time. A batch of the
/// key's kernel runs as soon as it fills and the remainder once the rows are
/// complete, so the same rows go through the same batches as in one pass
/// over the finished partition, and tally the same. Without a kernel each
/// row is keyed as it arrives. The first key error ends the keys and is
/// held, not raised.
pub(super) struct KeyCursor<'e, 'p> {
    eval: &'e KeyEval<'p>,
    kernel: Option<Kernel<'e>>,
    cx: Option<EvCtx<'e>>,
    tally: Tally,
    /// Rows keyed so far.
    done: usize,
    keys: Vec<(u64, Value)>,
    err: Option<ValueError>,
}

impl KeyCursor<'_, '_> {
    /// Keys the rows of `rows` (all the partition's rows so far) past the
    /// ones already keyed: every whole batch, and the rest too when the rows
    /// are `complete`.
    pub(super) fn advance(&mut self, rows: &[Value], complete: bool, catalog: &Catalog) {
        let end = match &self.kernel {
            Some(k) if !complete => {
                self.done + (rows.len() - self.done) / k.batch_rows() * k.batch_rows()
            }
            _ => rows.len(),
        };
        if self.err.is_some() || end == self.done {
            return;
        }
        let (eval, keys, cx) = (self.eval, &mut self.keys, &mut self.cx);
        let todo = &rows[self.done..end];
        self.done = end;
        let kernel = self.kernel.as_mut();
        let ran = batch_or_replay(todo, kernel, 1, &mut self.tally, |chunk, _, ks| {
            match chunk {
                Chunk::Ran { .. } => keys.extend(ks.drain(..).map(|k| (value_hash(&k), k))),
                Chunk::Replay(chunk) => {
                    let cx = cx.get_or_insert_with(|| eval.prep.ctx(&eval.base));
                    for row in chunk {
                        let k = eval.prep.call(std::slice::from_ref(row), cx, catalog)?;
                        keys.push((value_hash(&k), k));
                    }
                }
            }
            Ok(())
        });
        self.err = ran.err();
    }

    /// The keys taken, row-aligned up to the held error; the kernel batches
    /// they ran go to `tally`.
    pub(super) fn finish(self, tally: &mut Tally) -> PartKeys<'static> {
        tally.add(self.tally);
        PartKeys {
            keys: Cow::Owned(self.keys),
            err: self.err,
        }
    }
}

/// What a keyed operator's input wave takes for it ([`Session::exec_narrow`]).
pub(super) struct KeyTap<'p> {
    pub(super) key: &'p Lambda,
    /// The key's base scope, built ahead of the wave
    /// ([`Session::scalar_base`]).
    pub(super) base: HashMap<String, Value>,
    /// The consumer reads no keys (`Repartition`, `distinct`, `minus`): an
    /// output the key already places is handed on untouched, with no key
    /// taken, sampled or counted.
    pub(super) unless_placed: bool,
}

impl KeyTap<'_> {
    /// Whether the wave takes keys over an output laid out as
    /// `partitioning`.
    pub(super) fn wanted(&self, partitioning: Option<&Partitioning>, parts_n: usize) -> bool {
        !(self.unless_placed && partitioning.is_some_and(|p| p.satisfies(self.key, parts_n)))
    }
}

impl Session<'_> {
    /// Runs a keyed operator's input plan. A narrow chain (`Map`, `Filter`,
    /// `FlatMap`, `Pipeline`) takes each output row's key, hash and width in
    /// the wave that produces the row, holding the first key error of each
    /// partition. Its bodies still raise before any key: a task returns its
    /// own body error over a held key error, and a body error of any
    /// partition ends the wave. [`Session::keyed`] raises the held errors
    /// later, at the point its own key wave would have, and reads the keys
    /// instead of evaluating them again.
    ///
    /// Fusing moves the key's base scope ahead of the wave, so a key that
    /// captures a driver bag or reads a dataset — whose scope pays for a
    /// broadcast — keeps the key wave, as does any other input plan.
    pub(super) fn exec_keyed_input(
        &mut self,
        plan: &Plan,
        key: &Lambda,
        env: &EnvSnapshot,
        reads_keys: bool,
    ) -> Result<KeyedInput, ExecError> {
        let narrow = matches!(
            plan,
            Plan::Map { .. } | Plan::Filter { .. } | Plan::FlatMap { .. } | Plan::Pipeline { .. }
        );
        let base = narrow
            .then(|| self.scalar_base(&[Term::Lambda(key)], env))
            .flatten();
        let Some(base) = base else {
            return Ok(self.exec_bag(plan, env)?.into());
        };
        let tap = KeyTap {
            key,
            base,
            unless_placed: !reads_keys,
        };
        self.exec_node(plan, |s| {
            s.check_budget()?;
            s.exec_narrow(plan, Some(tap), env)
        })
    }

    /// Readies `key` for batch evaluation over `base`, taking the
    /// specialize-or-refuse decision on the driver from `sample` — a prefix
    /// of the first non-empty partition of the rows it will key — so that it
    /// (and a `key_path_fallbacks` bump) replays bit-identically across
    /// schedules.
    pub(super) fn key_eval<'p>(
        &mut self,
        key: &'p Lambda,
        base: HashMap<String, Value>,
        sample: Option<&[Value]>,
    ) -> KeyEval<'p> {
        let prep = self.prepare_lambda(key, &base);
        let vec = self.try_vectorize(
            sample,
            |st| &mut st.key_path_fallbacks,
            |rows| vectorized::specialize_sampled(&[vec_spec(&prep, false)?], rows),
        );
        KeyEval { prep, vec, base }
    }

    /// Hash-repartitions a dataset by a key for a consumer that reads no
    /// keys (`distinct`, `minus`, `Repartition`), charging shuffle costs with
    /// skew awareness. When the layout already matches nothing moves, and no
    /// key evaluator is built, sampled or counted.
    pub(super) fn shuffle(
        &mut self,
        input: KeyedInput,
        key: &Lambda,
        env: &EnvSnapshot,
        split: Option<SplitKind>,
    ) -> Result<Partitioned, ExecError> {
        if placed_by(&input.data, key, self.dop()) {
            return Ok(input.data);
        }
        Ok(self.keyed(input, key, env, Placement::Hashed(split))?.data)
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

    /// Puts `input` where a keyed operator wants it and says how its keys
    /// are read ([`Keyed`]).
    ///
    /// A layout that already satisfies the placement is handed back as it
    /// is, with the keys its wave took or the evaluator for the consumer to
    /// run. Otherwise rows move. Keys the input's wave took are read, and
    /// the held error of the lowest partition is raised here. Any other
    /// input gets its key wave: the specialize-or-refuse decision is taken
    /// on the driver from a sample of the rows ([`Session::key_eval`]), and
    /// one bucketing task per source partition evaluates its keys, raising
    /// the first key error, and — unless a holder of the partition already
    /// has — measures the rows it has just read. [`Session::land`] then
    /// routes each row with its `(hash, key)` pair and its width.
    pub(super) fn keyed<'p>(
        &mut self,
        input: KeyedInput,
        key: &'p Lambda,
        env: &EnvSnapshot,
        placement: Placement,
    ) -> Result<Keyed<'p>, ExecError> {
        let KeyedInput { data: d, keys } = input;
        // Whether rows move, and then the split flavor the shuffle may apply.
        let moving = match placement {
            Placement::Hashed(split) if !placed_by(&d, key, self.dop()) => Some(split),
            _ => None,
        };
        if let Some(keys) = keys {
            let Some(split) = moving else {
                return Ok(Keyed {
                    data: d,
                    keys: Keys::Ready(keys),
                    split: None,
                });
            };
            if let Some(e) = keys.iter().find_map(|k| k.err.clone()) {
                return Err(ExecError::Eval(e));
            }
            let keys = keys.into_iter().map(|k| k.keys.into_owned());
            return Ok(self.routed(d.parts.into_iter().zip(keys).collect(), key, split));
        }
        let base = self.eval_base(&[Term::Lambda(key)], env)?;
        let eval = self.key_eval(key, base, sample_rows(&d.parts));
        let Some(split) = moving else {
            return Ok(Keyed {
                data: d,
                keys: Keys::InPlace(eval),
                split: None,
            });
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
        Ok(self.routed(d.parts.into_iter().zip(keys).collect(), key, split))
    }

    /// [`Session::land`] for a keyed operator: the layout, and the keys
    /// that moved with the rows.
    fn routed<'p>(
        &mut self,
        routed: Vec<(Part, Vec<(u64, Value)>)>,
        key: &Lambda,
        split: Option<SplitKind>,
    ) -> Keyed<'p> {
        let (data, keys, split) = self.land(routed, key.clone(), split);
        let keys = keys.into_iter().map(|keys| PartKeys {
            keys: Cow::Owned(keys),
            err: None,
        });
        Keyed {
            data,
            keys: Keys::Ready(keys.collect()),
            split,
        }
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
