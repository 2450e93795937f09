//! Where a keyed operator's rows go and who evaluates their keys: the one
//! [`Keyed`] layout every keyed operator reads, the entry that runs its input
//! ([`Session::exec_keyed_input`]), the shuffle's routing half
//! ([`Session::land`]) and skew split planning.

use std::borrow::Cow;

use emma_compiler::plan::SkewEligibility;

use super::prepare::{
    batch_or_replay, prepare_lambda, sample_rows, vec_spec, Chunk, Kernel, PreparedScalar,
};
use super::*;
use crate::dataset::{scatter, Measured};

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
        // Moved, not cloned, from every partition no one else holds.
        let mut rows = Vec::with_capacity(self.data.total_rows() as usize);
        for part in self.data.parts {
            rows.extend(part.into_rows());
        }
        KeyedInput {
            data: Partitioned {
                parts: vec![rows.into()],
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
/// the consumer asks for a partition's keys — in its existing task wave.
/// Either way the consumer gets the error-free prefix plus the
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
            kernel: self.vec.as_ref().map(|v| Kernel::new(v, None)),
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
    cx: Option<Env<'e>>,
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
        let prep = prepare_lambda(key);
        let vec = self.try_vectorize(
            sample,
            |st| &mut st.key_path_fallbacks,
            |rows| vectorized::specialize_sampled(&[vec_spec(&prep, &base, false)], rows),
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
            return Ok(self.routed(d.parts.into_iter().zip(keys), key, split));
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
        Ok(self.routed(d.parts.into_iter().zip(keys), key, split))
    }

    /// [`Session::land`] for a keyed operator: each source partition with its
    /// row-aligned keys in, the layout and the keys that moved with the rows
    /// out. Unsplit, the layout is hash-partitioned by `key`; a split one is
    /// two-level-hashed and claims no partitioning, so it never satisfies a
    /// plain partitioning request.
    fn routed<'p>(
        &mut self,
        sources: impl Iterator<Item = (Part, Vec<(u64, Value)>)>,
        key: &Lambda,
        split: Option<SplitKind>,
    ) -> Keyed<'p> {
        let landed = self.land(sources.collect(), split);
        let partitioning = landed.split.is_none().then(|| Partitioning {
            key: key.clone(),
            parts: self.dop(),
        });
        let keys = landed.keys.into_iter().map(|keys| PartKeys {
            keys: Cow::Owned(keys),
            err: None,
        });
        Keyed {
            data: Partitioned {
                parts: landed.dests.into_iter().map(Measured::finish).collect(),
                partitioning,
            },
            keys: Keys::Ready(keys.collect()),
            split: landed.split,
        }
    }

    /// The routing half of every shuffle: a keyed operator's rows, or an
    /// `aggBy` combiner's accumulators. `sources` holds each source's rows
    /// with the bytes each ships as — a partition, taken apart as it moves
    /// ([`Measured`]'s `From<Part>`) — and their `(hash, key)` pairs,
    /// row-aligned. One counting pass computes each row's destination
    /// (`hash % dop`) and sizes every destination exactly; then each source
    /// moves in one flat pass per array — rows, widths, keys — so a
    /// destination holds source 0's rows for it, then source 1's, each in
    /// row order: the order a serial loop produces, and the one
    /// `apply_split`, the groupBy and `aggBy` merges and the join probe rely
    /// on. No row is walked: a destination's bytes are the sum of the widths
    /// that moved with its rows.
    ///
    /// Hot buckets are then split if `split` names a flavor and the engine
    /// has a [`crate::skew::SkewConfig`] (the returned [`SplitPlan`] says
    /// which sub-partitions belong to which bucket), and the shuffle is
    /// charged on the layout that lands: a split one is smaller at the
    /// hottest receiver but pays more per-file seeks.
    ///
    /// A row that stands for several simulated ones (an `aggBy` partial
    /// folded over a run of partitions, [`Measured::standing_for`]) counts
    /// as all of them — in the bucket sizes the split plans from, the rows
    /// a split moves and, through its widths, the bytes charged — so the
    /// shuffle accounts for the partials each simulated partition ships.
    /// This is the only place a shuffle is charged.
    pub(super) fn land<S: Into<Measured>>(
        &mut self,
        sources: Vec<(S, Vec<(u64, Value)>)>,
        split: Option<SplitKind>,
    ) -> Landed {
        let parts_n = self.dop() as u64;
        let mut lens = vec![0usize; parts_n as usize];
        let routes: Vec<Vec<u32>> = sources
            .iter()
            .map(|(_, keys)| {
                let route = keys.iter().map(|&(h, _)| (h % parts_n) as u32);
                route.inspect(|&d| lens[d as usize] += 1).collect()
            })
            .collect();
        let mut dests: Vec<Measured> = lens.iter().map(|&n| Measured::with_capacity(n)).collect();
        let mut keys: Vec<Vec<(u64, Value)>> =
            lens.iter().map(|&n| Vec::with_capacity(n)).collect();
        for ((rows, side), route) in sources.into_iter().zip(&routes) {
            rows.into().scatter(route, &mut dests);
            scatter(side, route, &mut keys, |k| k);
        }
        let sizes: Vec<u64> = dests.iter().map(Measured::simulated_len).collect();
        let plan = self.plan_bucket_splits(split, &sizes);
        if let (Some(plan), Some(kind)) = (&plan, split) {
            self.stats.split_rows_moved += apply_split(plan, kind, &mut dests, &mut keys);
            self.stats.partitions_split += plan.partitions_split();
        }
        self.charge(Charge::Shuffle(dests.iter().map(|d| d.bytes()).collect()));
        Landed {
            dests,
            keys,
            split: plan,
        }
    }
}

/// Where a shuffle put its rows ([`Session::land`]): each destination's rows
/// with their widths, and their `(hash, key)` pairs, row-aligned; plus the
/// skew split, if one was applied.
pub(super) struct Landed {
    pub(super) dests: Vec<Measured>,
    pub(super) keys: Vec<Vec<(u64, Value)>>,
    pub(super) split: Option<SplitPlan>,
}

/// Whether `d` is already hash-partitioned by `key` into `parts_n` parts.
fn placed_by(d: &Partitioned, key: &Lambda, parts_n: usize) -> bool {
    d.partitioning
        .as_ref()
        .is_some_and(|p| p.satisfies(key, parts_n))
}

/// Applies a [`SplitPlan`] to freshly bucketed shuffle output, leaving the
/// sub-partitioned layout in its place (rows, widths and keys stay
/// row-aligned, so sub-partitions carry their bytes like the buckets they
/// came from), and returns the number of rows placed outside their bucket's
/// first sub-partition, each counted as the simulated rows it stands for.
///
/// [`SplitKind::Balanced`] cuts a hot bucket into contiguous, near-equal row
/// chunks — concatenating the sub-partitions in slot order reproduces the
/// bucket's exact row order, which is what lets the groupBy merge phase and
/// the join probe emit bit-identical rows. [`SplitKind::KeyPreserving`]
/// routes each row by a secondary hash of its carried key hash, so every
/// copy of a key lands in the same sub-partition (required by per-key
/// consumers like `aggBy` merge, `Distinct`, and stateful routing) at the
/// price of weaker balancing — a single dominant key stays whole. Either
/// way a hot bucket moves like a source of [`Session::land`]: its
/// sub-partition per row, then one pass per array.
fn apply_split(
    plan: &SplitPlan,
    kind: SplitKind,
    dests: &mut Vec<Measured>,
    keys: &mut Vec<Vec<(u64, Value)>>,
) -> u64 {
    let buckets = std::mem::take(dests).into_iter().zip(std::mem::take(keys));
    dests.reserve(plan.output_parts);
    keys.reserve(plan.output_parts);
    let mut moved = 0u64;
    for (b, (rows, ks)) in buckets.enumerate() {
        let w = plan.ways[b];
        if w <= 1 {
            dests.push(rows);
            keys.push(ks);
            continue;
        }
        let route: Vec<u32> = match kind {
            SplitKind::Balanced => {
                let mut route = Vec::with_capacity(ks.len());
                for j in 0..w {
                    route.resize((j + 1) * ks.len() / w, j as u32);
                }
                route
            }
            SplitKind::KeyPreserving => ks
                .iter()
                .map(|&(h, _)| (skew::sub_hash(h) % w as u64) as u32)
                .collect(),
        };
        let stand_ins = rows.stand_ins().zip(&route);
        moved += stand_ins
            .filter(|&(_, &sub)| sub != 0)
            .map(|(m, _)| m)
            .sum::<u64>();
        let first = dests.len();
        dests.resize_with(first + w, Measured::default);
        keys.resize_with(first + w, Vec::new);
        rows.scatter(&route, &mut dests[first..]);
        scatter(ks, &route, &mut keys[first..], |k| k);
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Payload;
    use emma_compiler::vectorized::{AggInput, AggKernel};

    /// A fresh walk of `rows`: the bytes of a partition no one measured.
    fn fresh_walk(rows: &[Value]) -> u64 {
        Part::from(rows.to_vec()).bytes()
    }

    fn width(row: &Value) -> u64 {
        fresh_walk(std::slice::from_ref(row))
    }

    /// The rows a destination holds.
    fn rows(dest: Measured) -> Vec<Value> {
        match dest.into_payload() {
            Payload::Rows(rows) => rows,
            Payload::Accs(_) => panic!("rows expected"),
        }
    }

    /// 8200 references to one 64 Ki-float vector (`n` = 8200) is a row wider
    /// than `u32::MAX`, and cheap to measure; 4100 is one half as wide.
    fn wide(n: usize) -> Value {
        Value::bag(vec![Value::vector(vec![0.0; 1 << 16]); n])
    }

    /// Rows keyed by themselves, each with the hash `route` gives its index.
    fn keyed_by_self(rows: &[Value], route: impl Fn(u64) -> u64) -> Vec<(u64, Value)> {
        (0..)
            .zip(rows)
            .map(|(i, r)| (route(i), r.clone()))
            .collect()
    }

    /// The order rule of DESIGN §3.3, applied by hand: destination `d` holds
    /// source 0's rows whose hash routes to `d`, then source 1's, each in
    /// row order.
    fn by_rule(sources: &[Vec<(u64, Value)>], dop: u64) -> Vec<Vec<Value>> {
        let mut want = vec![Vec::new(); dop as usize];
        for (h, row) in sources.iter().flatten() {
            want[(h % dop) as usize].push(row.clone());
        }
        want
    }

    #[test]
    fn land_follows_the_order_rule_with_rows_widths_and_keys_aligned() {
        let (engine, catalog) = (
            Engine::new(ClusterSpec::tiny(), Personality::sparrow()),
            Catalog::new(),
        );
        let mut s = Session::new(&engine, &catalog, true);
        let dop = s.dop() as u64;
        // Three sources of 5, 6 and 7 rows of growing width, interleaved
        // over the destinations — two of which get nothing — with hashes
        // past `dop`, so routing takes the remainder.
        let sources: Vec<_> = (0..3i64)
            .map(|si| {
                let rows: Vec<Value> = (0..5 + si)
                    .map(|i| Value::tuple([Value::Int(si), Value::str("x".repeat(i as usize))]))
                    .collect();
                let keys = keyed_by_self(&rows, |i| (si as u64 + i) % (dop - 2) + dop * i);
                (rows, keys)
            })
            .collect();
        let want = by_rule(
            &sources.iter().map(|(_, k)| k.clone()).collect::<Vec<_>>(),
            dop,
        );
        let landed = s.land(
            sources
                .into_iter()
                .map(|(rows, keys)| (Part::from(rows), keys))
                .collect(),
            None,
        );
        assert!(landed.split.is_none());
        assert_eq!(landed.dests.len(), dop as usize);
        let mut total = 0;
        for (d, (dest, keys)) in landed.dests.into_iter().zip(landed.keys).enumerate() {
            let rows = &want[d];
            assert_eq!(rows.is_empty(), d as u64 >= dop - 2, "destination {d}");
            assert!(keys.iter().all(|&(h, _)| h % dop == d as u64));
            let keyed: Vec<Value> = keys.into_iter().map(|(_, k)| k).collect();
            assert_eq!(&keyed, rows, "keys of destination {d}");
            let dest = dest.finish();
            assert_eq!(&*dest, &rows[..], "rows of destination {d}");
            let widths: Vec<u64> = rows.iter().map(width).collect();
            assert_eq!(dest.carried_widths(), Some(&widths[..]), "widths of {d}");
            total += fresh_walk(rows);
        }
        assert_eq!(s.stats.bytes_shuffled, total);
    }

    #[test]
    fn a_keyed_shuffle_copies_a_held_source_and_its_bytes_are_a_fresh_walk() {
        let (engine, catalog) = (
            Engine::new(ClusterSpec::tiny(), Personality::sparrow()),
            Catalog::new(),
        );
        let mut s = Session::new(&engine, &catalog, true);
        let dop = s.dop() as u64;
        let held: Vec<Value> = (0..12)
            .map(|i| Value::tuple([Value::Int(i), Value::str("y".repeat(i as usize))]))
            .collect();
        let owned: Vec<Value> = (0..9).map(|i| Value::str("z".repeat(i))).collect();
        let cached = Part::from(held.clone());
        cached.bytes();
        let holder = cached.clone();
        let keys = [
            keyed_by_self(&held, |i| i * 5),
            keyed_by_self(&owned, |i| i * 3 + 1),
        ];
        let want = by_rule(&keys, dop);
        let key = Lambda::new(["x"], ScalarExpr::var("x"));
        let sources = [cached, Part::from(owned)].into_iter().zip(keys);
        let keyed = s.routed(sources, &key, None);
        let layout = keyed.data.partitioning.as_ref().expect("unsplit is placed");
        assert!(layout.satisfies(&key, dop as usize));
        for (d, part) in keyed.data.parts.iter().enumerate() {
            assert_eq!(&**part, &want[d][..], "destination {d}");
            assert_eq!(part.bytes(), fresh_walk(part), "destination {d}");
        }
        assert_eq!(s.stats.bytes_shuffled, keyed.data.total_bytes());
        // The holder's rows and measurement are untouched.
        assert_eq!(&*holder, &held[..]);
        assert_eq!(holder.bytes(), fresh_walk(&held));
    }

    #[test]
    fn an_agg_by_exchange_charges_each_partial_as_its_pair() {
        let (engine, catalog) = (
            Engine::new(ClusterSpec::tiny(), Personality::sparrow()),
            Catalog::new(),
        );
        let mut s = Session::new(&engine, &catalog, true);
        let half = wide(4100);
        assert!(width(&half) < u64::from(u32::MAX));
        // Each source's groups: a plain partial, an accumulator wider than
        // `u32`, and a pair wider than `u32` whose key and accumulator are not.
        let groups = [
            vec![
                (Value::Int(1), Value::Float(2.5)),
                (half.clone(), half.clone()),
                (Value::str("k"), Value::Int(3)),
            ],
            vec![
                (Value::Int(1), wide(8200)),
                (Value::str("k"), Value::Int(4)),
                (
                    Value::tuple([Value::Int(2), Value::Null]),
                    Value::Bool(true),
                ),
            ],
        ];
        // Hashed by position: hashing a wide key is slow, and routing is
        // not what this test is about.
        let sources = groups
            .iter()
            .map(|g| Measured::partials((0..).zip(g.iter().cloned()).map(|(h, (k, a))| (h, k, a))))
            .collect();
        let landed = s.land(sources, None);
        let pair_bytes = |keys: &[(u64, Value)], accs: &[Value]| -> u64 {
            let pairs = keys.iter().zip(accs);
            pairs
                .map(|((_, k), a)| width(&Value::tuple([k.clone(), a.clone()])))
                .sum()
        };
        let mut total = 0;
        for (dest, keys) in landed.dests.into_iter().zip(&landed.keys) {
            let bytes = dest.bytes();
            assert_eq!(bytes, pair_bytes(keys, &rows(dest)));
            total += bytes;
        }
        let all = groups.iter().flatten();
        let want: u64 = all
            .map(|(k, a)| width(&Value::tuple([k.clone(), a.clone()])))
            .sum();
        assert!(want > 2 * u64::from(u32::MAX));
        assert_eq!(total, want);
        assert_eq!(s.stats.bytes_shuffled, want);
    }

    /// `(sum(x.1), count, exists(x.1 even))` over `(Int, Int)` rows: a
    /// one-slot-per-file accumulator of `f64`, `i64` and `bool` columns.
    fn fold() -> emma_compiler::expr::FoldOp {
        use emma_compiler::expr::{BinOp, FoldOp};
        let x = || ScalarExpr::var("x");
        let even = ScalarExpr::BinOp(
            BinOp::Eq,
            Box::new(ScalarExpr::BinOp(
                BinOp::Mod,
                Box::new(x().get(1)),
                Box::new(ScalarExpr::lit(Value::Int(2))),
            )),
            Box::new(ScalarExpr::lit(Value::Int(0))),
        );
        let sum = FoldOp::sum();
        FoldOp::banana_split(&[
            FoldOp {
                sng: Lambda::new(["x"], sum.sng.apply(&[x().get(1)])),
                ..sum
            },
            FoldOp::count(),
            FoldOp::exists(Lambda::new(["x"], even)),
        ])
    }

    /// A combiner kernel over `(Int, Int)` rows keyed by `x.0`, folding
    /// [`fold`].
    fn combiner() -> AggKernel {
        let (x, fold) = (|| ScalarExpr::var("x"), fold());
        let key = Lambda::new(["x"], x().get(0));
        let base = HashMap::new();
        let zero = interp::eval_scalar(&fold.zero, &mut Env::new(&base), &Catalog::new());
        let zero = zero.expect("a closed zero");
        let input = AggInput::Rows {
            stages: &[],
            key: (&key, &base),
            sng: (&fold.sng, &base),
            zero: &zero,
        };
        let sample = [Value::tuple([Value::Int(0), Value::Int(0)])];
        vectorized::specialize_agg(&input, &fold.uni, &sample).expect("a specializable fold")
    }

    /// A destination's partials as `(key, acc)` pairs, accumulator columns
    /// materialized by `kernel`, with the bytes it carries.
    fn pairs(kernel: &AggKernel, dest: Measured, keys: &[(u64, Value)]) -> (Vec<Value>, u64) {
        let bytes = dest.bytes();
        let accs: Vec<Value> = match dest.into_payload() {
            Payload::Accs(cols) => (0..keys.len())
                .map(|i| kernel.acc_value(&cols, i))
                .collect(),
            Payload::Rows(accs) => accs,
        };
        let pairs = keys.iter().zip(accs);
        let pairs = pairs.map(|((_, k), a)| Value::tuple([k.clone(), a]));
        (pairs.collect(), bytes)
    }

    #[test]
    fn an_agg_by_exchange_moves_accumulator_columns_like_rows() {
        let (engine, catalog) = (
            Engine::new(ClusterSpec::tiny(), Personality::sparrow()),
            Catalog::new(),
        );
        let kernel = combiner();
        // Three combiner partitions over overlapping key ranges, each
        // shipping its partials as columns and, for reference, as rows.
        let (mut by_cols, mut by_rows, mut keys) = (Vec::new(), Vec::new(), Vec::new());
        for p in 0..3i64 {
            let rows: Vec<Value> = (0..40 + 7 * p)
                .map(|i| Value::tuple([Value::Int((i * 5 + p) % (23 + p)), Value::Int(i - 9)]))
                .collect();
            let (mut a, mut b) = (kernel.new_state(), kernel.new_state());
            assert!(kernel.absorb(&rows, &mut a) && kernel.absorb(&rows, &mut b));
            let (ks, cols) = kernel.finish_columns(a);
            by_cols.push(Measured::partial_columns(ks, cols, kernel.acc_width()));
            let groups = kernel.finish(b).into_iter();
            by_rows.push(Measured::partials(
                groups.map(|(k, a)| (value_hash(&k), k, a)),
            ));
            keys.push(by_rows[p as usize].1.clone());
        }
        let mut charged = Vec::new();
        let [cols, rows] = [by_cols, by_rows].map(|sources| {
            let mut s = Session::new(&engine, &catalog, true);
            let landed = s.land(sources, None);
            charged.push(s.stats.bytes_shuffled);
            landed
        });
        // Both follow the order rule, keys and accumulators aligned, and
        // charge each partial as its `(key, acc)` pair.
        let dop = cols.dests.len() as u64;
        let want = by_rule(&keys, dop);
        assert!(cols.dests.iter().all(Measured::is_columns));
        let mut total = 0;
        for (d, (c, r)) in cols.dests.into_iter().zip(rows.dests).enumerate() {
            assert_eq!(cols.keys[d], rows.keys[d], "keys of destination {d}");
            let keyed: Vec<Value> = cols.keys[d].iter().map(|(_, k)| k.clone()).collect();
            assert_eq!(keyed, want[d], "order of destination {d}");
            let (c, r) = (
                pairs(&kernel, c, &cols.keys[d]),
                pairs(&kernel, r, &rows.keys[d]),
            );
            assert_eq!(c, r, "destination {d}");
            assert_eq!(c.1, fresh_walk(&c.0), "bytes of destination {d}");
            total += c.1;
        }
        assert_eq!(charged, [total, total]);
        assert!(want.iter().filter(|w| !w.is_empty()).count() > 1);
        // A split bucket moves its columns with its keys, as it moves rows.
        let plan = SplitPlan {
            ways: vec![1, 3],
            offsets: vec![0, 1],
            parents: vec![0, 1, 1, 1],
            output_parts: 4,
        };
        for kind in [SplitKind::Balanced, SplitKind::KeyPreserving] {
            let [(c, ck), (r, rk)] = [true, false].map(|columns| {
                // Bucket 1 of two holds two combiners' partials.
                let mut dests = vec![Measured::default(), Measured::default()];
                let mut keys: Vec<Vec<(u64, Value)>> = vec![Vec::new(), Vec::new()];
                for p in 0..2i64 {
                    let rows: Vec<Value> = (0..30)
                        .map(|i| Value::tuple([Value::Int(i % (9 + p)), Value::Int(i * p)]))
                        .collect();
                    let mut st = kernel.new_state();
                    assert!(kernel.absorb(&rows, &mut st));
                    let (source, ks) = if columns {
                        let (ks, cols) = kernel.finish_columns(st);
                        Measured::partial_columns(ks, cols, kernel.acc_width())
                    } else {
                        let groups = kernel.finish(st).into_iter();
                        Measured::partials(groups.map(|(k, a)| (value_hash(&k), k, a)))
                    };
                    let route = vec![1; ks.len()];
                    source.scatter(&route, &mut dests);
                    scatter(ks, &route, &mut keys, |k| k);
                }
                apply_split(&plan, kind, &mut dests, &mut keys);
                (dests, keys)
            });
            assert!(c[1..].iter().all(Measured::is_columns), "{kind:?}");
            assert_eq!(ck, rk, "{kind:?}");
            let subs = c.into_iter().zip(r).zip(&ck).skip(1);
            for (j, ((c, r), ks)) in subs.enumerate() {
                let (c, r) = (pairs(&kernel, c, ks), pairs(&kernel, r, ks));
                assert_eq!(c, r, "{kind:?} sub-partition {j}");
                assert_eq!(c.1, fresh_walk(&c.0), "{kind:?} sub-partition {j}");
            }
        }
    }

    #[test]
    fn a_column_exchange_to_a_few_destinations_leaves_the_rest_empty() {
        use emma_compiler::vectorized::Partials;
        let (engine, catalog) = (
            Engine::new(ClusterSpec::tiny(), Personality::sparrow()),
            Catalog::new(),
        );
        let kernel = combiner();
        let dop = Session::new(&engine, &catalog, true).dop() as u64;
        // Forty combiners over the keys 0..4, each key's hash routing it to
        // destination 1: every other destination receives nothing.
        let route = |k: &Value| match k {
            Value::Int(k) => 1 + dop * *k as u64,
            _ => unreachable!("int keys"),
        };
        let (mut by_cols, mut by_rows) = (Vec::new(), Vec::new());
        for p in 0..40i64 {
            let rows: Vec<Value> = (0..6)
                .map(|i| Value::tuple([Value::Int(i % 4), Value::Int(p * i - 50)]))
                .collect();
            let (mut a, mut b) = (kernel.new_state(), kernel.new_state());
            assert!(kernel.absorb(&rows, &mut a) && kernel.absorb(&rows, &mut b));
            let (ks, cols) = kernel.finish_columns(a);
            let (cols, keys) = Measured::partial_columns(ks, cols, kernel.acc_width());
            let keys = keys.into_iter().map(|(_, k)| (route(&k), k)).collect();
            by_cols.push((cols, keys));
            let groups = kernel.finish(b).into_iter();
            by_rows.push(Measured::partials(groups.map(|(k, a)| (route(&k), k, a))));
        }
        let [(cols, col_bytes), (rows, row_bytes)] = [by_cols, by_rows].map(|sources| {
            let mut s = Session::new(&engine, &catalog, true);
            let landed = s.land(sources, None);
            (landed, s.stats.bytes_shuffled)
        });
        assert_eq!(col_bytes, row_bytes);
        // The merge folds a destination's partials batch by batch, as the
        // `aggBy` merge does, from its columns or its rows.
        let sample = rows.dests[1].head(16, |cols, i| kernel.acc_value(cols, i));
        let fold = fold();
        let merge = vectorized::specialize_agg(&AggInput::Partials, &fold.uni, &sample);
        let merge = merge.expect("a slot-wise merge");
        let merged = |dest: Measured, keys: &[(u64, Value)]| {
            let (payload, mut st) = (dest.into_payload(), merge.new_state());
            for from in (0..keys.len()).step_by(16) {
                let to = keys.len().min(from + 16);
                let batch = match &payload {
                    Payload::Accs(cols) => Partials::Columns(cols, from),
                    Payload::Rows(accs) => Partials::Values(&accs[from..to]),
                };
                assert!(merge.absorb_partials(batch, &keys[from..to], &mut st));
            }
            merge.finish(st)
        };
        let dests = cols.dests.into_iter().zip(rows.dests);
        for (d, (c, r)) in dests.enumerate() {
            let keys = &cols.keys[d];
            assert_eq!(keys, &rows.keys[d], "keys of destination {d}");
            assert_eq!(keys.len(), if d == 1 { 160 } else { 0 }, "destination {d}");
            assert!(c.is_columns() && c.len() == keys.len(), "destination {d}");
            let (c, r) = (merged(c, keys), merged(r, keys));
            assert_eq!(c.len(), if d == 1 { 4 } else { 0 }, "destination {d}");
            assert_eq!(c, r, "destination {d}");
        }
    }

    #[test]
    fn a_split_bucket_moves_rows_widths_and_keys_together() {
        // Bucket 1 of two splits three ways; bucket 0 passes through.
        let plan = SplitPlan {
            ways: vec![1, 3],
            offsets: vec![0, 1],
            parents: vec![0, 1, 1, 1],
            output_parts: 4,
        };
        let rows: Vec<Value> = (0..10).map(|i| Value::str("w".repeat(i))).collect();
        let keys = keyed_by_self(&rows, |i| value_hash(&Value::Int(i as i64 % 4)));
        let bucket = || {
            let cold = vec![Measured::from(Part::from(vec![Value::Int(7)]))];
            let dests = cold
                .into_iter()
                .chain([Measured::from(Part::from(rows.clone()))]);
            (
                dests.collect(),
                vec![vec![(0, Value::Int(7))], keys.clone()],
            )
        };
        for kind in [SplitKind::Balanced, SplitKind::KeyPreserving] {
            let (mut dests, mut ks) = bucket();
            let moved = apply_split(&plan, kind, &mut dests, &mut ks);
            assert_eq!((dests.len(), ks.len()), (4, 4));
            let mut subs: Vec<Part> = dests.into_iter().map(Measured::finish).collect();
            assert_eq!(&*subs.remove(0), &[Value::Int(7)][..]);
            for (sub, ks) in subs.iter().zip(&ks[1..]) {
                let keyed: Vec<&Value> = ks.iter().map(|(_, k)| k).collect();
                assert_eq!(keyed, sub.iter().collect::<Vec<_>>(), "{kind:?}");
                let widths: Vec<u64> = sub.iter().map(width).collect();
                assert_eq!(sub.carried_widths(), Some(&widths[..]), "{kind:?}");
            }
            let lens: Vec<usize> = subs.iter().map(|p| p.len()).collect();
            assert_eq!(moved, (lens[1] + lens[2]) as u64, "{kind:?}");
            match kind {
                // Contiguous near-equal cuts that concatenate to the bucket.
                SplitKind::Balanced => {
                    assert_eq!(lens, [3, 3, 4]);
                    let joined: Vec<Value> = subs.iter().flat_map(|p| p.to_vec()).collect();
                    assert_eq!(joined, rows);
                }
                // Every copy of a key in the sub-partition its hash names,
                // in bucket order.
                SplitKind::KeyPreserving => {
                    for (j, ks) in ks[1..].iter().enumerate() {
                        assert!(ks.iter().all(|&(h, _)| skew::sub_hash(h) % 3 == j as u64));
                        let want: Vec<&(u64, Value)> = keys
                            .iter()
                            .filter(|&&(h, _)| skew::sub_hash(h) % 3 == j as u64)
                            .collect();
                        assert_eq!(ks.iter().collect::<Vec<_>>(), want);
                    }
                }
            }
        }
    }
}
