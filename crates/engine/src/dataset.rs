//! Partitioned datasets: the engine's representation of a distributed bag.
//!
//! A [`Partitioned`] collection is a list of row partitions plus optional
//! *partitioning metadata* — if the rows were hash-distributed by some key,
//! the key is remembered so later operators (joins, aggregations, and the
//! partition-pulling optimization) can skip redundant shuffles.
//!
//! A partition ([`Part`]) knows its bytes: the cost model charges shuffles,
//! broadcasts, cache and storage traffic in serialized bytes, and a
//! partition's rows are walked for them at most once — by whoever asks
//! first, for every holder, or by the wave that makes them for a shuffle
//! ([`Widths`]) — and the widths travel with the rows through a shuffle, so
//! its destinations are born measured.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use emma_compiler::expr::Lambda;
use emma_compiler::interp::Catalog;
use emma_compiler::value::{Value, ValueError};
use emma_compiler::vectorized::AccCols;
use emma_core::ops;

/// Hash partitioning metadata.
#[derive(Clone, Debug)]
pub struct Partitioning {
    /// The key extractor (compare with [`Lambda::alpha_eq`]).
    pub key: Lambda,
    /// Number of partitions the hash was taken modulo.
    pub parts: usize,
}

impl Partitioning {
    /// Whether this partitioning satisfies a requirement.
    pub(crate) fn satisfies(&self, key: &Lambda, parts: usize) -> bool {
        self.parts == parts && self.key.alpha_eq(key)
    }
}

/// Serialized width of one row: with [`pair_width`], the only call of
/// [`Value::approx_bytes`] on partition rows outside the fused pipeline's
/// byte-weighted stages (and the debug check of [`Measured::finish`]).
fn width(row: &Value) -> u64 {
    #[cfg(test)]
    tests::ROWS_WALKED.with(|n| n.set(n.get() + 1));
    row.approx_bytes()
}

/// The width of the `(key, acc)` tuple an `aggBy` partial ships as, without
/// building the tuple: `8 + w(key) + w(acc)`, what [`width`] gives the tuple.
fn pair_width(key: &Value, acc: &Value) -> u64 {
    #[cfg(test)]
    tests::ROWS_WALKED.with(|n| n.set(n.get() + 1));
    8 + key.approx_bytes() + acc.approx_bytes()
}

/// The serialized width of each row of a partition, and their sum: taken by
/// one walk of a finished partition, or row by row as a wave produces the
/// rows ([`Widths::walk`], [`Widths::carry`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct Widths {
    per_row: Vec<u64>,
    total: u64,
}

impl Widths {
    /// The one walk of a partition's rows.
    fn of(rows: &[Value]) -> Self {
        #[cfg(test)]
        tests::WALKS.with(|n| n.set(n.get() + 1));
        let mut widths = Widths::with_capacity(rows.len());
        rows.iter().for_each(|row| widths.walk(row));
        widths
    }

    pub(crate) fn with_capacity(n: usize) -> Self {
        Widths {
            per_row: Vec::with_capacity(n),
            total: 0,
        }
    }

    /// Rows measured so far.
    pub(crate) fn len(&self) -> usize {
        self.per_row.len()
    }

    /// Measures the next row.
    pub(crate) fn walk(&mut self, row: &Value) {
        self.carry(width(row));
    }

    /// Appends the next row with the width a holder measured for it
    /// ([`Part::carried_widths`]).
    pub(crate) fn carry(&mut self, w: u64) {
        self.total += w;
        self.per_row.push(w);
    }
}

#[derive(Clone, Debug, Default)]
struct Block {
    rows: Vec<Value>,
    widths: OnceLock<Widths>,
}

/// One partition: shared, immutable rows (it derefs to `[Value]`) and — once
/// anyone has asked — their serialized widths. Clones share both, so a
/// partition a cache, a thunk memo and a consumer all hold is measured once.
#[derive(Clone, Debug, Default)]
pub struct Part(Arc<Block>);

impl From<Vec<Value>> for Part {
    fn from(rows: Vec<Value>) -> Self {
        Part(Arc::new(Block {
            rows,
            widths: OnceLock::new(),
        }))
    }
}

impl FromIterator<Value> for Part {
    fn from_iter<I: IntoIterator<Item = Value>>(rows: I) -> Self {
        Part::from(rows.into_iter().collect::<Vec<_>>())
    }
}

impl Deref for Part {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.0.rows
    }
}

impl Part {
    fn widths(&self) -> &Widths {
        self.0.widths.get_or_init(|| Widths::of(&self.0.rows))
    }

    /// Approximate serialized bytes of the rows: walks them if no holder of
    /// this partition has before.
    pub(crate) fn bytes(&self) -> u64 {
        self.widths().total
    }

    /// The width of each row, if a holder of this partition measured it:
    /// what a `Filter` carries over to the rows it keeps.
    pub(crate) fn carried_widths(&self) -> Option<&[u64]> {
        self.0.widths.get().map(|w| w.per_row.as_slice())
    }

    /// A partition whose rows a wave measured as it produced them.
    pub(crate) fn measured(rows: Vec<Value>, widths: Widths) -> Part {
        Measured::new(Payload::Rows(rows), widths).finish()
    }

    /// The rows: moved out if this is the last holder, copied otherwise.
    pub(crate) fn into_rows(self) -> Vec<Value> {
        Arc::try_unwrap(self.0).map_or_else(|shared| shared.rows.clone(), |block| block.rows)
    }
}

impl From<Part> for Measured {
    /// The rows and their widths, to be scattered ([`Measured::scatter`]):
    /// moved out if this is the last holder, copied otherwise.
    fn from(part: Part) -> Self {
        let Block { rows, widths } = Arc::unwrap_or_clone(part.0);
        let widths = widths.into_inner().unwrap_or_else(|| Widths::of(&rows));
        Measured::new(Payload::Rows(rows), widths)
    }
}

/// What a [`Measured`] holds: rows, or an `aggBy` combiner's accumulators
/// as the typed columns its kernel folded them in.
pub(crate) enum Payload {
    Rows(Vec<Value>),
    Accs(AccCols),
}

impl Default for Payload {
    fn default() -> Self {
        Payload::Rows(Vec::new())
    }
}

/// Rows, each with the bytes it ships as: a partition taken apart to be
/// scattered, a shuffle destination, or an `aggBy` combiner's accumulators
/// ([`Measured::partials`], [`Measured::partial_columns`]), each of which
/// ships as its `(key, acc)` pair — or, for a partial folded over a run of
/// simulated partitions, as the pairs of the simulated partials it stands
/// for ([`Measured::standing_for`]).
#[derive(Default)]
pub(crate) struct Measured {
    payload: Payload,
    widths: Widths,
    /// How many simulated rows each row stands for; empty while every row
    /// stands for one.
    stands: Vec<u32>,
}

impl Measured {
    /// Rows that each stand for themselves.
    fn new(payload: Payload, widths: Widths) -> Self {
        let stands = Vec::new();
        Measured {
            payload,
            widths,
            stands,
        }
    }

    pub(crate) fn with_capacity(n: usize) -> Self {
        let rows = Payload::Rows(Vec::with_capacity(n));
        Measured::new(rows, Widths::with_capacity(n))
    }

    /// An `aggBy` combiner's partials, one per group in the order given: the
    /// accumulators as the rows, each measured as the `(key, acc)` pair it
    /// ships as, `8 + w(key) + w(acc)`, and beside them the `(hash, key)`
    /// pairs that route them.
    pub(crate) fn partials(
        groups: impl IntoIterator<Item = (u64, Value, Value)>,
    ) -> (Measured, Vec<(u64, Value)>) {
        let groups = groups.into_iter();
        let n = groups.size_hint().0;
        let (mut rows, mut widths) = (Vec::with_capacity(n), Widths::with_capacity(n));
        let mut keys = Vec::with_capacity(n);
        for (h, key, acc) in groups {
            widths.carry(pair_width(&key, &acc));
            rows.push(acc);
            keys.push((h, key));
        }
        let payload = Payload::Rows(rows);
        (Measured::new(payload, widths), keys)
    }

    /// [`Measured::partials`] with the accumulators as typed columns, one
    /// per key of `keys` and each `acc_width` wide, so a partial ships as
    /// `8 + w(key) + acc_width`; the keys are hashed here.
    pub(crate) fn partial_columns(
        keys: Vec<Value>,
        accs: AccCols,
        acc_width: u64,
    ) -> (Measured, Vec<(u64, Value)>) {
        let mut widths = Widths::with_capacity(keys.len());
        let keys = keys.into_iter().map(|key| {
            widths.carry(8 + width(&key) + acc_width);
            (value_hash(&key), key)
        });
        let keys = keys.collect();
        let payload = Payload::Accs(accs);
        (Measured::new(payload, widths), keys)
    }

    /// These partials, partial `i` standing for `stands[i]` simulated ones —
    /// a run's partial for each of the run's partitions whose rows reached
    /// its key — and so shipping as that many of its pairs.
    pub(crate) fn standing_for(self, stands: Vec<u32>) -> Measured {
        debug_assert_eq!(stands.len(), self.len());
        let mut widths = Widths::with_capacity(stands.len());
        for (&w, &m) in self.widths.per_row.iter().zip(&stands) {
            widths.carry(u64::from(m) * w);
        }
        Measured {
            widths,
            stands,
            ..self
        }
    }

    /// How many rows (or partials) there are.
    pub(crate) fn len(&self) -> usize {
        self.widths.len()
    }

    /// How many simulated rows each row stands for, in order.
    pub(crate) fn stand_ins(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(|i| self.stands.get(i).map_or(1, |&m| u64::from(m)))
    }

    /// How many simulated rows the rows stand for together.
    pub(crate) fn simulated_len(&self) -> u64 {
        match self.stands.is_empty() {
            true => self.len() as u64,
            false => self.stand_ins().sum(),
        }
    }

    /// Whether the accumulators are typed columns — vacuously when there
    /// are none, as at a destination of a column exchange that received
    /// nothing.
    pub(crate) fn is_columns(&self) -> bool {
        matches!(self.payload, Payload::Accs(_)) || self.len() == 0
    }

    /// The bytes the rows ship as.
    pub(crate) fn bytes(&self) -> u64 {
        self.widths.total
    }

    /// Moves row `i`, with its width, to the end of `into[dest[i]]`: one
    /// pass over the rows (or per accumulator column), one over the widths.
    /// A destination that holds nothing yet takes the payload kind of the
    /// first row it receives; every source of one exchange has the same
    /// kind, and a destination that receives nothing stays empty rows.
    pub(crate) fn scatter(self, dest: &[u32], into: &mut [Measured]) {
        debug_assert_eq!(self.widths.len(), dest.len());
        match self.payload {
            Payload::Rows(rows) => scatter(rows, dest, into, |m| match &mut m.payload {
                Payload::Rows(rows) => rows,
                Payload::Accs(_) => unreachable!("one exchange ships one payload kind"),
            }),
            Payload::Accs(accs) => accs.scatter(dest, into, Measured::columns),
        }
        for (i, (&w, &d)) in self.widths.per_row.iter().zip(dest).enumerate() {
            let to = &mut into[d as usize];
            to.widths.carry(w);
            // A destination keeps stand-ins from the first row that stands
            // for more than one on; the rows before it stood for one each.
            let m = self.stands.get(i).copied().unwrap_or(1);
            if m != 1 || !to.stands.is_empty() {
                to.stands.resize(to.len() - 1, 1);
                to.stands.push(m);
            }
        }
    }

    /// This destination's accumulator columns, begun empty if it holds
    /// nothing yet.
    fn columns(&mut self) -> &mut AccCols {
        if let Payload::Rows(rows) = &self.payload {
            debug_assert!(rows.is_empty(), "one exchange ships one payload kind");
            self.payload = Payload::Accs(AccCols::default());
        }
        match &mut self.payload {
            Payload::Accs(cols) => cols,
            Payload::Rows(_) => unreachable!(),
        }
    }

    /// The same partials with their accumulator columns, if any, turned
    /// into rows: `acc(cols, i)` is partial `i`'s accumulator.
    pub(crate) fn into_rows_with(self, acc: impl Fn(&AccCols, usize) -> Value) -> Measured {
        let payload = match self.payload {
            Payload::Accs(cols) => {
                Payload::Rows((0..self.widths.len()).map(|i| acc(&cols, i)).collect())
            }
            rows => rows,
        };
        Measured { payload, ..self }
    }

    /// The first `n` rows, accumulator columns turned into rows as by
    /// [`Measured::into_rows_with`].
    pub(crate) fn head(&self, n: usize, acc: impl Fn(&AccCols, usize) -> Value) -> Vec<Value> {
        let n = n.min(self.len());
        match &self.payload {
            Payload::Rows(rows) => rows[..n].to_vec(),
            Payload::Accs(cols) => (0..n).map(|i| acc(cols, i)).collect(),
        }
    }

    /// The rows or accumulator columns, their widths and stand-ins dropped.
    pub(crate) fn into_payload(self) -> Payload {
        self.payload
    }

    /// The partition, born measured: the rows' widths must be their own.
    pub(crate) fn finish(self) -> Part {
        let Payload::Rows(rows) = self.payload else {
            unreachable!("accumulator columns land in an aggBy merge, never in a partition")
        };
        debug_assert_eq!(self.widths.len(), rows.len());
        debug_assert!(
            self.stands.is_empty(),
            "a partition's rows stand for themselves"
        );
        debug_assert_eq!(
            self.widths.total,
            rows.iter().map(Value::approx_bytes).sum::<u64>()
        );
        Part(Arc::new(Block {
            rows,
            widths: OnceLock::from(self.widths),
        }))
    }
}

/// Moves `items[i]` to the end of `field(&mut into[dest[i]])`, in order: one
/// flat pass, each item moved once.
pub(crate) fn scatter<T, D>(
    items: Vec<T>,
    dest: &[u32],
    into: &mut [D],
    field: impl Fn(&mut D) -> &mut Vec<T>,
) {
    debug_assert_eq!(items.len(), dest.len());
    for (item, &d) in items.into_iter().zip(dest) {
        field(&mut into[d as usize]).push(item);
    }
}

/// A distributed bag: rows split across partitions.
#[derive(Clone, Debug, Default)]
pub struct Partitioned {
    /// The partitions (cheaply clonable).
    pub parts: Vec<Part>,
    /// Hash-partitioning metadata, if the layout is known.
    pub partitioning: Option<Partitioning>,
}

/// Stable hash of a value (used for hash partitioning): the
/// [`ops::hash_of`] every first-seen map keyed by values expects.
pub fn value_hash(v: &Value) -> u64 {
    ops::hash_of(v)
}

impl Partitioned {
    /// Splits rows into `n` contiguous blocks of `⌈len / n⌉` rows (block
    /// layout — no partitioning metadata).
    pub fn from_rows(rows: Vec<Value>, n: usize) -> Self {
        let n = n.max(1);
        let chunk = rows.len().div_ceil(n).max(1);
        let mut rows = rows.into_iter();
        let parts = (0..n)
            .map(|_| {
                let mut block = Vec::with_capacity(chunk.min(rows.len()));
                block.extend(rows.by_ref().take(chunk));
                block.into()
            })
            .collect();
        Partitioned {
            parts,
            partitioning: None,
        }
    }

    /// Dataset `name` in the block layout of [`Partitioned::from_rows`],
    /// measured. The catalog keeps what is built here until the name is
    /// replaced, so every later read of the dataset at this partition count
    /// — the next run's `Source`, a scan from inside a UDF — shares the
    /// blocks and their bytes in O(partitions).
    pub(crate) fn of_dataset(catalog: &Catalog, name: &str, n: usize) -> Result<Self, ValueError> {
        let blocks = catalog.derived(name, n, |rows| {
            let d = Partitioned::from_rows(rows.to_vec(), n);
            d.total_bytes();
            d
        })?;
        Ok(Partitioned::clone(&blocks))
    }

    /// Total number of rows.
    pub(crate) fn total_rows(&self) -> u64 {
        self.parts.iter().map(|p| p.len() as u64).sum()
    }

    /// Approximate serialized bytes of each partition ([`Part::bytes`]).
    pub(crate) fn part_bytes(&self) -> impl Iterator<Item = u64> + '_ {
        self.parts.iter().map(Part::bytes)
    }

    /// Total approximate serialized bytes.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.part_bytes().sum()
    }

    /// Rows in the largest partition (per-slot CPU time driver).
    pub(crate) fn max_part_rows(&self) -> u64 {
        self.parts.iter().map(|p| p.len() as u64).max().unwrap_or(0)
    }

    /// Bytes of the largest partition (skew measurement).
    pub(crate) fn max_part_bytes(&self) -> u64 {
        self.part_bytes().max().unwrap_or(0)
    }

    /// Gathers all rows into one vector (the `collect` data motion).
    pub(crate) fn collect_rows(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.total_rows() as usize);
        for p in &self.parts {
            out.extend(p.iter().cloned());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSpec, Engine, Personality};
    use emma_compiler::expr::ScalarExpr;
    use emma_compiler::pipeline::{CStmt, CompiledProgram};
    use emma_compiler::plan::Plan;
    use std::cell::Cell;

    thread_local! {
        /// Walks of a partition's rows ([`Widths::of`]) made by this thread.
        pub(super) static WALKS: Cell<usize> = const { Cell::new(0) };
        /// Rows this thread measured ([`width`]), by whole-partition walks
        /// or one by one.
        pub(super) static ROWS_WALKED: Cell<usize> = const { Cell::new(0) };
    }

    fn walks() -> usize {
        WALKS.with(Cell::get)
    }

    fn rows_walked() -> usize {
        ROWS_WALKED.with(Cell::get)
    }

    fn ints(n: i64) -> Vec<Value> {
        (0..n).map(Value::Int).collect()
    }

    fn fresh_walk(rows: &[Value]) -> u64 {
        rows.iter().map(Value::approx_bytes).sum()
    }

    #[test]
    fn from_rows_distributes_everything() {
        let p = Partitioned::from_rows(ints(10), 3);
        assert_eq!(p.parts.len(), 3);
        assert_eq!(p.total_rows(), 10);
        assert_eq!(p.collect_rows(), ints(10));
    }

    #[test]
    fn from_rows_cuts_contiguous_blocks_sized_exactly() {
        let lens = |d: &Partitioned| d.parts.iter().map(|p| p.len()).collect::<Vec<_>>();
        assert_eq!(lens(&Partitioned::from_rows(ints(10), 3)), [4, 4, 2]);
        assert_eq!(lens(&Partitioned::from_rows(ints(9), 3)), [3, 3, 3]);
        assert_eq!(lens(&Partitioned::from_rows(ints(0), 2)), [0, 0]);
        assert_eq!(lens(&Partitioned::from_rows(ints(5), 0)), [5]);
        let sparse = Partitioned::from_rows(ints(3), 320);
        assert_eq!(sparse.parts.len(), 320);
        assert_eq!(lens(&sparse)[..4], [1, 1, 1, 0]);
        for block in &Partitioned::from_rows(ints(1000), 7).parts {
            assert_eq!(block.0.rows.capacity(), block.len());
        }
    }

    #[test]
    fn partitioning_satisfies_alpha_equivalent_keys() {
        let p = Partitioning {
            key: Lambda::new(["x"], ScalarExpr::var("x").get(0)),
            parts: 8,
        };
        assert!(p.satisfies(&Lambda::new(["y"], ScalarExpr::var("y").get(0)), 8));
        assert!(!p.satisfies(&Lambda::new(["y"], ScalarExpr::var("y").get(1)), 8));
        assert!(!p.satisfies(&Lambda::new(["y"], ScalarExpr::var("y").get(0)), 4));
    }

    #[test]
    fn byte_accounting_is_a_walk_of_the_rows() {
        let p = Partitioned::from_rows(ints(100), 4);
        assert_eq!(p.total_bytes(), 800);
        assert_eq!(p.max_part_bytes(), 200);
    }

    #[test]
    fn a_part_held_by_two_owners_is_measured_once() {
        let cached = Partitioned::from_rows(ints(100), 4);
        let consumer = cached.clone();
        let before = walks();
        assert_eq!(cached.total_bytes(), 800);
        assert_eq!(walks() - before, 4, "one walk per partition");
        assert_eq!(consumer.total_bytes(), 800);
        assert_eq!(consumer.max_part_bytes(), 200);
        assert_eq!(cached.total_bytes(), 800);
        assert_eq!(walks() - before, 4, "a second holder walked again");
    }

    #[test]
    fn a_row_wider_than_u32_is_carried_exactly() {
        // 8200 references to one 64 Ki-float vector: cheap to measure.
        let wide = Value::bag(vec![Value::vector(vec![0.0; 1 << 16]); 8200]);
        assert!(wide.approx_bytes() > u64::from(u32::MAX));
        let rows = vec![Value::Int(1), wide, Value::str("abc")];
        let want = fresh_walk(&rows);
        let part = Part::from(rows);
        assert_eq!(part.bytes(), want);
        // ... and so is its width, carried through a scatter.
        let mut dest = [Measured::default()];
        Measured::from(part).scatter(&[0, 0, 0], &mut dest);
        let [dest] = dest;
        assert_eq!(dest.bytes(), want);
        assert_eq!(dest.finish().bytes(), want);
    }

    #[test]
    fn scattered_partitions_are_born_measured_from_either_kind_of_source() {
        let rows = vec![
            Value::Int(1),
            Value::str("abc"),
            Value::Null,
            Value::bag(ints(9)),
        ];
        let owned = Part::from(rows.clone());
        let shared = Part::from(rows.clone());
        let holder = shared.clone();
        shared.bytes();
        let before = walks();
        // An unmeasured source is walked once, a measured one not at all;
        // neither destination ever is.
        let mut dests = [Measured::default(), Measured::default()];
        for source in [owned, shared] {
            Measured::from(source).scatter(&[0, 1, 0, 1], &mut dests);
        }
        for (i, dest) in dests.into_iter().enumerate() {
            let dest = dest.finish();
            assert_eq!(dest.len(), 4);
            assert_eq!(dest.bytes(), fresh_walk(&dest), "destination {i}");
        }
        assert_eq!(walks() - before, 1);
        assert_eq!(&*holder, &rows[..], "a shared source was drained");
    }

    #[test]
    fn a_partial_ships_as_its_pair() {
        let groups = [
            (Value::Int(3), Value::Float(1.5)),
            (
                Value::str("key"),
                Value::tuple([Value::Int(1), Value::Null]),
            ),
        ];
        let before = rows_walked();
        let (accs, keys) = Measured::partials(
            groups
                .iter()
                .map(|(k, a)| (value_hash(k), k.clone(), a.clone())),
        );
        assert_eq!(rows_walked() - before, 2, "one walk per partial");
        let pairs: Vec<Value> = groups
            .iter()
            .map(|(k, a)| Value::tuple([k.clone(), a.clone()]))
            .collect();
        assert_eq!(accs.bytes(), fresh_walk(&pairs));
        let Payload::Rows(rows) = accs.into_payload() else {
            panic!("rows expected")
        };
        assert_eq!(rows, [groups[0].1.clone(), groups[1].1.clone()]);
        let want: Vec<_> = groups
            .iter()
            .map(|(k, _)| (value_hash(k), k.clone()))
            .collect();
        assert_eq!(keys, want);
    }

    /// The rows this thread walks in two runs, on one catalog, of
    /// `out = Repartition(narrow, by x.1)` over `xs`: 200 `(i, 2i)` rows,
    /// few enough that every wave runs on the calling thread.
    fn rows_walked_by_a_shuffle_of(narrow: impl Fn(Box<Plan>) -> Plan) -> [usize; 2] {
        let rows = (0..200)
            .map(|i| Value::tuple([Value::Int(i), Value::Int(2 * i)]))
            .collect();
        let catalog = Catalog::new().with("xs", rows);
        let source = Box::new(Plan::Source { name: "xs".into() });
        let program = CompiledProgram {
            body: vec![CStmt::Write {
                sink: "out".into(),
                plan: Plan::Repartition {
                    input: Box::new(narrow(source)),
                    key: Lambda::new(["x"], ScalarExpr::var("x").get(1)),
                },
            }],
            report: Default::default(),
            compiled_eval: true,
        };
        let engine = Engine::new(ClusterSpec::tiny(), Personality::sparrow());
        [(); 2].map(|_| {
            let before = rows_walked();
            engine.run(&program, &catalog).expect("runs");
            rows_walked() - before
        })
    }

    /// A keyed consumer's input wave hands on partitions that are already
    /// measured, and the shuffle carries those widths into destinations born
    /// measured: the first run walks the catalog's blocks once, and no row
    /// after that but the ones a `Map` made — each once, as it made them.
    /// A `Filter` over the measured source carries the widths of the rows
    /// it keeps.
    #[test]
    fn a_fused_shuffle_walks_only_the_rows_a_map_made() {
        let filter = rows_walked_by_a_shuffle_of(|input| Plan::Filter {
            input,
            p: Lambda::new(
                ["x"],
                ScalarExpr::var("x").get(0).ge(ScalarExpr::lit(50i64)),
            ),
        });
        assert_eq!(filter, [200, 0], "Filter");
        let map = rows_walked_by_a_shuffle_of(|input| Plan::Map {
            input,
            f: Lambda::new(
                ["x"],
                ScalarExpr::Tuple(vec![ScalarExpr::var("x").get(1), ScalarExpr::var("x")]),
            ),
        });
        assert_eq!(map, [200 + 200, 200], "Map");
    }

    #[test]
    fn into_rows_moves_from_the_last_holder_and_copies_otherwise() {
        let part = Part::from(ints(3));
        let holder = part.clone();
        assert_eq!(part.into_rows(), ints(3));
        assert_eq!(&*holder, &ints(3)[..]);
        assert_eq!(holder.into_rows(), ints(3));
    }

    #[test]
    fn the_catalog_keeps_a_dataset_s_blocks_until_the_name_is_replaced() {
        let mut catalog = Catalog::new().with("xs", ints(100));
        let before = walks();
        let first = Partitioned::of_dataset(&catalog, "xs", 4).unwrap();
        assert_eq!(walks() - before, 4);
        let second = Partitioned::of_dataset(&catalog, "xs", 4).unwrap();
        assert_eq!((first.total_bytes(), second.total_bytes()), (800, 800));
        assert_eq!(walks() - before, 4, "the second read walked the rows");
        for (a, b) in first.parts.iter().zip(&second.parts) {
            assert!(Arc::ptr_eq(&a.0, &b.0), "the second read copied a block");
        }
        // Another partition count is another layout.
        let other = Partitioned::of_dataset(&catalog, "xs", 5).unwrap();
        assert_eq!((other.parts.len(), other.total_bytes()), (5, 800));
        // A clone of the catalog holds equal rows, so it shares the blocks.
        let cloned = Partitioned::of_dataset(&catalog.clone(), "xs", 4).unwrap();
        assert!(Arc::ptr_eq(&cloned.parts[0].0, &first.parts[0].0));

        catalog.insert("xs", ints(10));
        let replaced = Partitioned::of_dataset(&catalog, "xs", 4).unwrap();
        assert_eq!(replaced.collect_rows(), ints(10));
        assert_eq!(replaced.total_bytes(), 80);
        assert!(Partitioned::of_dataset(&catalog, "ys", 4).is_err());
    }
}
