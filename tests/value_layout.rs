//! A tuple is one heap block.
//!
//! `Value::Tuple` is an `Arc<[Value]>`: refcounts and fields share one
//! allocation, and every hot constructor builds that block in place. This
//! file counts the allocations of a 2-tuple built each way the engine builds
//! one, pins `Value`'s size, and pins `value_hash` / `Debug` of a fixed set
//! of values — the hash routes rows to partitions and the `Debug` text keys
//! the service's plan cache, so a layout change must leave both untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use emma::emma_compiler::interp::{self, Env};
use emma::emma_compiler::vectorized::{specialize_sampled, VecStageSpec};
use emma::emma_engine::dataset::value_hash;
use emma::prelude::*;

/// The system allocator, counting the blocks each thread asks for.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations (and
/// reallocations) it made on this thread.
fn allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// `x -> (x.0, x.1)`.
fn swizzle() -> Lambda {
    let x = || ScalarExpr::var("x");
    Lambda::new(["x"], ScalarExpr::Tuple(vec![x().get(0), x().get(1)]))
}

fn pair(a: i64, b: i64) -> Value {
    Value::tuple([Value::Int(a), Value::Int(b)])
}

#[test]
fn value_is_three_words() {
    assert_eq!(std::mem::size_of::<Value>(), 24);
}

#[test]
fn a_tuple_from_an_array_is_one_allocation() {
    let (t, n) = allocs(|| Value::tuple([Value::Int(1), Value::Float(2.0)]));
    assert_eq!(n, 1, "{t:?}");
}

#[test]
fn an_interpreted_tuple_is_one_allocation() {
    let lam = swizzle();
    let base = HashMap::new();
    let catalog = Catalog::new();
    let mut env = Env::new(&base);
    let row = [pair(5, 6)];
    let mut eval = || interp::eval_lambda(&lam, &row, &mut env, &catalog).unwrap();
    // The first evaluation grows the environment's binding stack.
    eval();
    let (out, n) = allocs(eval);
    assert_eq!(out, pair(5, 6));
    assert_eq!(n, 1);
}

#[test]
fn a_kernel_materialized_tuple_is_one_allocation_per_row() {
    let (lam, base) = (swizzle(), HashMap::new());
    let p = specialize_sampled(&[VecStageSpec::Map(&lam, &base)], &[pair(0, 0)])
        .expect("(x.0, x.1) over int pairs specializes");
    let rows: Vec<Value> = (0..16).map(|i| pair(i, -i)).collect();
    let mut s = p.new_scratch();
    let mut counts = vec![0; p.n_stages() + 1];
    let mut out = Vec::with_capacity(rows.len());
    // The first batch grows the scratch columns.
    assert!(p.run_batch(&rows, &mut s, &mut counts, &mut out));
    out.clear();
    let (ok, n) = allocs(|| p.run_batch(&rows, &mut s, &mut counts, &mut out));
    assert!(ok);
    assert_eq!(out, rows);
    assert_eq!(n, rows.len() as u64);
}

/// The output of a warm batch of the map `lam` as a kernel over `rows`, and
/// the allocations that batch made. The kernel is specialized against the
/// first row alone, so no string column is dictionary-encoded.
fn warm_kernel_batch(lam: &Lambda, rows: &[Value]) -> (Vec<Value>, u64) {
    let base = HashMap::new();
    let p = specialize_sampled(&[VecStageSpec::Map(lam, &base)], &rows[..1])
        .expect("the map specializes");
    let mut s = p.new_scratch();
    let mut counts = vec![0; p.n_stages() + 1];
    let mut out = Vec::with_capacity(rows.len());
    // The first batch grows the scratch columns.
    assert!(p.run_batch(rows, &mut s, &mut counts, &mut out));
    out.clear();
    let (ok, n) = allocs(|| p.run_batch(rows, &mut s, &mut counts, &mut out));
    assert!(ok);
    (out, n)
}

/// 16 `(i, "a<i>", "b<i>")` rows.
fn string_rows() -> Vec<Value> {
    let row = |i: i64| {
        [
            Value::Int(i),
            Value::str(format!("a{i}")),
            Value::str(format!("b{i}")),
        ]
    };
    (0..16).map(|i| Value::tuple(row(i))).collect()
}

fn str_arc(v: &Value) -> &Arc<str> {
    match v {
        Value::Str(s) => s,
        v => panic!("{v:?} is no string"),
    }
}

#[test]
fn a_kernel_output_shares_the_strings_it_forwards() {
    let x = || ScalarExpr::var("x");
    let lam = Lambda::new(["x"], ScalarExpr::Tuple(vec![x().get(0), x().get(2)]));
    let rows = string_rows();
    let (out, n) = warm_kernel_batch(&lam, &rows);
    assert_eq!(n, rows.len() as u64, "one tuple per row, no string copy");
    for (o, r) in out.iter().zip(&rows) {
        assert_eq!(o.field(0).unwrap(), r.field(0).unwrap());
        let (o, r) = (str_arc(o.field(1).unwrap()), str_arc(r.field(2).unwrap()));
        assert!(Arc::ptr_eq(o, r), "{o} is a copy of its input");
    }
}

#[test]
fn a_kernel_output_shares_its_string_literal() {
    let lam = Lambda::new(
        ["x"],
        ScalarExpr::Tuple(vec![ScalarExpr::var("x").get(0), ScalarExpr::lit("spam")]),
    );
    let rows = string_rows();
    let (out, n) = warm_kernel_batch(&lam, &rows);
    assert_eq!(n, rows.len() as u64, "one tuple per row, no string copy");
    let first = str_arc(out[0].field(1).unwrap());
    assert_eq!(&**first, "spam");
    for o in &out {
        assert!(Arc::ptr_eq(str_arc(o.field(1).unwrap()), first));
    }
}

#[test]
fn a_kernel_output_shares_a_forwarded_tuple() {
    let x = || ScalarExpr::var("x");
    let lam = Lambda::new(["x"], ScalarExpr::Tuple(vec![x().get(0), x()]));
    let nested = |i: i64| Value::tuple([Value::Int(i), Value::str(format!("s{i}"))]);
    // Odd rows are wider than the sampled first one, and forward whole, as
    // the interpreter forwards them.
    let rows: Vec<Value> = (0..16)
        .map(|i| match i % 2 {
            0 => Value::tuple([Value::Int(i), nested(i)]),
            _ => Value::tuple([Value::Int(i), nested(i), Value::Null]),
        })
        .collect();
    let (out, n) = warm_kernel_batch(&lam, &rows);
    assert_eq!(n, rows.len() as u64, "one tuple per row, no copy of `x`");
    for (o, r) in out.iter().zip(&rows) {
        assert_eq!(o.field(1).unwrap(), r);
        let (Value::Tuple(o), Value::Tuple(r)) = (o.field(1).unwrap(), r) else {
            panic!("{o:?} forwards no tuple");
        };
        assert!(Arc::ptr_eq(o, r));
    }
}

#[test]
fn a_string_key_kernel_makes_no_allocation_per_row() {
    // `x -> x.1`: the shape of a string key the key path evaluates.
    let lam = Lambda::new(["x"], ScalarExpr::var("x").get(1));
    let rows = string_rows();
    let (out, n) = warm_kernel_batch(&lam, &rows);
    assert_eq!(n, 0);
    for (o, r) in out.iter().zip(&rows) {
        assert!(Arc::ptr_eq(str_arc(o), str_arc(r.field(1).unwrap())));
    }
}

/// Tuples (and a few values around them) whose hash and `Debug` text are
/// pinned below.
fn pinned_values() -> Vec<Value> {
    vec![
        Value::tuple(Vec::new()),
        Value::tuple(vec![Value::Int(7)]),
        Value::tuple(vec![Value::Int(1), Value::str("x")]),
        Value::tuple(vec![Value::Float(0.0), Value::Float(-0.0)]),
        Value::tuple(vec![Value::Float(f64::NAN), Value::Int(3)]),
        Value::tuple(vec![
            Value::tuple(vec![
                Value::Int(1),
                Value::tuple(vec![Value::Float(2.5), Value::str("é")]),
            ]),
            Value::Null,
            Value::Bool(true),
        ]),
        Value::tuple(vec![
            Value::Int(-4),
            Value::vector(vec![0.5, -0.0, f64::NAN]),
        ]),
        Value::vector(Vec::new()),
        Value::vector(vec![1.0, 2.0]),
        Value::tuple(vec![
            Value::str("k"),
            Value::bag(vec![pair(1, 2), pair(3, 4)]),
        ]),
        Value::tuple(vec![Value::Int(i64::MIN), Value::Float(f64::INFINITY)]),
    ]
}

/// `value_hash` and `Debug` of [`pinned_values`], recorded while tuples and
/// vectors were still `Arc<Vec<_>>`.
const PINS: [(u64, &str); 11] = [
    (0x6827421e1ca757fa, "Tuple([])"),
    (0xb2ed05e9bf61103f, "Tuple([Int(7)])"),
    (0xf4322169720745e2, "Tuple([Int(1), Str(\"x\")])"),
    (0x3b6ca2f00f78f3fd, "Tuple([Float(0.0), Float(-0.0)])"),
    (0x6a35b57c95c27813, "Tuple([Float(NaN), Int(3)])"),
    (
        0x9048a76b3f3c1dc0,
        "Tuple([Tuple([Int(1), Tuple([Float(2.5), Str(\"é\")])]), Null, Bool(true)])",
    ),
    (
        0x2d54b7ab4a0929b3,
        "Tuple([Int(-4), Vector([0.5, -0.0, NaN])])",
    ),
    (0xe42ac84d0dce8937, "Vector([])"),
    (0x4a8cdff3e2a09efb, "Vector([1.0, 2.0])"),
    (
        0x676b283e7a683a8b,
        "Tuple([Str(\"k\"), Bag([Tuple([Int(1), Int(2)]), Tuple([Int(3), Int(4)])])])",
    ),
    (
        0xaf456ed2ecfba6c5,
        "Tuple([Int(-9223372036854775808), Float(inf)])",
    ),
];

#[test]
fn hash_and_debug_are_pinned() {
    let values = pinned_values();
    assert_eq!(values.len(), PINS.len());
    for (v, (hash, debug)) in values.iter().zip(PINS) {
        assert_eq!(format!("{v:?}"), debug);
        assert_eq!(value_hash(v), hash, "{debug}");
    }
}

/// The allocations of one run of a fused int-keyed `aggBy` — `count` per
/// key over 2 048 `(key, 1)` rows in eight partitions of 256, on the calling
/// thread — where partition `p` holds the `per_part` keys from `16 p` on,
/// modulo 128. Every run ends in the same 128 groups; `per_part` sets how
/// many partials the combiners ship: 16 per partition cover each key once,
/// 32 cover each twice.
fn agg_by_allocs(per_part: i64) -> u64 {
    let rows = (0..2048)
        .map(|i| pair((i / 256 * 16 + i % per_part) % 128, 1))
        .collect();
    let catalog = Catalog::new().with("rows", rows);
    let x = ScalarExpr::var("x");
    let program = Program::new(vec![Stmt::write(
        "agg",
        BagExpr::AggBy {
            input: Box::new(BagExpr::read("rows")),
            key: Lambda::new(["x"], x.get(0)),
            fold: FoldOp::count(),
        },
    )]);
    let compiled = parallelize(&program, &OptimizerFlags::all());
    let engine = Engine::new(ClusterSpec::tiny(), Personality::sparrow());
    // The first run builds the catalog's blocks and the compile memos.
    engine.run(&compiled, &catalog).expect("runs");
    let (run, n) = allocs(|| engine.run(&compiled, &catalog).expect("runs"));
    assert_eq!(run.writes["agg"].len(), 128);
    n
}

#[test]
fn an_agg_by_partial_crosses_the_shuffle_without_a_block_of_its_own() {
    // Doubling the keys per partition adds 128 partials, and no block for
    // any of them: what grows is the combiners' and the merge's tables.
    let (few, many) = (agg_by_allocs(16), agg_by_allocs(32));
    assert!(
        many < few + 128 / 2,
        "{few} allocations with 128 partials, {many} with 256"
    );
}

/// [`agg_by_allocs`] over the Fig. 5 shape that fold-group fusion turns
/// into an `aggBy` — `groupBy(_.0).map(g => (g.0, g.1.map(_.1).min()))` —
/// whose partials carry a one-field tuple accumulator, the shape every
/// fused `groupBy` ships.
fn fused_group_by_allocs(per_part: i64) -> u64 {
    let rows = (0..2048)
        .map(|i| pair((i / 256 * 16 + i % per_part) % 128, i))
        .collect();
    let catalog = Catalog::new().with("rows", rows);
    let (x, g) = (ScalarExpr::var("x"), ScalarExpr::var("g"));
    let min = BagExpr::of_value(g.clone().get(1))
        .map(Lambda::new(["x"], x.clone().get(1)))
        .min();
    let program = Program::new(vec![Stmt::write(
        "agg",
        BagExpr::read("rows")
            .group_by(Lambda::new(["x"], x.get(0)))
            .map(Lambda::new(["g"], ScalarExpr::Tuple(vec![g.get(0), min]))),
    )]);
    let compiled = parallelize(&program, &OptimizerFlags::all());
    assert_eq!(compiled.report.fold_group_fused, 1, "{:?}", compiled.report);
    let engine = Engine::new(ClusterSpec::tiny(), Personality::sparrow());
    engine.run(&compiled, &catalog).expect("runs");
    let (run, n) = allocs(|| engine.run(&compiled, &catalog).expect("runs"));
    assert_eq!(run.writes["agg"].len(), 128);
    n
}

#[test]
fn a_fused_group_by_partial_crosses_the_shuffle_without_a_block_of_its_own() {
    // As for a bare `count`: 128 more partials, and no accumulator tuple
    // for any of them.
    let (few, many) = (fused_group_by_allocs(16), fused_group_by_allocs(32));
    assert!(
        many < few + 128 / 2,
        "{few} allocations with 128 partials, {many} with 256"
    );
}
