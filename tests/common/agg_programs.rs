//! Shared proptest generator for whole `filter → groupBy → folds` programs —
//! the shape fold-group fusion turns into one fused `aggBy` — used by the
//! columnar-aggregation differential suite via a `#[path]` include.
//!
//! Rows are 6-slot tuples `(Int, Str, Str, Float, Int, Float)`: slots 0–3
//! feed grouping keys (int, string, tuple-of-string, float incl. `NaN` and
//! `-0.0`), slots 4–5 feed the folds. The fold menu mixes every slot-wise
//! combiner the aggregation kernels recognize (sum/count/min/max/
//! exists/forall, plus wrapping `i64` sums and products written as custom
//! folds) with one deliberately fallible element function (a division whose
//! divisor column contains zeros).
//!
//! Depends only on `emma_compiler` and `proptest`.

#![allow(dead_code)]

use emma_compiler::bag_expr::BagExpr;
use emma_compiler::expr::{FoldOp, Lambda, ScalarExpr};
use emma_compiler::program::{Program, Stmt};
use emma_compiler::value::Value;
use proptest::prelude::*;

/// Slot of the `Int` fold input.
pub const VI: usize = 4;
/// Slot of the `Float` fold input.
pub const VF: usize = 5;

fn x() -> ScalarExpr {
    ScalarExpr::var("x")
}

fn key_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::NAN),
        Just(1.5f64),
        Just(-2.5f64),
        Just(f64::INFINITY),
    ]
}

/// Fold inputs: mostly small, with the `i64` extremes that make integer
/// sums and products wrap.
fn value_int() -> impl Strategy<Value = i64> {
    prop_oneof![
        -50i64..=50,
        -50i64..=50,
        Just(i64::MAX),
        Just(i64::MIN),
        Just(i64::MAX / 2),
    ]
}

/// Fold inputs: a modest range (so float sums agree across association
/// orders within tolerance) plus `NaN`, both zeros and `+inf`.
fn value_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        -100.0f64..100.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
        Just(f64::NAN),
        Just(-0.0f64),
        Just(0.0f64),
        Just(f64::INFINITY),
    ]
}

fn key_string() -> impl Strategy<Value = String> {
    prop_oneof![Just(String::new()), "[ab]{1,2}", Just("héllo".to_string())]
}

/// A conforming row: `(Int, Str, Str, Float, Int, Float)`.
pub fn agg_row() -> impl Strategy<Value = Value> {
    (
        -3i64..=3,
        key_string(),
        key_string(),
        key_float(),
        value_int(),
        value_float(),
    )
        .prop_map(|(ki, s1, s2, kf, vi, vf)| {
            Value::tuple(vec![
                Value::Int(ki),
                Value::str(s1),
                Value::str(s2),
                Value::Float(kf),
                Value::Int(vi),
                Value::Float(vf),
            ])
        })
}

/// [`agg_row`], except that now and then the `Int` fold input arrives as a
/// `Float` — a mixed column that no scalar fold minds but that forces the
/// columnar tier to abort mid-partition and replay.
pub fn mixed_agg_row() -> impl Strategy<Value = Value> {
    (agg_row(), 0u8..16).prop_map(|(row, roll)| match (&row, roll) {
        (Value::Tuple(fs), 0) => {
            let mut fs = fs.to_vec();
            if let Value::Int(i) = fs[VI] {
                fs[VI] = Value::Float((i % 1000) as f64 + 0.5);
            }
            Value::tuple(fs)
        }
        _ => row,
    })
}

/// One of the five grouping-key shapes over the key slots.
pub fn key_body() -> impl Strategy<Value = ScalarExpr> {
    prop_oneof![
        Just(x().get(0)),
        Just(x().get(1)),
        Just(ScalarExpr::Tuple(vec![x().get(1), x().get(2)])),
        Just(x().get(3)),
        Just(ScalarExpr::Tuple(vec![x().get(0), x().get(1)])),
    ]
}

/// A filter over the `Int` fold input (sometimes keeping everything).
pub fn filter_body() -> impl Strategy<Value = ScalarExpr> {
    (-60i64..=10).prop_map(|c| x().get(VI).ge(ScalarExpr::lit(Value::Int(c))))
}

fn values_of_group() -> BagExpr {
    BagExpr::of_value(ScalarExpr::var("g").get(1))
}

fn project(slot: usize) -> BagExpr {
    values_of_group().map(Lambda::new(["x"], x().get(slot)))
}

fn wrapping(op_is_mul: bool) -> FoldOp {
    let (a, b) = (ScalarExpr::var("a"), ScalarExpr::var("b"));
    FoldOp::custom(
        ScalarExpr::lit(Value::Int(i64::from(op_is_mul))),
        Lambda::new(["x"], ScalarExpr::var("x")),
        Lambda::new(["a", "b"], if op_is_mul { a.mul(b) } else { a.add(b) }),
    )
}

/// Fold number `which` of the menu, as a scalar over the group variable `g`.
/// `13` is the fallible one: `sum(x.5 / x.4)` divides by the zeros of the
/// `Int` column.
pub fn fold_expr(which: u8, c: i64) -> ScalarExpr {
    let lit = ScalarExpr::lit(Value::Int(c));
    match which {
        // A float sum over ints; the small key ints keep it exact, where the
        // `i64` extremes of slot 4 would cancel catastrophically.
        0 => project(0).sum(),
        1 => project(VF).sum(),
        2 => values_of_group().count(),
        3 => project(VI).min(),
        4 => project(VI).max(),
        5 => project(VF).min(),
        6 => project(VF).max(),
        7 => values_of_group().exists(Lambda::new(["x"], x().get(VI).gt(lit))),
        8 => values_of_group().forall(Lambda::new(["x"], x().get(VF).le(lit))),
        9 => project(VI).fold(wrapping(false)),
        10 => project(VI).fold(wrapping(true)),
        11 => values_of_group()
            .map(Lambda::new(
                ["x"],
                x().get(VF)
                    .mul(ScalarExpr::lit(Value::Float(1.0)).sub(x().get(VF))),
            ))
            .sum(),
        12 => values_of_group().is_empty(),
        _ => values_of_group()
            .map(Lambda::new(["x"], x().get(VF).div(x().get(VI))))
            .sum(),
    }
}

/// 1–10 folds from the infallible part of the menu.
pub fn fold_list() -> impl Strategy<Value = Vec<ScalarExpr>> {
    prop::collection::vec((0u8..13, -40i64..=40), 1..11)
        .prop_map(|picks| picks.into_iter().map(|(w, c)| fold_expr(w, c)).collect())
}

/// The program under test: `rows.filter(p).groupBy(key)` mapped to
/// `(key, fold_1, …, fold_n)`, written to sink `"agg"`.
pub fn agg_program(filter: ScalarExpr, key: ScalarExpr, folds: Vec<ScalarExpr>) -> Program {
    let mut head = vec![ScalarExpr::var("g").get(0)];
    head.extend(folds);
    Program::new(vec![Stmt::write(
        "agg",
        BagExpr::read("rows")
            .filter(Lambda::new(["x"], filter))
            .group_by(Lambda::new(["x"], key))
            .map(Lambda::new(["g"], ScalarExpr::Tuple(head))),
    )])
}
