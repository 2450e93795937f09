//! Differential property tests across the two evaluation tiers: the typed
//! batch kernels ([`emma_compiler::vectorized`], lowered from the quoted UDF
//! tree) must agree with the reference interpreter
//! ([`emma_compiler::interp`]) on every batch they accept. The interpreter
//! is the executable specification; this suite throws randomly
//! generated (and mostly ill-typed) expression trees at the kernels and
//! demands bit-for-bit equal results, covering the error paths hand-written
//! tests rarely reach: type mismatches, division by zero, out-of-range
//! field access, unbound variables, and shadowing through fold binders.
//! The kernels' contract is *soundness*: a batch either evaluates
//! columnar-exactly (identical rows, identical per-stage counts) or aborts
//! with its outputs untouched so the caller can replay it row-at-a-time on
//! the interpreter — reproducing the first error in evaluation order.

use std::collections::HashMap;

use emma_compiler::bag_expr::{BagExpr, BagLambda};
use emma_compiler::expr::{BuiltinFn, FoldKind, FoldOp, Lambda, ScalarExpr};
use emma_compiler::interp::{self, Catalog, Env};
use emma_compiler::value::{Value, ValueError};
use emma_compiler::vectorized::{specialize_sampled, VecStageSpec};
use proptest::prelude::*;

#[path = "../../../tests/common/string_exprs.rs"]
mod string_exprs;

/// Variable pool the generator draws from. `x`/`y` are lambda parameters,
/// `b0`/`b1` come from the broadcast base scope, `e` is only ever bound by a
/// generated fold binder (unbound elsewhere), and `miss` is never bound —
/// so both unbound-variable handling and shadowing get exercised.
const VARS: [&str; 6] = ["x", "y", "b0", "b1", "e", "miss"];

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-8i64..=8).prop_map(Value::Int),
        prop_oneof![
            Just(-2.5f64),
            Just(0.0f64),
            Just(1.5f64),
            Just(4.0f64),
            Just(9.0f64)
        ]
        .prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::str),
        prop::collection::vec((-4i64..=4).prop_map(Value::Int), 0..3).prop_map(Value::tuple),
        // A row that carries nested bags: `x.0` and `x.1.0` are bags of
        // mixed elements, `x.1.1` is not a bag, `x.2` is out of range.
        (nested_bag_strategy(), nested_bag_strategy())
            .prop_map(|(a, b)| { Value::tuple(vec![a, Value::tuple(vec![b, Value::Int(9)])]) }),
    ]
}

/// Nested bags of every input class the closed-form folds must survive:
/// empty, singleton, ints, floats, and mixed types that make `uni` raise.
fn nested_bag_strategy() -> impl Strategy<Value = Value> {
    let elem = prop_oneof![
        (-4i64..=4).prop_map(Value::Int),
        (-4i64..=4).prop_map(Value::Int),
        prop_oneof![Just(-2.5f64), Just(0.0f64), Just(1.5f64)].prop_map(Value::Float),
        Just(Value::str("s")),
        Just(Value::Null),
    ];
    prop::collection::vec(elem, 0..5).prop_map(Value::bag)
}

fn leaf_strategy() -> impl Strategy<Value = ScalarExpr> {
    prop_oneof![
        value_strategy().prop_map(ScalarExpr::lit),
        (0usize..VARS.len()).prop_map(|i| ScalarExpr::var(VARS[i])),
    ]
}

/// Every `FoldOp` constructor, `f` filling the ones that take a lambda. The
/// two customs are shapes no closed form may claim: a `sng` that must run
/// under a `uni` that is not one operator, and a `uni` that is one operator
/// over its parameters *swapped*.
fn fold_ops(f: &Lambda) -> Vec<FoldOp> {
    let (a, b) = (|| ScalarExpr::var("a"), || ScalarExpr::var("b"));
    vec![
        FoldOp::sum(),
        FoldOp::count(),
        FoldOp::min(),
        FoldOp::max(),
        FoldOp::exists(f.clone()),
        FoldOp::forall(f.clone()),
        FoldOp::is_empty(),
        FoldOp::min_by(f.clone()),
        FoldOp::max_by(f.clone()),
        FoldOp::banana_split(&[FoldOp::sum(), FoldOp::count()]),
        FoldOp::custom(
            ScalarExpr::lit(1i64),
            f.clone(),
            Lambda::new(["a", "b"], a().add(b().mul(ScalarExpr::lit(2i64)))),
        ),
        FoldOp::custom(
            ScalarExpr::lit(0i64),
            Lambda::new(["e"], ScalarExpr::var("e")),
            Lambda::new(["a", "b"], b().sub(a())),
        ),
    ]
}

/// `root` as a fold source: bare, or under a `map` / `filter` chain.
fn fold_sources(root: BagExpr, body: &ScalarExpr, pred: &ScalarExpr) -> Vec<BagExpr> {
    let el = || Lambda::new(["e"], body.clone());
    let p = || Lambda::new(["e"], pred.clone());
    vec![
        root.clone(),
        root.clone().map(el()),
        root.clone().filter(p()),
        root.clone().filter(p()).map(el()),
        root.map(el()).filter(p()),
    ]
}

/// A fold whose input bag, binder lambda, and aggregate are all drawn from
/// generated parts: every [`fold_ops`] constructor over every
/// [`fold_sources`] chain rooted at a literal bag, a captured bag (`b0`), a
/// captured non-bag (`b1`), an unbound name, or a field path into the row.
/// The binder is named `e`, shadowing any outer `e`.
fn fold_strategy(inner: BoxedStrategy<ScalarExpr>) -> impl Strategy<Value = ScalarExpr> {
    let root = prop_oneof![
        prop::collection::vec((-5i64..=5).prop_map(Value::Int), 0..4).prop_map(BagExpr::values),
        Just(BagExpr::Ref { name: "b0".into() }),
        Just(BagExpr::Ref { name: "b1".into() }),
        Just(BagExpr::Ref {
            name: "miss".into()
        }),
        (0usize..3).prop_map(|i| BagExpr::of_value(ScalarExpr::var("x").get(i))),
        (0usize..2).prop_map(|j| BagExpr::of_value(ScalarExpr::var("x").get(1).get(j))),
    ];
    let n_ops = fold_ops(&Lambda::new(["e"], ScalarExpr::var("e"))).len();
    (
        root,
        inner.clone(),
        inner.clone(),
        inner,
        0..n_ops + 2,
        0usize..5,
    )
        .prop_map(|(root, body, pred, key, which, chain)| {
            let source = fold_sources(root.clone(), &body, &pred).swap_remove(chain);
            match fold_ops(&Lambda::new(["e"], key)).into_iter().nth(which) {
                Some(op) => source.fold(op),
                None if which % 2 == 0 => root
                    .flat_map(BagLambda::new("e", BagExpr::of_value(body)))
                    .fold(FoldOp::max()),
                None => ScalarExpr::BagOf(Box::new(source.distinct())),
            }
        })
}

fn expr_strategy() -> BoxedStrategy<ScalarExpr> {
    leaf_strategy().prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            // Binary operators, including the ones with error cases.
            (inner.clone(), inner.clone(), 0u8..13).prop_map(|(a, b, op)| match op {
                0 => a.add(b),
                1 => a.sub(b),
                2 => a.mul(b),
                3 => a.div(b),
                4 => a.rem(b),
                5 => a.eq(b),
                6 => a.ne(b),
                7 => a.lt(b),
                8 => a.le(b),
                9 => a.gt(b),
                10 => a.ge(b),
                11 => a.and(b),
                _ => a.or(b),
            }),
            inner.clone().prop_map(|a| a.not()),
            (inner.clone(), 0usize..3).prop_map(|(a, i)| a.get(i)),
            (inner.clone(), 0u8..4).prop_map(|(a, f)| match f {
                0 => ScalarExpr::call(BuiltinFn::Abs, vec![a]),
                1 => ScalarExpr::call(BuiltinFn::Sqrt, vec![a]),
                2 => ScalarExpr::call(BuiltinFn::StrLen, vec![a]),
                _ => ScalarExpr::call(BuiltinFn::HashOf, vec![a]),
            }),
            (inner.clone(), inner.clone(), 0u8..3).prop_map(|(a, b, f)| match f {
                0 => ScalarExpr::call(BuiltinFn::MinOf, vec![a, b]),
                1 => ScalarExpr::call(BuiltinFn::MaxOf, vec![a, b]),
                _ => ScalarExpr::call(BuiltinFn::StrContains, vec![a, b]),
            }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| ScalarExpr::If(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
            prop::collection::vec(inner.clone(), 0..3).prop_map(ScalarExpr::Tuple),
            fold_strategy(inner),
        ]
    })
}

fn base_scope() -> HashMap<String, Value> {
    let mut base = HashMap::new();
    base.insert(
        "b0".to_string(),
        Value::bag(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
    );
    base.insert("b1".to_string(), Value::Int(7));
    base
}

/// The interpreter's outcome for `lam` on `args` over `base`: the spec the
/// kernels are held to.
fn interpret(
    lam: &Lambda,
    args: &[Value],
    base: &HashMap<String, Value>,
) -> Result<Value, ValueError> {
    let catalog = Catalog::new().with("xs", (0..6).map(Value::Int).collect::<Vec<_>>());
    interp::eval_lambda(lam, args, &mut Env::new(base), &catalog)
}

/// Runs a single Map/Filter stage over `rows` through the vectorized tier
/// (when it specializes on the first row) and checks its soundness contract
/// against the interpreter:
///
/// * `run_batch` returned `true` → every row's interpreted evaluation is
///   `Ok`, the batch output reproduces the interpreter's results
///   bit-for-bit, and the per-stage counts equal what the row-at-a-time
///   loop would have counted;
/// * `run_batch` returned `false` → `counts` and `out` are untouched, so
///   the caller's row-at-a-time replay starts from a clean slate.
///
/// Also re-runs the same batch on the same scratch, since the engine reuses
/// scratch buffers across batches within a task.
fn assert_vectorized_sound(
    lam: &Lambda,
    rows: &[Value],
    filter: bool,
    sample_all: bool,
) -> Result<(), TestCaseError> {
    let base = base_scope();
    let catalog = Catalog::new().with("xs", (0..6).map(Value::Int).collect::<Vec<_>>());

    let stage = if filter {
        VecStageSpec::Filter(lam, &base)
    } else {
        VecStageSpec::Map(lam, &base)
    };
    // `sample_all` feeds the whole batch to the driver-side sample, which is
    // what turns the string dictionary heuristic on; the single-row sample
    // mirrors the engine's minimum. Shape always comes from the first row.
    let sample = if sample_all { rows } else { &rows[..1] };
    // Most generated programs are not specializable; that is the
    // interpreter's job and is not a soundness question.
    let Some(vp) = specialize_sampled(&[stage], sample) else {
        return Ok(());
    };

    // Interpreter reference, row at a time, on one reused environment —
    // exactly what the engine's fallback replay does.
    let mut env = Env::new(&base);
    let scalar: Vec<Result<Value, ValueError>> = rows
        .iter()
        .map(|r| interp::eval_lambda(lam, std::slice::from_ref(r), &mut env, &catalog))
        .collect();

    let mut scratch = vp.new_scratch();
    let mut counts = vec![0u64; vp.n_stages() + 1];
    let mut out = Vec::new();
    let ok = vp.run_batch(rows, &mut scratch, &mut counts, &mut out);

    if !ok {
        prop_assert!(out.is_empty(), "aborted batch must leave output untouched");
        prop_assert!(
            counts.iter().all(|&c| c == 0),
            "aborted batch must leave counts untouched"
        );
        return Ok(());
    }

    let n = rows.len() as u64;
    if filter {
        let mut kept = Vec::new();
        for (row, res) in rows.iter().zip(&scalar) {
            match res {
                Ok(Value::Bool(true)) => kept.push(row.clone()),
                Ok(Value::Bool(false)) => {}
                other => prop_assert!(
                    false,
                    "vectorized filter accepted a batch whose scalar predicate \
                     yields {:?} on {:?}",
                    other,
                    row
                ),
            }
        }
        prop_assert_eq!(&out, &kept, "filter output diverges from scalar keep-set");
        prop_assert_eq!(
            &counts,
            &vec![n, kept.len() as u64],
            "filter counts diverge from scalar loop"
        );
    } else {
        let mut want = Vec::new();
        for (row, res) in rows.iter().zip(&scalar) {
            match res {
                Ok(v) => want.push(v.clone()),
                Err(e) => prop_assert!(
                    false,
                    "vectorized map accepted a batch whose scalar evaluation \
                     fails with {:?} on {:?}",
                    e,
                    row
                ),
            }
        }
        prop_assert_eq!(&out, &want, "map output diverges from scalar tier");
        prop_assert_eq!(&counts, &vec![n, n], "map counts diverge from scalar loop");
    }

    // Scratch reuse: a second identical batch must append, not corrupt.
    let ok2 = vp.run_batch(rows, &mut scratch, &mut counts, &mut out);
    prop_assert!(ok2, "same batch must stay evaluable on reused scratch");
    prop_assert_eq!(
        out.len() as u64,
        counts[vp.n_stages()],
        "second batch must append the same output rows"
    );
    prop_assert_eq!(
        &out[..out.len() / 2],
        &out[out.len() / 2..],
        "reused scratch must not perturb results"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn vectorized_map_matches_scalar_tiers(
        body in expr_strategy(),
        rows in prop::collection::vec(value_strategy(), 1..12),
    ) {
        let lam = Lambda::new(["x"], body);
        assert_vectorized_sound(&lam, &rows, false, false)?;
    }

    #[test]
    fn vectorized_filter_matches_scalar_tiers(
        body in expr_strategy(),
        rows in prop::collection::vec(value_strategy(), 1..12),
    ) {
        let lam = Lambda::new(["x"], body);
        assert_vectorized_sound(&lam, &rows, true, false)?;
    }

    // Same-shaped numeric tuples specialize far more often than fully
    // random values, so this variant drives the kernels (not just the
    // shape-mismatch abort) and the branch-masking machinery hard.
    #[test]
    fn vectorized_map_matches_scalar_tiers_on_homogeneous_batches(
        body in expr_strategy(),
        rows in prop::collection::vec(
            ((-8i64..=8), prop_oneof![Just(-2.5f64), Just(0.0), Just(1.5)], any::<bool>())
                .prop_map(|(i, f, b)| Value::tuple(vec![
                    Value::Int(i), Value::Float(f), Value::Bool(b),
                ])),
            1..24,
        ),
    ) {
        let lam = Lambda::new(["x"], body);
        assert_vectorized_sound(&lam, &rows, false, false)?;
    }

    // String-bearing bodies from the shared typed generator: mostly
    // specializable, so the string kernels (not just the refusal path) run
    // against the scalar tiers. Conforming rows drive the kernels and the
    // dictionary encoding; chaotic rows drive shape aborts and replays.
    #[test]
    fn vectorized_string_map_matches_scalar_tiers(
        body in string_exprs::map_body(),
        rows in prop::collection::vec(string_exprs::string_row(), 1..24),
        sample_all in any::<bool>(),
    ) {
        let lam = Lambda::new(["x"], body);
        assert_vectorized_sound(&lam, &rows, false, sample_all)?;
    }

    #[test]
    fn vectorized_string_filter_matches_scalar_tiers(
        body in string_exprs::bool_expr(2),
        rows in prop::collection::vec(string_exprs::chaotic_row(), 1..24),
        sample_all in any::<bool>(),
    ) {
        let lam = Lambda::new(["x"], body);
        assert_vectorized_sound(&lam, &rows, true, sample_all)?;
    }

    #[test]
    fn vectorized_string_keys_match_scalar_tiers(
        body in string_exprs::key_body(),
        rows in prop::collection::vec(string_exprs::chaotic_row(), 1..24),
    ) {
        // Key extraction lowers as a single Map stage; its soundness
        // contract is the same as any map's.
        let lam = Lambda::new(["x"], body);
        assert_vectorized_sound(&lam, &rows, false, true)?;
    }
}

/// The engine replays an aborted batch row-at-a-time through the
/// interpreter. This must surface the first error *in evaluation order*:
/// the error of the earliest erroring row — not the error raised by the
/// textually earliest instruction anywhere in the batch. Here row 0 fails
/// late in its program (`%` by zero) while row 1 fails early (`/` by zero);
/// the replayed error must be row 0's.
#[test]
fn batch_abort_replay_reproduces_first_error_in_row_order() {
    let x = || ScalarExpr::var("x");
    let body = x().get(0).div(x().get(1)).add(x().get(2).rem(x().get(3)));
    let lam = Lambda::new(["x"], body);

    let rows = vec![
        // div fine (1.0 / 2.0), rem errors (1 % 0): fails at the later op.
        Value::tuple(vec![
            Value::Float(1.0),
            Value::Float(2.0),
            Value::Int(1),
            Value::Int(0),
        ]),
        // div errors (1.0 / 0.0): fails at the earlier op.
        Value::tuple(vec![
            Value::Float(1.0),
            Value::Float(0.0),
            Value::Int(1),
            Value::Int(2),
        ]),
    ];

    let base = base_scope();
    let catalog = Catalog::new();
    let spec = [VecStageSpec::Map(&lam, &base)];
    let vp = specialize_sampled(&spec, std::slice::from_ref(&rows[0]))
        .expect("float/int arithmetic over a numeric tuple must specialize");

    let mut scratch = vp.new_scratch();
    let mut counts = vec![0u64; vp.n_stages() + 1];
    let mut out = Vec::new();
    assert!(
        !vp.run_batch(&rows, &mut scratch, &mut counts, &mut out),
        "a selected erroring lane must abort the batch"
    );
    assert!(out.is_empty() && counts.iter().all(|&c| c == 0));

    // Row-at-a-time replay, as the engine performs it.
    let mut env = Env::new(&base);
    let replayed = rows
        .iter()
        .map(|r| interp::eval_lambda(&lam, std::slice::from_ref(r), &mut env, &catalog))
        .collect::<Result<Vec<_>, _>>()
        .expect_err("replay must surface an error");
    let row0_alone = interpret(&lam, std::slice::from_ref(&rows[0]), &base)
        .expect_err("row 0 errors on its own");
    assert_eq!(
        replayed, row0_alone,
        "replay must report the earliest erroring *row*, not the earliest \
         erroring instruction in the batch"
    );
    assert!(
        matches!(&replayed, ValueError::Arithmetic(m) if m.contains("modulo")),
        "row 0 fails at the modulo, got {replayed:?}"
    );
}

/// The whole grid the generator samples from, walked cell by cell: every
/// [`fold_ops`] constructor × every [`fold_sources`] chain over a field path
/// into the row and over a captured bag × every input class, with a benign
/// and a raising element function. The raising one fails at position 2 of
/// the `raiser` input with a modulo by zero and at position 3 with a type
/// mismatch, so a tier that evaluates elements out of order, or skips one it
/// should have run, reports the wrong error.
#[test]
fn fold_grid_agrees_on_values_and_errors() {
    let e = || ScalarExpr::var("e");
    let inputs = [
        ("empty", Value::bag(vec![])),
        ("singleton", Value::bag(vec![Value::Int(5)])),
        ("ints", Value::bag([3i64, 1, 2].map(Value::Int))),
        ("floats", Value::bag([1.5, -2.5, 4.0].map(Value::Float))),
        (
            "mixed",
            Value::bag(vec![
                Value::Int(1),
                Value::str("s"),
                Value::Float(2.0),
                Value::Bool(true),
            ]),
        ),
        ("non-bag", Value::Int(7)),
        (
            "raiser",
            Value::bag(vec![
                Value::Int(4),
                Value::Int(2),
                Value::Int(0),
                Value::str("s"),
                Value::Int(1),
            ]),
        ),
    ];
    let element_fns = [
        (
            e().mul(ScalarExpr::lit(2i64)),
            e().gt(ScalarExpr::lit(1i64)),
        ),
        (
            ScalarExpr::lit(12i64).rem(e()),
            ScalarExpr::lit(12i64).rem(e()).eq(ScalarExpr::lit(0i64)),
        ),
    ];
    let roots = [
        BagExpr::of_value(ScalarExpr::var("x").get(1).get(0)),
        BagExpr::Ref { name: "bag".into() },
    ];
    let (mut cells, mut values, mut errors) = (0, 0, 0);
    for (_, input) in &inputs {
        let row = Value::tuple(vec![
            Value::Int(0),
            Value::tuple(vec![input.clone(), Value::Int(9)]),
        ]);
        let mut base = base_scope();
        base.insert("bag".to_string(), input.clone());
        for (body, pred) in &element_fns {
            for root in &roots {
                for source in fold_sources(root.clone(), body, pred) {
                    for op in fold_ops(&Lambda::new(["e"], pred.clone())) {
                        let lam = Lambda::new(["x"], source.clone().fold(op));
                        match interpret(&lam, std::slice::from_ref(&row), &base) {
                            Ok(_) => values += 1,
                            Err(_) => errors += 1,
                        }
                        cells += 1;
                    }
                }
            }
        }
    }
    // The grid is only a test of both contracts if it reaches both.
    assert_eq!(cells, 7 * 2 * 2 * 5 * 12);
    assert!(
        values > cells / 4 && errors > cells / 4,
        "{values} values, {errors} errors"
    );

    // First-error order, pinned on one cell: the `raiser` input under a
    // raising `sng` fails at position 2, not at position 3.
    let lam = Lambda::new(
        ["x"],
        roots[0]
            .clone()
            .fold(FoldOp::exists(Lambda::new(["e"], element_fns[1].1.clone()))),
    );
    let row = Value::tuple(vec![Value::Int(0), Value::tuple(vec![inputs[6].1.clone()])]);
    let got = interpret(&lam, &[row], &base_scope());
    assert!(
        matches!(&got, Err(ValueError::Arithmetic(m)) if m.contains("modulo")),
        "position 2 raises first, got {got:?}"
    );
}

/// The naive reference for [`bag_operator_grid_agrees_with_a_linear_scan_reference`]:
/// each operator as a linear scan over plain vectors, its UDFs evaluated by
/// the interpreter one call at a time in `key`, `sng`, `uni` row order.
struct LinearScan<'a> {
    env: Env<'a>,
    catalog: Catalog,
}

impl<'a> LinearScan<'a> {
    fn call(&mut self, f: &'a Lambda, args: &[Value]) -> Result<Value, ValueError> {
        interp::eval_lambda(f, args, &mut self.env, &self.catalog)
    }

    fn group_by(&mut self, rows: &[Value], key: &'a Lambda) -> Result<Vec<Value>, ValueError> {
        let mut groups: Vec<(Value, Vec<Value>)> = Vec::new();
        for r in rows {
            let k = self.call(key, std::slice::from_ref(r))?;
            match groups.iter_mut().find(|(g, _)| *g == k) {
                Some((_, vs)) => vs.push(r.clone()),
                None => groups.push((k, vec![r.clone()])),
            }
        }
        let groups = groups.into_iter();
        Ok(groups
            .map(|(k, vs)| Value::tuple([k, Value::bag(vs)]))
            .collect())
    }

    fn agg_by(
        &mut self,
        rows: &[Value],
        key: &'a Lambda,
        fold: &'a FoldOp,
    ) -> Result<Vec<Value>, ValueError> {
        let zero = interp::eval_scalar(&fold.zero, &mut self.env, &self.catalog)?;
        let mut accs: Vec<(Value, Value)> = Vec::new();
        for r in rows {
            let k = self.call(key, std::slice::from_ref(r))?;
            let s = self.call(&fold.sng, std::slice::from_ref(r))?;
            match accs.iter().position(|(g, _)| *g == k) {
                Some(i) => accs[i].1 = self.call(&fold.uni, &[accs[i].1.clone(), s])?,
                None => {
                    let first = self.call(&fold.uni, &[zero.clone(), s])?;
                    accs.push((k, first));
                }
            }
        }
        Ok(accs
            .into_iter()
            .map(|(k, a)| Value::tuple([k, a]))
            .collect())
    }
}

fn linear_minus(left: &[Value], right: &[Value]) -> Vec<Value> {
    let mut budget = right.to_vec();
    let mut out = Vec::new();
    for x in left {
        match budget.iter().position(|y| y == x) {
            Some(i) => drop(budget.remove(i)),
            None => out.push(x.clone()),
        }
    }
    out
}

fn linear_distinct(rows: &[Value]) -> Vec<Value> {
    let mut out: Vec<Value> = Vec::new();
    for x in rows {
        if !out.contains(x) {
            out.push(x.clone());
        }
    }
    out
}

/// `groupBy`, `aggBy`, `minus`, `distinct` and `plus` nested inside a UDF
/// body, cell by cell: operator (two keys for `groupBy`; two keys × three
/// folds for `aggBy`) × bag source (a field of the row, a captured bag) ×
/// input (empty, singleton, interleaved duplicate keys, `Float` keys with
/// `0.0` / `-0.0` / `NaN` and an `Int` equal to a `Float`, `Str` keys, tuple
/// keys, and a raiser). The raiser's row 1 makes the second key raise
/// (`12 % 0`) and its row 2 makes the raising `sng` or `uni` raise (`"s"`
/// in arithmetic). Interpreter, scalar tier and [`LinearScan`] must agree
/// on the `Debug` of the result — so on values, first-seen group order, row
/// order inside a group and which of two equal keys represents the group —
/// and on the first error.
#[test]
fn bag_operator_grid_agrees_with_a_linear_scan_reference() {
    let kv = |k: Value, v: Value| Value::tuple([k, v]);
    let ints = |pairs: &[(i64, i64)]| -> Vec<Value> {
        pairs
            .iter()
            .map(|&(k, v)| kv(Value::Int(k), Value::Int(v)))
            .collect()
    };
    let inputs: Vec<(&str, Vec<Value>)> = vec![
        ("empty", vec![]),
        ("singleton", ints(&[(1, 10)])),
        (
            "interleaved",
            ints(&[
                (1, 10),
                (2, 20),
                (1, 11),
                (3, 30),
                (2, 21),
                (1, 10),
                (1, 10),
            ]),
        ),
        (
            "floats",
            [0.0, -0.0, f64::NAN, 1.0, 1.5, f64::NAN, -0.0]
                .iter()
                .enumerate()
                .map(|(i, &f)| kv(Value::Float(f), Value::Int(i as i64)))
                .chain([kv(Value::Int(1), Value::Int(7))])
                .collect(),
        ),
        (
            "strings",
            ["a", "b", "a", "", "b", "a"]
                .iter()
                .enumerate()
                .map(|(i, s)| kv(Value::str(s), Value::Int(i as i64)))
                .collect(),
        ),
        (
            "tuples",
            [(1, "a"), (1, "b"), (1, "a"), (2, "a")]
                .iter()
                .enumerate()
                .map(|(i, &(n, s))| {
                    kv(
                        Value::tuple([Value::Int(n), Value::str(s)]),
                        Value::Int(i as i64),
                    )
                })
                .collect(),
        ),
        (
            "raiser",
            vec![
                kv(Value::Int(3), Value::Int(1)),
                kv(Value::Int(0), Value::Int(2)),
                kv(Value::Int(2), Value::str("s")),
                kv(Value::Int(3), Value::Int(4)),
            ],
        ),
    ];
    let r = || ScalarExpr::var("r");
    let keys = [
        Lambda::new(["r"], r().get(0)),
        Lambda::new(["r"], ScalarExpr::lit(12i64).rem(r().get(0))),
    ];
    let (a, b) = (|| ScalarExpr::var("a"), || ScalarExpr::var("b"));
    let plus = || Lambda::new(["a", "b"], a().add(b()));
    let folds = [
        FoldOp::custom(
            ScalarExpr::lit(0i64),
            Lambda::new(["r"], r().get(1)),
            plus(),
        ),
        FoldOp::custom(
            ScalarExpr::lit(0i64),
            Lambda::new(["r"], r().get(1).mul(ScalarExpr::lit(2i64))),
            Lambda::new(["a", "b"], b().sub(a())),
        ),
        FoldOp::custom(
            ScalarExpr::Tuple(vec![]),
            Lambda::new(["r"], ScalarExpr::Tuple(vec![r().get(1)])),
            Lambda::new(
                ["a", "b"],
                ScalarExpr::Tuple(vec![a(), b().get(0).add(b().get(0))]),
            ),
        ),
    ];
    let roots = [
        BagExpr::of_value(ScalarExpr::var("x").get(0)),
        BagExpr::Ref { name: "bag".into() },
    ];
    let other = || BagExpr::Ref {
        name: "other".into(),
    };
    let (mut cells, mut values, mut errors) = (0, 0, 0);
    for (name, rows) in &inputs {
        // The subtrahend / addend: the first row twice, the second once and
        // a stranger, so `minus` spends a budget of two on a row the
        // interleaved input holds three times.
        let others: Vec<Value> = [rows.first(), rows.first(), rows.get(1)]
            .into_iter()
            .flatten()
            .cloned()
            .chain([Value::Int(99)])
            .collect();
        let mut base = base_scope();
        base.insert("bag".to_string(), Value::bag(rows.clone()));
        base.insert("other".to_string(), Value::bag(others.clone()));
        let row = Value::tuple([Value::bag(rows.clone()), Value::Int(0)]);
        let mut reference = LinearScan {
            env: Env::new(&base),
            catalog: Catalog::new(),
        };
        let mut ops: Vec<(String, BagExpr, Result<Vec<Value>, ValueError>)> = Vec::new();
        for root in &roots {
            for (ki, key) in keys.iter().enumerate() {
                let want = reference.group_by(rows, key);
                ops.push((
                    format!("groupBy k{ki}"),
                    root.clone().group_by(key.clone()),
                    want,
                ));
                for (fi, fold) in folds.iter().enumerate() {
                    let agg = BagExpr::AggBy {
                        input: Box::new(root.clone()),
                        key: key.clone(),
                        fold: fold.clone(),
                    };
                    let want = reference.agg_by(rows, key, fold);
                    ops.push((format!("aggBy k{ki} f{fi}"), agg, want));
                }
            }
            let mut plus = rows.clone();
            plus.extend(others.iter().cloned());
            ops.push((
                "minus".into(),
                root.clone().minus(other()),
                Ok(linear_minus(rows, &others)),
            ));
            ops.push((
                "distinct".into(),
                root.clone().distinct(),
                Ok(linear_distinct(rows)),
            ));
            ops.push(("plus".into(), root.clone().plus(other()), Ok(plus)));
        }
        for (op, expr, want) in ops {
            let lam = Lambda::new(["x"], ScalarExpr::BagOf(Box::new(expr)));
            let got = interpret(&lam, std::slice::from_ref(&row), &base);
            let want = want.map(Value::bag);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{op} on {name}: the tiers differ from the linear-scan reference"
            );
            match got {
                Ok(_) => values += 1,
                Err(_) => errors += 1,
            }
            cells += 1;
        }
    }
    assert_eq!(cells, 7 * 2 * (2 + 2 * 3 + 3));
    assert!(
        errors > 10 && values > cells / 2,
        "{values} values, {errors} errors"
    );

    // First-error order on the raiser: the raising key's row 1 comes before
    // the raising `sng`'s row 2; without it, row 2 raises.
    let raiser = Value::tuple([Value::bag(inputs[6].1.clone()), Value::Int(0)]);
    let agg = |key: &Lambda| {
        let input = Box::new(roots[0].clone());
        let fold = folds[1].clone();
        let agg = BagExpr::AggBy {
            input,
            key: key.clone(),
            fold,
        };
        Lambda::new(["x"], ScalarExpr::BagOf(Box::new(agg)))
    };
    let keyed = interpret(&agg(&keys[1]), std::slice::from_ref(&raiser), &base_scope());
    assert!(
        matches!(keyed, Err(ValueError::Arithmetic(m)) if m.contains("modulo")),
        "the key raises at row 1"
    );
    let plain = interpret(&agg(&keys[0]), &[raiser], &base_scope());
    assert!(
        matches!(&plain, Err(ValueError::TypeMismatch { .. })),
        "the sng raises at row 2, got {plain:?}"
    );
}

/// What a stage chain does to a batch of rows: the output rows plus the rows
/// that entered each stage (last = output rows), or the first error in row
/// order.
type Pass = Result<(Vec<Value>, Vec<u64>), ValueError>;

/// The row-at-a-time pass over a `(is_filter, lambda)` chain — the engine's
/// scalar loop — with `eval(stage, row)` supplying the tier.
fn scalar_pass(
    stages: &[(bool, Lambda)],
    rows: &[Value],
    mut eval: impl FnMut(usize, &Value) -> Result<Value, ValueError>,
) -> Pass {
    let mut counts = vec![0u64; stages.len() + 1];
    let mut out = Vec::new();
    'rows: for row in rows {
        let mut cur = row.clone();
        for (i, (filter, _)) in stages.iter().enumerate() {
            counts[i] += 1;
            let v = eval(i, &cur)?;
            if !*filter {
                cur = v;
            } else if !v.as_bool()? {
                continue 'rows;
            }
        }
        counts[stages.len()] += 1;
        out.push(cur);
    }
    Ok((out, counts))
}

/// Runs one grid cell through the interpreter and the kernels and holds
/// them to one outcome: values (compared through `Debug`, so `-0.0` is not `0.0`), the
/// first error in row order, and per-stage counts. The chain must
/// specialize, and its batch must abort exactly when a selected lane raises
/// — leaving `counts` and `out` untouched for the replay.
fn assert_cell(
    cell: &str,
    stages: &[(bool, Lambda)],
    rows: &[Value],
    base: &HashMap<String, Value>,
) -> Pass {
    let catalog = Catalog::new();
    let want = scalar_pass(stages, rows, |i, row| {
        interp::eval_lambda(
            &stages[i].1,
            std::slice::from_ref(row),
            &mut Env::new(base),
            &catalog,
        )
    });
    let specs: Vec<_> = stages
        .iter()
        .map(|(filter, lam)| match filter {
            true => VecStageSpec::Filter(lam, base),
            false => VecStageSpec::Map(lam, base),
        })
        .collect();
    let vp = specialize_sampled(&specs, rows).unwrap_or_else(|| panic!("{cell}: must specialize"));
    let mut scratch = vp.new_scratch();
    let mut counts = vec![0u64; vp.n_stages() + 1];
    let mut out = Vec::new();
    let ran = vp.run_batch(rows, &mut scratch, &mut counts, &mut out);
    assert_eq!(
        ran,
        want.is_ok(),
        "{cell}: a batch aborts iff a selected lane raises"
    );
    if ran {
        assert_eq!(
            format!("{want:?}"),
            format!("{:?}", Pass::Ok((out, counts))),
            "{cell}: kernels"
        );
    } else {
        assert!(
            out.is_empty() && counts.iter().all(|&c| c == 0),
            "{cell}: abort wrote outputs"
        );
    }
    want
}

/// Every kernel instantiation, by name: each `(operation, operand type)`
/// pair the builder can emit — arithmetic with Int/Float coercion, `Div` and
/// `Mod`, the six comparisons on Int / Float (NaN, ±0.0) / mixed / Bool /
/// Str, the logical and unary operators, the builtins, a nested bag's
/// `count`, string kernels over
/// plain and dictionary-encoded columns, constants and captures of every
/// column type including an opaque one, and `If` merges of each of the five
/// column types. The proptest suites draw these at random; the grid makes
/// each one a case that fails under its own name.
///
/// Each cell `K` runs (a) under the full selection, (b) inside one arm of an
/// `If` whose other arm would raise on exactly the lanes that take `K`'s,
/// (c) after a `Filter` stage that drops the one lane that would raise, and
/// (d) with that lane selected — alone, where the batch aborts only if `K`
/// itself divides by the lane's zero, and next to a kernel that always does.
#[test]
fn kernel_grid_agrees_on_values_errors_and_counts() {
    use BuiltinFn::*;
    let lit = |v: Value| ScalarExpr::Lit(v);
    let fld = |i: usize| ScalarExpr::var("x").get(i);
    let call = |f: BuiltinFn, args: &[&ScalarExpr]| {
        ScalarExpr::call(f, args.iter().map(|a| (*a).clone()).collect())
    };
    let ite = |c: &ScalarExpr, t: &ScalarExpr, e: &ScalarExpr| {
        ScalarExpr::If(
            Box::new(c.clone()),
            Box::new(t.clone()),
            Box::new(e.clone()),
        )
    };
    // The row: two Ints (`j` never 0), two Floats (`g` never 0), two Bools,
    // a high-cardinality Str (plain arena), a low-cardinality Str
    // (dictionary-encoded under the whole-batch sample), an opaque
    // component, `guard` (0 exactly where `p` holds), the divisors `z` /
    // `h` that are zero only on the poison row, and a nested bag.
    let [i, j, f, g, p, q, s, t, o, guard, z, h, b] = std::array::from_fn(fld);
    let ints = [0, 1, -7, i64::MAX, 42, -1, 6, i64::MAX - 1, 3, -100, 9, 2];
    let floats = [
        1.5,
        -0.0,
        0.0,
        f64::NAN,
        f64::INFINITY,
        -2.25,
        1e300,
        4.0,
        f64::NAN,
        0.5,
        -1.0,
        9.0,
    ];
    let gs = [
        2.0,
        0.5,
        f64::NAN,
        -1.0,
        f64::INFINITY,
        3.0,
        1.5,
        -0.25,
        f64::NAN,
        8.0,
        1e-300,
        9.0,
    ];
    let row = |n: usize, poison: bool| {
        let p = !n.is_multiple_of(3);
        Value::tuple(vec![
            Value::Int(ints[n]),
            Value::Int([3, -2, 5][n % 3]),
            Value::Float(floats[n]),
            Value::Float(gs[n]),
            Value::Bool(p),
            Value::Bool(n.is_multiple_of(2)),
            Value::str(format!("k{n}-{}", "ab".repeat(n % 4))),
            Value::str(["spam", "ham", ""][n % 3]),
            if n.is_multiple_of(2) {
                Value::Null
            } else {
                Value::vector(vec![n as f64])
            },
            Value::Int(!p as i64),
            Value::Int(if poison { 0 } else { 4 }),
            Value::Float(if poison { -0.0 } else { 0.5 }),
            Value::bag(vec![Value::Int(1); n % 3]),
        ])
    };
    let clean: Vec<Value> = (0..12).map(|n| row(n, false)).collect();
    let mut poisoned = clean.clone();
    poisoned.insert(5, row(5, true));

    let mut base = base_scope();
    base.insert("cI".into(), Value::Int(3));
    base.insert("cF".into(), Value::Float(-0.5));
    base.insert("cB".into(), Value::Bool(true));
    base.insert("cS".into(), Value::str("am"));
    base.insert("cV".into(), Value::bag(vec![Value::Int(1)]));
    base.insert(
        "cT".into(),
        Value::tuple(vec![Value::Int(2), Value::str("ham")]),
    );
    let cap = ScalarExpr::var;

    let mut cells: Vec<(String, ScalarExpr)> = Vec::new();
    let mut cell = |name: String, k: ScalarExpr| cells.push((name, k));
    type Bin = fn(ScalarExpr, ScalarExpr) -> ScalarExpr;
    let arith: [(&str, Bin); 4] = [
        ("add", ScalarExpr::add),
        ("sub", ScalarExpr::sub),
        ("mul", ScalarExpr::mul),
        ("div", ScalarExpr::div),
    ];
    let cmps: [(&str, Bin); 6] = [
        ("eq", ScalarExpr::eq),
        ("ne", ScalarExpr::ne),
        ("lt", ScalarExpr::lt),
        ("le", ScalarExpr::le),
        ("gt", ScalarExpr::gt),
        ("ge", ScalarExpr::ge),
    ];
    for (name, op) in arith {
        for (tys, l, r) in [
            ("II", &i, &j),
            ("FF", &f, &g),
            ("IF", &i, &g),
            ("FI", &f, &j),
        ] {
            cell(format!("{name} {tys}"), op(l.clone(), r.clone()));
        }
    }
    cell("mod II".into(), i.clone().rem(j.clone()));
    cell("mod I by z".into(), i.clone().rem(z.clone()));
    cell("div I by z".into(), i.clone().div(z.clone()));
    cell("div F by h".into(), f.clone().div(h.clone()));
    let zero = lit(Value::Float(0.0));
    let neg_zero = lit(Value::Float(-0.0));
    let spam = lit(Value::str("spam"));
    for (name, op) in cmps {
        for (tys, l, r) in [
            ("II", &i, &j),
            ("FF", &f, &g),
            ("F +0", &f, &zero),
            ("F -0", &f, &neg_zero),
            ("IF", &i, &f),
            ("FI", &g, &j),
            ("BB", &p, &q),
            ("SS", &s, &t),
            ("S const", &t, &spam),
        ] {
            cell(format!("{name} {tys}"), op(l.clone(), r.clone()));
        }
    }
    cell("and".into(), p.clone().and(q.clone()));
    cell("or".into(), p.clone().or(q.clone()));
    cell("not".into(), p.clone().not());
    for (ty, a, b) in [("I", &i, &j), ("F", &f, &g)] {
        cell(
            format!("neg {ty}"),
            ScalarExpr::UnOp(emma_compiler::expr::UnOp::Neg, Box::new(a.clone())),
        );
        cell(format!("abs {ty}"), call(Abs, &[a]));
        cell(format!("sqrt {ty}"), call(Sqrt, &[a]));
        cell(format!("min {ty}"), call(MinOf, &[a, b]));
        cell(format!("max {ty}"), call(MaxOf, &[a, b]));
    }
    let merged_s = ite(&q, &s, &t);
    for (ty, a) in [
        ("I", &i),
        ("F", &f),
        ("B", &p),
        ("S plain", &s),
        ("S dict", &t),
        ("S const", &spam),
        ("S merged", &merged_s),
    ] {
        cell(format!("hash {ty}"), call(HashOf, &[a]));
    }
    for (ty, a) in [("plain", &s), ("dict", &t), ("merged", &merged_s)] {
        cell(format!("str_len {ty}"), call(StrLen, &[a]));
    }
    cell("count V".into(), BagExpr::of_value(b.clone()).count());
    let am = lit(Value::str("am"));
    for (tys, hay, needle) in [
        ("plain/const", &s, &am),
        ("dict/const", &t, &am),
        ("dict/capture", &t, &cap("cS")),
        ("dict/lane", &t, &s),
        ("plain/dict", &s, &t),
        ("const/dict", &spam, &t),
        ("merged/const", &merged_s, &am),
    ] {
        cell(
            format!("str_contains {tys}"),
            call(StrContains, &[hay, needle]),
        );
    }
    cell("const I".into(), i.clone().add(lit(Value::Int(2))));
    cell("const F".into(), f.clone().mul(lit(Value::Float(0.5))));
    cell("const B".into(), p.clone().and(lit(Value::Bool(true))));
    cell(
        "const opaque".into(),
        ScalarExpr::Tuple(vec![i.clone(), lit(Value::Null)]),
    );
    let nested = Value::tuple(vec![Value::Int(1), Value::str("u"), Value::Null]);
    cell(
        "const tuple".into(),
        ScalarExpr::Tuple(vec![p.clone(), lit(nested)]),
    );
    cell("capture I".into(), cap("cI").mul(i.clone()));
    cell("capture F".into(), cap("cF").add(f.clone()));
    cell("capture B".into(), q.clone().or(cap("cB")));
    cell("capture S".into(), cap("cS").lt(t.clone()));
    cell(
        "capture opaque".into(),
        ScalarExpr::Tuple(vec![cap("cV"), s.clone()]),
    );
    cell("capture tuple".into(), cap("cT").get(1).eq(t.clone()));
    cell(
        "field tuple".into(),
        ScalarExpr::Tuple(vec![t.clone(), o.clone(), g.clone()]),
    );
    for (ty, a, b) in [
        ("I", &i, &j),
        ("F", &f, &g),
        ("B", &q, &p.clone().not()),
        ("S", &s, &t),
        ("S const", &t, &spam),
        ("V", &o, &lit(Value::Null)),
        ("V capture", &cap("cV"), &o),
        (
            "tuple",
            &ScalarExpr::Tuple(vec![i.clone(), s.clone()]),
            &ScalarExpr::Tuple(vec![j.clone(), t.clone()]),
        ),
    ] {
        cell(format!("merge {ty}"), ite(&q, a, b));
    }

    // Raises on the poison row only, and after `K` in evaluation order.
    let raise = i.clone().rem(z.clone());
    let alive = z.clone().ne(lit(Value::Int(0)));
    let never = i.clone().rem(guard.clone()).eq(lit(Value::Int(0)));
    let map = |body: ScalarExpr| (false, Lambda::new(["x"], body));
    let (n_cells, mut fallible) = (cells.len(), 0);
    for (name, k) in cells {
        let full = assert_cell(&format!("{name} / full"), &[map(k.clone())], &clean, &base)
            .unwrap_or_else(|e| panic!("{name}: raises on clean rows: {e:?}"));
        let in_arm = ite(&p, &k, &ite(&never, &k, &k));
        let armed = assert_cell(&format!("{name} / if-arm"), &[map(in_arm)], &clean, &base);
        assert_eq!(
            format!("{full:?}"),
            format!("{:?}", armed.unwrap()),
            "{name}: `If` changed `K`"
        );
        let both = ScalarExpr::Tuple(vec![k.clone(), raise.clone()]);
        let filtered = [
            (true, Lambda::new(["x"], q.clone().and(alive.clone()))),
            map(both.clone()),
        ];
        let (_, counts) = assert_cell(&format!("{name} / filtered"), &filtered, &poisoned, &base)
            .unwrap_or_else(|e| panic!("{name}: a filtered-out lane raised: {e:?}"));
        assert_eq!(counts, [13, 6, 6], "{name}: per-stage counts");
        // Alone, only `K`'s own `Div` / `Mod` can abort the batch; next to
        // `raise`, every cell does.
        let alone = assert_cell(&format!("{name} / poisoned"), &[map(k)], &poisoned, &base);
        fallible += alone.is_err() as usize;
        let err = assert_cell(&format!("{name} / aborted"), &[map(both)], &poisoned, &base)
            .expect_err("the poison lane is selected");
        assert!(matches!(&err, ValueError::Arithmetic(_)), "{name}: {err:?}");
    }
    assert_eq!(fallible, 3, "mod I by z, div I by z, div F by h");
    assert_eq!(n_cells, 16 + 4 + 54 + 3 + 10 + 7 + 3 + 1 + 7 + 12 + 8);
}

/// The count closed form is recognized from the `zero` / `sng` / `uni`
/// trees. A fold may carry any [`FoldKind`] over any lambdas, so one
/// *labelled* `Count` whose lambdas are not count's must not lower to the
/// kernels' length — this fails if recognition is ever switched to
/// `FoldOp::kind`. The interpreter evaluates each fold's own lambdas, and
/// the kernels take exactly the folds whose lambdas are count's.
#[test]
fn a_fold_labelled_count_evaluates_its_own_lambdas() {
    let (a, b, e) = (
        || ScalarExpr::var("a"),
        || ScalarExpr::var("b"),
        || ScalarExpr::var("e"),
    );
    let int = |n: i64| ScalarExpr::lit(n);
    let one = || Lambda::new(["e"], int(1));
    let plus = || Lambda::new(["a", "b"], a().add(b()));
    let labelled = |zero: ScalarExpr, sng: Lambda, uni: Lambda| FoldOp {
        kind: FoldKind::Count,
        zero: Box::new(zero),
        sng,
        uni,
    };
    // Each fold, what it evaluates to, and whether the kernels lower it.
    let cases = [
        // 10 - 2 - 4 - 6, not 3.
        (
            labelled(
                int(10),
                Lambda::new(["e"], e().mul(int(2))),
                Lambda::new(["a", "b"], a().sub(b())),
            ),
            Value::Int(-2),
            false,
        ),
        // Count's `sng` and `uni` over another zero: 5 + 3.
        (labelled(int(5), one(), plus()), Value::Int(8), false),
        // Count's `zero` and `sng` under another operator: 0 * 1 * 1 * 1.
        (
            labelled(int(0), one(), Lambda::new(["a", "b"], a().mul(b()))),
            Value::Int(0),
            false,
        ),
        // Count's `zero` and `uni` over another constant: 2 + 2 + 2.
        (
            labelled(int(0), Lambda::new(["e"], int(2)), plus()),
            Value::Int(6),
            false,
        ),
        // And the converse: count's lambdas under another label still count.
        (
            FoldOp {
                kind: FoldKind::Custom,
                ..FoldOp::count()
            },
            Value::Int(3),
            true,
        ),
        // A Float zero or `sng` is not count's, though `Int(0) == Float(0.0)`.
        (
            labelled(ScalarExpr::lit(0.0), one(), plus()),
            Value::Float(3.0),
            false,
        ),
        (
            labelled(int(0), Lambda::new(["e"], ScalarExpr::lit(1.0)), plus()),
            Value::Float(3.0),
            false,
        ),
        // A closed `zero` counts by its value.
        (
            labelled(int(1).sub(int(1)), one(), plus()),
            Value::Int(3),
            true,
        ),
        // One parameter read twice is the element alone: the last `1 + 1`.
        (
            labelled(int(0), one(), Lambda::new(["a", "a"], a().add(a()))),
            Value::Int(2),
            false,
        ),
    ];
    let row = Value::tuple(vec![Value::bag([1i64, 2, 3].map(Value::Int))]);
    let base = base_scope();
    for (op, want, lowers) in cases {
        let lam = Lambda::new(
            ["x"],
            BagExpr::of_value(ScalarExpr::var("x").get(0)).fold(op),
        );
        let got = interpret(&lam, std::slice::from_ref(&row), &base);
        assert_eq!(got, Ok(want.clone()), "{lam:?}");
        let spec = [VecStageSpec::Map(&lam, &base)];
        let kernel = specialize_sampled(&spec, std::slice::from_ref(&row));
        assert_eq!(
            kernel.is_some(),
            lowers,
            "{lam:?}: only count's lambdas are a length"
        );
        if let Some(vp) = kernel {
            let (mut counts, mut out) = (vec![0u64; 2], Vec::new());
            let ran = vp.run_batch(
                std::slice::from_ref(&row),
                &mut vp.new_scratch(),
                &mut counts,
                &mut out,
            );
            assert!(ran && out == [want], "{lam:?}: {out:?}");
        }
    }
}

/// A `Var.f.g.h` chain broken at each hop — a non-tuple (`TypeMismatch`) or
/// a short tuple (`FieldOutOfRange`) — from a parameter, from a capture, from
/// an unbound name and after an `If` join: the rows reach every outcome the
/// interpreter can give a field chain.
#[test]
fn field_chains_break_like_the_interpreter() {
    let int = Value::Int;
    let t = |vs: Vec<Value>| Value::tuple(vs);
    let rows = [
        t(vec![t(vec![int(0), t(vec![int(1), int(2), int(3)])])]), // x.0.1.2 = 3
        int(5),                                                    // hop 1: not a tuple
        t(vec![]),                                                 // hop 1: out of range
        t(vec![int(5)]),                                           // hop 2: not a tuple
        t(vec![t(vec![int(0)])]),                                  // hop 2: out of range
        t(vec![t(vec![int(0), int(5)])]),                          // hop 3: not a tuple
        t(vec![t(vec![int(0), t(vec![int(1), int(2)])])]),         // hop 3: out of range
    ];
    let chain = |root: ScalarExpr| root.get(0).get(1).get(2);
    let joined = |c: ScalarExpr| {
        ScalarExpr::If(
            Box::new(c),
            Box::new(ScalarExpr::var("x").get(0)),
            Box::new(ScalarExpr::var("y")),
        )
        .get(1)
        .get(2)
    };
    let mut kinds = std::collections::HashSet::new();
    for x in &rows {
        let mut base = base_scope();
        base.insert("cap".to_string(), x.clone());
        for y in &rows {
            let args = [x.clone(), y.clone()];
            for body in [
                chain(ScalarExpr::var("x")),
                chain(ScalarExpr::var("cap")),
                chain(ScalarExpr::var("miss")),
                joined(ScalarExpr::lit(true)),
                joined(ScalarExpr::lit(false)),
                joined(ScalarExpr::var("y").get(0).eq(ScalarExpr::var("x").get(0))),
            ] {
                let lam = Lambda::new(["x", "y"], body);
                kinds.insert(match interpret(&lam, &args, &base) {
                    Ok(_) => "value",
                    Err(ValueError::TypeMismatch { .. }) => "mismatch",
                    Err(ValueError::FieldOutOfRange { .. }) => "range",
                    Err(ValueError::UnboundVariable(_)) => "unbound",
                    Err(other) => panic!("unexpected {other:?}"),
                });
            }
        }
    }
    assert_eq!(kinds.len(), 4, "the rows reach every outcome: {kinds:?}");
}
