//! Property-based semantics-preservation tests for the comprehension
//! pipeline: for randomly generated operator chains `e`,
//! `desugar(normalize(resugar(e)))` must be observationally equal to `e`
//! under the reference interpreter, and fold-group fusion must never change
//! results. The same chains check the IR walkers: substitution, bag-ref
//! inlining and freshening.

use std::collections::{HashMap, HashSet};

use crate::bag_expr::{BagExpr, BagLambda};
use crate::comprehension::{desugar, normalize, resugar, NormalizeOpts};
use crate::expr::{FoldOp, Lambda, ScalarExpr, Term};
use crate::freshen::{freshen_bag, NameGen};
use crate::fusion::fuse_fold_group;
use crate::interp::{eval_bag, Catalog, Env};
use crate::value::Value;
use proptest::prelude::*;

/// The catalog both sides evaluate against: two tables of `(Int, Int)` rows.
fn catalog() -> Catalog {
    let rows = |seed: i64, n: i64| -> Vec<Value> {
        (0..n)
            .map(|i| {
                Value::tuple(vec![
                    Value::Int((i * seed + 3) % 7),
                    Value::Int(i * (seed + 1) % 11),
                ])
            })
            .collect()
    };
    Catalog::new().with("a", rows(2, 23)).with("b", rows(5, 17))
}

/// A small strategy language for scalar expressions over a tuple-typed
/// variable `v` (fields 0 and 1).
fn scalar_over(v: &'static str) -> impl Strategy<Value = ScalarExpr> {
    let leaf = prop_oneof![
        Just(ScalarExpr::var(v).get(0)),
        Just(ScalarExpr::var(v).get(1)),
        (-4i64..5).prop_map(ScalarExpr::lit),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        (inner.clone(), inner, 0..3usize).prop_map(|(l, r, op)| match op {
            0 => l.add(r),
            1 => l.mul(r),
            _ => l.sub(r),
        })
    })
}

fn predicate_over(v: &'static str) -> impl Strategy<Value = ScalarExpr> {
    (scalar_over(v), scalar_over(v), 0..4usize).prop_map(|(l, r, op)| match op {
        0 => l.lt(r),
        1 => l.eq(r),
        2 => l.ge(r),
        _ => l.ne(r),
    })
}

/// `drv.exists(z => z == e)`: reads the driver bag `drv`.
fn in_driver_bag(e: ScalarExpr) -> ScalarExpr {
    BagExpr::var("drv").exists(Lambda::new(["z"], ScalarExpr::var("z").eq(e)))
}

/// `if (c) 1 else 0`.
fn indicator(c: ScalarExpr) -> ScalarExpr {
    ScalarExpr::If(
        Box::new(c),
        Box::new(ScalarExpr::lit(1i64)),
        Box::new(ScalarExpr::lit(0i64)),
    )
}

/// Random operator chains (the "comprehendable terms" of Section 4.1):
/// maps, filters, flatMap-joins (one of them with nested binders), and
/// groupings whose key and per-group fold read the driver bag `drv`.
fn chain() -> impl Strategy<Value = BagExpr> {
    let source = prop_oneof![Just(BagExpr::read("a")), Just(BagExpr::read("b"))];
    source.prop_recursive(4, 16, 2, |inner| {
        prop_oneof![
            // map to a fresh pair
            (inner.clone(), scalar_over("v"), scalar_over("v"))
                .prop_map(|(b, x, y)| { b.map(Lambda::new(["v"], ScalarExpr::Tuple(vec![x, y]))) }),
            // filter
            (inner.clone(), predicate_over("v")).prop_map(|(b, p)| b.filter(Lambda::new(["v"], p))),
            // flatMap join against table b on field 0
            inner.clone().prop_map(|b| {
                b.flat_map(BagLambda::new(
                    "o",
                    BagExpr::read("b")
                        .filter(Lambda::new(
                            ["i"],
                            ScalarExpr::var("o").get(0).eq(ScalarExpr::var("i").get(0)),
                        ))
                        .map(Lambda::new(
                            ["i"],
                            ScalarExpr::Tuple(vec![
                                ScalarExpr::var("o").get(1),
                                ScalarExpr::var("i").get(1),
                            ]),
                        )),
                ))
            }),
            // nested flatMap binders; the inner `o` shadows the outer one
            inner.clone().prop_map(|b| {
                b.flat_map(BagLambda::new(
                    "o",
                    BagExpr::read("b")
                        .filter(Lambda::new(
                            ["i"],
                            ScalarExpr::var("o").get(0).eq(ScalarExpr::var("i").get(0)),
                        ))
                        .flat_map(BagLambda::new(
                            "o",
                            BagExpr::read("a")
                                .filter(Lambda::new(
                                    ["j"],
                                    ScalarExpr::var("j")
                                        .get(0)
                                        .eq(ScalarExpr::var("o").get(1))
                                        .and(ScalarExpr::var("j").get(1).lt(ScalarExpr::lit(3i64))),
                                ))
                                .map(Lambda::new(
                                    ["j"],
                                    ScalarExpr::Tuple(vec![
                                        ScalarExpr::var("o").get(0),
                                        ScalarExpr::var("j").get(1),
                                    ]),
                                )),
                        )),
                ))
            }),
            // groupBy whose key reads `drv`, then a per-group fold whose
            // `sng` reads it too: (key, #values whose field 1 is in drv)
            inner.clone().prop_map(|b| {
                b.group_by(Lambda::new(
                    ["v"],
                    indicator(in_driver_bag(ScalarExpr::var("v").get(0))),
                ))
                .map(Lambda::new(
                    ["g"],
                    ScalarExpr::Tuple(vec![
                        ScalarExpr::var("g").get(0),
                        BagExpr::of_value(ScalarExpr::var("g").get(1)).fold(FoldOp::custom(
                            ScalarExpr::lit(0i64),
                            Lambda::new(
                                ["x"],
                                indicator(in_driver_bag(ScalarExpr::var("x").get(1))),
                            ),
                            Lambda::new(["p", "q"], ScalarExpr::var("p").add(ScalarExpr::var("q"))),
                        )),
                    ]),
                ))
            }),
            // exists-filter against table b (kept as a guard: desugar cannot
            // reify semi-joins, so the round trip runs without exists
            // unnesting — the engine tests cover that path)
            (inner, predicate_over("l")).prop_map(|(b, p)| {
                b.filter(Lambda::new(
                    ["v"],
                    BagExpr::read("b").exists(Lambda::new(
                        ["l"],
                        p.and(ScalarExpr::var("l").get(0).eq(ScalarExpr::var("v").get(0))),
                    )),
                ))
            }),
        ]
    })
}

/// Bags to inline for `drv`: closed ones and one that reads `drv` itself.
fn driver_def() -> impl Strategy<Value = BagExpr> {
    prop_oneof![
        Just(BagExpr::read("a").map(Lambda::new(["w"], ScalarExpr::var("w").get(1)))),
        Just(BagExpr::values(vec![Value::Int(3)])),
        Just(BagExpr::var("drv").filter(Lambda::new(
            ["w"],
            ScalarExpr::var("w").gt(ScalarExpr::lit(2i64)),
        ))),
    ]
}

/// Every binder name in `e`, collected with the IR visitor.
fn binders(e: &BagExpr) -> Vec<String> {
    let mut out = Vec::new();
    Term::Bag(e).walk(&mut |t| out.extend(t.binders().iter().cloned()));
    out
}

fn eval(e: &BagExpr, cat: &Catalog) -> Vec<Value> {
    let drv = Value::bag(vec![Value::Int(1), Value::Int(3), Value::Int(5)]);
    let base = HashMap::from([("drv".to_string(), drv)]);
    let mut env = Env::new(&base);
    eval_bag(e, &mut env, cat).expect("evaluation succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn normalization_roundtrip_preserves_semantics(e in chain()) {
        let cat = catalog();
        let mut gen = NameGen::new();
        let e = freshen_bag(&e, &mut gen);
        let before = eval(&e, &cat);

        let comp = resugar(&e, &mut gen);
        let opts = NormalizeOpts { fusion: true, unnest_exists: false };
        let (normalized, _) = normalize(comp, opts, &mut gen);
        let reified = desugar(&normalized, &mut gen);
        let after = eval(&reified, &cat);

        prop_assert_eq!(Value::bag(before), Value::bag(after));
    }

    #[test]
    fn fusion_preserves_semantics_on_random_chains(
        e in chain(),
        key_field in 0usize..2,
        agg_field in 0usize..2,
    ) {
        // Wrap an arbitrary chain in groupBy + (sum, count) folds and check
        // fold-group fusion is observation-preserving.
        let cat = catalog();
        let grouped = e
            .group_by(Lambda::new(["x"], ScalarExpr::var("x").get(key_field)))
            .map(Lambda::new(
                ["g"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("g").get(0),
                    BagExpr::of_value(ScalarExpr::var("g").get(1))
                        .map(Lambda::new(["v"], ScalarExpr::var("v").get(agg_field)))
                        .fold(FoldOp::custom(
                            ScalarExpr::lit(0i64),
                            Lambda::new(["x"], ScalarExpr::var("x")),
                            Lambda::new(
                                ["p", "q"],
                                ScalarExpr::var("p").add(ScalarExpr::var("q")),
                            ),
                        )),
                    BagExpr::of_value(ScalarExpr::var("g").get(1)).count(),
                ]),
            ));
        let mut gen = NameGen::new();
        let grouped = freshen_bag(&grouped, &mut gen);
        let before = eval(&grouped, &cat);

        let comp = resugar(&grouped, &mut gen);
        let opts = NormalizeOpts { fusion: true, unnest_exists: false };
        let (mut normalized, _) = normalize(comp, opts, &mut gen);
        let fused = fuse_fold_group(&mut normalized, &mut gen);
        prop_assert!(fused >= 1, "fusion should fire on this shape");
        let reified = desugar(&normalized, &mut gen);
        let after = eval(&reified, &cat);

        prop_assert_eq!(Value::bag(before), Value::bag(after));
    }

    #[test]
    fn freshening_is_observation_preserving(e in chain()) {
        let cat = catalog();
        let before = eval(&e, &cat);
        let mut gen = NameGen::new();
        let fresh = freshen_bag(&e, &mut gen);
        let after = eval(&fresh, &cat);
        prop_assert_eq!(Value::bag(before), Value::bag(after));
    }

    #[test]
    fn inlining_a_bag_leaves_it_free_only_through_its_definition(
        e in chain(),
        def in driver_def(),
    ) {
        let inlined = e.substitute_ref("drv", &def);
        prop_assert_eq!(
            inlined.free_vars().contains("drv"),
            e.free_vars().contains("drv") && def.free_vars().contains("drv")
        );
    }

    #[test]
    fn substituting_a_name_for_itself_is_the_identity(e in chain()) {
        for name in ["v", "o", "i", "j", "g", "x", "z"] {
            prop_assert_eq!(&e.substitute(name, &ScalarExpr::var(name)), &e);
        }
        prop_assert_eq!(&e.substitute_ref("drv", &BagExpr::var("drv")), &e);
    }

    #[test]
    fn freshening_keeps_free_variables_and_makes_binders_unique(e in chain()) {
        let mut gen = NameGen::new();
        let fresh = freshen_bag(&e, &mut gen);
        prop_assert_eq!(fresh.free_vars(), e.free_vars());
        let names = binders(&fresh);
        let unique: HashSet<&String> = names.iter().collect();
        prop_assert_eq!(unique.len(), names.len(), "binders not unique: {:?}", names);
    }
}
