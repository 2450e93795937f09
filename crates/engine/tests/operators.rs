//! Differential and cost-model tests for the engine.
//!
//! Every compiled program must produce exactly the rows the reference
//! interpreter produces (optimizations are semantics-preserving), and the
//! cost model must move in the directions the paper's evaluation relies on.

use emma_compiler::bag_expr::{BagExpr, BagLambda};
use emma_compiler::expr::{FoldKind, FoldOp, Lambda, ScalarExpr};
use emma_compiler::interp::{Catalog, Interp};
use emma_compiler::pipeline::{parallelize, OptimizerFlags};
use emma_compiler::program::{Program, Stmt};
use emma_compiler::value::Value;
use emma_engine::cluster::{ClusterSpec, Personality};
use emma_engine::Engine;

fn tiny_engine() -> Engine {
    Engine::new(ClusterSpec::tiny(), Personality::sparrow())
}

fn kv_rows(n: i64, keys: i64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::tuple(vec![Value::Int(i % keys), Value::Int(i)]))
        .collect()
}

/// Runs a program both through the interpreter and through the engine with
/// the given flags, asserting identical writes (as multisets).
fn assert_differential(p: &Program, catalog: &Catalog, flags: &OptimizerFlags, engine: &Engine) {
    let expected = Interp::new(catalog).run(p).expect("interp run");
    let compiled = parallelize(p, flags);
    let got = engine.run(&compiled, catalog).expect("engine run");
    assert_eq!(
        expected.writes.len(),
        got.writes.len(),
        "write sinks differ"
    );
    for (sink, rows) in &expected.writes {
        let engine_rows = got.writes.get(sink).unwrap_or_else(|| {
            panic!("sink {sink} missing from engine output");
        });
        assert_eq!(
            Value::bag(rows.clone()),
            Value::bag(engine_rows.clone()),
            "rows differ for sink {sink} (flags: {flags:?})"
        );
    }
}

fn all_flag_variants() -> Vec<OptimizerFlags> {
    vec![
        OptimizerFlags::all(),
        OptimizerFlags::none(),
        OptimizerFlags::logical_only(),
        OptimizerFlags::all().with_fold_group_fusion(false),
        OptimizerFlags::all().with_unnest_exists(false),
        OptimizerFlags::none().with_normalization(true),
    ]
}

#[test]
fn map_filter_pipeline_differential() {
    let catalog = Catalog::new().with("xs", kv_rows(100, 7));
    let p = Program::new(vec![Stmt::write(
        "out",
        BagExpr::read("xs")
            .filter(Lambda::new(
                ["x"],
                ScalarExpr::var("x").get(0).lt(ScalarExpr::lit(4i64)),
            ))
            .map(Lambda::new(
                ["x"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("x").get(1),
                    ScalarExpr::var("x").get(0),
                ]),
            )),
    )]);
    for flags in all_flag_variants() {
        assert_differential(&p, &catalog, &flags, &tiny_engine());
    }
}

#[test]
fn join_via_comprehension_differential() {
    let catalog = Catalog::new()
        .with("orders", kv_rows(40, 10))
        .with("items", kv_rows(60, 10));
    // for (o <- orders; i <- items; if o.0 == i.0) yield (o.0, o.1, i.1)
    let inner = BagExpr::read("items")
        .filter(Lambda::new(
            ["i"],
            ScalarExpr::var("o").get(0).eq(ScalarExpr::var("i").get(0)),
        ))
        .map(Lambda::new(
            ["i"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::var("o").get(0),
                ScalarExpr::var("o").get(1),
                ScalarExpr::var("i").get(1),
            ]),
        ));
    let p = Program::new(vec![Stmt::write(
        "joined",
        BagExpr::read("orders").flat_map(BagLambda::new("o", inner)),
    )]);
    for flags in all_flag_variants() {
        assert_differential(&p, &catalog, &flags, &tiny_engine());
    }
}

#[test]
fn join_plan_is_emitted_with_normalization() {
    let inner = BagExpr::read("items")
        .filter(Lambda::new(
            ["i"],
            ScalarExpr::var("o").get(0).eq(ScalarExpr::var("i").get(0)),
        ))
        .map(Lambda::new(["i"], ScalarExpr::var("i").get(1)));
    let p = Program::new(vec![Stmt::write(
        "joined",
        BagExpr::read("orders").flat_map(BagLambda::new("o", inner)),
    )]);
    let compiled = parallelize(&p, &OptimizerFlags::all());
    let emma_compiler::pipeline::CStmt::Write { plan, .. } = &compiled.body[0] else {
        panic!("expected write");
    };
    assert_eq!(plan.count_ops("Join"), 1, "plan:\n{plan}");
    assert_eq!(plan.count_ops("FlatMap"), 0, "plan:\n{plan}");
}

#[test]
fn exists_semijoin_differential_and_multiplicity() {
    // Multiple blacklist entries share an IP: the semi-join must not
    // duplicate emails (this is where naive exists→join rewriting breaks).
    let catalog = Catalog::new()
        .with(
            "emails",
            vec![
                Value::tuple(vec![Value::Int(1), Value::str("a")]),
                Value::tuple(vec![Value::Int(2), Value::str("b")]),
                Value::tuple(vec![Value::Int(2), Value::str("c")]),
            ],
        )
        .with(
            "blacklist",
            vec![
                Value::tuple(vec![Value::Int(2), Value::str("x")]),
                Value::tuple(vec![Value::Int(2), Value::str("y")]),
                Value::tuple(vec![Value::Int(3), Value::str("z")]),
            ],
        );
    let p = Program::new(vec![Stmt::write(
        "hits",
        BagExpr::read("emails").filter(Lambda::new(
            ["e"],
            BagExpr::read("blacklist").exists(Lambda::new(
                ["l"],
                ScalarExpr::var("l").get(0).eq(ScalarExpr::var("e").get(0)),
            )),
        )),
    )]);
    for flags in all_flag_variants() {
        assert_differential(&p, &catalog, &flags, &tiny_engine());
    }
    // And the optimized plan indeed contains a semi-join.
    let compiled = parallelize(&p, &OptimizerFlags::all());
    assert_eq!(compiled.report.exists_unnested, 1);

    // The rule reads a guard's fold off its lambdas, not its label: a
    // forall labelled `Exists` is no semi-join, and an exists labelled
    // `Custom` still is one.
    let ints = |xs: &[i64]| xs.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
    let catalog = Catalog::new()
        .with("xs", ints(&[0, 1, 2, 3, 4, 5]))
        .with("ys", ints(&[2, 3]))
        .with("zs", ints(&[3, 7]));
    let y_is_x = || Lambda::new(["y"], ScalarExpr::var("y").eq(ScalarExpr::var("x")));
    let mut forall = FoldOp::forall(y_is_x());
    forall.kind = FoldKind::Exists;
    let mut exists = FoldOp::exists(y_is_x());
    exists.kind = FoldKind::Custom;
    for (op, bag, unnested) in [(forall, "ys", 0), (exists, "zs", 1)] {
        let p = Program::new(vec![Stmt::write(
            "hits",
            BagExpr::read("xs").filter(Lambda::new(["x"], BagExpr::read(bag).fold(op))),
        )]);
        for flags in all_flag_variants() {
            assert_differential(&p, &catalog, &flags, &tiny_engine());
        }
        let compiled = parallelize(&p, &OptimizerFlags::all());
        assert_eq!(compiled.report.exists_unnested, unnested, "{bag}");
    }
}

#[test]
fn negated_exists_antijoin_differential() {
    let catalog = Catalog::new()
        .with("emails", kv_rows(30, 6))
        .with("blacklist", kv_rows(10, 3));
    let p = Program::new(vec![Stmt::write(
        "clean",
        BagExpr::read("emails").filter(Lambda::new(
            ["e"],
            BagExpr::read("blacklist")
                .exists(Lambda::new(
                    ["l"],
                    ScalarExpr::var("l").get(0).eq(ScalarExpr::var("e").get(0)),
                ))
                .not(),
        )),
    )]);
    for flags in all_flag_variants() {
        assert_differential(&p, &catalog, &flags, &tiny_engine());
    }
}

#[test]
fn group_by_fold_differential_with_and_without_fusion() {
    let catalog = Catalog::new().with("xs", kv_rows(200, 9));
    // (key, sum, count) per group.
    let p = Program::new(vec![Stmt::write(
        "aggs",
        BagExpr::read("xs")
            .group_by(Lambda::new(["x"], ScalarExpr::var("x").get(0)))
            .map(Lambda::new(
                ["g"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("g").get(0),
                    BagExpr::of_value(ScalarExpr::var("g").get(1))
                        .map(Lambda::new(["v"], ScalarExpr::var("v").get(1)))
                        .sum(),
                    BagExpr::of_value(ScalarExpr::var("g").get(1)).count(),
                ]),
            )),
    )]);
    for flags in all_flag_variants() {
        assert_differential(&p, &catalog, &flags, &tiny_engine());
    }
    let fused = parallelize(&p, &OptimizerFlags::all());
    assert_eq!(fused.report.fold_group_fused, 1);
    let unfused = parallelize(&p, &OptimizerFlags::all().with_fold_group_fusion(false));
    assert_eq!(unfused.report.fold_group_fused, 0);
}

#[test]
fn fused_aggregation_shuffles_less_than_unfused() {
    let catalog = Catalog::new().with("xs", kv_rows(5_000, 5));
    let p = Program::new(vec![Stmt::write(
        "aggs",
        BagExpr::read("xs")
            .group_by(Lambda::new(["x"], ScalarExpr::var("x").get(0)))
            .map(Lambda::new(
                ["g"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("g").get(0),
                    BagExpr::of_value(ScalarExpr::var("g").get(1))
                        .map(Lambda::new(["v"], ScalarExpr::var("v").get(1)))
                        .sum(),
                ]),
            )),
    )]);
    let engine = tiny_engine();
    let fused = engine
        .run(&parallelize(&p, &OptimizerFlags::all()), &catalog)
        .unwrap();
    let unfused = engine
        .run(
            &parallelize(&p, &OptimizerFlags::all().with_fold_group_fusion(false)),
            &catalog,
        )
        .unwrap();
    assert!(
        fused.stats.bytes_shuffled < unfused.stats.bytes_shuffled / 5,
        "fused {} vs unfused {}",
        fused.stats.bytes_shuffled,
        unfused.stats.bytes_shuffled
    );
    assert!(fused.stats.simulated_secs < unfused.stats.simulated_secs);
}

#[test]
fn set_operations_differential() {
    let catalog = Catalog::new()
        .with("a", kv_rows(30, 4))
        .with("b", kv_rows(20, 4));
    let p = Program::new(vec![
        Stmt::write("plus", BagExpr::read("a").plus(BagExpr::read("b"))),
        Stmt::write("minus", BagExpr::read("a").minus(BagExpr::read("b"))),
        Stmt::write(
            "distinct",
            BagExpr::read("a")
                .map(Lambda::new(["x"], ScalarExpr::var("x").get(0)))
                .distinct(),
        ),
    ]);
    for flags in all_flag_variants() {
        assert_differential(&p, &catalog, &flags, &tiny_engine());
    }
}

#[test]
fn while_loop_with_fold_condition_differential() {
    let catalog = Catalog::new().with("xs", kv_rows(50, 5));
    let p = Program::new(vec![
        Stmt::var("i", ScalarExpr::lit(0i64)),
        Stmt::var("total", ScalarExpr::lit(0.0f64)),
        Stmt::while_loop(
            ScalarExpr::var("i").lt(ScalarExpr::lit(3i64)),
            vec![
                Stmt::assign(
                    "total",
                    ScalarExpr::var("total").add(
                        BagExpr::read("xs")
                            .map(Lambda::new(["x"], ScalarExpr::var("x").get(1)))
                            .sum(),
                    ),
                ),
                Stmt::assign("i", ScalarExpr::var("i").add(ScalarExpr::lit(1i64))),
            ],
        ),
        Stmt::write(
            "result",
            BagExpr::Values(vec![Value::Int(0)]).map(Lambda::new(["z"], ScalarExpr::var("total"))),
        ),
    ]);
    for flags in all_flag_variants() {
        assert_differential(&p, &catalog, &flags, &tiny_engine());
    }
}

#[test]
fn caching_reduces_time_for_loop_reuse() {
    let catalog = Catalog::new().with("xs", kv_rows(8_000, 50));
    // A bag referenced in every loop iteration.
    let p = Program::new(vec![
        Stmt::val(
            "big",
            BagExpr::read("xs").map(Lambda::new(
                ["x"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("x").get(0),
                    ScalarExpr::var("x").get(1).mul(ScalarExpr::lit(3i64)),
                ]),
            )),
        ),
        Stmt::var("i", ScalarExpr::lit(0i64)),
        Stmt::var("acc", ScalarExpr::lit(0.0f64)),
        Stmt::while_loop(
            ScalarExpr::var("i").lt(ScalarExpr::lit(5i64)),
            vec![
                Stmt::assign(
                    "acc",
                    ScalarExpr::var("acc").add(
                        BagExpr::var("big")
                            .map(Lambda::new(["x"], ScalarExpr::var("x").get(1)))
                            .sum(),
                    ),
                ),
                Stmt::assign("i", ScalarExpr::var("i").add(ScalarExpr::lit(1i64))),
            ],
        ),
    ]);
    let engine = tiny_engine();
    let cached = engine
        .run(&parallelize(&p, &OptimizerFlags::all()), &catalog)
        .unwrap();
    let uncached = engine
        .run(
            &parallelize(&p, &OptimizerFlags::all().with_caching(false)),
            &catalog,
        )
        .unwrap();
    assert!(cached.stats.cache_hits >= 4, "{:?}", cached.stats);
    assert_eq!(uncached.stats.cache_hits, 0);
    assert!(
        cached.stats.simulated_secs < uncached.stats.simulated_secs,
        "cached {} vs uncached {}",
        cached.stats.simulated_secs,
        uncached.stats.simulated_secs
    );
    // Identical results either way.
    assert_eq!(cached.scalars["acc"], uncached.scalars["acc"]);
}

#[test]
fn broadcast_is_charged_for_udf_captured_bags() {
    let catalog = Catalog::new()
        .with("points", kv_rows(100, 100))
        .with("centers", kv_rows(4, 4));
    // A map UDF that folds over a driver bag (k-means shape) — no unnesting
    // possible (min_by), so the engine must broadcast `cs`.
    let p = Program::new(vec![
        Stmt::val("cs", BagExpr::read("centers")),
        Stmt::write(
            "assigned",
            BagExpr::read("points").map(Lambda::new(
                ["p"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("p").get(1),
                    ScalarExpr::Fold(
                        Box::new(BagExpr::var("cs")),
                        Box::new(FoldOp::min_by(Lambda::new(
                            ["c"],
                            ScalarExpr::call(
                                emma_compiler::expr::BuiltinFn::Abs,
                                vec![ScalarExpr::var("c").get(0).sub(ScalarExpr::var("p").get(0))],
                            ),
                        ))),
                    )
                    .get(0),
                ]),
            )),
        ),
    ]);
    let engine = tiny_engine();
    let run = engine
        .run(&parallelize(&p, &OptimizerFlags::all()), &catalog)
        .unwrap();
    assert!(run.stats.bytes_broadcast > 0);
    // Differential against the interpreter.
    for flags in all_flag_variants() {
        assert_differential(&p, &catalog, &flags, &tiny_engine());
    }
}

#[test]
fn timeout_aborts_long_runs() {
    let catalog = Catalog::new().with("xs", kv_rows(10_000, 10_000));
    let p = Program::new(vec![
        Stmt::var("i", ScalarExpr::lit(0i64)),
        Stmt::while_loop(
            ScalarExpr::var("i").lt(ScalarExpr::lit(1000i64)),
            vec![
                Stmt::val("n", BagExpr::read("xs").count()),
                Stmt::assign("i", ScalarExpr::var("i").add(ScalarExpr::lit(1i64))),
            ],
        ),
    ]);
    let engine = tiny_engine().with_timeout(5.0);
    let err = engine
        .run(&parallelize(&p, &OptimizerFlags::all()), &catalog)
        .unwrap_err();
    assert!(matches!(err, emma_engine::ExecError::Timeout { .. }));
}

#[test]
fn flamingo_broadcast_is_pricier_than_sparrow() {
    let catalog = Catalog::new()
        .with("emails", kv_rows(2_000, 50))
        .with("blacklist", kv_rows(500, 50));
    // Keep the exists un-unnested: forces a broadcast of the blacklist.
    let p = Program::new(vec![Stmt::write(
        "hits",
        BagExpr::read("emails").filter(Lambda::new(
            ["e"],
            BagExpr::read("blacklist").exists(Lambda::new(
                ["l"],
                ScalarExpr::var("l").get(0).eq(ScalarExpr::var("e").get(0)),
            )),
        )),
    )]);
    let flags = OptimizerFlags::all().with_unnest_exists(false);
    let compiled = parallelize(&p, &flags);
    let sparrow = Engine::new(ClusterSpec::tiny(), Personality::sparrow())
        .run(&compiled, &catalog)
        .unwrap();
    let flamingo = Engine::new(ClusterSpec::tiny(), Personality::flamingo())
        .run(&compiled, &catalog)
        .unwrap();
    assert!(
        flamingo.stats.simulated_secs > sparrow.stats.simulated_secs,
        "flamingo {} <= sparrow {}",
        flamingo.stats.simulated_secs,
        sparrow.stats.simulated_secs
    );
}

#[test]
fn repartition_metadata_skips_second_shuffle() {
    let catalog = Catalog::new().with("xs", kv_rows(1_000, 16));
    // distinct after an explicit repartition on the same key would reshuffle
    // — instead compare two group-bys back to back via plans.
    let p1 = Program::new(vec![Stmt::write(
        "out",
        BagExpr::read("xs")
            .group_by(Lambda::new(["x"], ScalarExpr::var("x").get(0)))
            .map(Lambda::new(
                ["g"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("g").get(0),
                    BagExpr::of_value(ScalarExpr::var("g").get(1)).count(),
                ]),
            )),
    )]);
    let engine = tiny_engine();
    let run = engine
        .run(&parallelize(&p1, &OptimizerFlags::all()), &catalog)
        .unwrap();
    // Sanity: exactly one shuffle for one aggregation.
    assert!(run.stats.bytes_shuffled > 0);
}
