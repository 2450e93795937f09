//! Engine edge cases: empty inputs, degenerate shapes, driver-side sources,
//! join strategies pinned both ways, and cost-model monotonicity.

use emma_compiler::bag_expr::{BagExpr, BagLambda};
use emma_compiler::expr::{FoldOp, Lambda, ScalarExpr};
use emma_compiler::interp::{Catalog, Interp};
use emma_compiler::pipeline::{parallelize, OptimizerFlags};
use emma_compiler::program::{Program, Stmt};
use emma_compiler::value::Value;
use emma_engine::cluster::{ClusterSpec, Personality};
use emma_engine::Engine;

fn engine() -> Engine {
    Engine::new(ClusterSpec::tiny(), Personality::sparrow())
}

fn differential(p: &Program, catalog: &Catalog) {
    let expected = Interp::new(catalog).run(p).expect("interp");
    let compiled = parallelize(p, &OptimizerFlags::all());
    let run = engine().run(&compiled, catalog).expect("engine");
    for (sink, rows) in &expected.writes {
        assert_eq!(
            Value::bag(rows.clone()),
            Value::bag(run.writes[sink].clone()),
            "sink {sink}"
        );
    }
}

fn kv(k: i64, v: i64) -> Value {
    Value::tuple(vec![Value::Int(k), Value::Int(v)])
}

#[test]
fn empty_source_flows_through_everything() {
    let catalog = Catalog::new().with("xs", vec![]).with("ys", vec![kv(1, 1)]);
    let p = Program::new(vec![
        Stmt::write(
            "mapped",
            BagExpr::read("xs").map(Lambda::new(["x"], ScalarExpr::var("x"))),
        ),
        Stmt::write(
            "grouped",
            BagExpr::read("xs")
                .group_by(Lambda::new(["x"], ScalarExpr::var("x").get(0)))
                .map(Lambda::new(
                    ["g"],
                    BagExpr::of_value(ScalarExpr::var("g").get(1)).count(),
                )),
        ),
        Stmt::write(
            "joined",
            BagExpr::read("xs").flat_map(BagLambda::new(
                "x",
                BagExpr::read("ys")
                    .filter(Lambda::new(
                        ["y"],
                        ScalarExpr::var("x").get(0).eq(ScalarExpr::var("y").get(0)),
                    ))
                    .map(Lambda::new(["y"], ScalarExpr::var("y"))),
            )),
        ),
        Stmt::val("total", BagExpr::read("xs").count()),
        Stmt::write(
            "count",
            BagExpr::Values(vec![Value::Int(0)]).map(Lambda::new(["z"], ScalarExpr::var("total"))),
        ),
    ]);
    differential(&p, &catalog);
}

#[test]
fn fold_over_empty_bag_returns_zero_element() {
    let catalog = Catalog::new().with("xs", vec![]);
    let p = Program::new(vec![
        Stmt::val("s", BagExpr::read("xs").sum()),
        Stmt::val("m", BagExpr::read("xs").min()),
        Stmt::val("e", BagExpr::read("xs").is_empty()),
    ]);
    let compiled = parallelize(&p, &OptimizerFlags::all());
    let run = engine().run(&compiled, &catalog).expect("engine");
    assert_eq!(run.scalars["s"], Value::Float(0.0));
    assert_eq!(run.scalars["m"], Value::Null);
    assert_eq!(run.scalars["e"], Value::Bool(true));
}

#[test]
fn driver_literal_and_of_scalar_sources() {
    let catalog = Catalog::new();
    let p = Program::new(vec![
        Stmt::val(
            "seq",
            ScalarExpr::lit(Value::bag(vec![kv(1, 10), kv(2, 20)])),
        ),
        Stmt::write(
            "out",
            BagExpr::of_value(ScalarExpr::var("seq"))
                .map(Lambda::new(["x"], ScalarExpr::var("x").get(1))),
        ),
    ]);
    differential(&p, &catalog);
}

#[test]
fn pinned_join_strategies_agree_with_auto() {
    let catalog = Catalog::new()
        .with("big", (0..500).map(|i| kv(i % 50, i)).collect())
        .with("small", (0..20).map(|i| kv(i, -i)).collect());
    let join = BagExpr::read("big").flat_map(BagLambda::new(
        "b",
        BagExpr::read("small")
            .filter(Lambda::new(
                ["s"],
                ScalarExpr::var("b").get(0).eq(ScalarExpr::var("s").get(0)),
            ))
            .map(Lambda::new(
                ["s"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("b").get(1),
                    ScalarExpr::var("s").get(1),
                ]),
            )),
    ));
    let p = Program::new(vec![Stmt::write("j", join)]);
    let auto = engine()
        .run(&parallelize(&p, &OptimizerFlags::all()), &catalog)
        .expect("auto");
    // Pin both ways by rewriting the compiled plan.
    use emma_compiler::pipeline::{CRValue, CStmt};
    use emma_compiler::plan::{JoinStrategy, Plan};
    for strategy in [JoinStrategy::Broadcast, JoinStrategy::Repartition] {
        let mut compiled = parallelize(&p, &OptimizerFlags::all());
        for s in &mut compiled.body {
            let plan = match s {
                CStmt::Write { plan, .. } => plan,
                CStmt::Bind {
                    value: CRValue::Bag(plan),
                    ..
                } => plan,
                _ => continue,
            };
            fn pin(p: &mut Plan, st: JoinStrategy) {
                if let Plan::Join {
                    strategy,
                    left,
                    right,
                    ..
                } = p
                {
                    *strategy = st;
                    pin(left, st);
                    pin(right, st);
                } else {
                    match p {
                        Plan::Map { input, .. }
                        | Plan::FlatMap { input, .. }
                        | Plan::Filter { input, .. }
                        | Plan::GroupBy { input, .. }
                        | Plan::AggBy { input, .. }
                        | Plan::Fold { input, .. }
                        | Plan::Distinct { input }
                        | Plan::Cache { input }
                        | Plan::Repartition { input, .. } => pin(input, st),
                        Plan::Cross { left, right }
                        | Plan::Plus { left, right }
                        | Plan::Minus { left, right } => {
                            pin(left, st);
                            pin(right, st);
                        }
                        _ => {}
                    }
                }
            }
            pin(plan, strategy);
        }
        let run = engine().run(&compiled, &catalog).expect("pinned run");
        assert_eq!(
            Value::bag(auto.writes["j"].clone()),
            Value::bag(run.writes["j"].clone()),
            "{strategy:?} must agree with Auto"
        );
    }
}

#[test]
fn bigger_inputs_cost_more_simulated_time() {
    let program = Program::new(vec![Stmt::write(
        "agg",
        BagExpr::read("xs")
            .group_by(Lambda::new(["x"], ScalarExpr::var("x").get(0)))
            .map(Lambda::new(
                ["g"],
                BagExpr::of_value(ScalarExpr::var("g").get(1)).count(),
            )),
    )]);
    let mut last = 0.0;
    for n in [1_000i64, 10_000, 50_000] {
        let catalog = Catalog::new().with("xs", (0..n).map(|i| kv(i % 32, i)).collect());
        let run = engine()
            .run(&parallelize(&program, &OptimizerFlags::all()), &catalog)
            .expect("run");
        assert!(
            run.stats.simulated_secs > last,
            "n={n}: {} !> {last}",
            run.stats.simulated_secs
        );
        last = run.stats.simulated_secs;
    }
}

#[test]
fn nested_control_flow_differential() {
    let catalog = Catalog::new().with("xs", (0..40).map(|i| kv(i % 4, i)).collect());
    let p = Program::new(vec![
        Stmt::var("best", ScalarExpr::lit(-1i64)),
        Stmt::for_each(
            "k",
            ScalarExpr::lit(Value::bag(vec![
                Value::Int(0),
                Value::Int(1),
                Value::Int(2),
            ])),
            vec![Stmt::if_else(
                ScalarExpr::var("k")
                    .rem(ScalarExpr::lit(2i64))
                    .eq(ScalarExpr::lit(0i64)),
                vec![
                    Stmt::var(
                        "c",
                        BagExpr::read("xs")
                            .filter(Lambda::new(
                                ["x"],
                                ScalarExpr::var("x").get(0).eq(ScalarExpr::var("k")),
                            ))
                            .count(),
                    ),
                    Stmt::if_else(
                        ScalarExpr::var("c").gt(ScalarExpr::var("best")),
                        vec![Stmt::assign("best", ScalarExpr::var("c"))],
                        vec![],
                    ),
                ],
                vec![],
            )],
        ),
        Stmt::write(
            "best",
            BagExpr::Values(vec![Value::Int(0)]).map(Lambda::new(["z"], ScalarExpr::var("best"))),
        ),
    ]);
    differential(&p, &catalog);
}

#[test]
fn min_by_ties_are_deterministic_across_engines_and_interp() {
    // Two centroids at equal distance: all three executions must make the
    // same choice (the fold keeps the left/accumulated element on ties).
    let catalog = Catalog::new().with(
        "points",
        vec![Value::tuple(vec![Value::Int(0), Value::Float(5.0)])],
    );
    let centers = vec![
        Value::tuple(vec![Value::Int(1), Value::Float(4.0)]),
        Value::tuple(vec![Value::Int(2), Value::Float(6.0)]),
    ];
    let p = Program::new(vec![
        Stmt::val("cs", BagExpr::Values(centers)),
        Stmt::write(
            "assign",
            BagExpr::read("points").map(Lambda::new(
                ["p"],
                ScalarExpr::Fold(
                    Box::new(BagExpr::var("cs")),
                    Box::new(FoldOp::min_by(Lambda::new(
                        ["c"],
                        ScalarExpr::call(
                            emma_compiler::expr::BuiltinFn::Abs,
                            vec![ScalarExpr::var("c").get(1).sub(ScalarExpr::var("p").get(1))],
                        ),
                    ))),
                )
                .get(0),
            )),
        ),
    ]);
    let expected = Interp::new(&catalog).run(&p).expect("interp");
    for personality in [Personality::sparrow(), Personality::flamingo()] {
        let run = Engine::new(ClusterSpec::tiny(), personality)
            .run(&parallelize(&p, &OptimizerFlags::all()), &catalog)
            .expect("engine");
        assert_eq!(run.writes["assign"], expected.writes["assign"]);
    }
}

#[test]
fn operator_time_breakdown_accounts_for_the_clock() {
    let catalog = Catalog::new().with("xs", (0..20_000).map(|i| kv(i % 16, i)).collect());
    let p = Program::new(vec![Stmt::write(
        "agg",
        BagExpr::read("xs")
            .group_by(Lambda::new(["x"], ScalarExpr::var("x").get(0)))
            .map(Lambda::new(
                ["g"],
                BagExpr::of_value(ScalarExpr::var("g").get(1)).count(),
            )),
    )]);
    // Without fusion so a GroupBy node exists in the plan.
    let run = engine()
        .run(
            &parallelize(&p, &OptimizerFlags::all().with_fold_group_fusion(false)),
            &catalog,
        )
        .expect("run");
    let total: f64 = run.stats.op_secs.values().sum();
    // Exclusive times sum to (almost exactly) the full clock; the remainder
    // is driver-side work outside any plan node (e.g. the sink write).
    assert!(
        total <= run.stats.simulated_secs + 1e-9,
        "{total} vs {}",
        run.stats.simulated_secs
    );
    assert!(
        total > run.stats.simulated_secs * 0.5,
        "{:?}",
        run.stats.op_secs
    );
    let top = run.stats.top_operators(3);
    assert!(!top.is_empty());
    assert!(
        run.stats.op_secs.contains_key("GroupBy"),
        "{:?}",
        run.stats.op_secs
    );
}

#[test]
fn writes_charge_storage_and_record_rows() {
    let catalog = Catalog::new().with("xs", (0..1_000).map(|i| kv(i, i)).collect());
    let p = Program::new(vec![Stmt::write("out", BagExpr::read("xs"))]);
    let run = engine()
        .run(&parallelize(&p, &OptimizerFlags::all()), &catalog)
        .expect("run");
    assert_eq!(run.writes["out"].len(), 1_000);
    assert!(run.stats.bytes_written_storage > 0);
    assert!(run.stats.bytes_read_storage > 0);
}

/// Interp vs scalar engine vs vectorized engine on one program: all sinks
/// must agree as multisets, and vectorization must not move the clock.
fn vec_differential(p: &Program, catalog: &Catalog) {
    let expected = Interp::new(catalog).run(p).expect("interp");
    let compiled = parallelize(p, &OptimizerFlags::all().with_compiled_eval(true));
    let mut scalar_engine = engine();
    scalar_engine.vectorized = None;
    let scalar = scalar_engine
        .run(&compiled, catalog)
        .expect("scalar engine");
    let vec = engine()
        .with_vectorized_eval(emma_engine::BatchConfig::new(64))
        .run(&compiled, catalog)
        .expect("vectorized engine");
    for (sink, rows) in &expected.writes {
        assert_eq!(
            Value::bag(rows.clone()),
            Value::bag(vec.writes[sink].clone()),
            "sink {sink}"
        );
    }
    assert_eq!(vec.writes, scalar.writes);
    assert_eq!(
        vec.stats.simulated_secs.to_bits(),
        scalar.stats.simulated_secs.to_bits(),
        "vectorization moved the clock"
    );
}

// Empty strings are ordinary values to the string kernels: zero-length slices
// in the bytes arena, a one-entry dictionary when every row carries the same
// (empty) string, and `contains(s, "")` true everywhere.
#[test]
fn all_empty_string_columns_vectorize_cleanly() {
    use emma_compiler::expr::BuiltinFn;
    let catalog = Catalog::new().with(
        "xs",
        (0..600)
            .map(|i| Value::tuple(vec![Value::Int(i), Value::str("")]))
            .collect(),
    );
    let x = || ScalarExpr::var("x");
    let p = Program::new(vec![
        Stmt::write(
            "lens",
            BagExpr::read("xs").map(Lambda::new(
                ["x"],
                ScalarExpr::call(BuiltinFn::StrLen, vec![x().get(1)]).add(x().get(0)),
            )),
        ),
        Stmt::write(
            "hits",
            BagExpr::read("xs").filter(Lambda::new(
                ["x"],
                ScalarExpr::call(
                    BuiltinFn::StrContains,
                    vec![x().get(1), ScalarExpr::lit(Value::str(""))],
                ),
            )),
        ),
        Stmt::write(
            "eqs",
            BagExpr::read("xs").filter(Lambda::new(
                ["x"],
                x().get(1).eq(ScalarExpr::lit(Value::str(""))),
            )),
        ),
        Stmt::write(
            "grouped",
            BagExpr::read("xs")
                .group_by(Lambda::new(["x"], x().get(1)))
                .map(Lambda::new(
                    ["g"],
                    BagExpr::of_value(ScalarExpr::var("g").get(1)).count(),
                )),
        ),
    ]);
    vec_differential(&p, &catalog);
    // And pin that the batch tier actually ran: 600 identical empty strings
    // sample as one distinct value, the dictionary-friendly extreme.
    let compiled = parallelize(&p, &OptimizerFlags::all().with_compiled_eval(true));
    let run = engine()
        .with_vectorized_eval(emma_engine::BatchConfig::new(64))
        .run(&compiled, &catalog)
        .expect("vectorized engine");
    assert!(run.stats.rows_vectorized > 0, "{}", run.stats);
    assert_eq!(run.stats.vector_fallbacks, 0, "{}", run.stats);
    assert_eq!(run.stats.key_path_fallbacks, 0, "{}", run.stats);
}

// Inputs smaller than the cluster's parallelism leave most partitions empty:
// the vectorized tier must cope with zero-row batches at partition
// boundaries (and with a fully empty source) without diverging from the
// scalar tiers.
#[test]
fn empty_and_undersized_batches_flow_through_string_kernels() {
    use emma_compiler::expr::BuiltinFn;
    let x = || ScalarExpr::var("x");
    let p = Program::new(vec![
        Stmt::write(
            "kept",
            BagExpr::read("xs")
                .filter(Lambda::new(
                    ["x"],
                    ScalarExpr::call(
                        BuiltinFn::StrContains,
                        vec![x().get(1), ScalarExpr::lit(Value::str("a"))],
                    ),
                ))
                .map(Lambda::new(
                    ["x"],
                    ScalarExpr::call(BuiltinFn::StrLen, vec![x().get(1)]),
                )),
        ),
        Stmt::write(
            "grouped",
            BagExpr::read("xs")
                .group_by(Lambda::new(["x"], x().get(1)))
                .map(Lambda::new(
                    ["g"],
                    BagExpr::of_value(ScalarExpr::var("g").get(1)).count(),
                )),
        ),
    ]);
    let all_rows: Vec<Value> = vec![
        Value::tuple(vec![Value::Int(0), Value::str("ab")]),
        Value::tuple(vec![Value::Int(1), Value::str("")]),
        Value::tuple(vec![Value::Int(2), Value::str("ba")]),
    ];
    for n in [0usize, 1, 3] {
        let catalog = Catalog::new().with("xs", all_rows[..n].to_vec());
        vec_differential(&p, &catalog);
    }
}

// Regression: a FlatMap (standalone or as a fused stage) that is no unnest
// head — here one over a literal bag — has no columnar form and used to count
// a `vector_fallbacks` refusal before looking at its input, while every other
// site returns uncounted on an empty one — no rows means no slow path ran.
// One refusal per operator execution that saw a row; none otherwise.
#[test]
fn flat_map_refusal_is_counted_only_when_a_row_exists() {
    use emma_compiler::physical_pipeline::apply_pipeline_fusion;
    use emma_compiler::pipeline::{CStmt, CompiledProgram, OptimizationReport};
    use emma_compiler::plan::Plan;
    // Hand-built plans: the comprehension normalizer would rewrite a quoted
    // `flatMap` over a literal bag into a cross.
    let flat_map = |input: Plan| Plan::FlatMap {
        input: Box::new(input),
        param: "x".into(),
        body: BagExpr::values(vec![Value::Int(0), Value::Int(1)]).map(Lambda::new(
            ["d"],
            ScalarExpr::var("x").add(ScalarExpr::var("d")),
        )),
    };
    let source = || Plan::Source { name: "xs".into() };
    let program = |plan: Plan| CompiledProgram {
        body: vec![CStmt::Write {
            sink: "out".into(),
            plan,
        }],
        report: OptimizationReport::default(),
        compiled_eval: true,
    };
    let standalone = program(flat_map(source()));
    let mut fused = program(flat_map(Plan::Map {
        input: Box::new(source()),
        f: Lambda::new(["x"], ScalarExpr::var("x").add(ScalarExpr::lit(1))),
    }));
    apply_pipeline_fusion(&mut fused.body, &mut fused.report);
    assert_eq!(fused.report.pipelines_fused, 1);
    for (what, prog) in [("standalone", &standalone), ("fused", &fused)] {
        for (rows, refusals) in [(0i64, 0u64), (1, 1)] {
            let catalog = Catalog::new().with("xs", (0..rows).map(Value::Int).collect());
            let run = engine().run(prog, &catalog).expect("run");
            assert_eq!(run.writes["out"].len() as i64, 2 * rows, "{what}");
            assert_eq!(
                run.stats.vector_fallbacks, refusals,
                "{what}, {rows} row(s): {}",
                run.stats
            );
            assert_eq!(run.stats.rows_vectorized, 0, "{what}: {}", run.stats);
        }
    }
}

// Regression (ill-formed timeout budgets): `with_timeout` used to pass NaN,
// negative, and zero budgets straight into `simulated_secs > budget` — a NaN
// budget made the comparison silently never fire, turning a nonsense config
// into an unlimited one. Budgets now normalize at the check site
// (`budget.max(0.0)`): NaN and negative clamp to 0, so every run that
// charges any simulated time deterministically times out.
#[test]
fn degenerate_timeout_budgets_fire_deterministically() {
    let catalog = Catalog::new().with("xs", (0..1_000).map(|i| kv(i, i)).collect());
    let p = Program::new(vec![Stmt::write("out", BagExpr::read("xs"))]);
    let compiled = parallelize(&p, &OptimizerFlags::all());
    for bad in [f64::NAN, -1.0, 0.0] {
        let err = engine()
            .with_timeout(bad)
            .run(&compiled, &catalog)
            .expect_err("budget {bad} must abort a run that charges time");
        match err {
            emma_engine::ExecError::Timeout {
                at_secs,
                budget_secs,
            } => {
                assert!(at_secs > 0.0, "aborted at {at_secs}s under budget {bad}");
                // The error reports the *normalized* budget the check ran
                // against, so the message never prints NaN or a negative.
                assert_eq!(budget_secs.to_bits(), 0f64.to_bits());
            }
            other => panic!("budget {bad}: expected Timeout, got {other}"),
        }
    }
    // +∞ stays unlimited — the same as no timeout.
    let run = engine()
        .with_timeout(f64::INFINITY)
        .run(&compiled, &catalog)
        .expect("infinite budget never fires");
    assert_eq!(run.writes["out"].len(), 1_000);
}

// `Engine::run` executes on its caller's thread and moves to a deep stack
// only once the run has used its share of the caller's. An uncached loop
// whose lineage chain is forced at the end recurses once per iteration: from
// a caller with 512 KiB, which the chain alone would overflow, the run must
// complete, with the rows and stats of a run from a roomy stack. A cached
// loop forces one level at a time but its bindings still chain one thunk per
// iteration, so it is dropping them that must not recurse.
#[test]
fn deep_lineage_runs_from_a_small_caller_stack() {
    let catalog = Catalog::new().with("xs", (0..8).map(Value::Int).collect());
    // `ys = ys.map(_ + 1)` per iteration; `observe` also counts `ys` in the
    // loop, which forces (and, cached, memoizes) it every iteration.
    let program = |iterations: i64, observe: bool| {
        let mut body = vec![
            Stmt::assign(
                "ys",
                BagExpr::var("ys").map(Lambda::new(
                    ["y"],
                    ScalarExpr::var("y").add(ScalarExpr::lit(1i64)),
                )),
            ),
            Stmt::assign("i", ScalarExpr::var("i").add(ScalarExpr::lit(1i64))),
        ];
        if observe {
            body.push(Stmt::assign("n", BagExpr::var("ys").count()));
        }
        Program::new(vec![
            Stmt::var("ys", BagExpr::read("xs")),
            Stmt::var("i", ScalarExpr::lit(0i64)),
            Stmt::var("n", ScalarExpr::lit(0i64)),
            Stmt::while_loop(ScalarExpr::var("i").lt(ScalarExpr::lit(iterations)), body),
            Stmt::write("out", BagExpr::var("ys")),
        ])
    };
    let run_on = |stack_bytes: usize, compiled: &_| {
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(stack_bytes)
                .spawn_scoped(scope, || engine().run(compiled, &catalog).expect("engine"))
                .expect("spawn")
                .join()
                .expect("the run must not overflow its caller's stack")
        })
    };
    for (iterations, observe, caching) in [(1_000, false, false), (5_000, true, true)] {
        let flags = OptimizerFlags::all().with_caching(caching);
        let compiled = parallelize(&program(iterations, observe), &flags);
        let small = run_on(512 * 1024, &compiled);
        let roomy = run_on(64 * 1024 * 1024, &compiled);
        let expected: Vec<Value> = (0..8).map(|x| Value::Int(x + iterations)).collect();
        assert_eq!(
            Value::bag(small.writes["out"].clone()),
            Value::bag(expected)
        );
        assert_eq!(small.stats, roomy.stats);
        assert_eq!(small.stats.iterations, iterations as u64);
        assert_eq!(small.stats.cache_hits > 0, caching, "{}", small.stats);
    }
}

// Regression: the compiled tier memoized a run's UDFs by `Lambda` / `BagExpr`
// equality, which inherits `Value`'s numeric rule (`Int(2) == Float(2.0)`,
// `0.0 == -0.0`), so two UDFs that differ only in a literal's type or sign
// shared the first one's compiled program. Hand-built plans keep the same
// parameter name on both sides, as `parallelize`'s renaming would not.
#[test]
fn udfs_that_differ_only_in_a_literal_compile_apart_on_every_tier() {
    use emma_compiler::pipeline::{CStmt, CompiledProgram, OptimizationReport};
    use emma_compiler::plan::Plan;
    let xs = || Box::new(Plan::Source { name: "xs".into() });
    let x = || ScalarExpr::var("x");
    let map = |body: ScalarExpr| Plan::Map {
        input: xs(),
        f: Lambda::new(["x"], body),
    };
    let flat_map = |delta: Value| Plan::FlatMap {
        input: xs(),
        param: "x".into(),
        body: BagExpr::values(vec![delta]).map(Lambda::new(["d"], x().add(ScalarExpr::var("d")))),
    };
    let writes = [
        ("int", map(x().mul(ScalarExpr::lit(2)))),
        ("float", map(x().mul(ScalarExpr::lit(2.0)))),
        ("zero", map(x().mul(ScalarExpr::lit(0.0)))),
        ("neg_zero", map(x().mul(ScalarExpr::lit(-0.0)))),
        ("int_delta", flat_map(Value::Int(0))),
        ("float_delta", flat_map(Value::Float(0.0))),
    ];
    let program = |compiled_eval| CompiledProgram {
        body: writes
            .iter()
            .map(|(sink, plan)| CStmt::Write {
                sink: sink.to_string(),
                plan: plan.clone(),
            })
            .collect(),
        report: OptimizationReport::default(),
        compiled_eval,
    };
    let catalog = Catalog::new().with("xs", (1..=3).map(Value::Int).collect());
    let mut scalar = engine();
    scalar.vectorized = None;
    let tiers = [
        ("kernels", engine().run(&program(true), &catalog)),
        ("scalar", scalar.run(&program(true), &catalog)),
        ("interpreter", engine().run(&program(false), &catalog)),
    ];
    let ints = |k: i64| (1..=3).map(|i| Value::Int(i * k)).collect::<Vec<_>>();
    let floats = |k: f64| {
        (1..=3)
            .map(|i| Value::Float(i as f64 * k))
            .collect::<Vec<_>>()
    };
    // `Value` equality cannot tell these apart, so rows compare as `Debug`.
    let want = [
        ("int", ints(2)),
        ("float", floats(2.0)),
        ("zero", floats(0.0)),
        ("neg_zero", floats(-0.0)),
        ("int_delta", ints(1)),
        ("float_delta", floats(1.0)),
    ];
    for (tier, run) in tiers {
        let run = run.unwrap_or_else(|e| panic!("{tier}: {e}"));
        if tier == "kernels" {
            assert!(run.stats.rows_vectorized > 0, "{}", run.stats);
        }
        for (sink, rows) in &want {
            assert_eq!(
                format!("{:?}", run.writes[*sink]),
                format!("{rows:?}"),
                "{tier}: sink {sink}"
            );
        }
    }
}
