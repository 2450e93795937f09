//! Property tests: executing a fused `Plan::Pipeline` must be observably
//! identical to executing the unfused operator chain — same output rows in
//! the same order, and bit-identical deterministic counters (`ExecStats`
//! equality covers `simulated_secs` via the exact attosecond accumulator,
//! all byte/record counters, stages, and cache hit/miss counts). Two plan
//! shapes of one program are compared without the tier telemetry, which
//! counts per operator execution; two runs of one plan are compared with it.
//!
//! A standalone `Map` / `Filter` / `FlatMap` is the one-stage case of the
//! same engine path: it must agree with a hand-built one-stage
//! `Plan::Pipeline` on rows, layout, counters and clock bits, and a
//! timed-out single `Map` keeps firing where it always did.
//!
//! The same invariance must hold across thread-dispatch modes: the
//! persistent worker pool and the legacy per-operator scopes (and serial
//! execution below the fan-out threshold) may not change any output
//! or counter.

use emma_compiler::bag_expr::BagExpr;
use emma_compiler::expr::{FoldOp, Lambda, ScalarExpr};
use emma_compiler::interp::Catalog;
use emma_compiler::physical_pipeline::apply_pipeline_fusion;
use emma_compiler::pipeline::{CStmt, CompiledProgram, OptimizationReport};
use emma_compiler::plan::{PipelineStage, Plan};
use emma_compiler::value::Value;
use emma_engine::{Engine, EngineRun, ExecError, ParallelismMode};
use proptest::prelude::*;

/// One randomly drawn narrow operator over `Int` rows.
#[derive(Clone, Copy, Debug)]
enum NarrowOp {
    /// `x => x + k`
    MapAdd(i64),
    /// `x => x * k`
    MapMul(i64),
    /// `x => x > k`
    FilterGt(i64),
    /// `x => x < k`
    FilterLt(i64),
    /// `x => {x + 0, x + 1}` — doubles the row count.
    FlatMapPair,
    /// `x => {d <- {1,2,3} | d > x mod-ish bound}` via literal deltas,
    /// mapped through `x*2 + d` — variable fan-out incl. empty.
    FlatMapDeltas(i64),
}

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn lit(k: i64) -> ScalarExpr {
    ScalarExpr::lit(k)
}

impl NarrowOp {
    fn apply(self, input: Plan) -> Plan {
        let input = Box::new(input);
        match self {
            NarrowOp::MapAdd(k) => Plan::Map {
                input,
                f: Lambda::new(["x"], var("x").add(lit(k))),
            },
            NarrowOp::MapMul(k) => Plan::Map {
                input,
                f: Lambda::new(["x"], var("x").mul(lit(k))),
            },
            NarrowOp::FilterGt(k) => Plan::Filter {
                input,
                p: Lambda::new(["x"], var("x").gt(lit(k))),
            },
            NarrowOp::FilterLt(k) => Plan::Filter {
                input,
                p: Lambda::new(["x"], var("x").lt(lit(k))),
            },
            NarrowOp::FlatMapPair => Plan::FlatMap {
                input,
                param: "x".into(),
                body: BagExpr::values(vec![Value::Int(0), Value::Int(1)])
                    .map(Lambda::new(["d"], var("x").add(var("d")))),
            },
            NarrowOp::FlatMapDeltas(k) => Plan::FlatMap {
                input,
                param: "x".into(),
                body: BagExpr::values(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
                    .filter(Lambda::new(["d"], var("d").gt(lit(k))))
                    .map(Lambda::new(["d"], var("x").mul(lit(2)).add(var("d")))),
            },
        }
    }
}

fn op_strategy() -> impl Strategy<Value = NarrowOp> {
    prop_oneof![
        (-10i64..10).prop_map(NarrowOp::MapAdd),
        (-3i64..4).prop_map(NarrowOp::MapMul),
        (-50i64..50).prop_map(NarrowOp::FilterGt),
        (-50i64..50).prop_map(NarrowOp::FilterLt),
        Just(NarrowOp::FlatMapPair),
        (0i64..4).prop_map(NarrowOp::FlatMapDeltas),
    ]
}

/// A one-write program around a hand-built plan.
fn write_program(plan: Plan) -> CompiledProgram {
    CompiledProgram {
        body: vec![CStmt::Write {
            sink: "out".into(),
            plan,
        }],
        report: OptimizationReport::default(),
        compiled_eval: true,
    }
}

/// Wraps a chain of narrow ops over `Source(xs)` into a one-write program.
fn chain_program(ops: &[NarrowOp]) -> CompiledProgram {
    let mut plan = Plan::Source { name: "xs".into() };
    for op in ops {
        plan = op.apply(plan);
    }
    write_program(plan)
}

fn fused_clone(prog: &CompiledProgram) -> CompiledProgram {
    let mut fused = prog.clone();
    apply_pipeline_fusion(&mut fused.body, &mut fused.report);
    fused
}

fn run(engine: &Engine, prog: &CompiledProgram, catalog: &Catalog) -> EngineRun {
    engine.run(prog, catalog).expect("run failed")
}

/// Two plan shapes of one program: output rows and the deterministic
/// counters must match exactly.
fn assert_equivalent(a: &EngineRun, b: &EngineRun, what: &str) {
    assert_eq!(a.writes, b.writes, "{what}: sink rows differ");
    assert_eq!(a.scalars, b.scalars, "{what}: scalars differ");
    assert_eq!(
        a.stats.without_tier_telemetry(),
        b.stats.without_tier_telemetry(),
        "{what}: deterministic counters differ"
    );
    assert_eq!(
        a.stats.simulated_secs.to_bits(),
        b.stats.simulated_secs.to_bits(),
        "{what}: simulated time not bit-identical"
    );
}

/// Two runs of one plan: the tier telemetry must replay as well.
fn assert_identical(a: &EngineRun, b: &EngineRun, what: &str) {
    assert_equivalent(a, b, what);
    assert_eq!(a.stats, b.stats, "{what}: tier telemetry differs");
}

/// A pool engine that fans out even on a single-core machine and for tiny
/// inputs, so the worker-pool paths are actually exercised.
fn pool_engine() -> Engine {
    Engine::sparrow()
        .with_parallelism_mode(ParallelismMode::Pool)
        .with_worker_threads(Some(4))
        .with_parallelism_threshold(1)
}

/// The seed-equivalent baseline: per-operator scopes, default gate.
fn per_op_engine() -> Engine {
    Engine::sparrow().with_parallelism_mode(ParallelismMode::PerOperator)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_equals_unfused(
        rows in prop::collection::vec(-100i64..100, 0..200),
        ops in prop::collection::vec(op_strategy(), 2..7),
    ) {
        let catalog =
            Catalog::new().with("xs", rows.into_iter().map(Value::Int).collect::<Vec<_>>());
        let unfused = chain_program(&ops);
        let fused = fused_clone(&unfused);
        prop_assert!(
            fused.report.pipelines_fused >= 1,
            "a {}-op narrow chain must fuse", ops.len()
        );
        let engine = pool_engine();
        assert_equivalent(
            &run(&engine, &fused, &catalog),
            &run(&engine, &unfused, &catalog),
            "fused vs unfused",
        );
    }

    #[test]
    fn pool_equals_per_operator_scopes(
        rows in prop::collection::vec(-100i64..100, 0..200),
        ops in prop::collection::vec(op_strategy(), 1..7),
    ) {
        let catalog =
            Catalog::new().with("xs", rows.into_iter().map(Value::Int).collect::<Vec<_>>());
        let prog = fused_clone(&chain_program(&ops));
        assert_identical(
            &run(&pool_engine(), &prog, &catalog),
            &run(&per_op_engine(), &prog, &catalog),
            "pool vs per-operator",
        );
    }

    #[test]
    fn serial_below_threshold_equals_parallel(
        rows in prop::collection::vec(-100i64..100, 0..80),
        ops in prop::collection::vec(op_strategy(), 2..6),
    ) {
        let catalog =
            Catalog::new().with("xs", rows.into_iter().map(Value::Int).collect::<Vec<_>>());
        let prog = fused_clone(&chain_program(&ops));
        let serial = pool_engine().with_parallelism_threshold(u64::MAX);
        assert_identical(
            &run(&pool_engine(), &prog, &catalog),
            &run(&serial, &prog, &catalog),
            "parallel vs serial gate",
        );
    }
}

/// Fusion across a chain whose head consumes grouped rows: the first Map
/// folds over each group's nested bag (the `charge_nested_bag_folds` path,
/// where the fused pass must reproduce the per-boundary byte maxima the
/// unfused operators would have charged).
#[test]
fn grouped_input_pipeline_matches_unfused() {
    // groupBy(_.0) → map(g => (g.0, sum(g.1[_.1]))) → filter(t => t.1 > 5)
    //             → map(t => t.1)
    let grouped = Plan::GroupBy {
        input: Box::new(Plan::Source { name: "kv".into() }),
        key: Lambda::new(["t"], var("t").get(0)),
    };
    let agg = Plan::Map {
        input: Box::new(grouped),
        f: Lambda::new(
            ["g"],
            ScalarExpr::Tuple(vec![
                var("g").get(0),
                BagExpr::of_value(var("g").get(1))
                    .map(Lambda::new(["t"], var("t").get(1)))
                    .fold(FoldOp::sum()),
            ]),
        ),
    };
    let filtered = Plan::Filter {
        input: Box::new(agg),
        p: Lambda::new(["t"], var("t").get(1).gt(lit(5))),
    };
    let projected = Plan::Map {
        input: Box::new(filtered),
        f: Lambda::new(["t"], var("t").get(1)),
    };
    let unfused = write_program(projected);
    let fused = fused_clone(&unfused);
    assert_eq!(fused.report.pipelines_fused, 1);
    assert_eq!(fused.report.pipeline_stages_fused, 3);

    let rows: Vec<Value> = (0..500)
        .map(|i| Value::tuple(vec![Value::Int(i % 37), Value::Int(i % 11)]))
        .collect();
    let catalog = Catalog::new().with("kv", rows);
    for engine in [pool_engine(), per_op_engine()] {
        assert_equivalent(
            &run(&engine, &fused, &catalog),
            &run(&engine, &unfused, &catalog),
            "grouped-head pipeline",
        );
    }
}

/// An empty source exercises the zero-partition / zero-row edges of the
/// fused pass and the pool's gate.
#[test]
fn empty_input_pipeline_matches_unfused() {
    let ops = [
        NarrowOp::MapAdd(1),
        NarrowOp::FlatMapPair,
        NarrowOp::FilterGt(0),
    ];
    let catalog = Catalog::new().with("xs", Vec::<Value>::new());
    let unfused = chain_program(&ops);
    let fused = fused_clone(&unfused);
    let engine = pool_engine();
    assert_equivalent(
        &run(&engine, &fused, &catalog),
        &run(&engine, &unfused, &catalog),
        "empty input",
    );
}

/// Rewrites a standalone narrow operator into the one-stage pipeline that
/// carries the same UDF (the fusion pass itself only fuses chains of two or
/// more).
fn one_stage(plan: Plan) -> Plan {
    let (input, stage) = match plan {
        Plan::Map { input, f } => (input, PipelineStage::Map { f }),
        Plan::Filter { input, p } => (input, PipelineStage::Filter { p }),
        Plan::FlatMap { input, param, body } => (input, PipelineStage::FlatMap { param, body }),
        other => panic!("not a narrow operator: {other:?}"),
    };
    Plan::Pipeline {
        input,
        stages: vec![stage],
    }
}

/// `groupBy(x => x)` over `op` over `repartition(x => x)`: whether `op`
/// kept the physical layout decides whether the trailing shuffle is elided,
/// so the layout rule shows up in the counters.
fn layout_probe(op: Plan) -> Plan {
    Plan::GroupBy {
        input: Box::new(op),
        key: Lambda::new(["x"], var("x")),
    }
}

fn repartitioned_xs() -> Plan {
    Plan::Repartition {
        input: Box::new(Plan::Source { name: "xs".into() }),
        key: Lambda::new(["x"], var("x")),
    }
}

/// Every single-operator shape against its hand-built one-stage pipeline:
/// rows, layout, counters (tier telemetry included — both are one operator
/// execution) and clock bits.
#[test]
fn single_operator_equals_one_stage_pipeline() {
    let ints = |n: i64| -> Vec<Value> { (0..n).map(|i| Value::Int(i % 23 - 5)).collect() };
    let strs: Vec<Value> = (0..300)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i),
                Value::str(["xzzy", "abc", ""][i as usize % 3]),
            ])
        })
        .collect();
    let kv: Vec<Value> = (0..500)
        .map(|i| Value::tuple(vec![Value::Int(i % 37), Value::Int(i % 11)]))
        .collect();
    let contains = Plan::Map {
        input: Box::new(Plan::Source { name: "xs".into() }),
        f: Lambda::new(
            ["x"],
            ScalarExpr::call(
                emma_compiler::expr::BuiltinFn::StrContains,
                vec![var("x").get(1), ScalarExpr::lit(Value::str("zz"))],
            ),
        ),
    };
    // A Map folding each group's nested bag: the nested-fold re-scan charge
    // and the byte term both read the head stage's entry bytes.
    let grouped_fold = Plan::Map {
        input: Box::new(Plan::GroupBy {
            input: Box::new(Plan::Source { name: "xs".into() }),
            key: Lambda::new(["t"], var("t").get(0)),
        }),
        f: Lambda::new(
            ["g"],
            ScalarExpr::Tuple(vec![
                var("g").get(0),
                BagExpr::of_value(var("g").get(1))
                    .map(Lambda::new(["t"], var("t").get(1)))
                    .fold(FoldOp::sum()),
            ]),
        ),
    };
    let narrow = [
        NarrowOp::MapAdd(0),
        NarrowOp::FilterGt(-100),
        NarrowOp::FlatMapPair,
    ];
    let mut cases: Vec<(String, Plan, Vec<Value>)> = Vec::new();
    for op in narrow {
        for n in [0, 400] {
            cases.push((
                format!("{op:?} × {n}"),
                op.apply(repartitioned_xs()),
                ints(n),
            ));
        }
    }
    cases.push(("contains map".into(), contains, strs));
    cases.push(("grouped nested fold".into(), grouped_fold, kv));

    let mut shuffled = std::collections::HashMap::new();
    for (what, op, rows) in cases {
        let catalog = Catalog::new().with("xs", rows);
        let standalone = write_program(layout_probe(op.clone()));
        let pipelined = write_program(layout_probe(one_stage(op)));
        for engine in [pool_engine(), per_op_engine()] {
            let a = run(&engine, &standalone, &catalog);
            assert_identical(&a, &run(&engine, &pipelined, &catalog), &what);
            shuffled.insert(what.clone(), a.stats.bytes_shuffled);
        }
    }
    // The layout rule is live: over the same 400 rows a Filter keeps the
    // repartitioned layout (the trailing shuffle is elided), a Map drops it.
    assert!(
        shuffled["FilterGt(-100) × 400"] < shuffled["MapAdd(0) × 400"],
        "{shuffled:?}"
    );
}

/// Where `ExecError::Timeout` fires for a single `Map` whose own charge
/// exhausts the budget. A standalone operator has no budget check of its
/// own: the sink's check reports it, after the write charge, so `at_secs` is
/// the whole run's clock. The `Plan::Pipeline` arm checks as it returns.
#[test]
fn timed_out_single_map_fires_where_it_did() {
    let catalog = Catalog::new().with("xs", (0..5_000).map(Value::Int).collect::<Vec<_>>());
    let map = NarrowOp::MapAdd(1).apply(Plan::Source { name: "xs".into() });
    let standalone = write_program(map.clone());
    let pipelined = write_program(one_stage(map));
    let full = run(&Engine::sparrow(), &standalone, &catalog);
    // A budget the source fits in and the Map's own CPU charge overruns.
    let budget = full.stats.op_secs["Source"] + full.stats.op_secs["Map"] / 2.0;
    let at =
        |prog: &CompiledProgram| match Engine::sparrow().with_timeout(budget).run(prog, &catalog) {
            Err(ExecError::Timeout { at_secs, .. }) => at_secs,
            other => panic!("expected a timeout, got {other:?}"),
        };
    assert_eq!(
        at(&standalone).to_bits(),
        full.stats.simulated_secs.to_bits()
    );
    let early = at(&pipelined);
    assert!(
        budget < early && early < full.stats.simulated_secs,
        "{budget} < {early} < {}",
        full.stats.simulated_secs
    );
}
