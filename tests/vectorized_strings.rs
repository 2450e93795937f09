//! Cross-tier differential harness for the string kernels and the
//! vectorized key path.
//!
//! One place asserts the whole contract: for generated string-bearing
//! programs (shared typed generator in `tests/common/string_exprs.rs`), the
//! reference interpreter, the engine on the interpreter alone, and the
//! vectorized tier must agree on every sink's values; the two engine runs
//! must additionally agree on errors, on every cost-model counter, and on
//! the exact bit pattern of the simulated clock — across 1/2/4 worker
//! threads, both dispatch modes, injected chaos, and skew splitting. The batch tier's only
//! permitted trace is its own telemetry (`rows_vectorized`,
//! `batches_executed`, `vector_fallbacks`, `key_path_fallbacks`).
//!
//! The deterministic tests pin the refusal counters site by site: a fully
//! string-vectorizable plan reports zero fallbacks, a non-specializable map
//! body bumps `vector_fallbacks`, and the length-aware `contains` cost is
//! identical across tiers while growing with input bytes. The key-path
//! counter is pinned per keyed site in `tests/keyed_operators.rs`.

mod common;
#[path = "common/string_exprs.rs"]
mod string_exprs;

use common::MATRIX;
use emma::prelude::*;
use emma_engine::ParallelismMode;
use proptest::prelude::*;

fn engine() -> Engine {
    common::tiny_engine(Personality::sparrow())
}

fn x() -> ScalarExpr {
    ScalarExpr::var("x")
}

/// The generated workload: a map, a filter, a `groupBy`, a fused
/// group-aggregate, a broadcast join on a string key, and a `distinct` —
/// every operator family the string kernels and the key path touch.
fn string_program(
    map_body: ScalarExpr,
    filter_body: ScalarExpr,
    key_body: ScalarExpr,
    rows: Vec<Value>,
) -> (Program, Catalog) {
    let dims: Vec<Value> = ["", "a", "b", "ab", "ba", "abc"]
        .iter()
        .enumerate()
        .map(|(i, s)| Value::tuple(vec![Value::str(*s), Value::Int(i as i64)]))
        .collect();
    let catalog = Catalog::new().with("rows", rows).with("dims", dims);
    let join_inner = BagExpr::read("dims")
        .filter(Lambda::new(
            ["d"],
            x().get(1).eq(ScalarExpr::var("d").get(0)),
        ))
        .map(Lambda::new(
            ["d"],
            ScalarExpr::Tuple(vec![x().get(0), ScalarExpr::var("d").get(1)]),
        ));
    let program = Program::new(vec![
        Stmt::write(
            "mapped",
            BagExpr::read("rows").map(Lambda::new(["x"], map_body)),
        ),
        Stmt::write(
            "kept",
            BagExpr::read("rows").filter(Lambda::new(["x"], filter_body)),
        ),
        Stmt::write(
            "groups",
            BagExpr::read("rows").group_by(Lambda::new(["x"], key_body.clone())),
        ),
        Stmt::write(
            "agg",
            BagExpr::read("rows")
                .group_by(Lambda::new(["x"], key_body))
                .map(Lambda::new(
                    ["g"],
                    ScalarExpr::Tuple(vec![
                        ScalarExpr::var("g").get(0),
                        BagExpr::of_value(ScalarExpr::var("g").get(1)).count(),
                    ]),
                )),
        ),
        Stmt::write(
            "joined",
            BagExpr::read("rows").flat_map(BagLambda::new("x", join_inner)),
        ),
        Stmt::write(
            "keys",
            BagExpr::read("rows")
                .map(Lambda::new(["x"], x().get(1)))
                .distinct(),
        ),
    ]);
    (program, catalog)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The headline: interp vs compiled vs vectorized over generated string
    // programs, across the thread × mode matrix, with and without chaos,
    // with and without skew splitting — values, errors, counters, and the
    // simulated clock bits all checked in one place.
    #[test]
    fn cross_tier_differential_on_string_programs(
        map_body in string_exprs::map_body(),
        filter_body in string_exprs::bool_expr(2),
        key_body in string_exprs::key_body(),
        rows in prop::collection::vec(string_exprs::string_row(), 150..400),
        chaos_seed in any::<u64>(),
    ) {
        let (p, catalog) = string_program(map_body, filter_body, key_body, rows);
        let interp = Interp::new(&catalog).run(&p);
        let prog = parallelize(&p, &OptimizerFlags::all().with_compiled_eval(true));
        let interp_prog = parallelize(&p, &OptimizerFlags::all().with_compiled_eval(false));
        let skew_cfg = SkewConfig::default().with_min_part_rows(32);

        for chaos in [None, Some(FaultConfig::chaos(chaos_seed))] {
            for skew_on in [false, true] {
                let mk = |vec_on: bool, mode: ParallelismMode, threads: usize| {
                    let mut e = engine()
                        .with_parallelism_mode(mode)
                        .with_worker_threads(Some(threads));
                    if let Some(cfg) = chaos {
                        e = e.with_faults(cfg);
                    }
                    if skew_on {
                        e = e.with_skew_splitting(skew_cfg);
                    }
                    if vec_on {
                        e.with_vectorized_eval(BatchConfig::new(64)).run(&prog, &catalog)
                    } else {
                        e.run(&interp_prog, &catalog)
                    }
                };
                let scalar = mk(false, ParallelismMode::Pool, 2);
                let vec_runs: Vec<_> =
                    MATRIX.iter().map(|&(m, t)| mk(true, m, t)).collect();

                match &scalar {
                    // A generated body may error (e.g. divide by a zero
                    // column). The interpreter must agree that the program
                    // errors, and every vectorized run must reproduce the
                    // interpreter's error exactly — that is the replay
                    // contract.
                    Err(e) => {
                        prop_assert!(
                            interp.is_err(),
                            "engine errored but the interpreter succeeded: {e:?}"
                        );
                        for vr in &vec_runs {
                            match vr {
                                Err(ve) => {
                                    prop_assert_eq!(format!("{e:?}"), format!("{ve:?}"));
                                }
                                Ok(_) => prop_assert!(
                                    false,
                                    "vectorized run succeeded where the interpreter failed"
                                ),
                            }
                        }
                    }
                    Ok(s) => {
                        // Values: engine sinks match the interpreter as
                        // multisets (partitioned operators concatenate in
                        // hash order, not input order).
                        let want = interp.as_ref().expect("interp agrees the program runs");
                        for (sink, rows) in &want.writes {
                            prop_assert_eq!(
                                Value::bag(rows.clone()),
                                Value::bag(s.writes[sink].clone()),
                                "sink {} diverges from the interpreter",
                                sink
                            );
                        }
                        let first = vec_runs[0].as_ref().expect("vectorized run");
                        // With the tier on, every run either vectorizes rows
                        // or visibly counts its refusals.
                        prop_assert!(
                            first.stats.rows_vectorized
                                + first.stats.vector_fallbacks
                                + first.stats.key_path_fallbacks
                                > 0,
                            "vectorized tier neither engaged nor reported"
                        );
                        for vr in &vec_runs {
                            let v = vr.as_ref().expect("vectorized run");
                            prop_assert_eq!(&v.writes, &s.writes);
                            prop_assert_eq!(&v.scalars, &s.scalars);
                            prop_assert_eq!(v.stats.without_tier_telemetry(), s.stats.clone());
                            prop_assert_eq!(&v.stats, &first.stats);
                            prop_assert_eq!(
                                v.stats.simulated_secs.to_bits(),
                                s.stats.simulated_secs.to_bits(),
                                "vectorization moved the clock"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Rows shaped like the email workload: `(id, "user<i>@<domain>", domain,
/// small int)` over five distinct domains — string-dictionary friendly.
fn email_rows(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            let domain = match i % 5 {
                0 => "gmail.com",
                1 => "yahoo.com",
                2 => "corp.example",
                3 => "dev.null",
                _ => "mail.net",
            };
            Value::tuple(vec![
                Value::Int(i as i64),
                Value::str(format!("user{i}@{domain}")),
                Value::str(domain),
                Value::Int((i % 7) as i64),
            ])
        })
        .collect()
}

/// A plan built entirely from the vectorizable string surface — a fused
/// `contains` filter + `strlen` map and a string-keyed fused group-aggregate
/// — must engage the batch tier with *zero* refusals on either counter,
/// while reproducing the interpreter bit-for-bit.
#[test]
fn fully_vectorized_string_plan_reports_zero_fallbacks() {
    let catalog = Catalog::new().with("rows", email_rows(3_000));
    let p = Program::new(vec![
        Stmt::write(
            "kept",
            BagExpr::read("rows")
                .filter(Lambda::new(
                    ["x"],
                    ScalarExpr::call(
                        BuiltinFn::StrContains,
                        vec![x().get(1), ScalarExpr::lit(Value::str("gmail.com"))],
                    ),
                ))
                .map(Lambda::new(
                    ["x"],
                    ScalarExpr::call(BuiltinFn::StrLen, vec![x().get(1)]).add(x().get(3)),
                )),
        ),
        Stmt::write(
            "agg",
            BagExpr::read("rows")
                .group_by(Lambda::new(["x"], x().get(2)))
                .map(Lambda::new(
                    ["g"],
                    ScalarExpr::Tuple(vec![
                        ScalarExpr::var("g").get(0),
                        BagExpr::of_value(ScalarExpr::var("g").get(1)).count(),
                    ]),
                )),
        ),
    ]);
    let prog = parallelize(&p, &OptimizerFlags::all().with_compiled_eval(true));
    let interp_prog = parallelize(&p, &OptimizerFlags::all().with_compiled_eval(false));
    let scalar = engine().run(&interp_prog, &catalog).expect("interpreter");
    let vec = engine()
        .with_vectorized_eval(BatchConfig::new(256))
        .run(&prog, &catalog)
        .expect("vectorized");
    assert_eq!(vec.stats.vector_fallbacks, 0, "{}", vec.stats);
    assert_eq!(vec.stats.key_path_fallbacks, 0, "{}", vec.stats);
    // Every row enters the `contains` head stage's kernel, and every row
    // the aggregation kernel's combiner.
    assert!(vec.stats.rows_vectorized >= 2 * 3_000, "{}", vec.stats);
    assert_eq!(vec.writes, scalar.writes);
    assert_eq!(
        vec.stats.simulated_secs.to_bits(),
        scalar.stats.simulated_secs.to_bits()
    );
}

/// The numeric side of the same pin: a fused Map/Filter chain over
/// `(i64, i64)` rows built from the shapes of real scoring UDFs — a branchy
/// tuple rewrite, a multi-term predicate, `min`/`abs` builtins, a collapse to
/// a scalar score and a round of integer hashing — runs every row through
/// the kernels of the default engine with no refusal on either counter.
#[test]
fn numeric_chain_fully_vectorizes_by_default() {
    const ROWS: i64 = 5_000;
    let lit = |k: i64| ScalarExpr::lit(Value::Int(k));
    let (t0, t1) = (|| x().get(0), || x().get(1));
    let catalog = Catalog::new().with(
        "xs",
        (0..ROWS)
            .map(|i| Value::tuple(vec![Value::Int(i % 1_000), Value::Int((i * 7) % 100)]))
            .collect::<Vec<_>>(),
    );
    let chain = BagExpr::read("xs")
        .map(Lambda::new(
            ["x"],
            ScalarExpr::If(
                Box::new(t0().rem(lit(3)).eq(lit(0))),
                Box::new(ScalarExpr::Tuple(vec![
                    t0().mul(lit(2)).add(t1()).sub(lit(7)),
                    t1().add(lit(1)),
                ])),
                Box::new(ScalarExpr::Tuple(vec![
                    t0().add(lit(3)),
                    t1().mul(lit(3)).rem(lit(101)),
                ])),
            ),
        ))
        .filter(Lambda::new(
            ["x"],
            t0().add(t1())
                .rem(lit(17))
                .ne(lit(3))
                .and(t0().mul(lit(3)).sub(t1()).gt(lit(-1_000_000))),
        ))
        .map(Lambda::new(
            ["x"],
            ScalarExpr::call(
                BuiltinFn::MinOf,
                vec![
                    t0().mul(t0().rem(lit(7)).add(lit(3)))
                        .add(ScalarExpr::call(BuiltinFn::Abs, vec![t0().sub(t1())])),
                    lit(1 << 20),
                ],
            )
            .add(t1().mul(lit(31)))
            .rem(lit(1_000_003)),
        ))
        .map(Lambda::new(
            ["x"],
            x().mul(lit(3))
                .add(lit(11))
                .rem(lit(65_521))
                .add(x().rem(lit(7)).mul(x().rem(lit(13)))),
        ))
        .filter(Lambda::new(
            ["x"],
            x().rem(lit(251)).ne(lit(0)).or(x().ge(lit(0))),
        ));
    let p = Program::new(vec![Stmt::write("out", chain)]);
    let prog = parallelize(&p, &OptimizerFlags::all());
    assert!(prog.report.pipelines_fused >= 1);
    let run = engine().run(&prog, &catalog).expect("default engine");
    assert!(run.stats.rows_vectorized >= ROWS as u64, "{}", run.stats);
    assert_eq!(run.stats.vector_fallbacks, 0, "{}", run.stats);
    assert_eq!(run.stats.key_path_fallbacks, 0, "{}", run.stats);
    let interp_prog = parallelize(&p, &OptimizerFlags::all().with_compiled_eval(false));
    let scalar = engine().run(&interp_prog, &catalog).expect("interpreter");
    assert_eq!(run.writes, scalar.writes);
}

/// A fused Map/Filter chain over `(i64, i64)` rows, on two inputs of 10 000
/// rows each: all ints, and all ints but a `Float` in the field the chain
/// reads first every 1 000th row. The chain reads it through `+`, `*` and
/// `>`, which the interpreter takes on a `Float`, so both inputs write the
/// rows the engine's interpreter writes. A `Float` row aborts its batch at
/// the typed load, and the interpreter replays that batch: the kernels
/// count every row but exactly those of the aborted batches, and nothing
/// refuses.
#[test]
fn a_narrow_chain_replays_exactly_the_batches_a_float_aborts() {
    let (t0, t1) = (|| x().get(0), || x().get(1));
    let chain = BagExpr::read("xs")
        .map(Lambda::new(
            ["x"],
            ScalarExpr::Tuple(vec![
                t0().mul(ScalarExpr::lit(3i64)).add(t1()),
                t1().sub(ScalarExpr::lit(2i64)),
            ]),
        ))
        .filter(Lambda::new(["x"], t0().gt(t1())))
        .map(Lambda::new(
            ["x"],
            t0().mul(ScalarExpr::lit(2i64)).sub(t1()),
        ));
    let p = Program::new(vec![Stmt::write("out", chain)]);
    let prog = parallelize(&p, &OptimizerFlags::all());
    let interp_prog = parallelize(&p, &OptimizerFlags::all().with_compiled_eval(false));
    let (n, every) = (10_000usize, 1_000usize);
    let floats: Vec<usize> = (every - 1..n).step_by(every).collect();
    // Sources are cut into `dop` contiguous partitions and each partition
    // into batches from its start.
    let part = n.div_ceil(ClusterSpec::tiny().dop());
    let batch = BatchConfig::default().batch_rows;
    let aborted: std::collections::BTreeSet<(usize, usize)> = floats
        .iter()
        .map(|at| (at / part, at % part / batch))
        .collect();
    let aborted_rows: usize = aborted
        .iter()
        .map(|&(p, b)| (part.min(n - p * part) - b * batch).min(batch))
        .sum();
    assert!(aborted_rows > 0 && aborted_rows < n);
    let inputs = [
        ("ints", vec![], n),
        ("a float every 1 000th row", floats, n - aborted_rows),
    ];
    for (input, floats, vectorized) in inputs {
        let mut rows: Vec<Value> = (0..n as i64)
            .map(|i| Value::tuple(vec![Value::Int(i % 997 - 400), Value::Int(i % 101)]))
            .collect();
        for &at in &floats {
            rows[at] = Value::tuple(vec![Value::Float(at as f64 * 0.5), Value::Int(7)]);
        }
        let catalog = Catalog::new().with("xs", rows);
        let run = engine().run(&prog, &catalog).expect("default engine");
        let interp = engine().run(&interp_prog, &catalog).expect("interpreter");
        // `Debug`, so an `Int` cannot stand in for the `Float` it equals.
        let rows = |r: &EngineRun| format!("{:?}", r.writes["out"]);
        assert_eq!(rows(&run), rows(&interp), "{input}");
        assert_eq!(run.stats.without_tier_telemetry(), interp.stats, "{input}");
        assert_eq!(
            run.stats.rows_vectorized, vectorized as u64,
            "{input}: {}",
            run.stats
        );
        assert_eq!(run.stats.vector_fallbacks, 0, "{input}: {}", run.stats);
    }
}

/// A kernel shares the strings it forwards, but still loads them: the load
/// is the batch's conformance check. `x -> (x.2, x.0 % x.1)` over 10 000
/// `(Int, Int, Str)` rows forwards `x.2`; one row holds an `Int` there, far
/// past the rows the site samples. Its batch aborts and the interpreter
/// replays it, so the `Int` reaches the sink and that batch alone is neither
/// vectorized nor executed. With a zero modulus on a later row, the run
/// raises the interpreter's first error. Rows, error and tier telemetry are
/// the same on every thread count, dispatch mode and under chaos.
#[test]
fn a_forwarded_string_that_does_not_conform_aborts_and_replays_its_batch() {
    let body = ScalarExpr::Tuple(vec![x().get(2), x().get(0).rem(x().get(1))]);
    let map = BagExpr::read("xs").map(Lambda::new(["x"], body));
    let p = Program::new(vec![Stmt::write("out", map)]);
    let prog = parallelize(&p, &OptimizerFlags::all());
    let interp_prog = parallelize(&p, &OptimizerFlags::all().with_compiled_eval(false));
    let (n, int_at, zero_at) = (10_000usize, 5_555usize, 7_777usize);
    let catalog = |zero: bool| {
        let mut rows: Vec<Value> = (0..n as i64)
            .map(|i| {
                Value::tuple([
                    Value::Int(i),
                    Value::Int(1 + i % 7),
                    Value::str(format!("s{i}")),
                ])
            })
            .collect();
        rows[int_at] = Value::tuple([Value::Int(1), Value::Int(3), Value::Int(7)]);
        if zero {
            rows[zero_at] = Value::tuple([Value::Int(1), Value::Int(0), Value::str("z")]);
        }
        Catalog::new().with("xs", rows)
    };
    // Sources are cut into `dop` contiguous partitions and each partition
    // into batches from its start.
    let (part, batch) = (
        n.div_ceil(ClusterSpec::tiny().dop()),
        BatchConfig::default().batch_rows,
    );
    let batches: usize = (0..n)
        .step_by(part)
        .map(|s| part.min(n - s).div_ceil(batch))
        .sum();
    let (start, len) = (int_at / part * part, part.min(n - int_at / part * part));
    let aborted = batch.min(len - (int_at - start) / batch * batch);
    let runs = |catalog: &Catalog| {
        let chaos = [None, Some(FaultConfig::chaos(0xFA17))];
        let engines = chaos.into_iter().flat_map(|c| {
            MATRIX.iter().map(move |&(m, t)| {
                let e = engine()
                    .with_parallelism_mode(m)
                    .with_worker_threads(Some(t));
                match c {
                    Some(c) => e.with_faults(c),
                    None => e,
                }
            })
        });
        engines.map(|e| e.run(&prog, catalog)).collect::<Vec<_>>()
    };

    let catalog_ok = catalog(false);
    let interp = engine()
        .run(&interp_prog, &catalog_ok)
        .expect("interpreter");
    let want = format!("{:?}", interp.writes["out"]);
    assert!(
        want.contains("Tuple([Int(7), Int(1)])"),
        "the forwarded `Int` reaches the sink"
    );
    for run in runs(&catalog_ok) {
        let run = run.expect("engine");
        assert_eq!(format!("{:?}", run.writes["out"]), want);
        let s = &run.stats;
        assert_eq!(s.rows_vectorized, (n - aborted) as u64, "{s}");
        assert_eq!(s.batches_executed, batches as u64 - 1, "{s}");
        assert_eq!(s.vector_fallbacks, 0, "{s}");
    }

    let catalog_err = catalog(true);
    let want = engine()
        .run(&interp_prog, &catalog_err)
        .expect_err("% 0 raises");
    for run in runs(&catalog_err) {
        let got = run.expect_err("% 0 raises on every tier");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}

/// A map body carrying a nested fold resists specialization: the refusal
/// lands in `vector_fallbacks`, never in the key-path counter.
#[test]
fn non_specializable_string_body_bumps_vector_fallbacks() {
    let catalog = Catalog::new().with("rows", email_rows(400));
    let nested = ScalarExpr::Fold(
        Box::new(BagExpr::Values(vec![Value::Int(1), Value::Int(2)])),
        Box::new(FoldOp::count()),
    )
    .add(ScalarExpr::call(BuiltinFn::StrLen, vec![x().get(1)]));
    let p = Program::new(vec![Stmt::write(
        "out",
        BagExpr::read("rows").map(Lambda::new(["x"], nested)),
    )]);
    let prog = parallelize(&p, &OptimizerFlags::all().with_compiled_eval(true));
    let interp_prog = parallelize(&p, &OptimizerFlags::all().with_compiled_eval(false));
    let scalar = engine().run(&interp_prog, &catalog).expect("interpreter");
    let vec = engine()
        .with_vectorized_eval(BatchConfig::new(128))
        .run(&prog, &catalog)
        .expect("vectorized");
    assert!(vec.stats.vector_fallbacks >= 1, "{}", vec.stats);
    assert_eq!(vec.stats.key_path_fallbacks, 0, "{}", vec.stats);
    assert_eq!(vec.writes, scalar.writes);
    assert_eq!(
        vec.stats.simulated_secs.to_bits(),
        scalar.stats.simulated_secs.to_bits()
    );
}

/// `contains` charges per input byte, identically in both tiers: the charge
/// beyond a byte-free predicate over the *same* rows grows with string
/// length, and vectorizing never moves the clock.
#[test]
fn strcontains_cost_is_length_aware_and_tier_identical() {
    let rows = |len: usize| -> Vec<Value> {
        (0..2_000i64)
            .map(|i| Value::tuple(vec![Value::Int(i), Value::str("a".repeat(len))]))
            .collect()
    };
    let contains_prog = Program::new(vec![Stmt::write(
        "kept",
        BagExpr::read("rows").filter(Lambda::new(
            ["x"],
            ScalarExpr::call(
                BuiltinFn::StrContains,
                vec![x().get(1), ScalarExpr::lit(Value::str("zz"))],
            ),
        )),
    )]);
    let byte_free_prog = Program::new(vec![Stmt::write(
        "kept",
        BagExpr::read("rows").filter(Lambda::new(
            ["x"],
            // Rejects every row, like the `contains("zz")` probe, so the two
            // programs differ only in the predicate's own charge.
            x().get(0).lt(ScalarExpr::lit(Value::Int(0))),
        )),
    )]);
    let run = |p: &Program, len: usize, vec_on: bool| {
        let catalog = Catalog::new().with("rows", rows(len));
        let prog = parallelize(p, &OptimizerFlags::all().with_compiled_eval(vec_on));
        let e = engine().with_vectorized_eval(BatchConfig::new(256));
        e.run(&prog, &catalog).expect("run")
    };
    // Tier bit-identity at both lengths.
    for len in [4usize, 256] {
        let scalar = run(&contains_prog, len, false);
        let vectorized = run(&contains_prog, len, true);
        assert_eq!(
            scalar.stats.simulated_secs.to_bits(),
            vectorized.stats.simulated_secs.to_bits(),
            "len {len}: vectorizing `contains` moved the clock"
        );
    }
    // Length-awareness: subtracting a byte-free predicate over identical
    // rows isolates the per-byte charge, which must grow with the strings.
    let surcharge = |len: usize| {
        run(&contains_prog, len, false).stats.simulated_secs
            - run(&byte_free_prog, len, false).stats.simulated_secs
    };
    let (short, long) = (surcharge(4), surcharge(256));
    assert!(
        long > short,
        "contains surcharge must grow with haystack bytes: {short} vs {long}"
    );
}
