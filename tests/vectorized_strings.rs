//! Cross-tier differential harness for the string kernels and the
//! vectorized key path.
//!
//! One place asserts the whole contract: for generated string-bearing
//! programs (shared typed generator in `tests/common/string_exprs.rs`), the
//! reference interpreter, the scalar compiled tier, and the vectorized tier
//! must agree on every sink's values; the two engine tiers must additionally
//! agree on errors, on every cost-model counter, and on the exact bit
//! pattern of the simulated clock — across 1/2/4 worker threads, both
//! dispatch modes, injected chaos, and skew splitting. The batch tier's only
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

use common::{scalar_tier, MATRIX};
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
                    e.vectorized = vec_on.then(|| BatchConfig::new(64));
                    e.run(&prog, &catalog)
                };
                let scalar = mk(false, ParallelismMode::Pool, 2);
                let vec_runs: Vec<_> =
                    MATRIX.iter().map(|&(m, t)| mk(true, m, t)).collect();

                match &scalar {
                    // A generated body may error (e.g. divide by a zero
                    // column). The interpreter must agree that the program
                    // errors, and every vectorized run must reproduce the
                    // scalar tier's error exactly — that is the replay
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
                                    "vectorized run succeeded where the scalar tier failed"
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
/// while reproducing the scalar tier bit-for-bit.
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
    let scalar = scalar_tier(engine()).run(&prog, &catalog).expect("scalar");
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
    let scalar = scalar_tier(engine()).run(&prog, &catalog).expect("scalar");
    assert_eq!(run.writes, scalar.writes);
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
    let scalar = scalar_tier(engine()).run(&prog, &catalog).expect("scalar");
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
        let prog = parallelize(p, &OptimizerFlags::all().with_compiled_eval(true));
        let mut e = engine();
        e.vectorized = vec_on.then(|| BatchConfig::new(256));
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
