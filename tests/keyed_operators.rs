//! One contract for every keyed operator.
//!
//! `groupBy`, `aggBy`, `distinct`, the joins and the stateful operators all
//! read their keys through the engine's one `Keyed` layout: when rows move,
//! the shuffle evaluates the keys and raises their errors; when the layout
//! already satisfies the key (a preceding `Repartition`, both sides of a
//! broadcast join), the same batched evaluator runs inside the consumer and
//! the consumer raises a key's error when its loop reaches that row — so an
//! error of its own UDF (a join residual, a stateful `update`) at an earlier
//! row still comes first.
//!
//! The matrix below hand-builds each plan shape, with and without the
//! shuffle, with errors planted at known rows, and holds three evaluation
//! tiers (interpreter, default kernels, batch 64) to
//! the same rows, the same error, the same cost-model counters and the same
//! simulated-clock bits across threads × dispatch modes × chaos × skew. The
//! pins at the bottom say which sites batch and what a refusal counts.
//!
//! The same matrix holds the byte accounting: a partition carries its
//! serialized size from whoever measured it first, through every shuffle,
//! to whatever charges it — and what is carried is always a fresh walk of
//! the rows, on a catalog read for the first time or the tenth.

mod common;

use common::MATRIX;
use emma::prelude::*;
use emma_compiler::pipeline::{BindKind, CRValue, CStmt};
use emma_compiler::plan::{JoinKind, JoinStrategy};
use emma_engine::{ParallelismMode, Partitioned};

// ------------------------------------------------------------------ data

/// Probe-side rows `(k, v, kd, ud)`: 44 % of them on the hot key 7. `kd`
/// divides the key (1, or 0 on the row whose key raises), `ud` is the
/// consumer UDF's modulus (1000, or 0 on the row where it raises).
const LEFT_ROWS: i64 = 400;
/// Two rows of key 7 in one source partition (rows 100..150 of 400 over 8),
/// so they stay in one partition, in this order, through any shuffle.
const EARLY: i64 = 100;
const LATE: i64 = 118;
/// A row four source partitions after `EARLY`'s.
const LATER: i64 = 300;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Scenario {
    Clean,
    /// The key raises at `EARLY`.
    KeyErr,
    /// The consumer's UDF raises at `EARLY`, the key at `LATE`.
    UdfBefore,
    /// The key raises at `EARLY`, the consumer's UDF at `LATE`.
    UdfAfter,
    /// The probe key raises at `EARLY` and a build key raises as well.
    BothSides,
    /// The key raises at `EARLY`, the consumer's UDF at `LATER`.
    UdfLaterPartition,
}

const DIV: &str = "division by zero";
const MOD: &str = "modulo by zero";

fn left_rows(s: Scenario) -> Vec<Value> {
    let (key_row, udf_row) = match s {
        Scenario::Clean => (-1, -1),
        Scenario::KeyErr | Scenario::BothSides => (EARLY, -1),
        Scenario::UdfBefore => (LATE, EARLY),
        Scenario::UdfAfter => (EARLY, LATE),
        Scenario::UdfLaterPartition => (EARLY, LATER),
    };
    (0..LEFT_ROWS)
        .map(|i| {
            let k = if i % 9 < 4 { 7 } else { i % 23 };
            Value::tuple(vec![
                Value::Int(k),
                Value::Int(i),
                Value::Int(i64::from(i != key_row)),
                Value::Int(if i == udf_row { 0 } else { 1000 }),
            ])
        })
        .collect()
}

/// Build-side rows `(k, w, bd)`, two or so per key; `bd` is the build key's
/// modulus (larger than any key, or 0 on the row whose key raises).
fn right_rows(s: Scenario) -> Vec<Value> {
    (0..40i64)
        .map(|j| {
            let bad = s == Scenario::BothSides && j == 7;
            Value::tuple(vec![
                Value::Int(j % 23),
                Value::Int(j),
                Value::Int(if bad { 0 } else { 1_000_000 }),
            ])
        })
        .collect()
}

/// One state element `(k, 0, 1, 1000)` per key.
fn state_rows() -> Vec<Value> {
    (0..23i64)
        .map(|k| {
            Value::tuple(vec![
                Value::Int(k),
                Value::Int(0),
                Value::Int(1),
                Value::Int(1000),
            ])
        })
        .collect()
}

// --------------------------------------------------------------- lambdas

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn int(i: i64) -> ScalarExpr {
    ScalarExpr::lit(Value::Int(i))
}

/// `x.0` as a float — `/` always yields one — so that every key below has
/// one type whichever branch produced it.
fn plain() -> ScalarExpr {
    var("x").get(0).div(int(1))
}

/// A key that can only raise once the driver scalar `z` is 0: a
/// `Repartition` bound while `z == 1` places every row by `x.0`, and the
/// consumer, running after `z = 0`, evaluates the fallible form over a
/// layout that already satisfies it — the only way a key error can reach a
/// consumer whose shuffle was elided.
fn guarded(fallible: ScalarExpr) -> Lambda {
    Lambda::new(
        ["x"],
        ScalarExpr::If(
            Box::new(var("z").eq(int(0))),
            Box::new(fallible),
            Box::new(plain()),
        ),
    )
}

/// `x.0 / x.2`: "division by zero" where `kd` is 0.
fn key() -> Lambda {
    guarded(var("x").get(0).div(var("x").get(2)))
}

/// `x.0 % x.2 / 1`: "modulo by zero" where `bd` is 0.
fn build_key() -> Lambda {
    guarded(var("x").get(0).rem(var("x").get(2)).div(int(1)))
}

/// `l.1 % l.3 + r.1 >= 0`: true wherever it does not raise.
fn residual() -> Lambda {
    Lambda::new(
        ["l", "r"],
        var("l")
            .get(1)
            .rem(var("l").get(3))
            .add(var("r").get(1))
            .ge(int(0)),
    )
}

/// `(s.0, s.1 + m.1 % m.3, s.2, s.3)`: keeps the element's key.
fn update() -> Lambda {
    Lambda::new(
        ["s", "m"],
        ScalarExpr::Tuple(vec![
            var("s").get(0),
            var("s").get(1).add(var("m").get(1).rem(var("m").get(3))),
            var("s").get(2),
            var("s").get(3),
        ]),
    )
}

// ----------------------------------------------------------------- plans

fn src(name: &str) -> Box<Plan> {
    Box::new(Plan::Source { name: name.into() })
}

fn set_z(z: i64) -> CStmt {
    CStmt::Bind {
        name: "z".into(),
        kind: BindKind::Var,
        value: CRValue::Scalar {
            pre: vec![],
            expr: int(z),
        },
    }
}

fn write(sink: &str, plan: Plan) -> CStmt {
    CStmt::Write {
        sink: sink.into(),
        plan,
    }
}

/// Statements that leave `z == 0` and return the consumer's input for
/// `source`: the source itself (the consumer's shuffle runs), or a bag
/// repartitioned by `key` while `z` was still 1 (the shuffle is elided).
fn input(stmts: &mut Vec<CStmt>, elided: bool, source: &str, key: Lambda) -> Box<Plan> {
    if !elided {
        stmts.push(set_z(0));
        return src(source);
    }
    let name = format!("{source}_placed");
    stmts.push(set_z(1));
    stmts.push(CStmt::Bind {
        name: name.clone(),
        kind: BindKind::Val,
        value: CRValue::Bag(Plan::Repartition {
            input: src(source),
            key,
        }),
    });
    stmts.push(set_z(0));
    Box::new(Plan::RefBag { name })
}

fn program(body: Vec<CStmt>, compiled_eval: bool) -> CompiledProgram {
    CompiledProgram {
        body,
        report: OptimizationReport::default(),
        compiled_eval,
    }
}

// ---------------------------------------------------------------- matrix

#[derive(Clone, Copy, Debug)]
enum Tier {
    Interp,
    Default,
    Batch64,
}

const TIERS: [Tier; 3] = [Tier::Interp, Tier::Default, Tier::Batch64];

fn run(
    body: &[CStmt],
    catalog: &Catalog,
    tier: Tier,
    schedule: (ParallelismMode, usize),
    chaos: bool,
    skew: bool,
) -> Result<EngineRun, ExecError> {
    run_on(
        ClusterSpec::tiny(),
        body,
        catalog,
        tier,
        schedule,
        chaos,
        skew,
    )
}

fn run_on(
    spec: ClusterSpec,
    body: &[CStmt],
    catalog: &Catalog,
    tier: Tier,
    (mode, threads): (ParallelismMode, usize),
    chaos: bool,
    skew: bool,
) -> Result<EngineRun, ExecError> {
    let mut e = Engine::new(spec, Personality::sparrow())
        .with_parallelism_mode(mode)
        .with_worker_threads(Some(threads))
        // Fan out even over a few hundred rows.
        .with_parallelism_threshold(0);
    if chaos {
        e = e.with_faults(FaultConfig::chaos(0xFA17));
    }
    if skew {
        e = e.with_skew_splitting(SkewConfig::default().with_min_part_rows(32));
    }
    let e = match tier {
        Tier::Interp | Tier::Default => e,
        Tier::Batch64 => e.with_vectorized_eval(BatchConfig::new(64)),
    };
    e.run(
        &program(body.to_vec(), !matches!(tier, Tier::Interp)),
        catalog,
    )
}

/// Holds every tier × schedule to the interpreter tier's outcome under the
/// same chaos and skew setting, and that outcome to `expect` (`None`: the
/// program runs; `Some(msg)`: it raises that arithmetic error).
fn check(name: &str, body: &[CStmt], catalog: &Catalog, expect: Option<&str>) {
    check_on(ClusterSpec::tiny(), name, body, catalog, expect)
}

fn check_on(
    spec: ClusterSpec,
    name: &str,
    body: &[CStmt],
    catalog: &Catalog,
    expect: Option<&str>,
) {
    let run = |tier, m, chaos, skew| run_on(spec, body, catalog, tier, m, chaos, skew);
    for chaos in [false, true] {
        for skew in [false, true] {
            let at = format!("{name} (chaos {chaos}, skew {skew})");
            let reference = run(Tier::Interp, MATRIX[0], chaos, skew);
            match (&reference, expect) {
                (Ok(_), None) => {}
                (Err(ExecError::Eval(ValueError::Arithmetic(got))), Some(want)) => {
                    assert_eq!(got, want, "{at}: wrong error came first")
                }
                (other, _) => panic!("{at}: expected {expect:?}, got {:?}", other.as_ref().err()),
            }
            for tier in TIERS {
                let runs: Vec<_> = MATRIX.iter().map(|&m| run(tier, m, chaos, skew)).collect();
                for (r, m) in runs.iter().zip(MATRIX) {
                    let at = format!("{at}, {tier:?} on {m:?}");
                    match (r, &reference, &runs[0]) {
                        (Ok(r), Ok(want), Ok(first)) => {
                            assert_eq!(r.writes, want.writes, "{at}: rows");
                            // Sinks are the only storage writes here, each
                            // charged from the bytes its partitions carried.
                            assert_eq!(
                                r.stats.bytes_written_storage,
                                r.writes.values().map(|rows| walk(rows)).sum::<u64>(),
                                "{at}: a sink's carried bytes are not a walk of its rows"
                            );
                            assert_eq!(r.scalars, want.scalars, "{at}: scalars");
                            assert_eq!(
                                r.stats.without_tier_telemetry(),
                                want.stats.without_tier_telemetry(),
                                "{at}: a cost-model counter moved"
                            );
                            assert_eq!(
                                r.stats.simulated_secs.to_bits(),
                                want.stats.simulated_secs.to_bits(),
                                "{at}: the clock moved"
                            );
                            assert_eq!(r.stats, first.stats, "{at}: telemetry depends on schedule");
                        }
                        (Err(e), Err(want), _) => {
                            assert_eq!(
                                format!("{e:?}"),
                                format!("{want:?}"),
                                "{at}: error identity"
                            )
                        }
                        _ => panic!("{at}: one side ran, the other raised"),
                    }
                }
            }
        }
    }
}

/// The serialized size of `rows`, walked afresh.
fn walk(rows: &[Value]) -> u64 {
    rows.iter().map(Value::approx_bytes).sum()
}

fn catalog(s: Scenario) -> Catalog {
    Catalog::new()
        .with("left", left_rows(s))
        .with("right", right_rows(s))
        .with("state", state_rows())
}

/// What a consumer with no UDF of its own raises: the key's error, wherever
/// its shuffle ran.
fn key_only(s: Scenario) -> Option<&'static str> {
    (s != Scenario::Clean).then_some(DIV)
}

/// What a consumer with a UDF raises. A shuffle that ran has raised every
/// key error before the consumer's first row; over keys read in place the
/// first row that raises anything decides.
fn with_udf(s: Scenario, in_place: bool) -> Option<&'static str> {
    match s {
        Scenario::Clean => None,
        Scenario::UdfBefore if in_place => Some(MOD),
        _ => Some(DIV),
    }
}

#[test]
fn group_by_and_distinct() {
    for elided in [false, true] {
        for s in [Scenario::Clean, Scenario::KeyErr] {
            let mut body = Vec::new();
            let input = input(&mut body, elided, "left", key());
            body.push(write("out", Plan::GroupBy { input, key: key() }));
            check(
                &format!("groupBy, elided {elided}, {s:?}"),
                &body,
                &catalog(s),
                key_only(s),
            );
        }
        // `distinct` keys by the row itself, which cannot raise.
        let identity = Lambda::new(["x"], var("x"));
        let mut body = Vec::new();
        let input = input(&mut body, elided, "left", identity);
        body.push(write("out", Plan::Distinct { input }));
        check(
            &format!("distinct, elided {elided}"),
            &body,
            &catalog(Scenario::Clean),
            None,
        );
    }
}

#[test]
fn agg_by() {
    // `sum(x.1 % x.3)` per key: key, then sng, then uni, row by row.
    let fold = FoldOp::custom(
        int(0),
        Lambda::new(["x"], var("x").get(1).rem(var("x").get(3))),
        Lambda::new(["a", "b"], var("a").add(var("b"))),
    );
    for s in [
        Scenario::Clean,
        Scenario::KeyErr,
        Scenario::UdfBefore,
        Scenario::UdfAfter,
    ] {
        let body = vec![
            set_z(0),
            write(
                "out",
                Plan::AggBy {
                    input: src("left"),
                    key: key(),
                    fold: fold.clone(),
                },
            ),
        ];
        check(
            &format!("aggBy, {s:?}"),
            &body,
            &catalog(s),
            with_udf(s, true),
        );
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Sides {
    Broadcast,
    Repartitioned,
    AlreadyPlaced,
}

fn join_cases(kind: JoinKind) {
    for sides in [Sides::Broadcast, Sides::Repartitioned, Sides::AlreadyPlaced] {
        for with_residual in [false, true] {
            for s in [
                Scenario::Clean,
                Scenario::KeyErr,
                Scenario::UdfBefore,
                Scenario::UdfAfter,
                Scenario::BothSides,
            ] {
                let udf_raises = matches!(s, Scenario::UdfBefore | Scenario::UdfAfter);
                if udf_raises && !with_residual {
                    continue;
                }
                let elided = sides == Sides::AlreadyPlaced;
                let mut body = Vec::new();
                let left = input(&mut body, elided, "left", key());
                let right = input(&mut body, elided, "right", build_key());
                body.push(write(
                    "out",
                    Plan::Join {
                        left,
                        right,
                        lkey: key(),
                        rkey: build_key(),
                        residual: with_residual.then(residual),
                        kind,
                        strategy: match sides {
                            Sides::Broadcast => JoinStrategy::Broadcast,
                            _ => JoinStrategy::Repartition,
                        },
                    },
                ));
                // A probe task makes its build table before it looks at a
                // probe row; a left shuffle that runs comes before both.
                let in_place = sides != Sides::Repartitioned;
                let expect = match s {
                    Scenario::BothSides if in_place => Some(MOD),
                    _ => with_udf(s, in_place),
                };
                check(
                    &format!("{kind:?} join, {sides:?}, residual {with_residual}, {s:?}"),
                    &body,
                    &catalog(s),
                    expect,
                );
            }
        }
    }
}

#[test]
fn inner_joins() {
    join_cases(JoinKind::Inner);
}

#[test]
fn semi_joins() {
    join_cases(JoinKind::LeftSemi);
}

#[test]
fn anti_joins() {
    join_cases(JoinKind::LeftAnti);
}

fn snapshot(sink: &str, name: &str) -> CStmt {
    write(sink, Plan::RefBag { name: name.into() })
}

#[test]
fn stateful_create_and_update() {
    for elided in [false, true] {
        for s in [Scenario::Clean, Scenario::KeyErr] {
            let mut body = Vec::new();
            let plan = *input(&mut body, elided, "left", key());
            body.push(CStmt::StatefulCreate {
                name: "st".into(),
                plan,
                key: key(),
            });
            body.push(snapshot("state", "st"));
            check(
                &format!("create, elided {elided}, {s:?}"),
                &body,
                &catalog(s),
                key_only(s),
            );
        }
        for s in [
            Scenario::Clean,
            Scenario::KeyErr,
            Scenario::UdfBefore,
            Scenario::UdfAfter,
        ] {
            let mut body = vec![CStmt::StatefulCreate {
                name: "st".into(),
                plan: *src("state"),
                key: Lambda::new(["x"], plain()),
            }];
            let messages = *input(&mut body, elided, "left", key());
            body.push(CStmt::StatefulUpdate {
                state: "st".into(),
                delta: "delta".into(),
                messages,
                message_key: key(),
                update: update(),
            });
            body.push(snapshot("delta", "delta"));
            body.push(snapshot("state", "st"));
            check(
                &format!("update, elided {elided}, {s:?}"),
                &body,
                &catalog(s),
                with_udf(s, elided),
            );
        }
    }
}

// --------------------------------------------------------- narrow inputs

/// `x.1 % x.3 >= 0`: keeps every row, and raises "modulo by zero" on the
/// row whose `ud` is 0.
fn body_filter() -> Lambda {
    Lambda::new(["x"], var("x").get(1).rem(var("x").get(3)).ge(int(0)))
}

/// `(x.0, x.1 + x.1 % x.3, x.2, x.3)`: keeps the fields the keys read, and
/// raises "modulo by zero" on the row whose `ud` is 0.
fn body_map() -> Lambda {
    let x = |i| var("x").get(i);
    Lambda::new(
        ["x"],
        ScalarExpr::Tuple(vec![x(0), x(1).add(x(1).rem(x(3))), x(2), x(3)]),
    )
}

/// The narrow chain a keyed consumer reads: a `Filter` or a `Map` of the
/// source, or a `Filter` of the source already placed by `key()`, whose
/// layout it keeps.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Narrow {
    Filter,
    Map,
    FilterOfPlaced,
}

fn narrow_left(stmts: &mut Vec<CStmt>, shape: Narrow) -> Box<Plan> {
    let input = input(stmts, shape == Narrow::FilterOfPlaced, "left", key());
    Box::new(match shape {
        Narrow::Map => Plan::Map {
            input,
            f: body_map(),
        },
        Narrow::Filter | Narrow::FilterOfPlaced => Plan::Filter {
            input,
            p: body_filter(),
        },
    })
}

const NARROW_CONSUMERS: [&str; 9] = [
    "groupBy",
    "distinct",
    "Repartition",
    "minus",
    "repartition join",
    "broadcast join",
    "auto join",
    "create",
    "update",
];

/// `consumer` over the narrow chain `shape` of `left`, written out, and
/// whether its key can raise (`distinct` and `minus` key by the row).
fn over_narrow(consumer: &str, shape: Narrow) -> (Vec<CStmt>, bool) {
    let mut body = Vec::new();
    if consumer == "update" {
        body.push(CStmt::StatefulCreate {
            name: "st".into(),
            plan: *src("state"),
            key: Lambda::new(["x"], plain()),
        });
    }
    let l = narrow_left(&mut body, shape);
    let join = |strategy| {
        write(
            "out",
            Plan::Join {
                left: l.clone(),
                right: src("right"),
                lkey: key(),
                rkey: build_key(),
                residual: None,
                kind: JoinKind::Inner,
                strategy,
            },
        )
    };
    let keyed = !matches!(consumer, "distinct" | "minus");
    match consumer {
        "groupBy" => body.push(write(
            "out",
            Plan::GroupBy {
                input: l,
                key: key(),
            },
        )),
        "distinct" => body.push(write("out", Plan::Distinct { input: l })),
        "Repartition" => body.push(write(
            "out",
            Plan::Repartition {
                input: l,
                key: key(),
            },
        )),
        "minus" => body.push(write(
            "out",
            Plan::Minus {
                left: l,
                right: src("right"),
            },
        )),
        "repartition join" => body.push(join(JoinStrategy::Repartition)),
        "broadcast join" => body.push(join(JoinStrategy::Broadcast)),
        "auto join" => body.push(join(JoinStrategy::Auto)),
        "create" => {
            body.push(CStmt::StatefulCreate {
                name: "st".into(),
                plan: *l,
                key: key(),
            });
            body.push(snapshot("state", "st"));
        }
        "update" => {
            body.push(CStmt::StatefulUpdate {
                state: "st".into(),
                delta: "delta".into(),
                messages: *l,
                message_key: key(),
                update: update(),
            });
            body.push(snapshot("delta", "delta"));
            body.push(snapshot("state", "st"));
        }
        other => unreachable!("no consumer {other}"),
    }
    (body, keyed)
}

/// Every keyed consumer over a `Filter` and a `Map` of its input, with the
/// key raising at `EARLY` and the narrow UDF raising in the same partition
/// after it, in a later partition, or nowhere. The narrow chain takes its
/// keys in the wave that produces its rows, but every body still raises
/// before any key: the UDF's error wins wherever it is, and a key error
/// alone surfaces as the key wave's did — before the rows move, or when the
/// consumer's loop reaches the row where they stay.
#[test]
fn keyed_consumers_over_a_narrow_input() {
    for shape in [Narrow::Filter, Narrow::Map, Narrow::FilterOfPlaced] {
        for consumer in NARROW_CONSUMERS {
            let (body, keyed) = over_narrow(consumer, shape);
            // A `Repartition` by the key its input is placed by moves
            // nothing and evaluates no key.
            let elided = consumer == "Repartition" && shape == Narrow::FilterOfPlaced;
            for s in [
                Scenario::Clean,
                Scenario::KeyErr,
                Scenario::UdfAfter,
                Scenario::UdfLaterPartition,
            ] {
                let expect = match s {
                    Scenario::Clean => None,
                    Scenario::KeyErr if !keyed || elided => None,
                    Scenario::KeyErr => Some(DIV),
                    _ => Some(MOD),
                };
                check(
                    &format!("{consumer} over {shape:?}, {s:?}"),
                    &body,
                    &catalog(s),
                    expect,
                );
            }
        }
    }
}

/// An `Auto` join whose build side is a narrow chain small enough to
/// broadcast: the build side's keys come from the chain's wave, and a
/// build-key error still surfaces in each probe task before it reads a
/// probe row — ahead of a probe key error at an earlier row.
#[test]
fn an_auto_join_broadcasts_a_narrow_build_side() {
    let right = || {
        Box::new(Plan::Filter {
            input: src("right"),
            p: Lambda::new(["x"], var("x").get(1).ge(int(0))),
        })
    };
    for shape in [Narrow::Filter, Narrow::Map] {
        for s in [Scenario::Clean, Scenario::KeyErr, Scenario::BothSides] {
            let mut body = Vec::new();
            let left = narrow_left(&mut body, shape);
            body.push(write(
                "out",
                Plan::Join {
                    left,
                    right: right(),
                    lkey: key(),
                    rkey: build_key(),
                    residual: None,
                    kind: JoinKind::LeftSemi,
                    strategy: JoinStrategy::Auto,
                },
            ));
            let expect = match s {
                Scenario::Clean => None,
                Scenario::BothSides => Some(MOD),
                _ => Some(DIV),
            };
            check(
                &format!("auto join over {shape:?}, {s:?}"),
                &body,
                &catalog(s),
                expect,
            );
        }
        let mut body = Vec::new();
        let left = narrow_left(&mut body, shape);
        body.push(write(
            "out",
            Plan::Join {
                left,
                right: right(),
                lkey: key(),
                rkey: build_key(),
                residual: None,
                kind: JoinKind::Inner,
                strategy: JoinStrategy::Auto,
            },
        ));
        let run = run(
            &body,
            &catalog(Scenario::Clean),
            Tier::Default,
            MATRIX[0],
            false,
            false,
        )
        .expect("runs");
        assert!(run.stats.bytes_broadcast > 0, "{shape:?}: {}", run.stats);
        assert_eq!(run.stats.bytes_shuffled, 0, "{shape:?}: a side moved");
    }
}

// ------------------------------------------------------ degenerate inputs

/// The keyed consumers over `rows` on both sides, shuffled and in place.
fn all_consumers(left: &str, right: &str, key: &Lambda) -> Vec<CStmt> {
    let mut body = Vec::new();
    for elided in [false, true] {
        let tag = if elided { "placed" } else { "moved" };
        let l = input(&mut body, elided, left, key.clone());
        body.push(write(
            &format!("groups_{tag}"),
            Plan::GroupBy {
                input: l.clone(),
                key: key.clone(),
            },
        ));
        for strategy in [JoinStrategy::Broadcast, JoinStrategy::Repartition] {
            body.push(write(
                &format!("join_{tag}_{strategy:?}"),
                Plan::Join {
                    left: l.clone(),
                    right: src(right),
                    lkey: key.clone(),
                    rkey: key.clone(),
                    residual: None,
                    kind: JoinKind::Inner,
                    strategy,
                },
            ));
        }
        body.push(CStmt::StatefulCreate {
            name: format!("st_{tag}"),
            plan: *l,
            key: key.clone(),
        });
        body.push(snapshot(&format!("state_{tag}"), &format!("st_{tag}")));
    }
    body.push(write("distinct", Plan::Distinct { input: src(left) }));
    body.push(write(
        "agg",
        Plan::AggBy {
            input: src(left),
            key: key.clone(),
            fold: FoldOp::count(),
        },
    ));
    body
}

#[test]
fn empty_partitions_and_an_all_empty_input() {
    let key = Lambda::new(["x"], var("x").get(0));
    // Three rows over eight partitions: most tasks see nothing.
    let few: Vec<Value> = (0..3i64)
        .map(|i| Value::tuple(vec![Value::Int(i % 2), Value::Int(i)]))
        .collect();
    let sparse = Catalog::new().with("l", few.clone()).with("r", few);
    check("sparse", &all_consumers("l", "r", &key), &sparse, None);

    // No row anywhere: there is no sample to specialize against and no row
    // for a slow path to run on, so no tier counter moves — not even for a
    // key body that could never specialize.
    let opaque = Lambda::new(
        ["x"],
        var("x").get(0).add(ScalarExpr::Fold(
            Box::new(BagExpr::Values(vec![Value::Int(1)])),
            Box::new(FoldOp::count()),
        )),
    );
    let nothing = Catalog::new().with("l", vec![]).with("r", vec![]);
    for key in [&key, &opaque] {
        let body = all_consumers("l", "r", key);
        check("all-empty", &body, &nothing, None);
        let stats = run(&body, &nothing, Tier::Default, MATRIX[0], false, false)
            .expect("runs")
            .stats;
        assert_eq!(stats.without_tier_telemetry(), stats, "{stats}");
    }
}

/// The shuffle counts each destination, allocates it once and scatters the
/// rows in source order. Inputs that scheme must survive: far fewer rows than
/// destinations, no rows at all, source partitions a cache still holds (so
/// they are copied, not drained), and hot buckets split both ways — with the
/// order inside every destination still the source order.
#[test]
fn the_scatter_keeps_source_order_on_sparse_shared_and_split_inputs() {
    let key = plain_key();
    let wide = ClusterSpec::tiny().with_nodes(160);
    assert_eq!(wide.dop(), 320);
    let few: Vec<Value> = (0..3i64)
        .map(|i| Value::tuple(vec![Value::Int(i % 2), Value::Int(i)]))
        .collect();
    let sparse = Catalog::new().with("l", few.clone()).with("r", few);
    let body = all_consumers("l", "r", &key);
    check_on(wide, "3 rows over 320", &body, &sparse, None);
    let nothing = Catalog::new().with("l", vec![]).with("r", vec![]);
    check_on(wide, "nothing over 320", &body, &nothing, None);

    // One cached bag feeds every kind of shuffle — balanced splits under
    // `Repartition` / `groupBy` / the join probe, key-preserving ones under
    // `distinct` / `aggBy` — and is then written out itself.
    let cached = || Box::new(Plan::RefBag { name: "c".into() });
    let body = vec![
        CStmt::Bind {
            name: "c".into(),
            kind: BindKind::Val,
            value: CRValue::Bag(Plan::Cache { input: src("left") }),
        },
        write(
            "placed",
            Plan::Repartition {
                input: cached(),
                key: key.clone(),
            },
        ),
        write(
            "groups",
            Plan::GroupBy {
                input: cached(),
                key: key.clone(),
            },
        ),
        write(
            "joined",
            Plan::Join {
                left: cached(),
                right: src("right"),
                lkey: key.clone(),
                rkey: key.clone(),
                residual: None,
                kind: JoinKind::Inner,
                strategy: JoinStrategy::Repartition,
            },
        ),
        write("distinct", Plan::Distinct { input: cached() }),
        write(
            "agg",
            Plan::AggBy {
                input: cached(),
                key: key.clone(),
                fold: FoldOp::count(),
            },
        ),
        snapshot("cached", "c"),
    ];
    let catalog = catalog(Scenario::Clean);
    for spec in [ClusterSpec::tiny(), wide] {
        check_on(
            spec,
            &format!("shared sources over {}", spec.dop()),
            &body,
            &catalog,
            None,
        );
        for skew in [false, true] {
            let run =
                run_on(spec, &body, &catalog, Tier::Default, MATRIX[0], false, skew).expect("runs");
            assert_eq!(run.stats.partitions_split > 0, skew, "{}", run.stats);
            assert_eq!(
                run.writes["cached"],
                left_rows(Scenario::Clean),
                "a shared source was drained"
            );
            // Sources are contiguous chunks of the input, so source order is
            // `x.1` order: ascending per key wherever rows of a key meet (a
            // join repeats a probe row once per match).
            let ascending = |rows: &[Value], what: &str| {
                let mut last = std::collections::HashMap::new();
                for row in rows {
                    let (k, i) = (
                        row.field(0).unwrap().clone(),
                        row.field(1).unwrap().as_int().unwrap(),
                    );
                    if let Some(prev) = last.insert(k, i) {
                        assert!(
                            prev <= i,
                            "{what}, skew {skew}: row {i} landed behind row {prev}"
                        );
                    }
                }
            };
            assert_eq!(run.writes["placed"].len(), LEFT_ROWS as usize);
            ascending(&run.writes["placed"], "placed");
            for group in &run.writes["groups"] {
                ascending(group.field(1).unwrap().as_bag().unwrap(), "group");
            }
            let probes: Vec<Value> = run.writes["joined"]
                .iter()
                .map(|pair| pair.field(0).unwrap().clone())
                .collect();
            ascending(&probes, "join probe");
        }
    }
}

// ------------------------------------------------------- byte accounting

/// Every keyed operator over `input`, each output repartitioned once more
/// (by `x.1`, which no layout satisfies) and written: the sink is charged
/// from the bytes that last scatter carried into its destinations.
fn repartitioned_outputs(tag: &str, input: &dyn Fn() -> Box<Plan>, right: &str) -> Vec<CStmt> {
    let key = plain_key();
    let outputs = [
        (
            "placed",
            Plan::Repartition {
                input: input(),
                key: key.clone(),
            },
        ),
        (
            "groups",
            Plan::GroupBy {
                input: input(),
                key: key.clone(),
            },
        ),
        (
            "joined",
            Plan::Join {
                left: input(),
                right: src(right),
                lkey: key.clone(),
                rkey: key.clone(),
                residual: None,
                kind: JoinKind::Inner,
                strategy: JoinStrategy::Repartition,
            },
        ),
        ("distinct", Plan::Distinct { input: input() }),
        (
            "agg",
            Plan::AggBy {
                input: input(),
                key: key.clone(),
                fold: FoldOp::count(),
            },
        ),
    ];
    outputs
        .into_iter()
        .map(|(what, plan)| {
            write(
                &format!("{tag}_{what}"),
                Plan::Repartition {
                    input: Box::new(plan),
                    key: Lambda::new(["x"], var("x").get(1)),
                },
            )
        })
        .collect()
}

/// [`repartitioned_outputs`] over a source nobody else holds (its partitions
/// are drained) and over a cached bag (they are copied, and measured once for
/// the cache and every consumer).
fn owned_and_shared(left: &str, right: &str) -> Vec<CStmt> {
    let mut body = vec![CStmt::Bind {
        name: "c".into(),
        kind: BindKind::Val,
        value: CRValue::Bag(Plan::Cache { input: src(left) }),
    }];
    body.extend(repartitioned_outputs("owned", &|| src(left), right));
    let cached = || Box::new(Plan::RefBag { name: "c".into() });
    body.extend(repartitioned_outputs("shared", &cached, right));
    body.push(snapshot("cached", "c"));
    body
}

/// A partition's bytes are measured once and carried: from the catalog's
/// blocks or the bucketing wave, through the scatter and either kind of
/// split, into every charge. `check` holds each sink's charge to a fresh walk
/// of its rows on every tier, schedule, chaos and skew setting (and the
/// engine's debug assertion every scattered partition); without chaos and
/// skew the shuffle and storage counters are the exact sums below.
#[test]
fn carried_bytes_equal_a_fresh_walk_of_the_rows() {
    let wide = ClusterSpec::tiny().with_nodes(160);
    let few: Vec<Value> = (0..3i64)
        .map(|i| Value::tuple(vec![Value::Int(i % 2), Value::Int(i)]))
        .collect();
    let sparse = Catalog::new().with("l", few.clone()).with("r", few);
    let nothing = Catalog::new().with("l", vec![]).with("r", vec![]);
    let body = owned_and_shared("l", "r");
    check_on(wide, "bytes, 3 rows over 320", &body, &sparse, None);
    check_on(wide, "bytes, nothing over 320", &body, &nothing, None);

    let body = owned_and_shared("left", "right");
    let catalog = catalog(Scenario::Clean);
    let (l, r) = (
        walk(&left_rows(Scenario::Clean)),
        walk(&right_rows(Scenario::Clean)),
    );
    for spec in [ClusterSpec::tiny(), wide] {
        let at = format!("bytes over {}", spec.dop());
        check_on(spec, &at, &body, &catalog, None);
        let run = run_on(
            spec,
            &body,
            &catalog,
            Tier::Default,
            MATRIX[0],
            false,
            false,
        )
        .expect("runs");
        // `left` feeds the cache and the five owned consumers, `right` the
        // two joins.
        assert_eq!(run.stats.bytes_read_storage, 6 * l + 2 * r, "{at}");
        // One `(key, count)` partial per key and source block.
        let partials: u64 = Partitioned::from_rows(left_rows(Scenario::Clean), spec.dop())
            .parts
            .iter()
            .map(|block| {
                let keys: std::collections::HashSet<_> =
                    block.iter().map(|row| row.field(0).unwrap()).collect();
                keys.len() as u64 * Value::tuple(vec![Value::Int(0), Value::Int(0)]).approx_bytes()
            })
            .sum();
        // Each operator's own shuffle, then its output's.
        let mut shuffled = 0;
        for tag in ["owned", "shared"] {
            let out = |what: &str| walk(&run.writes[&format!("{tag}_{what}")]);
            shuffled += (l + out("placed"))
                + (l + out("groups"))
                + (l + r + out("joined"))
                + (l + out("distinct"))
                + (partials + out("agg"));
        }
        assert_eq!(run.stats.bytes_shuffled, shuffled, "{at}");
    }
}

/// `left` read by a `Source`, `right` scanned from inside a UDF: each row of
/// the output counts the rows of `right`.
fn source_and_udf_read() -> Vec<CStmt> {
    let rows_of_right = ScalarExpr::Fold(
        Box::new(BagExpr::Read {
            source: "right".into(),
        }),
        Box::new(FoldOp::count()),
    );
    vec![write(
        "out",
        Plan::Map {
            input: src("left"),
            f: Lambda::new(
                ["x"],
                ScalarExpr::Tuple(vec![var("x").get(1), rows_of_right]),
            ),
        },
    )]
}

/// The catalog keeps each dataset's blocks and their bytes from the first
/// run that reads it; the second run shares them and must not be able to
/// tell.
#[test]
fn a_second_run_on_the_same_catalog_repeats_the_first() {
    let mut body = owned_and_shared("left", "right");
    body.extend(source_and_udf_read());
    for tier in TIERS {
        for skew in [false, true] {
            let catalog = catalog(Scenario::Clean);
            let run = || run(&body, &catalog, tier, MATRIX[1], false, skew).expect("runs");
            let (first, second) = (run(), run());
            let at = format!("{tier:?}, skew {skew}");
            assert_eq!(first.stats, second.stats, "{at}: a counter or the clock");
            assert_eq!(first.writes, second.writes, "{at}: rows");
        }
    }
}

/// Registering a name again replaces what the catalog kept for it: the next
/// run sees the new rows and is charged their bytes, whether a `Source` or a
/// UDF reads them.
#[test]
fn replacing_a_dataset_replaces_its_blocks_and_bytes() {
    let body = source_and_udf_read();
    let mut catalog = catalog(Scenario::Clean);
    let read = |catalog: &Catalog| {
        let run = run(&body, catalog, Tier::Default, MATRIX[0], false, false).expect("runs");
        let rows_of_right = run.writes["out"][0].field(1).unwrap().as_int().unwrap();
        (
            run.writes["out"].len(),
            rows_of_right,
            run.stats.bytes_read_storage,
        )
    };
    let (l, r) = (
        walk(&left_rows(Scenario::Clean)),
        walk(&right_rows(Scenario::Clean)),
    );
    assert_eq!(read(&catalog), (LEFT_ROWS as usize, 40, l + r));
    assert_eq!(read(&catalog), (LEFT_ROWS as usize, 40, l + r));

    let fewer = right_rows(Scenario::Clean)[..7].to_vec();
    catalog.insert("right", fewer.clone());
    assert_eq!(read(&catalog), (LEFT_ROWS as usize, 7, l + walk(&fewer)));

    let wider: Vec<Value> = (0..5i64)
        .map(|i| Value::tuple(vec![Value::Int(i), Value::Int(i), Value::str("wider")]))
        .collect();
    catalog.insert("left", wider.clone());
    assert_eq!(read(&catalog), (5, 7, walk(&wider) + walk(&fewer)));
}

#[test]
fn nan_and_negative_zero_keys() {
    // `Value` equality puts every NaN in one group and -0.0 with 0.0; the
    // kernels' hashes and probes must agree with it.
    let floats = [f64::NAN, -f64::NAN, 0.0, -0.0, 1.5, f64::INFINITY, -1.5];
    let rows = |n: usize| -> Vec<Value> {
        (0..n)
            .map(|i| {
                Value::tuple(vec![
                    Value::Float(floats[i % floats.len()]),
                    Value::Int(i as i64),
                ])
            })
            .collect()
    };
    let catalog = Catalog::new().with("l", rows(300)).with("r", rows(20));
    let key = Lambda::new(["x"], var("x").get(0));
    let body = all_consumers("l", "r", &key);
    check("float keys", &body, &catalog, None);
    let run = run(&body, &catalog, Tier::Default, MATRIX[0], false, false).expect("runs");
    // NaN (either sign), ±0.0, 1.5, ∞, -1.5.
    for sink in ["groups_moved", "groups_placed", "agg", "state_moved"] {
        assert_eq!(run.writes[sink].len(), 5, "{sink}");
    }
}

// ------------------------------------------------------------------ pins

/// A run of `body` on the default engine at every schedule of `MATRIX`;
/// returns the (schedule-independent) stats.
fn default_stats(body: &[CStmt], catalog: &Catalog) -> ExecStats {
    let runs: Vec<_> = MATRIX
        .iter()
        .map(|&m| {
            run(body, catalog, Tier::Default, m, false, false)
                .expect("runs")
                .stats
        })
        .collect();
    for (stats, m) in runs.iter().zip(MATRIX) {
        assert_eq!(stats, &runs[0], "telemetry differs on {m:?}");
    }
    runs[0].clone()
}

fn plain_key() -> Lambda {
    Lambda::new(["x"], var("x").get(0))
}

fn broadcast_join(residual: Option<Lambda>) -> Vec<CStmt> {
    vec![write(
        "out",
        Plan::Join {
            left: src("left"),
            right: src("right"),
            lkey: plain_key(),
            rkey: plain_key(),
            residual,
            kind: JoinKind::Inner,
            strategy: JoinStrategy::Broadcast,
        },
    )]
}

/// The build side of a broadcast join is keyed and hashed once, whatever
/// the number of probe partitions and threads: the kernels see each build
/// row once and each probe row once.
#[test]
fn broadcast_build_side_is_keyed_once() {
    let catalog = catalog(Scenario::Clean);
    let stats = default_stats(&broadcast_join(None), &catalog);
    assert_eq!(stats.rows_vectorized, 40 + LEFT_ROWS as u64, "{stats}");
    assert_eq!(stats.key_path_fallbacks, 0, "{stats}");
}

/// A residual predicate no longer keeps the probe keys scalar: they are
/// batched ahead of the probe loop, which raises a key's error only when it
/// reaches that row.
#[test]
fn residual_probe_batches_its_keys() {
    let catalog = catalog(Scenario::Clean);
    let stats = default_stats(&broadcast_join(Some(residual())), &catalog);
    assert_eq!(stats.key_path_fallbacks, 0, "{stats}");
    assert_eq!(stats.rows_vectorized, 40 + LEFT_ROWS as u64, "{stats}");
}

/// Stateful create and update over an already-placed input batch their keys
/// like every other consumer: the placing shuffle's rows, then the same rows
/// again inside the driver loop.
#[test]
fn stateful_sites_batch_over_an_elided_shuffle() {
    let catalog = catalog(Scenario::Clean);
    let mut create = Vec::new();
    let plan = *input(&mut create, true, "left", plain_key());
    create.push(CStmt::StatefulCreate {
        name: "st".into(),
        plan,
        key: plain_key(),
    });
    let stats = default_stats(&create, &catalog);
    assert_eq!(stats.key_path_fallbacks, 0, "{stats}");
    assert_eq!(stats.rows_vectorized, 2 * LEFT_ROWS as u64, "{stats}");

    let mut update_body = vec![CStmt::StatefulCreate {
        name: "st".into(),
        plan: *src("state"),
        key: plain_key(),
    }];
    let messages = *input(&mut update_body, true, "left", plain_key());
    update_body.push(CStmt::StatefulUpdate {
        state: "st".into(),
        delta: "delta".into(),
        messages,
        message_key: plain_key(),
        update: update(),
    });
    let stats = default_stats(&update_body, &catalog);
    assert_eq!(stats.key_path_fallbacks, 0, "{stats}");
    // The state's 23 rows once, the messages twice.
    assert_eq!(stats.rows_vectorized, 23 + 2 * LEFT_ROWS as u64, "{stats}");
}

/// `key_path_fallbacks` means one thing: a keyed site's key body did not
/// specialize. One per site and execution, whether its shuffle ran or not.
#[test]
fn a_key_that_does_not_specialize_counts_once_per_site() {
    // A nested fold resists static typing.
    let opaque = || {
        Lambda::new(
            ["x"],
            var("x").get(0).add(ScalarExpr::Fold(
                Box::new(BagExpr::Values(vec![])),
                Box::new(FoldOp::count()),
            )),
        )
    };
    let catalog = catalog(Scenario::Clean);
    let sites = |body: &[CStmt]| default_stats(body, &catalog).key_path_fallbacks;

    for (elided, want) in [(false, 1), (true, 2)] {
        // Elided: the placing `Repartition` is a keyed site of its own.
        let mut body = Vec::new();
        let input = input(&mut body, elided, "left", opaque());
        body.push(write(
            "out",
            Plan::GroupBy {
                input,
                key: opaque(),
            },
        ));
        assert_eq!(sites(&body), want, "groupBy, elided {elided}");
    }
    for strategy in [JoinStrategy::Broadcast, JoinStrategy::Repartition] {
        for residual in [None, Some(residual())] {
            let body = [write(
                "out",
                Plan::Join {
                    left: src("left"),
                    right: src("right"),
                    lkey: opaque(),
                    rkey: opaque(),
                    residual,
                    kind: JoinKind::LeftSemi,
                    strategy,
                },
            )];
            assert_eq!(sites(&body), 2, "{strategy:?} join: one per side");
        }
    }
    let create = CStmt::StatefulCreate {
        name: "st".into(),
        plan: *src("state"),
        key: opaque(),
    };
    assert_eq!(sites(std::slice::from_ref(&create)), 1, "create");
    let update = CStmt::StatefulUpdate {
        state: "st".into(),
        delta: "delta".into(),
        messages: *src("left"),
        message_key: opaque(),
        update: update(),
    };
    assert_eq!(sites(&[create, update]), 2, "create + update");
}
