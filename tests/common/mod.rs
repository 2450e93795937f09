//! Shared helpers for the integration tests.
// Each test binary compiles this module separately and uses a subset of it.
#![allow(dead_code)]

use emma::prelude::*;
use emma_engine::ParallelismMode;

/// The thread-count × dispatch-mode matrix every determinism check spans.
pub const MATRIX: [(ParallelismMode, usize); 6] = [
    (ParallelismMode::Pool, 1),
    (ParallelismMode::Pool, 2),
    (ParallelismMode::Pool, 4),
    (ParallelismMode::PerOperator, 1),
    (ParallelismMode::PerOperator, 2),
    (ParallelismMode::PerOperator, 4),
];

/// A fast engine configuration for tests.
pub fn tiny_engine(p: Personality) -> Engine {
    Engine::new(ClusterSpec::tiny(), p)
}

/// Recursive approximate equality on values: floats compare within a
/// relative tolerance (distributed folds combine partials in a different
/// order than the sequential reference, so float aggregates differ in the
/// last bits); bags compare as sorted sequences.
pub fn approx_eq(a: &Value, b: &Value, tol: f64) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => {
            (*x as f64 - y).abs() <= tol * (1.0 + y.abs())
        }
        (Value::Vector(x), Value::Vector(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|(p, q)| (p - q).abs() <= tol * (1.0 + p.abs().max(q.abs())))
        }
        (Value::Tuple(x), Value::Tuple(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| approx_eq(p, q, tol))
        }
        (Value::Bag(x), Value::Bag(y)) => {
            let mut xs: Vec<&Value> = x.iter().collect();
            let mut ys: Vec<&Value> = y.iter().collect();
            xs.sort();
            ys.sort();
            xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(p, q)| approx_eq(p, q, tol))
        }
        _ => a == b,
    }
}

/// Approximate multiset equality of two row sets.
pub fn approx_rows_eq(a: &[Value], b: &[Value], tol: f64) -> bool {
    let mut xs: Vec<&Value> = a.iter().collect();
    let mut ys: Vec<&Value> = b.iter().collect();
    xs.sort();
    ys.sort();
    xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(p, q)| approx_eq(p, q, tol))
}

/// Runs a program through the interpreter and an engine with the given flags
/// and asserts that all written sinks match approximately.
pub fn assert_engine_matches_interp(
    program: &Program,
    catalog: &Catalog,
    flags: &OptimizerFlags,
    engine: &Engine,
    tol: f64,
) {
    let expected = Interp::new(catalog).run(program).expect("interp run");
    let compiled = parallelize(program, flags);
    let run = engine.run(&compiled, catalog).expect("engine run");
    assert_eq!(expected.writes.len(), run.writes.len(), "sink sets differ");
    for (sink, rows) in &expected.writes {
        let got = &run.writes[sink];
        assert!(
            approx_rows_eq(rows, got, tol),
            "sink `{sink}` differs under {flags:?}\n  interp: {} rows\n  engine: {} rows",
            rows.len(),
            got.len()
        );
    }
}

/// The flag configurations every algorithm is checked under.
pub fn flag_matrix() -> Vec<OptimizerFlags> {
    vec![
        OptimizerFlags::all(),
        OptimizerFlags::none(),
        OptimizerFlags::logical_only(),
        OptimizerFlags::all().with_fold_group_fusion(false),
        OptimizerFlags::all().with_unnest_exists(false),
        OptimizerFlags::all().with_caching(false),
        OptimizerFlags::all().with_partition_pulling(false),
        OptimizerFlags::all().with_inlining(false),
    ]
}

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn lit(k: i64) -> ScalarExpr {
    ScalarExpr::lit(k)
}

/// The benchmark's `narrow_chain` program: a thirteen-operator Map/Filter
/// chain over int pairs.
pub fn narrow_chain() -> Program {
    let t0 = || var("t").get(0);
    let t1 = || var("t").get(1);
    let mut bag = BagExpr::read("xs")
        .map(Lambda::new(
            ["t"],
            ScalarExpr::If(
                Box::new(t0().rem(lit(3)).eq(lit(0))),
                Box::new(ScalarExpr::Tuple(vec![
                    t0().mul(lit(2)).add(t1()).sub(lit(7)),
                    t1().add(lit(1)),
                ])),
                Box::new(ScalarExpr::Tuple(vec![
                    t0().add(lit(3).mul(lit(7)).add(lit(2)).rem(lit(5))),
                    t1().mul(lit(3)).rem(lit(101)),
                ])),
            ),
        ))
        .filter(Lambda::new(
            ["t"],
            t0().add(t1())
                .rem(lit(17))
                .ne(lit(3))
                .and(t0().mul(lit(3)).sub(t1()).gt(lit(-1_000_000))),
        ))
        .map(Lambda::new(
            ["t"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::call(
                    BuiltinFn::MinOf,
                    vec![
                        t0().mul(lit(2))
                            .add(lit(1))
                            .mul(t0().rem(lit(7)).add(lit(3)))
                            .add(ScalarExpr::call(BuiltinFn::Abs, vec![t0().sub(t1())])),
                        lit(1 << 20),
                    ],
                ),
                t1().mul(lit(13)).rem(lit(997)),
            ]),
        ))
        .filter(Lambda::new(
            ["t"],
            t0().rem(lit(251)).ne(lit(0)).or(t1().lt(lit(500))),
        ))
        .map(Lambda::new(
            ["t"],
            t0().add(t1().mul(lit(31)))
                .rem(lit(1_000_003))
                .mul(lit(2))
                .add(t0().rem(lit(2))),
        ));
    for (a, b, m) in [
        (3, 11, 65_521),
        (7, 29, 32_749),
        (5, 17, 16_381),
        (13, 41, 8_191),
    ] {
        let x = || var("x");
        let hash_round = x()
            .mul(lit(a))
            .add(lit(b))
            .rem(lit(m))
            .add(x().mul(lit(b)).add(lit(a)).rem(lit(m - 2)))
            .add(x().rem(lit(7)).mul(x().rem(lit(13))).add(x().rem(lit(29))))
            .add(ScalarExpr::call(BuiltinFn::Abs, vec![x().sub(lit(m / 2))]))
            .rem(lit(m))
            .add(lit(a).mul(lit(b)).add(lit(2)).rem(lit(19)));
        bag = bag.map(Lambda::new(["x"], hash_round)).filter(Lambda::new(
            ["x"],
            x().rem(lit(m - 1)).ne(lit(m / 2)).or(x().ge(lit(0))),
        ));
    }
    Program::new(vec![Stmt::write("out", bag)])
}
