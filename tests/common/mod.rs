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

/// Pins the scalar compiled tier — the kernels' replay and refusal path —
/// as the baseline the default stack is compared against.
pub fn scalar_tier(mut e: Engine) -> Engine {
    e.vectorized = None;
    e
}

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
