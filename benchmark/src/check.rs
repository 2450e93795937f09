//! Output checking: approximate multiset equality against the interpreter's
//! reference, and an order-independent digest that must repeat exactly.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use emma::prelude::Value;

/// Float tolerance of the repository's differential tests
/// (`tests/algorithms_differential.rs`).
pub const TOLERANCE: f64 = 1e-6;

/// `approx_eq` of `tests/common/mod.rs`: floats compare within a relative
/// tolerance (distributed folds combine partials in another order than the
/// sequential reference), bags compare as sorted sequences.
fn approx_eq(a: &Value, b: &Value, tol: f64) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs()));
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => close(*x, *y),
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => close(*x as f64, *y),
        (Value::Vector(x), Value::Vector(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| close(*p, *q))
        }
        (Value::Tuple(x), Value::Tuple(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| approx_eq(p, q, tol))
        }
        (Value::Bag(x), Value::Bag(y)) => approx_rows_eq(x, y, tol),
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

/// Whether both runs wrote the same sinks with approximately equal rows.
pub fn sinks_match(
    expected: &HashMap<String, Vec<Value>>,
    got: &HashMap<String, Vec<Value>>,
) -> bool {
    expected.len() == got.len()
        && expected.iter().all(|(sink, rows)| {
            got.get(sink)
                .is_some_and(|g| approx_rows_eq(rows, g, TOLERANCE))
        })
}

fn hash_of(v: &impl Hash) -> u64 {
    // `DefaultHasher::new()` has fixed keys, so digests repeat across
    // processes.
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Digest of named row sets that ignores row order: per set, the name, the
/// row count and the wrapping sum of the row hashes (floats hash by bit
/// pattern). It equals the digest of the sorted output without the sort.
pub fn digest<'a>(sets: impl IntoIterator<Item = (&'a str, &'a Vec<Value>)>) -> u64 {
    let mut sets: Vec<(&str, &Vec<Value>)> = sets.into_iter().collect();
    sets.sort_unstable_by_key(|(name, _)| *name);
    let mut h = DefaultHasher::new();
    for (name, rows) in sets {
        name.hash(&mut h);
        rows.len().hash(&mut h);
        rows.iter()
            .fold(0u64, |acc, r| acc.wrapping_add(hash_of(r)))
            .hash(&mut h);
    }
    h.finish()
}

/// Digest of a run's sinks.
pub fn sink_digest(writes: &HashMap<String, Vec<Value>>) -> u64 {
    digest(writes.iter().map(|(k, v)| (k.as_str(), v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: i64, x: f64) -> Value {
        Value::tuple(vec![Value::Int(k), Value::Float(x)])
    }

    #[test]
    fn approx_equality_ignores_order_and_last_bits() {
        let a = vec![row(1, 0.1 + 0.2), row(2, 5.0)];
        let b = vec![row(2, 5.0), row(1, 0.3)];
        assert!(approx_rows_eq(&a, &b, TOLERANCE));
        assert!(!approx_rows_eq(&a, &[row(1, 0.3)], TOLERANCE));
        assert!(!approx_rows_eq(&a, &[row(2, 5.1), row(1, 0.3)], TOLERANCE));
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = vec![row(1, 1.0), row(2, 2.0)];
        let b = vec![row(2, 2.0), row(1, 1.0)];
        let c = vec![row(1, 1.0), row(2, 2.5)];
        assert_eq!(digest([("s", &a)]), digest([("s", &b)]));
        assert_ne!(digest([("s", &a)]), digest([("s", &c)]));
        assert_ne!(digest([("s", &a)]), digest([("t", &a)]));
    }
}
