//! Partitioned datasets: the engine's representation of a distributed bag.
//!
//! A [`Partitioned`] collection is a list of row partitions plus optional
//! *partitioning metadata* — if the rows were hash-distributed by some key,
//! the key is remembered so later operators (joins, aggregations, and the
//! partition-pulling optimization) can skip redundant shuffles.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use emma_compiler::expr::Lambda;
use emma_compiler::value::Value;

/// Hash partitioning metadata.
#[derive(Clone, Debug)]
pub struct Partitioning {
    /// The key extractor (compare with [`Lambda::alpha_eq`]).
    pub key: Lambda,
    /// Number of partitions the hash was taken modulo.
    pub parts: usize,
}

impl Partitioning {
    /// Whether this partitioning satisfies a requirement.
    pub fn satisfies(&self, key: &Lambda, parts: usize) -> bool {
        self.parts == parts && self.key.alpha_eq(key)
    }
}

/// A distributed bag: rows split across partitions.
#[derive(Clone, Debug, Default)]
pub struct Partitioned {
    /// The partitions (cheaply clonable).
    pub parts: Vec<Arc<Vec<Value>>>,
    /// Hash-partitioning metadata, if the layout is known.
    pub partitioning: Option<Partitioning>,
}

/// Stable hash of a value (used for hash partitioning).
pub fn value_hash(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

impl Partitioned {
    /// Splits rows round-robin into `n` partitions (block layout — no
    /// partitioning metadata).
    pub fn from_rows(rows: Vec<Value>, n: usize) -> Self {
        let n = n.max(1);
        let mut parts: Vec<Vec<Value>> = (0..n).map(|_| Vec::new()).collect();
        let chunk = rows.len().div_ceil(n).max(1);
        for (i, row) in rows.into_iter().enumerate() {
            parts[(i / chunk).min(n - 1)].push(row);
        }
        Partitioned {
            parts: parts.into_iter().map(Arc::new).collect(),
            partitioning: None,
        }
    }

    /// A single empty partition.
    pub fn empty(n: usize) -> Self {
        Partitioned {
            parts: (0..n.max(1)).map(|_| Arc::new(Vec::new())).collect(),
            partitioning: None,
        }
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Total number of rows.
    pub fn total_rows(&self) -> u64 {
        self.parts.iter().map(|p| p.len() as u64).sum()
    }

    /// Approximate serialized bytes of each partition: one walk of the rows.
    pub(crate) fn part_bytes(&self) -> impl Iterator<Item = u64> + '_ {
        self.parts
            .iter()
            .map(|p| p.iter().map(Value::approx_bytes).sum())
    }

    /// Total approximate serialized bytes.
    pub fn total_bytes(&self) -> u64 {
        self.part_bytes().sum()
    }

    /// Rows in the largest partition (per-slot CPU time driver).
    pub fn max_part_rows(&self) -> u64 {
        self.parts.iter().map(|p| p.len() as u64).max().unwrap_or(0)
    }

    /// Bytes of the largest partition (skew measurement).
    pub fn max_part_bytes(&self) -> u64 {
        self.part_bytes().max().unwrap_or(0)
    }

    /// Gathers all rows into one vector (the `collect` data motion).
    pub fn collect_rows(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.total_rows() as usize);
        for p in &self.parts {
            out.extend(p.iter().cloned());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emma_compiler::expr::ScalarExpr;

    fn ints(n: i64) -> Vec<Value> {
        (0..n).map(Value::Int).collect()
    }

    #[test]
    fn from_rows_distributes_everything() {
        let p = Partitioned::from_rows(ints(10), 3);
        assert_eq!(p.num_parts(), 3);
        assert_eq!(p.total_rows(), 10);
        let mut all = p.collect_rows();
        all.sort();
        assert_eq!(all, ints(10));
    }

    #[test]
    fn empty_has_no_rows_but_partitions() {
        let p = Partitioned::empty(4);
        assert_eq!(p.num_parts(), 4);
        assert_eq!(p.total_rows(), 0);
    }

    #[test]
    fn partitioning_satisfies_alpha_equivalent_keys() {
        let p = Partitioning {
            key: Lambda::new(["x"], ScalarExpr::var("x").get(0)),
            parts: 8,
        };
        assert!(p.satisfies(&Lambda::new(["y"], ScalarExpr::var("y").get(0)), 8));
        assert!(!p.satisfies(&Lambda::new(["y"], ScalarExpr::var("y").get(1)), 8));
        assert!(!p.satisfies(&Lambda::new(["y"], ScalarExpr::var("y").get(0)), 4));
    }

    #[test]
    fn byte_accounting_is_positive() {
        let p = Partitioned::from_rows(ints(100), 4);
        assert!(p.total_bytes() >= 800);
        assert!(p.max_part_bytes() <= p.total_bytes());
    }
}
