//! Power-law directed graphs — the stand-in for the Twitter follower graph
//! of the PageRank experiment (paper, Section 5.2: 23 GB, ~2 B edges).
//!
//! Vertices are generated in adjacency-list form `(id, {{neighbors}})` with
//! out-degrees following a heavy-tailed (Zipf-like) distribution, which is
//! the property that matters for the shuffle/caching behavior PageRank
//! exercises. A second form exposes the edge list for algorithms that prefer
//! it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use emma_compiler::value::Value;

/// Vertex tuple fields (adjacency-list form).
pub mod vertex {
    /// Vertex id.
    pub const ID: usize = 0;
    /// Bag of out-neighbor ids.
    pub const NEIGHBORS: usize = 1;
}

/// Parameters of the synthetic follower graph.
#[derive(Clone, Copy, Debug)]
pub struct GraphSpec {
    /// Number of vertices.
    pub vertices: usize,
    /// Average out-degree.
    pub avg_degree: usize,
    /// Zipf skew of in-popularity (higher ⇒ heavier tail).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GraphSpec {
    fn default() -> Self {
        GraphSpec {
            vertices: 1_000,
            avg_degree: 8,
            skew: 1.1,
            seed: 42,
        }
    }
}

/// Generates the adjacency-list form: one `(id, {{neighbor ids}})` row per
/// vertex. Every vertex has at least one out-edge (dangling vertices would
/// need rank redistribution, which the paper's Listing 6 also omits).
pub fn adjacency(spec: &GraphSpec) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let n = spec.vertices.max(2);
    // Zipf-ish popularity: vertex v is chosen as a target ∝ 1/(v+1)^skew.
    let weights: Vec<f64> = (0..n)
        .map(|v| 1.0 / ((v + 1) as f64).powf(spec.skew))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cumulative.push(acc);
    }
    let pick = |rng: &mut StdRng| -> usize {
        let x: f64 = rng.gen();
        match cumulative.binary_search_by(|c| c.partial_cmp(&x).expect("finite")) {
            Ok(i) | Err(i) => i.min(n - 1),
        }
    };
    (0..n)
        .map(|v| {
            let degree = 1 + rng.gen_range(0..spec.avg_degree * 2);
            let mut targets: Vec<Value> = Vec::with_capacity(degree);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..degree {
                let mut t = pick(&mut rng);
                if t == v {
                    t = (t + 1) % n;
                }
                if seen.insert(t) {
                    targets.push(Value::Int(t as i64));
                }
            }
            Value::tuple([Value::Int(v as i64), Value::bag(targets)])
        })
        .collect()
}

/// The edge-list form `(src, dst)` derived from the adjacency form.
pub fn edges(adjacency_rows: &[Value]) -> Vec<Value> {
    let mut out = Vec::new();
    for row in adjacency_rows {
        let src = row.field(vertex::ID).expect("vertex id").clone();
        for dst in row
            .field(vertex::NEIGHBORS)
            .expect("neighbors")
            .as_bag()
            .expect("bag")
        {
            out.push(Value::tuple([src.clone(), dst.clone()]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_vertex_has_an_out_edge() {
        let g = adjacency(&GraphSpec::default());
        assert_eq!(g.len(), 1_000);
        for row in &g {
            assert!(!row
                .field(vertex::NEIGHBORS)
                .unwrap()
                .as_bag()
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn no_self_loops_and_targets_in_range() {
        let spec = GraphSpec {
            vertices: 100,
            ..Default::default()
        };
        let g = adjacency(&spec);
        for row in &g {
            let v = row.field(vertex::ID).unwrap().as_int().unwrap();
            for t in row.field(vertex::NEIGHBORS).unwrap().as_bag().unwrap() {
                let t = t.as_int().unwrap();
                assert_ne!(t, v);
                assert!((0..100).contains(&t));
            }
        }
    }

    #[test]
    fn in_degree_is_heavy_tailed() {
        let g = adjacency(&GraphSpec::default());
        let es = edges(&g);
        let mut indeg = vec![0usize; 1_000];
        for e in &es {
            indeg[e.field(1).unwrap().as_int().unwrap() as usize] += 1;
        }
        let max = *indeg.iter().max().unwrap() as f64;
        let avg = es.len() as f64 / 1_000.0;
        assert!(max > avg * 5.0, "max in-degree {max} vs avg {avg}");
    }

    #[test]
    fn edge_list_matches_adjacency() {
        let g = adjacency(&GraphSpec {
            vertices: 50,
            ..Default::default()
        });
        let total_neighbors: usize = g
            .iter()
            .map(|r| r.field(vertex::NEIGHBORS).unwrap().as_bag().unwrap().len())
            .sum();
        assert_eq!(edges(&g).len(), total_neighbors);
    }
}
