//! Clustered point clouds for k-means (paper, Section 5.2: "3 random fixed
//! centers and 1.6 B points"). Scaled down, with the same structure: points
//! are Gaussian blobs around `k` well-separated true centers, so Lloyd's
//! algorithm converges in a handful of iterations.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use emma_compiler::value::Value;

/// Point tuple fields.
pub mod point {
    /// Point id.
    pub const ID: usize = 0;
    /// Position vector.
    pub const POS: usize = 1;
}

/// Parameters of the k-means dataset.
#[derive(Clone, Copy, Debug)]
pub struct PointsSpec {
    /// Number of points.
    pub n: usize,
    /// Number of true clusters.
    pub k: usize,
    /// Dimensionality.
    pub dims: usize,
    /// Blob standard deviation (centers are ~10 apart).
    pub stddev: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PointsSpec {
    fn default() -> Self {
        PointsSpec {
            n: 3_000,
            k: 3,
            dims: 2,
            stddev: 0.8,
            seed: 42,
        }
    }
}

/// Generates `(points, true_centers)`.
pub fn generate(spec: &PointsSpec) -> (Vec<Value>, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let centers: Vec<Vec<f64>> = (0..spec.k)
        .map(|c| (0..spec.dims).map(|d| (c * 10 + d) as f64).collect())
        .collect();
    let points = (0..spec.n)
        .map(|i| {
            let c = &centers[i % spec.k];
            let pos: Arc<[f64]> = c
                .iter()
                .map(|x| {
                    // Sum of uniforms ≈ Gaussian noise.
                    let noise: f64 =
                        ((0..6).map(|_| rng.gen::<f64>()).sum::<f64>() / 6.0 - 0.5) * 4.0;
                    x + noise * spec.stddev
                })
                .collect();
            Value::tuple([Value::Int(i as i64), Value::vector(pos)])
        })
        .collect();
    (points, centers)
}

/// Initial centroids for Lloyd's algorithm: `k` points spread over the
/// domain, deliberately offset from the true centers.
pub fn initial_centroids(spec: &PointsSpec) -> Vec<Value> {
    (0..spec.k)
        .map(|c| {
            let pos: Arc<[f64]> = (0..spec.dims).map(|d| (c * 10 + d) as f64 + 2.5).collect();
            Value::tuple([Value::Int(c as i64), Value::vector(pos)])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_counts() {
        let spec = PointsSpec::default();
        let (pts, centers) = generate(&spec);
        assert_eq!(pts.len(), spec.n);
        assert_eq!(centers.len(), spec.k);
    }

    #[test]
    fn points_cluster_around_their_centers() {
        let spec = PointsSpec::default();
        let (pts, centers) = generate(&spec);
        for (i, p) in pts.iter().enumerate().take(300) {
            let pos = p.field(point::POS).unwrap().as_vector().unwrap().to_vec();
            let c = &centers[i % spec.k];
            let d2: f64 = pos.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
            assert!(d2.sqrt() < 8.0, "point {i} too far from its center");
        }
    }

    #[test]
    fn initial_centroids_have_distinct_ids() {
        let spec = PointsSpec::default();
        let cs = initial_centroids(&spec);
        assert_eq!(cs.len(), spec.k);
        let ids: std::collections::HashSet<i64> = cs
            .iter()
            .map(|c| c.field(point::ID).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(ids.len(), spec.k);
    }
}
