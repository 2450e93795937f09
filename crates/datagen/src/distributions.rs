//! Keyed tuples under the three key distributions of the Fig. 5 study.
//!
//! Each tuple is `(key: Int, value: Int, payload: Str)` with a 3–10
//! character random payload, matching the paper's Appendix B description.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use emma_compiler::value::Value;

/// Field indexes of the generated tuples.
pub mod field {
    /// Grouping key.
    pub const KEY: usize = 0;
    /// Aggregated value.
    pub const VALUE: usize = 1;
    /// Random payload.
    pub const PAYLOAD: usize = 2;
}

/// The key distribution of a synthetic dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDistribution {
    /// Uniform over the key domain.
    Uniform,
    /// Gaussian centered mid-domain (moderate key skew).
    Gaussian,
    /// Pareto-like: ~35 % of all tuples land on one hot key
    /// (the paper's Appendix B setting).
    Pareto,
    /// Zipf with exponent `s`: key rank `k` drawn with probability
    /// ∝ 1/(k+1)^s. Heavier-than-Pareto head at s ≳ 1 — the classic
    /// stress input for skew-aware shuffling.
    Zipf(f64),
}

impl KeyDistribution {
    /// The display name used in figure output.
    pub fn name(&self) -> &'static str {
        match self {
            KeyDistribution::Uniform => "uniform",
            KeyDistribution::Gaussian => "gaussian",
            KeyDistribution::Pareto => "pareto",
            KeyDistribution::Zipf(_) => "zipf",
        }
    }

    /// All distributions, in the paper's figure order, with the Zipf
    /// exponent the skew benchmarks use as their middle setting.
    pub fn all() -> [KeyDistribution; 4] {
        [
            KeyDistribution::Uniform,
            KeyDistribution::Gaussian,
            KeyDistribution::Pareto,
            KeyDistribution::Zipf(1.2),
        ]
    }
}

/// Generates `n` keyed tuples with keys drawn from `dist` over a domain of
/// `num_keys` keys.
pub fn keyed_tuples(n: usize, num_keys: i64, dist: KeyDistribution, seed: u64) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_keys = num_keys.max(1);
    // Zipf CDF over key ranks, precomputed once; per-row sampling is a
    // single uniform draw + binary search, so every distribution consumes
    // the same RNG stream shape it always did.
    let zipf_cdf: Vec<f64> = match dist {
        KeyDistribution::Zipf(s) => {
            let mut acc = 0.0;
            let mut cdf = Vec::with_capacity(num_keys as usize);
            for k in 0..num_keys {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                cdf.push(acc);
            }
            let total = acc;
            cdf.iter_mut().for_each(|c| *c /= total);
            cdf
        }
        _ => Vec::new(),
    };
    (0..n)
        .map(|_| {
            let key = match dist {
                KeyDistribution::Uniform => rng.gen_range(0..num_keys),
                KeyDistribution::Gaussian => {
                    // Sum of uniforms ≈ normal; clamp into the domain.
                    let s: f64 = (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() / 6.0;
                    let centered = (s - 0.5) * 0.6 + 0.5;
                    ((centered * num_keys as f64) as i64).clamp(0, num_keys - 1)
                }
                KeyDistribution::Pareto => {
                    if rng.gen::<f64>() < 0.35 {
                        0 // the hot key
                    } else {
                        rng.gen_range(0..num_keys)
                    }
                }
                KeyDistribution::Zipf(_) => {
                    let u: f64 = rng.gen();
                    // min guards the u ≈ 1.0 rounding edge of the CDF.
                    (zipf_cdf.partition_point(|&c| c < u) as i64).min(num_keys - 1)
                }
            };
            let value: i64 = rng.gen_range(-1_000_000..1_000_000);
            let payload_len = rng.gen_range(3..=10);
            let payload: String = (0..payload_len)
                .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                .collect();
            Value::tuple([Value::Int(key), Value::Int(value), Value::str(payload)])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(v: &Value) -> i64 {
        v.field(field::KEY).unwrap().as_int().unwrap()
    }

    #[test]
    fn deterministic_given_seed() {
        let a = keyed_tuples(100, 10, KeyDistribution::Uniform, 7);
        let b = keyed_tuples(100, 10, KeyDistribution::Uniform, 7);
        assert_eq!(a, b);
        let c = keyed_tuples(100, 10, KeyDistribution::Uniform, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn pareto_has_a_hot_key_near_35_percent() {
        let rows = keyed_tuples(20_000, 100, KeyDistribution::Pareto, 1);
        let hot = rows.iter().filter(|v| key_of(v) == 0).count() as f64 / rows.len() as f64;
        assert!((0.30..0.42).contains(&hot), "hot fraction {hot}");
    }

    #[test]
    fn uniform_is_roughly_balanced() {
        let rows = keyed_tuples(20_000, 10, KeyDistribution::Uniform, 2);
        for k in 0..10 {
            let frac = rows.iter().filter(|v| key_of(v) == k).count() as f64 / rows.len() as f64;
            assert!((0.05..0.15).contains(&frac), "key {k}: {frac}");
        }
    }

    #[test]
    fn gaussian_peaks_in_the_middle() {
        let rows = keyed_tuples(20_000, 100, KeyDistribution::Gaussian, 3);
        let mid = rows
            .iter()
            .filter(|v| (35..65).contains(&key_of(v)))
            .count() as f64
            / rows.len() as f64;
        let edge = rows
            .iter()
            .filter(|v| key_of(v) < 10 || key_of(v) >= 90)
            .count() as f64
            / rows.len() as f64;
        assert!(mid > edge * 3.0, "mid {mid} vs edge {edge}");
    }

    #[test]
    fn zipf_head_dominates_and_rank_frequencies_decay() {
        let rows = keyed_tuples(20_000, 100, KeyDistribution::Zipf(1.2), 5);
        let count = |k: i64| rows.iter().filter(|v| key_of(v) == k).count() as f64;
        let n = rows.len() as f64;
        // Rank-0 share under s=1.2, 100 keys is ~0.26 analytically.
        let head = count(0) / n;
        assert!((0.20..0.33).contains(&head), "head fraction {head}");
        // Frequencies decay with rank.
        assert!(count(0) > count(1));
        assert!(count(1) > count(10));
        assert!(count(10) > count(90));
        // A steeper exponent concentrates the head further.
        let steep = keyed_tuples(20_000, 100, KeyDistribution::Zipf(2.0), 5);
        let steep_head = steep.iter().filter(|v| key_of(v) == 0).count() as f64 / n;
        assert!(steep_head > head, "steep {steep_head} vs {head}");
    }

    #[test]
    fn keys_stay_in_domain_and_payloads_in_range() {
        for dist in KeyDistribution::all() {
            let rows = keyed_tuples(1_000, 7, dist, 4);
            assert_eq!(rows.len(), 1_000);
            for v in &rows {
                let k = key_of(v);
                assert!((0..7).contains(&k));
                let p = v.field(field::PAYLOAD).unwrap().as_str().unwrap();
                assert!((3..=10).contains(&p.len()));
            }
        }
    }
}
