//! Figure 4: effect of the optimizations on the data-parallel workflow
//! (paper, Section 5.1).
//!
//! The spam-classifier workflow (Listing 5) runs on both engines under five
//! configurations — the un-optimized baseline (no unnesting: the blacklist
//! is broadcast to all nodes) and the four cumulative optimization sets of
//! the figure — and the speedup of each set over the baseline is reported.
//!
//! Paper numbers (speedup over baseline):
//!
//! | Config | Spark | Flink |
//! |---|---|---|
//! | Unnesting | 1.50× | 6.56× |
//! | Unnesting + Partition | 1.50× | 6.56× |
//! | Unnesting + Caching | 3.86× | 12.07× |
//! | Unnesting + Partition + Caching | 4.18× | 18.16× |

use emma::algorithms::spam;
use emma::prelude::*;
use emma_datagen::emails::{classifiers, EmailSpec};

use crate::{run_with_timeout, Outcome};

/// The Fig. 4 configurations, in figure order (baseline first).
pub const CONFIGS: [&str; 5] = [
    "Baseline (no unnesting)",
    "Unnesting",
    "Unnesting + Partition",
    "Unnesting + Caching",
    "Unnesting + Partition + Caching",
];

fn flags_for(config: usize) -> OptimizerFlags {
    let base = OptimizerFlags {
        inlining: true,
        normalization: true,
        unnest_exists: config >= 1,
        fold_group_fusion: true,
        caching: false,
        partition_pulling: false,
        pipeline_fusion: true,
        compiled_eval: true,
    };
    match config {
        0 | 1 => base,
        2 => base.with_partition_pulling(true),
        3 => base.with_caching(true),
        4 => base.with_caching(true).with_partition_pulling(true),
        _ => unreachable!(),
    }
}

/// The workload: emails ≫ blacklist, several classifier thresholds that keep
/// a minority of emails as non-spam (so the join input is a filtered subset,
/// like the paper's workflow).
pub fn workload() -> (Program, Catalog) {
    // The paper's volumes at 1/1000 row scale with original row sizes:
    // 1 M emails of ~100 KB (100 GB) → 1000 × 100 KB; 100 k blacklist
    // entries in 2 GB → 100 × 20 KB.
    let spec = EmailSpec {
        emails: 1_000,
        blacklist: 100,
        ip_domain: 1_000,
        body_bytes: 100_000,
        info_bytes: 20_000,
        seed: 42,
    };
    // Thresholds 20/30/40: like real classifiers, only a minority of mail is
    // spam, so the non-spam side retains most of the corpus (which is what
    // makes the per-iteration join shuffle comparable to a full repartition).
    (spam::program(classifiers(3)), spam::catalog(&spec))
}

/// One measured engine column of the figure.
#[derive(Clone, Debug)]
pub struct Fig4Engine {
    /// Engine name.
    pub engine: &'static str,
    /// Baseline runtime (simulated seconds).
    pub baseline_secs: f64,
    /// Runtime per optimized configuration, in [`CONFIGS`] order (index 1..).
    pub optimized_secs: Vec<f64>,
}

impl Fig4Engine {
    /// Speedups over the baseline, in figure order.
    pub fn speedups(&self) -> Vec<f64> {
        self.optimized_secs
            .iter()
            .map(|s| self.baseline_secs / s)
            .collect()
    }
}

/// Runs the full Fig. 4 experiment on both engines.
pub fn run() -> Vec<Fig4Engine> {
    let (program, catalog) = workload();
    [
        ("spark (sparrow)", Engine::sparrow()),
        ("flink (flamingo)", Engine::flamingo()),
    ]
    .into_iter()
    .map(|(name, engine)| {
        let mut secs = Vec::new();
        for config in 0..CONFIGS.len() {
            let (outcome, _) = run_with_timeout(&engine, &program, &catalog, &flags_for(config));
            match outcome {
                Outcome::Finished(s) => secs.push(s),
                Outcome::TimedOut => secs.push(f64::INFINITY),
            }
        }
        Fig4Engine {
            engine: name,
            baseline_secs: secs[0],
            optimized_secs: secs[1..].to_vec(),
        }
    })
    .collect()
}
