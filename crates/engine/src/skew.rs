//! Skew-aware shuffle planning: hot-partition detection and deterministic
//! sub-partition splitting.
//!
//! Under a heavy-tailed key distribution one shuffle partition dominates the
//! layout: `max_part_rows` / `max_part_bytes` drive the simulated cost model
//! superlinearly and, on the pool, a single hot partition gates the wave while
//! every other worker idles. This module plans a *split* of the hot
//! partitions into sub-partitions so downstream wide operators see a balanced
//! layout.
//!
//! The decision is a pure function of the observed partition sizes and the
//! [`SkewConfig`]: no randomness, no clocks, no dependence on thread count or
//! dispatch mode. The same sizes always produce the same [`SplitPlan`], so
//! schedules replay bit-identically across `1/2/4` threads and both dispatch
//! modes. How split rows are *merged* back is the consuming operator's
//! business (see `exec::operators`): `aggBy` flows sub-partitions through its
//! existing partial/merge combiner, `groupBy` runs a two-phase
//! local-group/merge, the repartition join replicates the build partition
//! across the probe's sub-partitions, and stateful operators route by a
//! key-preserving secondary hash.

/// Configuration for skew-aware shuffle splitting.
///
/// Off by default: the engine only consults this when installed via
/// `Engine::with_skew_splitting`. A partition is *hot* when its row count
/// exceeds `skew_factor ×` the mean partition row count and is at least
/// `min_part_rows` — tiny layouts are never worth splitting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SkewConfig {
    /// A partition is hot when `rows > skew_factor × mean_rows`.
    pub skew_factor: f64,
    /// Upper bound on the number of sub-partitions a hot partition splits
    /// into. The actual fan-out adapts to the overload: `ceil(rows / mean)`,
    /// clamped to `2..=split_ways`.
    pub split_ways: usize,
    /// Partitions smaller than this are never split regardless of ratio.
    pub min_part_rows: u64,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig {
            skew_factor: 2.0,
            split_ways: 8,
            min_part_rows: 1024,
        }
    }
}

impl SkewConfig {
    /// Overrides the hotness threshold factor.
    pub fn with_skew_factor(mut self, factor: f64) -> Self {
        self.skew_factor = factor;
        self
    }

    /// Overrides the minimum row count below which partitions never split.
    pub fn with_min_part_rows(mut self, rows: u64) -> Self {
        self.min_part_rows = rows;
        self
    }
}

/// How a wide operator can consume a split shuffle layout.
///
/// Mirrors `emma_compiler::plan::SkewEligibility`; the engine keeps its own
/// copy so `skew.rs` stays free of compiler types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitKind {
    /// Rows of a hot partition are split into contiguous chunks, preserving
    /// row order. Any key may land in several sub-partitions; the consumer
    /// must merge (groupBy two-phase) or tolerate duplicates of a key
    /// (join probe side).
    Balanced,
    /// Rows are routed by a secondary hash of the key hash, so one key maps
    /// to exactly one sub-partition. Weaker balancing (a single dominant key
    /// stays whole) but no merge step is needed beyond what the consumer
    /// already does per partition.
    KeyPreserving,
}

/// A deterministic plan for splitting hot partitions of one shuffle layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitPlan {
    /// Fan-out per original partition; `1` means not split.
    pub ways: Vec<usize>,
    /// Prefix sums of `ways`: original partition `b` owns output slots
    /// `offsets[b] .. offsets[b] + ways[b]`.
    pub offsets: Vec<usize>,
    /// For each output slot, the original partition it came from.
    pub parents: Vec<usize>,
    /// Total number of output sub-partitions (`== parents.len()`).
    pub output_parts: usize,
}

impl SplitPlan {
    /// The original partition index that output slot `pi` belongs to.
    pub fn parent(&self, pi: usize) -> usize {
        self.parents[pi]
    }

    /// True when at least one partition was actually split.
    pub fn is_split(&self) -> bool {
        self.ways.iter().any(|&w| w > 1)
    }

    /// Number of partitions with fan-out > 1.
    pub fn partitions_split(&self) -> u64 {
        self.ways.iter().filter(|&&w| w > 1).count() as u64
    }
}

/// The skew ratio of a layout: `max_part_rows × parts / total_rows`.
///
/// A perfectly balanced layout scores 1.0; a layout whose hottest partition
/// holds everything scores `parts`. Returns 0.0 for empty, all-zero, and
/// single-partition layouts — with fewer than two partitions there is no
/// imbalance to measure (and nothing splitting could ever fix).
pub fn skew_ratio(sizes: &[u64]) -> f64 {
    let total: u64 = sizes.iter().sum();
    if total == 0 || sizes.len() < 2 {
        return 0.0;
    }
    let max = *sizes.iter().max().unwrap();
    max as f64 * sizes.len() as f64 / total as f64
}

/// [`skew_ratio`] with the noise floor [`plan_splits`] applies: a layout
/// whose hottest partition is below [`SkewConfig::min_part_rows`] is never
/// worth splitting, so its imbalance is not skew worth reporting either —
/// a handful of post-combiner partials spread over hundreds of buckets
/// would otherwise score in the dozens.
pub fn observed_skew_ratio(cfg: &SkewConfig, sizes: &[u64]) -> f64 {
    if sizes.iter().max().is_some_and(|&m| m >= cfg.min_part_rows) {
        skew_ratio(sizes)
    } else {
        0.0
    }
}

/// Plans sub-partition splits for the given per-partition row counts.
///
/// Pure: the result depends only on `(cfg, sizes)`. Returns `None` when no
/// partition qualifies, so callers can keep the unsplit fast path untouched.
/// Empty, all-zero, and single-partition layouts never qualify: a
/// single-partition layout has mean == its own size, so a `skew_factor < 1`
/// would otherwise "split" a layout with no imbalance at all.
pub fn plan_splits(cfg: &SkewConfig, sizes: &[u64]) -> Option<SplitPlan> {
    if sizes.len() < 2 || cfg.split_ways < 2 {
        return None;
    }
    let total: u64 = sizes.iter().sum();
    if total == 0 {
        return None;
    }
    let mean = total as f64 / sizes.len() as f64;
    let mut ways = Vec::with_capacity(sizes.len());
    let mut any = false;
    for &rows in sizes {
        let hot = rows as f64 > cfg.skew_factor * mean && rows >= cfg.min_part_rows;
        if hot {
            // Fan out proportionally to the overload, but never into more
            // sub-partitions than there are rows.
            let w = ((rows as f64 / mean).ceil() as usize)
                .clamp(2, cfg.split_ways)
                .min(rows as usize);
            if w > 1 {
                ways.push(w);
                any = true;
                continue;
            }
        }
        ways.push(1);
    }
    if !any {
        return None;
    }
    let mut offsets = Vec::with_capacity(ways.len());
    let mut parents = Vec::new();
    let mut acc = 0usize;
    for (b, &w) in ways.iter().enumerate() {
        offsets.push(acc);
        acc += w;
        for _ in 0..w {
            parents.push(b);
        }
    }
    Some(SplitPlan {
        ways,
        offsets,
        output_parts: acc,
        parents,
    })
}

/// Salt for the secondary (sub-partition) hash, so sub-routing is decorrelated
/// from the primary `hash % parts` routing.
const SUB_SALT: u64 = 0x5157_4b45_5353_4c54; // "QWKESSLT"

/// Secondary hash used to route rows of a hot partition to sub-partitions in
/// a key-preserving way: same key hash → same sub-partition.
pub fn sub_hash(h: u64) -> u64 {
    fmix64(h ^ SUB_SALT)
}

/// 64-bit finalizer (MurmurHash3 fmix64); also used by `fault.rs`.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_layout_never_splits() {
        let cfg = SkewConfig::default().with_min_part_rows(1);
        assert_eq!(plan_splits(&cfg, &[100, 100, 100, 100]), None);
        assert_eq!(plan_splits(&cfg, &[]), None);
        assert_eq!(plan_splits(&cfg, &[0, 0]), None);
    }

    #[test]
    fn hot_partition_splits_proportionally() {
        let cfg = SkewConfig::default().with_min_part_rows(1);
        // mean = 250; partition 0 is 700/250 = 2.8× the mean → hot, 3 ways.
        let plan = plan_splits(&cfg, &[700, 100, 100, 100]).unwrap();
        assert_eq!(plan.ways, vec![3, 1, 1, 1]);
        assert_eq!(plan.offsets, vec![0, 3, 4, 5]);
        assert_eq!(plan.output_parts, 6);
        assert_eq!(plan.parents, vec![0, 0, 0, 1, 2, 3]);
        assert!(plan.is_split());
        assert_eq!(plan.partitions_split(), 1);
        assert_eq!(plan.parent(2), 0);
        assert_eq!(plan.parent(5), 3);
    }

    #[test]
    fn fan_out_clamps_to_split_ways() {
        let cfg = SkewConfig {
            split_ways: 4,
            ..SkewConfig::default().with_min_part_rows(1)
        };
        let plan = plan_splits(&cfg, &[10_000, 10, 10, 10]).unwrap();
        assert_eq!(plan.ways[0], 4);
    }

    #[test]
    fn min_part_rows_gates_small_layouts() {
        let cfg = SkewConfig::default(); // min_part_rows = 1024
        assert_eq!(plan_splits(&cfg, &[700, 100, 100, 100]), None);
        let plan = plan_splits(&cfg, &[7000, 1000, 1000, 1000]).unwrap();
        assert_eq!(plan.ways[0], 3);
    }

    #[test]
    fn plan_is_pure() {
        let cfg = SkewConfig::default().with_min_part_rows(1);
        let sizes = [9_999, 7, 13, 21, 5];
        assert_eq!(plan_splits(&cfg, &sizes), plan_splits(&cfg, &sizes));
    }

    #[test]
    fn skew_ratio_measures_imbalance() {
        assert_eq!(skew_ratio(&[100, 100, 100, 100]), 1.0);
        assert_eq!(skew_ratio(&[400, 0, 0, 0]), 4.0);
        assert_eq!(skew_ratio(&[]), 0.0);
        assert_eq!(skew_ratio(&[0, 0]), 0.0);
    }

    #[test]
    fn observed_ratio_applies_the_split_noise_floor() {
        let cfg = SkewConfig::default(); // min_part_rows = 1024
                                         // Below the floor: six partials over many buckets is not skew.
        let mut partials = vec![0u64; 320];
        partials[7] = 3;
        partials[200] = 3;
        assert_eq!(skew_ratio(&partials), 160.0);
        assert_eq!(observed_skew_ratio(&cfg, &partials), 0.0);
        assert_eq!(observed_skew_ratio(&cfg, &[1023, 1, 1, 1]), 0.0);
        // At the floor the plain ratio is reported.
        assert_eq!(
            observed_skew_ratio(&cfg, &[1024, 0, 0, 0]),
            skew_ratio(&[1024, 0, 0, 0])
        );
        assert_eq!(observed_skew_ratio(&cfg, &[1024, 0, 0, 0]), 4.0);
        // All-empty and empty layouts stay 0, whatever the floor.
        let eager = cfg.with_min_part_rows(0);
        assert_eq!(observed_skew_ratio(&eager, &[0, 0, 0]), 0.0);
        assert_eq!(observed_skew_ratio(&eager, &[]), 0.0);
        assert_eq!(observed_skew_ratio(&cfg, &[0, 0, 0]), 0.0);
    }

    #[test]
    fn degenerate_layouts_report_no_skew_and_never_split() {
        // A single partition has no peers to be skewed against: ratio is 0,
        // not the misleading 1.0 the max×parts/total formula would give.
        assert_eq!(skew_ratio(&[7]), 0.0);
        assert_eq!(skew_ratio(&[0]), 0.0);
        // …and no split plan, even under a sub-1.0 skew_factor that would
        // make `rows > factor × mean` trivially true.
        let eager = SkewConfig::default()
            .with_skew_factor(0.5)
            .with_min_part_rows(1);
        assert_eq!(plan_splits(&eager, &[10_000]), None);
        assert_eq!(plan_splits(&eager, &[]), None);
        assert_eq!(plan_splits(&eager, &[0]), None);
        assert_eq!(plan_splits(&eager, &[0, 0]), None);
    }

    #[test]
    fn sub_hash_is_deterministic_and_decorrelated() {
        assert_eq!(sub_hash(42), sub_hash(42));
        assert_ne!(sub_hash(42), sub_hash(43));
        // Decorrelated from the identity: consecutive hashes spread.
        let spread: std::collections::HashSet<u64> = (0..64u64).map(|h| sub_hash(h) % 8).collect();
        assert!(spread.len() > 4);
    }

    #[test]
    fn splits_never_exceed_row_count() {
        let cfg = SkewConfig::default().with_min_part_rows(1); // split_ways = 8
                                                               // Hot by ratio but only 3 rows: fan-out must not exceed 3.
        let plan = plan_splits(&cfg, &[3, 0, 0, 0]).unwrap();
        assert_eq!(plan.ways[0], 3);
    }
}
