//! The simulated clock's price list. Every physical effect the executor pays
//! for is a [`Charge`] carrying the sizes it was measured at, and [`apply`]
//! prices it on a [`ClusterSpec`] under a [`Personality`], moving the clock
//! and the byte, record and stage counters that go with it. A variant makes
//! one [`ExecStats::charge_secs`] call per formula: each call rounds to whole
//! attoseconds, so splitting or merging formulas would move the clock.
//! DESIGN.md §3.3 tabulates the variants.

use crate::cluster::{ClusterSpec, Personality};
use crate::metrics::ExecStats;

/// Memory-speed I/O (an in-memory cache, a held state) over disk speed.
pub(crate) const MEMORY_SPEED_FACTOR: f64 = 10.0;

/// The static UDF cost of CPU weight 1: a typical ~8-node lambda.
pub(crate) const CPU_WEIGHT_DIVISOR: f64 = 8.0;

/// The least CPU weight a record pays, however cheap its UDF.
pub(crate) const CPU_WEIGHT_FLOOR: f64 = 0.25;

/// Shuffles up to this volume buffer in memory and pay no per-file seeks.
pub(crate) const SHUFFLE_FILE_CUTOFF: u64 = 1024 * 1024;

/// One physical effect the simulated clock pays for. A stage lasts as long
/// as its slowest task, so the largest partition's size prices it.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Charge {
    /// `(records, max_part_records, weight)`: CPU per record, scaled by the
    /// UDFs' static weight; every record counts in `records_processed`.
    Cpu(u64, u64, f64),
    /// `(max_part_bytes, weight)`: bytes that `StrContains` and its kind scan.
    CpuBytes(u64, f64),
    /// A stage with no data motion of its own.
    Stage,
    /// One driver loop iteration.
    Iteration,
    /// A `Source` stage: scheduling plus a storage scan of these bytes.
    Source(u64),
    /// A storage read: a checkpoint restore, a dataset a UDF scans.
    StorageRead(u64),
    /// A storage write: a sink, a checkpoint.
    StorageWrite(u64),
    /// A cache hit: memory speed, or a storage read on an on-disk cache.
    CacheRead(u64),
    /// A cache fill, priced like a [`Charge::CacheRead`].
    CacheWrite(u64),
    /// Reading a stateful bag, held in memory and already partitioned.
    StateSnapshot(u64),
    /// Bytes over the driver's one link, either way.
    DriverLink(u64),
    /// Bytes shipped to every node, times the broadcast factor.
    Broadcast(u64),
    /// `(max_part_rows, scan_rows)`: naive scans of broadcast bags per record.
    BroadcastScans(u64, u64),
    /// `(folds, max_part_bytes)`: folds re-scanning materialized groups.
    NestedBagFolds(usize, u64),
    /// Materializing groups over partitions of these sizes: I/O passes, then
    /// spill and superlinear pressure past worker memory (Fig. 5).
    GroupMaterialization(Vec<u64>),
    /// A hash shuffle landing on partitions of these sizes.
    Shuffle(Vec<u64>),
    /// Fold partials of these bytes collected on the driver, as a stage.
    FoldPartials(u64),
    /// A split `groupBy`'s merge: the bytes each merging reducer receives.
    SplitMerge(Vec<u64>),
    /// Build bytes a split join bucket replicates to its extra probe parts.
    ReplicatedBuild(u64),
    /// A fault wave's slowest straggler (or its winning backup), in seconds.
    Straggler(f64),
    /// `(base_secs, attempt)`: the exponential backoff before a retry wave.
    Backoff(f64, u32),
    /// Slot-seconds burned by speculative duplicates.
    DuplicateWork(f64),
}

impl Charge {
    /// [`Charge::Cpu`] at weight 1.
    pub(crate) fn cpu(records: u64, max_part_records: u64) -> Charge {
        Charge::Cpu(records, max_part_records, CPU_WEIGHT_DIVISOR)
    }

    /// [`Charge::CpuBytes`], or nothing for byte-free UDFs, which never ask
    /// for `max_part_bytes` (a walk of an unmeasured input).
    pub(crate) fn cpu_bytes(weight: f64, max_part_bytes: impl FnOnce() -> u64) -> Option<Charge> {
        (weight > 0.0).then(|| Charge::CpuBytes(max_part_bytes(), weight))
    }

    /// [`Charge::NestedBagFolds`], or nothing without a fold to re-scan.
    pub(crate) fn nested_bag_folds(folds: usize, bytes: impl FnOnce() -> u64) -> Option<Charge> {
        (folds > 0).then(|| Charge::NestedBagFolds(folds, bytes()))
    }
}

/// Seconds to move `bytes` through every node's disk at once.
fn disk_secs(spec: &ClusterSpec, bytes: f64) -> f64 {
    bytes / (spec.disk_bw * spec.nodes as f64)
}

/// Seconds to move `bytes` through every node's link at once.
fn net_secs(spec: &ClusterSpec, bytes: f64) -> f64 {
    bytes / (spec.net_bw * spec.nodes as f64)
}

/// Seconds of CPU for `records` records.
fn cpu_secs(spec: &ClusterSpec, records: f64) -> f64 {
    records * spec.cpu_per_record
}

fn memory_secs(spec: &ClusterSpec, bytes: u64) -> f64 {
    bytes as f64 / (spec.disk_bw * spec.nodes as f64 * MEMORY_SPEED_FACTOR)
}

/// Seconds to move `bytes` over one node's link.
fn link_secs(spec: &ClusterSpec, bytes: u64) -> f64 {
    bytes as f64 / spec.net_bw
}

/// Pays for `charge` on `stats`' clock and counters.
pub(crate) fn apply(stats: &mut ExecStats, spec: &ClusterSpec, p: &Personality, charge: Charge) {
    let mem = spec.mem_per_worker as f64;
    match charge {
        Charge::Cpu(records, max_part_records, weight) => {
            stats.records_processed += records;
            let weight = (weight / CPU_WEIGHT_DIVISOR).max(CPU_WEIGHT_FLOOR);
            stats.charge_secs(cpu_secs(spec, max_part_records as f64) * weight);
        }
        // No floor and no records: the per-call cost is in `Cpu`.
        Charge::CpuBytes(max_part_bytes, weight) => {
            stats.charge_secs(cpu_secs(spec, max_part_bytes as f64) * weight / CPU_WEIGHT_DIVISOR);
        }
        Charge::Stage => {
            stats.stages += 1;
            stats.charge_secs(p.stage_overhead);
        }
        Charge::Iteration => {
            stats.iterations += 1;
            stats.charge_secs(p.iteration_overhead);
        }
        Charge::Source(bytes) => {
            stats.bytes_read_storage += bytes;
            stats.stages += 1;
            stats.charge_secs(p.stage_overhead + disk_secs(spec, bytes as f64));
        }
        Charge::CacheRead(bytes) | Charge::CacheWrite(bytes) if p.in_memory_cache => {
            stats.charge_secs(memory_secs(spec, bytes));
        }
        Charge::StorageRead(bytes) | Charge::CacheRead(bytes) => {
            stats.bytes_read_storage += bytes;
            stats.charge_secs(disk_secs(spec, bytes as f64));
        }
        Charge::StorageWrite(bytes) | Charge::CacheWrite(bytes) => {
            stats.bytes_written_storage += bytes;
            stats.charge_secs(disk_secs(spec, bytes as f64));
        }
        Charge::StateSnapshot(bytes) => stats.charge_secs(memory_secs(spec, bytes)),
        Charge::DriverLink(bytes) => stats.charge_secs(link_secs(spec, bytes)),
        Charge::Broadcast(bytes) => {
            let shipped = bytes.saturating_mul(spec.nodes as u64);
            stats.bytes_broadcast += shipped;
            stats.charge_secs(net_secs(spec, shipped as f64 * p.broadcast_factor));
        }
        Charge::BroadcastScans(max_part_rows, scan_rows) if scan_rows > 0 => {
            stats.charge_secs(max_part_rows as f64 * scan_rows as f64 * spec.native_op_cost);
        }
        Charge::NestedBagFolds(folds, max_part_bytes) => {
            let max_bytes = max_part_bytes as f64;
            // Re-scanning spilled bag values pays the spill I/O and the same
            // pressure curve as materializing them.
            let penalty = if max_bytes > mem {
                p.spill_penalty * (max_bytes / mem).powf(p.group_pressure_exponent)
            } else {
                1.0
            };
            stats.charge_secs(folds as f64 * max_bytes * penalty / spec.disk_bw);
        }
        Charge::GroupMaterialization(part_bytes) => {
            let total: u64 = part_bytes.iter().sum();
            stats.charge_secs(disk_secs(spec, total as f64 * p.group_materialize_passes));
            let max_bytes = part_bytes.into_iter().max().unwrap_or(0) as f64;
            if max_bytes > mem {
                let (ratio, over) = (max_bytes / mem, max_bytes - mem);
                let spill_io = over * p.spill_penalty / spec.disk_bw;
                let mut pressure = ratio.powf(p.group_pressure_exponent);
                if ratio > 2.0 {
                    // A hash aggregation collapses past ~2× memory; a
                    // sort-based one keeps spilling (collapse factor 1).
                    pressure *= p.hash_agg_collapse;
                }
                stats.bytes_spilled += over as u64;
                stats.charge_secs(spill_io * pressure);
            }
        }
        Charge::Shuffle(part_bytes) => {
            // A node's `cores_per_node` consecutive partitions share its link.
            let total: u64 = part_bytes.iter().sum();
            let nodes = part_bytes.chunks(spec.cores_per_node.max(1));
            let max_node = nodes.map(|node| node.iter().sum()).max().unwrap_or(0);
            let wire = net_secs(spec, total as f64).max(link_secs(spec, max_node));
            // Spark 1.x's M×R shuffle files bend its no-fusion curves
            // superlinear in the DOP (Fig. 5).
            let files = (part_bytes.len() * part_bytes.len()) as f64;
            let seeks = if total > SHUFFLE_FILE_CUTOFF {
                files * p.shuffle_seek / spec.nodes as f64
            } else {
                0.0
            };
            stats.bytes_shuffled += total;
            stats.stages += 1;
            stats.charge_secs(p.stage_overhead + wire + seeks);
        }
        Charge::FoldPartials(bytes) => {
            stats.stages += 1;
            stats.charge_secs(p.stage_overhead + link_secs(spec, bytes));
        }
        Charge::SplitMerge(received) => {
            let moved_bytes: u64 = received.iter().sum();
            let max_receiver = received.into_iter().max().unwrap_or(0);
            let wire = net_secs(spec, moved_bytes as f64).max(link_secs(spec, max_receiver));
            stats.bytes_shuffled += moved_bytes;
            stats.stages += 1;
            stats.charge_secs(p.stage_overhead + wire);
        }
        Charge::ReplicatedBuild(bytes) if bytes > 0 => {
            stats.bytes_shuffled += bytes;
            stats.charge_secs(net_secs(spec, bytes as f64));
        }
        Charge::Straggler(secs) => retry(stats, secs),
        Charge::Backoff(base, attempt) => retry(stats, base * (1u64 << attempt.min(20)) as f64),
        // Duplicates steal cluster throughput, not stage latency.
        Charge::DuplicateWork(slot_secs) if slot_secs > 0.0 => {
            stats.speculation_wasted_secs += slot_secs;
            stats.charge_secs(slot_secs / spec.dop().max(1) as f64);
        }
        // No rows scanned, bytes replicated or slots burned: nothing to pay.
        Charge::BroadcastScans(..) | Charge::ReplicatedBuild(_) | Charge::DuplicateWork(_) => {}
    }
}

/// Retry time, which `retry_sim_secs` sub-totals.
fn retry(stats: &mut ExecStats, secs: f64) {
    if secs > 0.0 {
        stats.charge_secs(secs);
        stats.retry_sim_secs += secs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pay(p: &Personality, charges: impl IntoIterator<Item = Charge>) -> ExecStats {
        let mut stats = ExecStats::default();
        for charge in charges {
            apply(&mut stats, &ClusterSpec::tiny(), p, charge);
        }
        stats
    }

    /// The clock after charging `secs`, one call each.
    fn clock(secs: &[f64]) -> f64 {
        let mut stats = ExecStats::default();
        secs.iter().for_each(|&s| stats.charge_secs(s));
        stats.simulated_secs
    }

    /// Partition sizes with `bytes` on the first of the tiny cluster's 8.
    fn one_hot(bytes: u64) -> Vec<u64> {
        let mut parts = vec![0; ClusterSpec::tiny().dop()];
        parts[0] = bytes;
        parts
    }

    #[test]
    fn shuffle_seeks_start_one_byte_past_the_cutoff() {
        let (spec, p) = (ClusterSpec::tiny(), Personality::sparrow());
        // The hot partition's node is the most loaded link.
        let wire = |bytes: u64| bytes as f64 / spec.net_bw;
        let at = pay(&p, [Charge::Shuffle(one_hot(SHUFFLE_FILE_CUTOFF))]);
        assert_eq!(
            at.simulated_secs,
            clock(&[p.stage_overhead + wire(SHUFFLE_FILE_CUTOFF)])
        );
        assert_eq!((at.bytes_shuffled, at.stages), (SHUFFLE_FILE_CUTOFF, 1));
        let past = pay(&p, [Charge::Shuffle(one_hot(SHUFFLE_FILE_CUTOFF + 1))]);
        let seeks = 64.0 * p.shuffle_seek / spec.nodes as f64;
        let want = p.stage_overhead + wire(SHUFFLE_FILE_CUTOFF + 1) + seeks;
        assert_eq!(past.simulated_secs, clock(&[want]));
    }

    #[test]
    fn groups_spill_one_byte_past_worker_memory() {
        let (spec, p) = (ClusterSpec::tiny(), Personality::flamingo());
        let mem = spec.mem_per_worker;
        let passes = |bytes: u64| disk_secs(&spec, bytes as f64 * p.group_materialize_passes);
        let at = pay(&p, [Charge::GroupMaterialization(one_hot(mem))]);
        assert_eq!(at.bytes_spilled, 0);
        assert_eq!(at.simulated_secs, clock(&[passes(mem)]));
        let past = pay(&p, [Charge::GroupMaterialization(one_hot(mem + 1))]);
        assert_eq!(past.bytes_spilled, 1);
        let ratio = (mem + 1) as f64 / mem as f64;
        let spill = 1.0 * p.spill_penalty / spec.disk_bw * ratio.powf(p.group_pressure_exponent);
        assert_eq!(past.simulated_secs, clock(&[passes(mem + 1), spill]));
    }

    #[test]
    fn a_hash_aggregation_collapses_only_past_twice_its_memory() {
        let (spec, p) = (ClusterSpec::tiny(), Personality::sparrow());
        let mem = spec.mem_per_worker;
        let spill = |bytes: u64, collapse: f64| {
            let (ratio, over) = (bytes as f64 / mem as f64, (bytes - mem) as f64);
            let pressure = ratio.powf(p.group_pressure_exponent) * collapse;
            let passes = disk_secs(&spec, bytes as f64 * p.group_materialize_passes);
            clock(&[passes, over * p.spill_penalty / spec.disk_bw * pressure])
        };
        let twice = pay(&p, [Charge::GroupMaterialization(one_hot(2 * mem))]);
        assert_eq!(twice.simulated_secs, spill(2 * mem, 1.0));
        let past = pay(&p, [Charge::GroupMaterialization(one_hot(2 * mem + 1))]);
        assert_eq!(past.simulated_secs, spill(2 * mem + 1, p.hash_agg_collapse));
        assert!(past.simulated_secs > 20.0 * twice.simulated_secs);
    }

    #[test]
    fn nested_bag_rescans_pay_the_spill_penalty_only_past_memory() {
        let (spec, p) = (ClusterSpec::tiny(), Personality::sparrow());
        let mem = spec.mem_per_worker;
        let within = pay(&p, [Charge::NestedBagFolds(3, mem)]);
        assert_eq!(
            within.simulated_secs,
            clock(&[3.0 * mem as f64 / spec.disk_bw])
        );
        let past = pay(&p, [Charge::NestedBagFolds(3, mem + 1)]);
        let ratio = (mem + 1) as f64 / mem as f64;
        let penalty = p.spill_penalty * ratio.powf(p.group_pressure_exponent);
        let want = 3.0 * (mem + 1) as f64 * penalty / spec.disk_bw;
        assert_eq!(past.simulated_secs, clock(&[want]));
        assert_eq!(
            past.bytes_spilled, 0,
            "a re-scan reads spilled data, it spills none"
        );
    }

    #[test]
    fn cpu_weights_below_two_pay_the_floor() {
        let (spec, p) = (ClusterSpec::tiny(), Personality::sparrow());
        let per_slot = |weight: f64| pay(&p, [Charge::Cpu(7, 100, weight)]).simulated_secs;
        let floor = clock(&[100.0 * spec.cpu_per_record * CPU_WEIGHT_FLOOR]);
        assert_eq!(per_slot(0.5), floor);
        assert_eq!(per_slot(1.999), floor);
        assert_eq!(per_slot(2.0), floor);
        assert!(per_slot(2.001) > floor);
        assert_eq!(per_slot(16.0), clock(&[100.0 * spec.cpu_per_record * 2.0]));
        assert_eq!(pay(&p, [Charge::Cpu(7, 100, 0.5)]).records_processed, 7);
        assert_eq!(
            pay(&p, [Charge::cpu(7, 100)]),
            pay(&p, [Charge::Cpu(7, 100, 8.0)])
        );
    }

    #[test]
    fn byte_free_udfs_and_fold_free_stages_never_measure_their_input() {
        assert_eq!(Charge::cpu_bytes(0.0, || unreachable!()), None);
        assert_eq!(Charge::nested_bag_folds(0, || unreachable!()), None);
        assert_eq!(Charge::cpu_bytes(0.5, || 9), Some(Charge::CpuBytes(9, 0.5)));
    }

    #[test]
    fn only_an_on_disk_cache_moves_the_storage_counters() {
        let spec = ClusterSpec::tiny();
        let cache = [Charge::CacheWrite(4096), Charge::CacheRead(1000)];
        let sparrow = pay(&Personality::sparrow(), cache.clone());
        assert_eq!(
            (sparrow.bytes_read_storage, sparrow.bytes_written_storage),
            (0, 0)
        );
        let memory = |b: f64| b / (spec.disk_bw * spec.nodes as f64 * MEMORY_SPEED_FACTOR);
        assert_eq!(
            sparrow.simulated_secs,
            clock(&[memory(4096.0), memory(1000.0)])
        );
        let flamingo = pay(&Personality::flamingo(), cache);
        assert_eq!(
            (flamingo.bytes_read_storage, flamingo.bytes_written_storage),
            (1000, 4096)
        );
        let disk = |b: f64| disk_secs(&spec, b);
        assert_eq!(
            flamingo.simulated_secs,
            clock(&[disk(4096.0), disk(1000.0)])
        );
    }
}
