//! Differential acceptance suite for the skew-aware shuffle layer.
//!
//! The invariants under test:
//!
//! 1. **Off means off**: without `Engine::with_skew_splitting` — or with a
//!    config that never triggers — every deterministic counter, including
//!    `simulated_secs`, is bit-identical to the pre-skew engine (modulo
//!    `max_skew_ratio`, which a watching-but-idle config tracks).
//! 2. **Splitting never changes results**: rows and scalars of every sink
//!    are identical with splitting on vs. off; order-preserving operators
//!    (`groupBy`, join probe) reproduce the exact row order.
//! 3. **Splitting actually rebalances**: under a Zipf-skewed key
//!    distribution the hot shuffle partition's row count drops at least 2×.
//! 4. **Schedules replay bit-identically** across 1/2/4 threads and both
//!    dispatch modes with splitting on, and split sub-partitions retry
//!    independently under injected faults.

use emma_compiler::bag_expr::{BagExpr, BagLambda};
use emma_compiler::expr::{BuiltinFn, FoldOp, Lambda, ScalarExpr};
use emma_compiler::interp::Catalog;
use emma_compiler::pipeline::{parallelize, CompiledProgram, OptimizerFlags};
use emma_compiler::program::{Program, Stmt};
use emma_compiler::value::Value;
use emma_datagen::distributions::{self, KeyDistribution};
use emma_engine::cluster::{ClusterSpec, Personality};
use emma_engine::dataset::value_hash;
use emma_engine::skew::{self, SkewConfig};
use emma_engine::{BatchConfig, Engine, EngineRun, ExecStats, FaultConfig, ParallelismMode};
use proptest::prelude::*;

#[path = "../../../tests/common/string_exprs.rs"]
mod string_exprs;

fn tiny_engine() -> Engine {
    Engine::new(ClusterSpec::tiny(), Personality::sparrow()).with_parallelism_threshold(0)
}

/// A split config that triggers on the small layouts these tests use.
fn eager_cfg() -> SkewConfig {
    SkewConfig::default().with_min_part_rows(64)
}

/// The thread-count × dispatch-mode matrix every determinism check spans.
const MATRIX: [(ParallelismMode, usize); 6] = [
    (ParallelismMode::Pool, 1),
    (ParallelismMode::Pool, 2),
    (ParallelismMode::Pool, 4),
    (ParallelismMode::PerOperator, 1),
    (ParallelismMode::PerOperator, 2),
    (ParallelismMode::PerOperator, 4),
];

/// Zipf-keyed workload covering every skew-eligible operator: a raw
/// `groupBy` (Balanced split + two-phase merge), a fused group-aggregate
/// (`aggBy`, KeyPreserving), a repartition join (probe-side Balanced split
/// with build replication), a `distinct` (KeyPreserving), and a driver fold.
fn workload(n: usize, keys: i64, s: f64, seed: u64) -> (Program, Catalog) {
    let t0 = || ScalarExpr::var("t").get(0);
    // The build side must exceed `ClusterSpec::tiny`'s 8 KiB broadcast
    // threshold so the join actually repartitions (and can split).
    let dims: Vec<Value> = (0..keys)
        .map(|k| {
            Value::tuple(vec![
                Value::Int(k),
                Value::Int(k * 10),
                Value::str("d".repeat(256)),
            ])
        })
        .collect();
    let catalog = Catalog::new()
        .with(
            "events",
            distributions::keyed_tuples(n, keys, KeyDistribution::Zipf(s), seed),
        )
        .with("dims", dims);
    // The eq guard's left operand becomes the join's probe side: keep the
    // skewed events there so the probe-split + build-replication path runs.
    let join_inner = BagExpr::read("dims")
        .filter(Lambda::new(
            ["d"],
            ScalarExpr::var("o").get(0).eq(ScalarExpr::var("d").get(0)),
        ))
        .map(Lambda::new(
            ["d"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::var("o").get(0),
                ScalarExpr::var("o").get(1).add(ScalarExpr::var("d").get(1)),
            ]),
        ));
    let program = Program::new(vec![
        Stmt::write(
            "groups",
            BagExpr::read("events").group_by(Lambda::new(["t"], t0())),
        ),
        Stmt::write(
            "agg",
            BagExpr::read("events")
                .group_by(Lambda::new(["t"], t0()))
                .map(Lambda::new(
                    ["g"],
                    ScalarExpr::Tuple(vec![
                        ScalarExpr::var("g").get(0),
                        BagExpr::of_value(ScalarExpr::var("g").get(1))
                            .map(Lambda::new(["t"], ScalarExpr::var("t").get(1)))
                            .fold(FoldOp::min()),
                    ]),
                )),
        ),
        Stmt::write(
            "joined",
            BagExpr::read("events").flat_map(BagLambda::new("o", join_inner)),
        ),
        Stmt::write(
            "keys",
            BagExpr::read("events")
                .map(Lambda::new(["t"], t0()))
                .distinct(),
        ),
        Stmt::val(
            "total",
            BagExpr::read("events")
                .map(Lambda::new(["t"], ScalarExpr::var("t").get(1)))
                .sum(),
        ),
    ]);
    (program, catalog)
}

fn compile(p: &Program, compiled_eval: bool) -> CompiledProgram {
    parallelize(p, &OptimizerFlags::all().with_compiled_eval(compiled_eval))
}

fn sorted(rows: &[Value]) -> Vec<Value> {
    let mut v = rows.to_vec();
    v.sort();
    v
}

/// Asserts the two runs agree on every sink and scalar: exact rows/order
/// for the order-preserving operators, multiset equality for the rest.
fn assert_same_results(on: &EngineRun, off: &EngineRun) {
    // groupBy two-phase merge and join probe chunks preserve exact order.
    assert_eq!(
        on.writes["groups"], off.writes["groups"],
        "groupBy rows/order"
    );
    assert_eq!(on.writes["joined"], off.writes["joined"], "join rows/order");
    // aggBy and distinct merge per sub-partition: same multiset.
    assert_eq!(
        sorted(&on.writes["agg"]),
        sorted(&off.writes["agg"]),
        "aggBy rows"
    );
    assert_eq!(
        sorted(&on.writes["keys"]),
        sorted(&off.writes["keys"]),
        "distinct rows"
    );
    assert_eq!(on.scalars, off.scalars, "driver scalars");
}

/// A config that watches every layout (`min_part_rows` 1) but can never
/// call a partition hot.
fn never_splitting() -> SkewConfig {
    SkewConfig::default()
        .with_skew_factor(f64::INFINITY)
        .with_min_part_rows(1)
}

/// Zeroes the only counter a watching-but-never-splitting config moves.
fn without_ratio(stats: &ExecStats) -> ExecStats {
    let mut s = stats.clone();
    s.max_skew_ratio = 0.0;
    s
}

#[test]
fn splitting_off_is_the_identity() {
    // A config too strict to ever trigger must differ from no config only in
    // `max_skew_ratio` — every cost counter, including the bit pattern of
    // `simulated_secs`, is untouched. (An infinite `skew_factor` never
    // splits; a huge `min_part_rows` would also silence the ratio, which
    // shares the split's noise floor.)
    let (p, catalog) = workload(3_000, 40, 1.4, 11);
    for compiled in [true, false] {
        let prog = compile(&p, compiled);
        let plain = tiny_engine().run(&prog, &catalog).expect("plain");
        let watching = tiny_engine()
            .with_skew_splitting(never_splitting())
            .run(&prog, &catalog)
            .expect("watching");
        assert_same_results(&watching, &plain);
        assert_eq!(watching.stats.partitions_split, 0);
        assert_eq!(watching.stats.split_rows_moved, 0);
        assert!(watching.stats.max_skew_ratio > 1.0, "{}", watching.stats);
        assert_eq!(without_ratio(&watching.stats), plain.stats);
        assert_eq!(
            watching.stats.simulated_secs.to_bits(),
            plain.stats.simulated_secs.to_bits(),
            "an idle skew config must not move the clock"
        );
    }
}

#[test]
fn splitting_off_identity_holds_under_chaos() {
    // The fault-matrix leg of the off-identity: an idle config must not
    // perturb the injected failure schedule either.
    let (p, catalog) = workload(2_000, 40, 1.4, 13);
    let prog = compile(&p, true);
    let cfg = FaultConfig::chaos(23);
    let plain = tiny_engine()
        .with_faults(cfg)
        .run(&prog, &catalog)
        .expect("chaos plain");
    let watching = tiny_engine()
        .with_faults(cfg)
        .with_skew_splitting(never_splitting())
        .run(&prog, &catalog)
        .expect("chaos watching");
    assert!(plain.stats.tasks_failed > 0, "{}", plain.stats);
    assert_same_results(&watching, &plain);
    assert_eq!(without_ratio(&watching.stats), plain.stats);
    assert_eq!(
        watching.stats.simulated_secs.to_bits(),
        plain.stats.simulated_secs.to_bits()
    );
}

#[test]
fn splitting_preserves_rows_and_scalars() {
    let (p, catalog) = workload(4_000, 50, 1.4, 7);
    for compiled in [true, false] {
        let prog = compile(&p, compiled);
        let off = tiny_engine().run(&prog, &catalog).expect("split off");
        let on = tiny_engine()
            .with_skew_splitting(eager_cfg())
            .run(&prog, &catalog)
            .expect("split on");
        assert!(on.stats.partitions_split > 0, "nothing split: {}", on.stats);
        assert!(on.stats.split_rows_moved > 0, "{}", on.stats);
        assert!(on.stats.max_skew_ratio > 2.0, "{}", on.stats);
        assert_same_results(&on, &off);
    }
}

#[test]
fn splitting_halves_the_hot_partition() {
    // The acceptance headline, measured on the shuffle layout itself: bucket
    // the Zipf-keyed rows exactly like the engine's hash shuffle, plan the
    // split, and compare hot-partition row counts before and after.
    let rows = distributions::keyed_tuples(4_000, 50, KeyDistribution::Zipf(1.4), 7);
    let dop = ClusterSpec::tiny().nodes * ClusterSpec::tiny().cores_per_node;
    let mut sizes = vec![0u64; dop];
    for row in &rows {
        let key = row.field(0).unwrap().clone();
        sizes[(value_hash(&key) % dop as u64) as usize] += 1;
    }
    let pre_max = *sizes.iter().max().unwrap();
    assert!(
        skew::skew_ratio(&sizes) > 2.0,
        "workload not skewed enough: {sizes:?}"
    );
    let plan = skew::plan_splits(&eager_cfg(), &sizes).expect("hot partition must split");
    // Balanced sub-partitions are contiguous chunks of (almost) equal size.
    let post_max = sizes
        .iter()
        .zip(&plan.ways)
        .map(|(&rows, &w)| rows.div_ceil(w as u64))
        .max()
        .unwrap();
    assert!(
        pre_max >= 2 * post_max,
        "splitting must at least halve the hot partition: {pre_max} → {post_max}"
    );
}

#[test]
fn split_schedules_replay_across_threads_and_modes() {
    let (p, catalog) = workload(3_000, 40, 1.4, 19);
    let prog = compile(&p, true);
    let mut runs = Vec::new();
    for (mode, threads) in MATRIX {
        let engine = tiny_engine()
            .with_parallelism_mode(mode)
            .with_worker_threads(Some(threads))
            .with_skew_splitting(eager_cfg());
        runs.push(engine.run(&prog, &catalog).expect("split run"));
    }
    assert!(runs[0].stats.partitions_split > 0, "{}", runs[0].stats);
    for r in &runs[1..] {
        assert_eq!(runs[0].writes, r.writes);
        assert_eq!(runs[0].scalars, r.scalars);
        assert_eq!(runs[0].stats, r.stats);
        assert_eq!(
            runs[0].stats.simulated_secs.to_bits(),
            r.stats.simulated_secs.to_bits(),
            "split decisions leaked scheduling state"
        );
    }
}

#[test]
fn split_sub_partitions_retry_independently_under_chaos() {
    // With splitting on, each sub-partition is its own task: injected task
    // failures retry just that sub-partition, results stay exact, and the
    // whole fault schedule replays bit-identically.
    let (p, catalog) = workload(3_000, 40, 1.4, 29);
    let prog = compile(&p, true);
    let baseline = tiny_engine()
        .with_skew_splitting(eager_cfg())
        .run(&prog, &catalog)
        .expect("fault-free");
    let cfg = FaultConfig::disabled()
        .with_seed(31)
        .with_task_fail_p(0.15)
        .with_max_task_retries(12);
    let chaotic = tiny_engine()
        .with_skew_splitting(eager_cfg())
        .with_faults(cfg)
        .run(&prog, &catalog)
        .expect("chaos with splits");
    assert!(chaotic.stats.partitions_split > 0, "{}", chaotic.stats);
    assert!(chaotic.stats.tasks_failed > 0, "{}", chaotic.stats);
    assert!(chaotic.stats.tasks_retried > 0, "{}", chaotic.stats);
    assert_same_results(&chaotic, &baseline);
    let again = tiny_engine()
        .with_skew_splitting(eager_cfg())
        .with_faults(cfg)
        .run(&prog, &catalog)
        .expect("chaos replay");
    assert_eq!(chaotic.stats, again.stats);
    assert_eq!(
        chaotic.stats.simulated_secs.to_bits(),
        again.stats.simulated_secs.to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // String-keyed wide operators under skew splitting, across the full
    // thread × mode matrix: the vectorized key path must agree with the
    // interpreter on rows, scalars, errors, every cost counter, and the
    // exact clock bits — its only trace may be the vectorization telemetry.
    #[test]
    fn string_keyed_split_workloads_match_across_tiers(
        key in string_exprs::key_body(),
        rows in prop::collection::vec(string_exprs::string_row(), 300..800),
    ) {
        let catalog = Catalog::new().with("rows", rows);
        let x = || ScalarExpr::var("x");
        let program = Program::new(vec![
            Stmt::write(
                "groups",
                BagExpr::read("rows").group_by(Lambda::new(["x"], key)),
            ),
            Stmt::write(
                "keys",
                BagExpr::read("rows")
                    .map(Lambda::new(["x"], x().get(1)))
                    .distinct(),
            ),
            Stmt::val(
                "total",
                BagExpr::read("rows")
                    .map(Lambda::new(
                        ["x"],
                        ScalarExpr::call(BuiltinFn::StrLen, vec![x().get(2)]),
                    ))
                    .sum(),
            ),
        ]);
        let prog = compile(&program, true);
        let cfg = SkewConfig::default().with_min_part_rows(32);
        let scalar = tiny_engine()
            .with_skew_splitting(cfg)
            .run(&compile(&program, false), &catalog);
        let mut vec_runs = Vec::new();
        for (mode, threads) in MATRIX {
            let engine = tiny_engine()
                .with_parallelism_mode(mode)
                .with_worker_threads(Some(threads))
                .with_skew_splitting(cfg)
                .with_vectorized_eval(BatchConfig::new(64));
            vec_runs.push(engine.run(&prog, &catalog));
        }
        match &scalar {
            // A generated key body may error (e.g. division by a zero
            // column); the vectorized replay must surface the same error.
            Err(e) => {
                for vr in &vec_runs {
                    match vr {
                        Err(ve) => prop_assert_eq!(format!("{e:?}"), format!("{ve:?}")),
                        Ok(_) => prop_assert!(
                            false,
                            "vectorized run succeeded where the interpreter failed"
                        ),
                    }
                }
            }
            Ok(s) => {
                let first = vec_runs[0].as_ref().expect("vectorized run");
                for vr in &vec_runs {
                    let v = vr.as_ref().expect("vectorized run");
                    prop_assert_eq!(&v.writes, &s.writes);
                    prop_assert_eq!(&v.scalars, &s.scalars);
                    prop_assert_eq!(v.stats.without_tier_telemetry(), s.stats.clone());
                    prop_assert_eq!(&v.stats, &first.stats);
                    prop_assert_eq!(
                        v.stats.simulated_secs.to_bits(),
                        s.stats.simulated_secs.to_bits()
                    );
                }
            }
        }
    }

    // Any (size, exponent, seed) point: splitting on vs. off agrees on rows
    // and scalars across the full thread × mode matrix and both evaluation
    // tiers, and the splitting runs all agree with each other bit-exactly.
    #[test]
    fn split_equivalence_holds_for_arbitrary_workloads(
        n in 600usize..2_000,
        s_tenths in 10u32..18,
        seed in any::<u64>(),
    ) {
        let (p, catalog) = workload(n, 30, f64::from(s_tenths) / 10.0, seed);
        let cfg = SkewConfig::default().with_min_part_rows(32);
        for compiled in [true, false] {
            let prog = compile(&p, compiled);
            let off = tiny_engine().run(&prog, &catalog).expect("off");
            let mut on_runs = Vec::new();
            for (mode, threads) in MATRIX {
                let engine = tiny_engine()
                    .with_parallelism_mode(mode)
                    .with_worker_threads(Some(threads))
                    .with_skew_splitting(cfg);
                on_runs.push(engine.run(&prog, &catalog).expect("on"));
            }
            for on in &on_runs {
                assert_same_results(on, &off);
            }
            for on in &on_runs[1..] {
                prop_assert_eq!(&on_runs[0].stats, &on.stats);
                prop_assert_eq!(
                    on_runs[0].stats.simulated_secs.to_bits(),
                    on.stats.simulated_secs.to_bits()
                );
            }
        }
    }
}
