//! Acceptance check for the evaluation stack: across the paper workloads
//! (Fig. 4 spam classifier, Fig. 5 group aggregation, TPC-H Q1/Q4,
//! PageRank), the engine's default stack — typed column kernels where a site
//! specializes, the interpreter replaying what they abort or refuse — must
//! produce exactly the same sink rows, driver scalars, and
//! deterministic [`ExecStats`] counters, including bit-identical
//! `simulated_secs`, as the tree-walking interpreter. The stack is an
//! evaluation tier, not a plan optimization: it may only change how fast a
//! row is evaluated on the host, never what is computed or what the cost
//! model charges.
//!
//! Two legs are held to that bar against the default engine: the
//! interpreter alone (`with_compiled_eval(false)`), which must also report
//! all four tier telemetry counters as zero; and a small batch size, so
//! multi-batch abort-replay is exercised. The only counters allowed to differ are the
//! four telemetry fields ([`ExecStats::without_tier_telemetry`]), and
//! rerunning a configuration (including under chaos faults and skew
//! splitting) must replay those bit-identically. Q1, Fig. 5 and PageRank
//! additionally pin that their fused `aggBy` runs through the columnar
//! aggregation kernel rather than as a counted refusal.

use emma::algorithms::{groupagg, pagerank, spam, tpch};
use emma::prelude::*;
use emma_bench::fig4;
use emma_datagen::emails::{classifiers, EmailSpec};
use emma_datagen::tpch::TpchSpec;
use emma_datagen::KeyDistribution;
use emma_engine::{BatchConfig, SkewConfig};

fn assert_same_run(what: &str, a: &EngineRun, b: &EngineRun) {
    assert_eq!(a.writes, b.writes, "{what}: sink rows differ");
    assert_eq!(a.scalars, b.scalars, "{what}: scalars differ");
    assert_eq!(
        a.stats.without_tier_telemetry(),
        b.stats.without_tier_telemetry(),
        "{what}: cost-model counters differ"
    );
    assert_eq!(
        a.stats.simulated_secs.to_bits(),
        b.stats.simulated_secs.to_bits(),
        "{what}: simulated time not bit-identical"
    );
}

/// Returns the default engine's counters on the last engine, for
/// workload-specific pins.
fn assert_compiled_invariant(
    what: &str,
    program: &Program,
    catalog: &Catalog,
    flags: &OptimizerFlags,
) -> ExecStats {
    let compiled = parallelize(program, &flags.with_compiled_eval(true));
    let interpreted = parallelize(program, &flags.with_compiled_eval(false));
    assert!(compiled.compiled_eval, "{what}: flag not plumbed through");
    assert!(
        !interpreted.compiled_eval,
        "{what}: flag not plumbed through"
    );
    let mut default_stats = None;
    for engine in [Engine::sparrow(), Engine::flamingo()] {
        let default = engine.run(&compiled, catalog).expect(what);

        // The spec: same run, and no tier telemetry at all.
        let interp = engine.run(&interpreted, catalog).expect(what);
        assert_same_run(&format!("{what}/interp"), &default, &interp);
        assert_eq!(
            interp.stats,
            interp.stats.without_tier_telemetry(),
            "{what}: the interpreter tier reported tier telemetry"
        );

        // The batch-size setter at its default *is* the default engine,
        // telemetry included.
        let knob = engine
            .clone()
            .with_vectorized_eval(BatchConfig::default())
            .run(&compiled, catalog)
            .expect(what);
        assert_same_run(&format!("{what}/default knob"), &default, &knob);
        assert_eq!(default.stats, knob.stats, "{what}: telemetry differs");

        // No silent slow paths, no silent no-ops: every workload either
        // vectorizes rows or reports its fallbacks.
        assert!(
            default.stats.rows_vectorized + default.stats.vector_fallbacks > 0,
            "{what}: vectorized tier neither engaged nor reported a fallback"
        );

        // A small batch exercises multi-batch replay. The specialization
        // decision is taken on the driver from a deterministic sample, so
        // the telemetry itself must replay bit-identically.
        let small = engine.clone().with_vectorized_eval(BatchConfig::new(64));
        let a = small.run(&compiled, catalog).expect(what);
        assert_same_run(&format!("{what}/batch 64"), &default, &a);
        let a2 = small.run(&compiled, catalog).expect(what);
        assert_eq!(
            a.stats, a2.stats,
            "{what}: vectorization telemetry not reproducible"
        );
        assert_eq!(
            (a.stats.vector_fallbacks, a.stats.key_path_fallbacks),
            (
                default.stats.vector_fallbacks,
                default.stats.key_path_fallbacks
            ),
            "{what}: refusals depend on the batch size"
        );
        default_stats = Some(default.stats);
    }
    default_stats.expect("both engines ran")
}

#[test]
fn fig4_spam_workflow_counters_invariant_under_compiled_eval() {
    let (program, catalog) = fig4::workload();
    assert_compiled_invariant("fig4 optimized", &program, &catalog, &OptimizerFlags::all());
    // The figure's baseline lowering keeps a narrow fused chain — the tier
    // must also agree inside fused per-partition pipelines.
    let baseline = OptimizerFlags::all()
        .with_unnest_exists(false)
        .with_caching(false)
        .with_partition_pulling(false);
    assert_compiled_invariant("fig4 baseline", &program, &catalog, &baseline);
}

#[test]
fn fig4_small_scale_counters_invariant_under_compiled_eval() {
    let spec = EmailSpec {
        emails: 120,
        blacklist: 30,
        ip_domain: 200,
        body_bytes: 2_000,
        info_bytes: 500,
        seed: 7,
    };
    let program = spam::program(classifiers(2));
    let catalog = spam::catalog(&spec);
    let baseline = OptimizerFlags::all().with_unnest_exists(false);
    assert_compiled_invariant("fig4 small", &program, &catalog, &baseline);
}

#[test]
fn fig5_group_aggregation_counters_invariant_under_compiled_eval() {
    let program = groupagg::program();
    for dist in KeyDistribution::all() {
        let catalog = groupagg::catalog(4_000, 100, dist, 42);
        // Both the aggBy (fold-group fused) and groupBy shapes shuffle with
        // carried key hashes — cover each.
        for fold_group in [true, false] {
            let flags = OptimizerFlags::all().with_fold_group_fusion(fold_group);
            let stats =
                assert_compiled_invariant(&format!("fig5 {dist:?}"), &program, &catalog, &flags);
            if fold_group {
                // The combiner counts every input row and the final
                // projection one row per key; the rest is the merge phase's
                // partials, which only the aggregation kernel counts.
                assert_eq!(stats.vector_fallbacks, 0, "fig5 {dist:?}: {stats}");
                assert!(
                    stats.rows_vectorized > 4_000 + 100,
                    "fig5 {dist:?}: aggBy did not run through the kernel: {stats}"
                );
            }
        }
    }
}

#[test]
fn tpch_q1_q4_counters_invariant_under_compiled_eval() {
    let catalog = tpch::catalog(&TpchSpec {
        scale: 30.0,
        seed: 42,
    });
    // Q1 exercises aggBy's prehashed combiner; Q4 the hash-reusing
    // repartition join plus a fused filter→flatMap chain.
    for (name, program) in [("Q1", tpch::q1_program()), ("Q4", tpch::q4_program())] {
        let stats = assert_compiled_invariant(name, &program, &catalog, &OptimizerFlags::all());
        assert_eq!(stats.vector_fallbacks, 0, "{name}: {stats}");
        assert_eq!(stats.key_path_fallbacks, 0, "{name}: {stats}");
        if name == "Q1" {
            // Filter: every lineitem. Combiner: every kept row. Final
            // projection: one row per group (at most six). Anything beyond
            // is the merge phase's partials — counted only by the kernel.
            let lineitems = catalog.get("lineitem").expect("lineitem");
            let kept = lineitems
                .iter()
                .filter(|l| {
                    l.field(emma_datagen::tpch::lineitem::SHIP_DATE)
                        .expect("ship date")
                        <= &Value::Int(emma_datagen::tpch::Q1_SHIP_CUTOFF)
                })
                .count();
            assert!(
                stats.rows_vectorized > (lineitems.len() + kept + 6) as u64,
                "Q1: aggBy did not run through the kernel: {stats}"
            );
        }
    }
}

#[test]
fn pagerank_counters_invariant_under_compiled_eval() {
    // Iterative workload: every round re-specializes the same UDFs against
    // that round's base scopes and samples.
    let params = pagerank::PagerankParams {
        num_pages: 200,
        iterations: 5,
        ..Default::default()
    };
    let program = pagerank::program(&params);
    let catalog = pagerank::catalog(&emma_datagen::graph::GraphSpec {
        vertices: params.num_pages,
        avg_degree: 4,
        skew: 1.0,
        seed: 42,
    });
    let stats = assert_compiled_invariant("pagerank", &program, &catalog, &OptimizerFlags::all());
    assert_eq!(stats.vector_fallbacks, 0, "pagerank: {stats}");
    assert_eq!(stats.key_path_fallbacks, 0, "pagerank: {stats}");
}

#[test]
fn vectorized_counters_replay_bit_identically_under_chaos_and_skew() {
    // The hostile leg: chaos fault injection (task failures, cache
    // evictions, retries) plus eager skew splitting reshape which rows land
    // in which partition attempt — yet the vectorized tier's specialization
    // decision and telemetry are driver-side and deterministic, so two runs
    // of the same configuration must agree on *every* counter bit, and the
    // tier must still change nothing observable against the interpreter's
    // runs under the same chaos schedule.
    let program = groupagg::program();
    let catalog = groupagg::catalog(4_000, 100, KeyDistribution::Zipf(1.2), 42);
    let compiled = parallelize(&program, &OptimizerFlags::all());
    let interpreted = parallelize(&program, &OptimizerFlags::all().with_compiled_eval(false));
    for base in [Engine::sparrow(), Engine::flamingo()] {
        let hostile = base
            .with_faults(FaultConfig::chaos(1729))
            .with_skew_splitting(SkewConfig::default().with_min_part_rows(64));
        let scalar = hostile
            .run(&interpreted, &catalog)
            .expect("interpreter under chaos");
        let vec_engine = hostile.with_vectorized_eval(BatchConfig::new(128));
        let a = vec_engine
            .run(&compiled, &catalog)
            .expect("vectorized under chaos");
        let b = vec_engine
            .run(&compiled, &catalog)
            .expect("vectorized under chaos, replayed");
        assert_eq!(a.writes, scalar.writes, "chaos+skew: sink rows differ");
        assert_eq!(a.scalars, scalar.scalars, "chaos+skew: scalars differ");
        assert_eq!(
            a.stats.without_tier_telemetry(),
            scalar.stats,
            "chaos+skew: cost-model counters moved under vectorization"
        );
        assert_eq!(
            a.stats, b.stats,
            "chaos+skew: counters (incl. vectorization telemetry) must replay bit-identically"
        );
        assert_eq!(
            a.stats.simulated_secs.to_bits(),
            b.stats.simulated_secs.to_bits(),
            "chaos+skew: simulated time must replay bit-identically"
        );
    }
}
