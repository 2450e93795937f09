//! Acceptance check for the compiled-evaluator tiers: across the paper
//! workloads (Fig. 4 spam classifier, Fig. 5 group aggregation, TPC-H
//! Q1/Q4, PageRank), running UDFs through the slot-based compiled
//! evaluators must produce exactly the same sink rows, driver scalars, and
//! deterministic [`ExecStats`] counters — including bit-identical
//! `simulated_secs` — as the tree-walking interpreter. Compilation is an
//! evaluation tier, not a plan optimization: it may only change how fast a
//! row is evaluated on the host, never what is computed or what the cost
//! model charges.
//!
//! The vectorized batch tier is held to the same bar: with
//! `vectorized_eval` on (by engine knob or program flag), every workload
//! must reproduce the scalar compiled tier's rows, scalars, and cost-model
//! counters exactly — the only counters allowed to move are the three
//! vectorization telemetry fields — and rerunning the same configuration
//! (including under chaos faults and skew splitting) must replay those
//! telemetry counters bit-identically. Q1, Fig. 5 and PageRank additionally
//! pin that their fused `aggBy` runs through the columnar aggregation kernel
//! rather than as a counted refusal.

use emma::algorithms::{groupagg, pagerank, spam, tpch};
use emma::prelude::*;
use emma_bench::fig4;
use emma_datagen::emails::{classifiers, EmailSpec};
use emma_datagen::tpch::TpchSpec;
use emma_datagen::KeyDistribution;
use emma_engine::{BatchConfig, SkewConfig};

/// Returns the vectorized leg's counters (see
/// [`assert_vectorized_invariant`]) for workload-specific pins.
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
    for engine in [Engine::sparrow(), Engine::flamingo()] {
        let a = engine.run(&compiled, catalog).expect(what);
        let b = engine.run(&interpreted, catalog).expect(what);
        assert_eq!(a.writes, b.writes, "{what}: sink rows differ");
        assert_eq!(a.scalars, b.scalars, "{what}: scalars differ");
        assert_eq!(a.stats, b.stats, "{what}: counters differ");
        assert_eq!(
            a.stats.simulated_secs.to_bits(),
            b.stats.simulated_secs.to_bits(),
            "{what}: simulated time not bit-identical"
        );
    }
    assert_vectorized_invariant(what, program, catalog, flags)
}

/// Strips the vectorization telemetry so two runs can be compared on every
/// *cost-model* counter: rows/bytes/stages/faults and the simulated clock
/// must be untouched by the batch tier; only the telemetry may differ.
fn without_vec_telemetry(stats: &ExecStats) -> ExecStats {
    let mut s = stats.clone();
    s.rows_vectorized = 0;
    s.batches_executed = 0;
    s.vector_fallbacks = 0;
    s.key_path_fallbacks = 0;
    s
}

/// The vectorized-tier acceptance bar, run against the scalar compiled
/// tier on both engines and through both opt-in routes (engine knob with a
/// small batch so multi-batch replay is exercised, and the program-level
/// `OptimizerFlags::vectorized_eval` with the default batch size). Returns
/// the engine-knob run's counters on the last engine.
fn assert_vectorized_invariant(
    what: &str,
    program: &Program,
    catalog: &Catalog,
    flags: &OptimizerFlags,
) -> ExecStats {
    let scalar = parallelize(program, &flags.with_compiled_eval(true));
    let flagged = parallelize(
        program,
        &flags.with_compiled_eval(true).with_vectorized_eval(true),
    );
    assert!(
        flagged.vectorized_eval && !scalar.vectorized_eval,
        "{what}: vectorized_eval flag not plumbed through"
    );
    let mut knob_stats = None;
    for engine in [Engine::sparrow(), Engine::flamingo()] {
        let base = engine.run(&scalar, catalog).expect(what);
        let knob = engine.clone().with_vectorized_eval(BatchConfig::new(64));
        let a = knob.run(&scalar, catalog).expect(what);
        let b = engine.run(&flagged, catalog).expect(what);
        for (route, r) in [("engine knob", &a), ("program flag", &b)] {
            assert_eq!(r.writes, base.writes, "{what}/{route}: sink rows differ");
            assert_eq!(r.scalars, base.scalars, "{what}/{route}: scalars differ");
            assert_eq!(
                without_vec_telemetry(&r.stats),
                base.stats,
                "{what}/{route}: cost-model counters moved under vectorization"
            );
            assert_eq!(
                r.stats.simulated_secs.to_bits(),
                base.stats.simulated_secs.to_bits(),
                "{what}/{route}: simulated time not bit-identical"
            );
        }
        // No silent slow paths, no silent no-ops: with the tier on, every
        // workload either vectorizes rows or reports its fallbacks.
        assert!(
            a.stats.rows_vectorized + a.stats.vector_fallbacks > 0,
            "{what}: vectorized tier neither engaged nor reported a fallback"
        );
        // The specialization decision is taken on the driver from a
        // deterministic sample, so the telemetry itself must replay
        // bit-identically.
        let a2 = knob.run(&scalar, catalog).expect(what);
        assert_eq!(
            a.stats, a2.stats,
            "{what}: vectorization telemetry not reproducible"
        );
        knob_stats = Some(a.stats);
    }
    knob_stats.expect("both engines ran")
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
    // Iterative workload: compiled UDFs are memoized across iterations, so
    // the same CompiledEval instance is re-bound and re-run every round.
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
    // One FlatMap per iteration is a refusal by design; the per-iteration
    // aggBy adds none — it runs through the aggregation kernel.
    assert_eq!(
        stats.vector_fallbacks, params.iterations as u64,
        "pagerank: {stats}"
    );
    assert_eq!(stats.key_path_fallbacks, 0, "pagerank: {stats}");
}

#[test]
fn vectorized_counters_replay_bit_identically_under_chaos_and_skew() {
    // The hostile leg: chaos fault injection (task failures, cache
    // evictions, retries) plus eager skew splitting reshape which rows land
    // in which partition attempt — yet the vectorized tier's specialization
    // decision and telemetry are driver-side and deterministic, so two runs
    // of the same configuration must agree on *every* counter bit, and the
    // tier must still change nothing observable against the scalar runs
    // under the same chaos schedule.
    let program = groupagg::program();
    let catalog = groupagg::catalog(4_000, 100, KeyDistribution::Zipf(1.2), 42);
    let compiled = parallelize(&program, &OptimizerFlags::all());
    for base in [Engine::sparrow(), Engine::flamingo()] {
        let hostile = base
            .with_faults(FaultConfig::chaos(1729))
            .with_skew_splitting(SkewConfig::default().with_min_part_rows(64));
        let scalar = hostile
            .run(&compiled, &catalog)
            .expect("scalar under chaos");
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
            without_vec_telemetry(&a.stats),
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
