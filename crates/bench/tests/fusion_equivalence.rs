//! Acceptance check: across the paper workloads (Fig. 4 spam classifier,
//! Fig. 5 group aggregation, TPC-H Q1/Q4, PageRank), enabling pipeline
//! fusion must leave every deterministic counter of [`ExecStats`] —
//! simulated seconds, bytes shuffled/broadcast/read/written/spilled,
//! records, stages, cache hits/misses, iterations — bit-for-bit identical,
//! and produce identical sink rows. Fusion may only change *how* narrow
//! chains execute, never what they compute or what the cost model charges.
//!
//! Not every workload fuses: after normalization most plans keep narrow
//! operators as singletons around the wide ones (adjacent maps are already
//! composed at the lambda level). Where a chain survives — TPC-H Q4's
//! filter→flatMap below the semi-join, the Fig. 4 baseline lowering,
//! PageRank's per-iteration rank update — the tests also assert that the
//! fusion pass actually fired.

use emma::algorithms::{groupagg, pagerank, spam, tpch};
use emma::prelude::*;
use emma_bench::fig4;
use emma_datagen::emails::{classifiers, EmailSpec};
use emma_datagen::tpch::TpchSpec;
use emma_datagen::KeyDistribution;

fn assert_fusion_invariant(
    what: &str,
    program: &Program,
    catalog: &Catalog,
    flags: &OptimizerFlags,
    expect_fused: bool,
) {
    let fused = parallelize(program, &flags.with_pipeline_fusion(true));
    let unfused = parallelize(program, &flags.with_pipeline_fusion(false));
    if expect_fused {
        assert!(
            fused.report.pipelines_fused >= 1,
            "{what}: expected at least one fused pipeline"
        );
    }
    assert_eq!(unfused.report.pipelines_fused, 0, "{what}: fusion off");
    for engine in [Engine::sparrow(), Engine::flamingo()] {
        let a = engine.run(&fused, catalog).expect(what);
        let b = engine.run(&unfused, catalog).expect(what);
        assert_eq!(a.writes, b.writes, "{what}: sink rows differ");
        assert_eq!(a.scalars, b.scalars, "{what}: scalars differ");
        // Tier telemetry counts per operator execution, so it legitimately
        // differs between one fused pass and its unfused chain.
        assert_eq!(
            a.stats.without_tier_telemetry(),
            b.stats.without_tier_telemetry(),
            "{what}: counters differ"
        );
        assert_eq!(
            a.stats.simulated_secs.to_bits(),
            b.stats.simulated_secs.to_bits(),
            "{what}: simulated time not bit-identical"
        );
    }
}

#[test]
fn fig4_spam_workflow_counters_invariant_under_fusion() {
    let (program, catalog) = fig4::workload();
    assert_fusion_invariant(
        "fig4 optimized",
        &program,
        &catalog,
        &OptimizerFlags::all(),
        false,
    );
    // The figure's baseline lowering (no exists-unnesting) keeps a narrow
    // chain that fuses — the invariant must hold on that shape too.
    let baseline = OptimizerFlags::all()
        .with_unnest_exists(false)
        .with_caching(false)
        .with_partition_pulling(false);
    assert_fusion_invariant("fig4 baseline", &program, &catalog, &baseline, true);
}

#[test]
fn fig4_small_scale_counters_invariant_under_fusion() {
    // A smaller email corpus than the figure's, to cover a second data scale.
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
    assert_fusion_invariant("fig4 small", &program, &catalog, &baseline, true);
}

#[test]
fn fig5_group_aggregation_counters_invariant_under_fusion() {
    let program = groupagg::program();
    for dist in KeyDistribution::all() {
        let catalog = groupagg::catalog(4_000, 100, dist, 42);
        for fold_group in [true, false] {
            let flags = OptimizerFlags::all().with_fold_group_fusion(fold_group);
            assert_fusion_invariant(&format!("fig5 {dist:?}"), &program, &catalog, &flags, false);
        }
    }
}

#[test]
fn tpch_q1_q4_counters_invariant_under_fusion() {
    let catalog = tpch::catalog(&TpchSpec {
        scale: 30.0,
        seed: 42,
    });
    // Q4's lowering keeps a filter→flatMap chain below the semi-join; Q1's
    // plan is a singleton-narrow sandwich around the aggBy (nothing fuses).
    for (name, program, expect) in [
        ("Q1", tpch::q1_program(), false),
        ("Q4", tpch::q4_program(), true),
    ] {
        assert_fusion_invariant(name, &program, &catalog, &OptimizerFlags::all(), expect);
    }
}

#[test]
fn pagerank_counters_invariant_under_fusion() {
    // Iterative workload: the fused pipeline sits inside the driver loop and
    // re-executes every iteration.
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
    assert_fusion_invariant("pagerank", &program, &catalog, &OptimizerFlags::all(), true);
}
