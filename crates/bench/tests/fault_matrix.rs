//! Acceptance check for fault-tolerant execution across the paper workloads
//! (Fig. 4 spam classifier, Fig. 5 group aggregation, TPC-H Q1/Q4,
//! PageRank, both Connected Components variants) and a `cross` + `distinct`
//! program, on both engine personalities. Three invariants per workload:
//!
//! 1. **Disabled injection is free**: an engine carrying
//!    [`FaultConfig::disabled`] produces the same sink rows, scalars, and
//!    bit-identical deterministic counters (including `simulated_secs`) as
//!    an engine with no fault config at all.
//! 2. **Recovery is invisible in the results**: under a chaos config —
//!    injected task failures, stragglers, and cache evictions — every
//!    workload still produces exactly the fault-free rows and scalars, as
//!    long as the retry budget suffices.
//! 3. **The schedule is the seed**: rerunning the same chaos config yields
//!    bit-identical `ExecStats`, so any faulted run can be replayed.

use emma::algorithms::{connected_components as cc, groupagg, pagerank, spam, tpch};
use emma::prelude::*;
use emma_compiler::pipeline::CStmt;
use emma_datagen::emails::{classifiers, EmailSpec};
use emma_datagen::graph::GraphSpec;
use emma_datagen::tpch::TpchSpec;
use emma_datagen::KeyDistribution;

/// Aggressive but recoverable: with fail_p = 0.05 and 8 retries, the odds
/// of any partition exhausting its budget are ~0.05^9 per site — never in
/// practice, so `expect` below is safe.
const CHAOS_SEED: u64 = 0xFA17;

fn assert_fault_matrix(what: &str, program: &Program, catalog: &Catalog, flags: &OptimizerFlags) {
    let compiled = parallelize(program, flags);
    for engine in [Engine::sparrow(), Engine::flamingo()] {
        let plain = engine.run(&compiled, catalog).expect(what);

        let off = engine
            .clone()
            .with_faults(FaultConfig::disabled())
            .run(&compiled, catalog)
            .expect(what);
        assert_eq!(plain.writes, off.writes, "{what}: disabled changed rows");
        assert_eq!(
            plain.scalars, off.scalars,
            "{what}: disabled changed scalars"
        );
        assert_eq!(plain.stats, off.stats, "{what}: disabled changed counters");
        assert_eq!(
            plain.stats.simulated_secs.to_bits(),
            off.stats.simulated_secs.to_bits(),
            "{what}: disabled changed the simulated clock"
        );

        let chaotic = engine.clone().with_faults(FaultConfig::chaos(CHAOS_SEED));
        let a = chaotic.run(&compiled, catalog).expect(what);
        assert_eq!(plain.writes, a.writes, "{what}: recovery corrupted rows");
        assert_eq!(
            plain.scalars, a.scalars,
            "{what}: recovery corrupted scalars"
        );

        let b = chaotic.run(&compiled, catalog).expect(what);
        assert_eq!(a.stats, b.stats, "{what}: chaos run not reproducible");
        assert_eq!(
            a.stats.simulated_secs.to_bits(),
            b.stats.simulated_secs.to_bits(),
            "{what}: chaos simulated time not bit-identical"
        );

        // 4. Speculation rides the same primary schedule: identical results
        //    and failure counts, wave charges only ever shortened.
        let s = engine
            .clone()
            .with_faults(FaultConfig::chaos_speculative(CHAOS_SEED))
            .run(&compiled, catalog)
            .expect(what);
        assert_eq!(plain.writes, s.writes, "{what}: speculation corrupted rows");
        assert_eq!(
            plain.scalars, s.scalars,
            "{what}: speculation corrupted scalars"
        );
        assert_eq!(
            s.stats.straggler_delays, a.stats.straggler_delays,
            "{what}: speculation perturbed the primary schedule"
        );
        assert_eq!(s.stats.tasks_failed, a.stats.tasks_failed, "{what}");
        assert_eq!(s.stats.tasks_speculated, s.stats.straggler_delays, "{what}");
        assert!(
            s.stats.retry_sim_secs <= a.stats.retry_sim_secs,
            "{what}: speculation increased straggler cost: {} vs {}",
            s.stats.retry_sim_secs,
            a.stats.retry_sim_secs
        );
    }
}

#[test]
fn fig4_spam_fault_matrix() {
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
    assert_fault_matrix("fig4", &program, &catalog, &OptimizerFlags::all());
    // The baseline lowering keeps the narrow fused chain — retries must
    // also replay whole per-partition pipelines cleanly.
    let baseline = OptimizerFlags::all()
        .with_unnest_exists(false)
        .with_caching(false)
        .with_partition_pulling(false);
    assert_fault_matrix("fig4 baseline", &program, &catalog, &baseline);
}

#[test]
fn fig5_group_aggregation_fault_matrix() {
    let program = groupagg::program();
    for dist in KeyDistribution::all() {
        let catalog = groupagg::catalog(4_000, 100, dist, 42);
        for fold_group in [true, false] {
            let flags = OptimizerFlags::all().with_fold_group_fusion(fold_group);
            assert_fault_matrix(&format!("fig5 {dist:?}"), &program, &catalog, &flags);
        }
    }
}

#[test]
fn tpch_q1_q4_fault_matrix() {
    let catalog = tpch::catalog(&TpchSpec {
        scale: 30.0,
        seed: 42,
    });
    for (name, program) in [("Q1", tpch::q1_program()), ("Q4", tpch::q4_program())] {
        assert_fault_matrix(name, &program, &catalog, &OptimizerFlags::all());
    }
}

#[test]
fn pagerank_fault_matrix() {
    // Iterative workload: the cached graph is re-read every round, so chaos
    // evictions force lineage recomputation mid-loop.
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
    assert_fault_matrix("pagerank", &program, &catalog, &OptimizerFlags::all());
}

#[test]
fn connected_components_fault_matrix() {
    // The dataflow variant tests its fixpoint with `minus`; Listing 7 runs
    // on `StatefulCreate` / `StatefulUpdate`, whose update retries must not
    // apply a message twice.
    let catalog = cc::catalog(&GraphSpec {
        vertices: 120,
        avg_degree: 3,
        skew: 1.2,
        seed: 42,
    });
    let flags = OptimizerFlags::all();
    assert_fault_matrix("cc", &cc::program(), &catalog, &flags);
    assert_fault_matrix("cc stateful", &cc::stateful_program(), &catalog, &flags);
}

#[test]
fn cross_and_distinct_fault_matrix() {
    // for (a <- A; b <- B) yield (a % 4, b) — no join predicate, so a
    // cross — then distinct over the many duplicate pairs.
    let pairs = BagExpr::read("A").flat_map(BagLambda::new(
        "a",
        BagExpr::read("B").map(Lambda::new(
            ["b"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::var("a").rem(ScalarExpr::lit(4i64)),
                ScalarExpr::var("b"),
            ]),
        )),
    ));
    let program = Program::new(vec![Stmt::write("out", pairs.distinct())]);
    let flags = OptimizerFlags::all();
    let CStmt::Write { plan, .. } = &parallelize(&program, &flags).body[0] else {
        panic!("one write");
    };
    assert_eq!(
        (plan.count_ops("Cross"), plan.count_ops("Distinct")),
        (1, 1)
    );
    let ints = |n: i64| (0..n).map(Value::Int).collect();
    let catalog = Catalog::new().with("A", ints(200)).with("B", ints(6));
    assert_fault_matrix("cross + distinct", &program, &catalog, &flags);
}

#[test]
fn speculation_cuts_straggler_heavy_retry_cost() {
    // On a straggler-heavy schedule the drop must be strict, and the
    // duplicate work accounted.
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
    let compiled = parallelize(&program, &OptimizerFlags::all());
    let heavy = FaultConfig::chaos(CHAOS_SEED)
        .with_straggler_p(0.35)
        .with_straggler_secs(4.0);
    let off = Engine::sparrow()
        .with_faults(heavy)
        .run(&compiled, &catalog)
        .expect("straggler-heavy, speculation off");
    let on = Engine::sparrow()
        .with_faults(heavy.with_speculation(true))
        .run(&compiled, &catalog)
        .expect("straggler-heavy, speculation on");
    assert_eq!(off.writes, on.writes);
    assert!(off.stats.straggler_delays > 0, "{}", off.stats);
    assert!(on.stats.speculation_wins > 0, "{}", on.stats);
    assert!(on.stats.speculation_wasted_secs > 0.0, "{}", on.stats);
    assert!(
        on.stats.retry_sim_secs < off.stats.retry_sim_secs,
        "speculation must cut straggler-heavy retry cost: {} vs {}",
        on.stats.retry_sim_secs,
        off.stats.retry_sim_secs
    );
    assert!(on.stats.simulated_secs < off.stats.simulated_secs);
}

#[test]
fn chaos_actually_injects_on_the_paper_workloads() {
    // Guard against the matrix silently degenerating into a no-op: across
    // the suite's smallest workload at chaos rates, failures and evictions
    // must actually fire.
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
    let compiled = parallelize(&program, &OptimizerFlags::all());
    let run = Engine::sparrow()
        .with_faults(FaultConfig::chaos(CHAOS_SEED))
        .run(&compiled, &catalog)
        .expect("pagerank under chaos");
    assert!(run.stats.tasks_failed > 0, "{}", run.stats);
    assert!(run.stats.tasks_retried > 0, "{}", run.stats);
    assert!(run.stats.cache_evictions > 0, "{}", run.stats);
    assert!(run.stats.recomputed_partitions > 0, "{}", run.stats);
}
