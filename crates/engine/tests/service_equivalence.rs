//! Multi-query session service: single-session identity, cross-query
//! sharing, admission determinism, and the replay matrix.
//!
//! The invariants under test:
//!
//! 1. **Single-session identity**: one program submitted through the
//!    service produces bit-identical writes, scalars, `ExecStats`, and sim
//!    clock to a plain `Engine::run` of the same program — the shared cache
//!    is observable only when something is actually shared.
//! 2. **Cross-query sharing**: ≥3 concurrent programs caching the same
//!    closed sub-plan hit one memoized copy — later sessions record
//!    cross-query hits, produce the same rows as isolated reruns, and the
//!    aggregate sim clock beats the isolated sum.
//! 3. **Admission determinism**: decisions are a pure function of the
//!    submission sequence — over-cap submissions queue FIFO and run once
//!    budget frees; impossible working sets reject.
//! 4. **Replay matrix**: a fixed submission sequence replays bit-identical
//!    per-session results, `ExecStats`, admission decisions, and aggregate
//!    service stats across 1/2/4 worker threads × both dispatch modes ×
//!    chaos on/off.

use emma_compiler::bag_expr::BagExpr;
use emma_compiler::expr::{FoldOp, Lambda, ScalarExpr};
use emma_compiler::interp::Catalog;
use emma_compiler::pipeline::{parallelize, CompiledProgram, OptimizerFlags};
use emma_compiler::program::{Program, Stmt};
use emma_compiler::value::Value;
use emma_engine::cluster::{ClusterSpec, Personality};
use emma_engine::service::estimate_working_set;
use emma_engine::{
    AdmissionDecision, Engine, FaultConfig, ParallelismMode, ServiceConfig, SessionService,
};
use proptest::prelude::*;

fn tiny_engine() -> Engine {
    Engine::new(ClusterSpec::tiny(), Personality::sparrow()).with_parallelism_threshold(0)
}

fn catalog(rows: i64) -> Catalog {
    Catalog::new().with(
        "events",
        (0..rows)
            .map(|i| Value::tuple(vec![Value::Int(i % 7), Value::Int(i)]))
            .collect(),
    )
}

/// The closed sub-plan every query shares: referenced twice so the caching
/// heuristic materializes it, capturing nothing so it fingerprints.
fn shared_binding() -> Stmt {
    Stmt::val(
        "shared",
        BagExpr::read("events").map(Lambda::new(
            ["e"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::var("e").get(0),
                ScalarExpr::var("e").get(1).mul(ScalarExpr::lit(2i64)),
            ]),
        )),
    )
}

/// One service tenant: caches `shared`, then derives tenant-specific output
/// from it (the downstream plans reference the driver binding, so only the
/// `shared` site itself is shareable).
fn tenant_program(tag: i64) -> Program {
    Program::new(vec![
        shared_binding(),
        Stmt::write(
            "hot",
            BagExpr::var("shared").filter(Lambda::new(
                ["r"],
                ScalarExpr::var("r").get(0).eq(ScalarExpr::lit(tag)),
            )),
        ),
        Stmt::val(
            "total",
            BagExpr::var("shared")
                .map(Lambda::new(["r"], ScalarExpr::var("r").get(1)))
                .fold(FoldOp::sum()),
        ),
    ])
}

fn compile(p: &Program) -> CompiledProgram {
    parallelize(p, &OptimizerFlags::all())
}

// ---------------------------------------------------------------- identity

#[test]
fn single_session_is_bit_identical_to_engine_run() {
    let catalog = catalog(512);
    let prog = compile(&tenant_program(3));
    let solo = tiny_engine().run(&prog, &catalog).expect("plain run");

    let mut svc = SessionService::new(tiny_engine(), catalog, ServiceConfig::default());
    let (id, decision) = svc.submit(&prog);
    assert_eq!(decision, AdmissionDecision::Run);
    svc.drain();
    let report = svc.report(id);
    let run = report.run().expect("service run");

    assert_eq!(solo.writes, run.writes);
    assert_eq!(solo.scalars, run.scalars);
    assert_eq!(solo.stats, run.stats);
    assert_eq!(
        solo.stats.simulated_secs.to_bits(),
        run.stats.simulated_secs.to_bits(),
        "service plumbing leaked into the sim clock"
    );
    // The shareable site was looked up exactly once and (fresh cache,
    // no duplicates) could not hit.
    assert_eq!(report.cache_stats.reads, 1);
    assert_eq!(report.cache_stats.hits, 0);
    assert_eq!(
        svc.stats().simulated_secs.to_bits(),
        solo.stats.simulated_secs.to_bits()
    );
}

// ---------------------------------------------------------- shared results

#[test]
fn three_tenants_share_one_materialization() {
    let catalog = catalog(512);
    let progs: Vec<CompiledProgram> = (0..3).map(|t| compile(&tenant_program(t))).collect();

    // Isolated baseline: each tenant pays for `shared` itself.
    let isolated: Vec<_> = progs
        .iter()
        .map(|p| tiny_engine().run(p, &catalog).expect("isolated"))
        .collect();

    let mut svc = SessionService::new(tiny_engine(), catalog, ServiceConfig::default());
    for p in &progs {
        let (_, d) = svc.submit(p);
        assert_eq!(d, AdmissionDecision::Run);
    }
    svc.drain();

    // Session 0 materializes; sessions 1 and 2 read its copy.
    assert_eq!(svc.report(0).cache_stats.hits, 0);
    for id in [1, 2] {
        let cs = svc.report(id).cache_stats;
        assert_eq!(
            (cs.reads, cs.hits, cs.cross_hits),
            (1, 1, 1),
            "session {id}"
        );
    }
    assert_eq!(svc.shared_cache().entries(), 1);
    let agg = svc.stats();
    assert_eq!(agg.shared_cache_reads, 3);
    assert_eq!(agg.shared_cache_hits, 2);
    assert_eq!(agg.shared_cache_cross_hits, 2);
    assert_eq!(agg.completed, 3);

    // Rows and scalars match the isolated runs exactly; only the cost of
    // producing them changed.
    for (id, solo) in isolated.iter().enumerate() {
        let run = svc.report(id as u64).run().expect("service run");
        assert_eq!(solo.writes, run.writes, "session {id} rows drifted");
        assert_eq!(solo.scalars, run.scalars, "session {id} scalars drifted");
    }
    let isolated_secs: f64 = isolated.iter().map(|r| r.stats.simulated_secs).sum();
    assert!(
        agg.simulated_secs < isolated_secs,
        "sharing must beat isolated reruns: {} vs {isolated_secs}",
        agg.simulated_secs
    );
}

// ------------------------------------------------------ admission control

#[test]
fn admission_is_deterministic_in_submission_order() {
    let cat = catalog(512);
    let prog = compile(&tenant_program(1));
    let engine = tiny_engine();
    let ws = estimate_working_set(&prog, &cat);
    assert!(ws > 0, "the tenant program pins a cache site");

    // Room for two resident working sets; the third queues on the
    // concurrency cap, and a budget-dwarfing one rejects.
    let cfg = ServiceConfig::default()
        .with_max_concurrent(2)
        .with_memory_budget_bytes(3 * ws);
    let mut svc = SessionService::new(engine, catalog(512), cfg);
    let mut decisions = Vec::new();
    for t in 0..3 {
        decisions.push(svc.submit(&compile(&tenant_program(t))).1);
    }
    // A working set that cannot ever fit the whole budget: Reject.
    let mut tight = SessionService::new(
        tiny_engine(),
        cat,
        ServiceConfig::default().with_memory_budget_bytes(ws - 1),
    );
    assert_eq!(tight.submit(&prog).1, AdmissionDecision::Reject);
    tight.drain();
    assert!(tight.report(0).outcome.is_none(), "rejected never runs");
    assert_eq!(tight.stats().rejected, 1);

    assert_eq!(
        decisions,
        vec![
            AdmissionDecision::Run,
            AdmissionDecision::Run,
            AdmissionDecision::Queue,
        ]
    );
    svc.drain();
    // The queued session was promoted and ran.
    assert_eq!(svc.report(2).decision, AdmissionDecision::Queue);
    assert!(svc.report(2).run().is_some(), "queued session must drain");
    assert_eq!(svc.stats().admitted, 3);
    assert_eq!(svc.stats().queued, 1);
    assert_eq!(svc.stats().completed, 3);
}

#[test]
fn per_session_failures_do_not_stop_the_service() {
    let catalog = catalog(256);
    let healthy = compile(&tenant_program(1));
    // A zero timeout budget deterministically aborts any run that charges
    // simulated time.
    let mut svc = SessionService::new(
        tiny_engine().with_timeout(0.0),
        catalog,
        ServiceConfig::default(),
    );
    let (a, _) = svc.submit(&healthy);
    let (b, _) = svc.submit(&healthy);
    svc.drain();
    for id in [a, b] {
        assert!(
            matches!(
                svc.report(id).outcome,
                Some(Err(emma_engine::ExecError::Timeout { .. }))
            ),
            "session {id} should have timed out"
        );
    }
    assert_eq!(svc.stats().failed, 2);
    assert_eq!(svc.stats().completed, 0);
}

// ------------------------------------------------------------ replay matrix

/// Runs the fixed 4-tenant submission sequence on one engine variant and
/// returns everything the determinism contract covers.
#[allow(clippy::type_complexity)]
fn service_transcript(
    engine: Engine,
    progs: &[CompiledProgram],
    cfg: ServiceConfig,
) -> (
    Vec<AdmissionDecision>,
    Vec<Option<emma_engine::EngineRun>>,
    emma_engine::ServiceStats,
) {
    let mut svc = SessionService::new(engine, catalog(384), cfg);
    let decisions: Vec<_> = progs.iter().map(|p| svc.submit(p).1).collect();
    svc.drain();
    let runs = svc
        .reports()
        .iter()
        .map(|r| r.run().cloned())
        .collect::<Vec<_>>();
    (decisions, runs, *svc.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Any (seed, chaos flag) point: the whole service transcript — admission
    // decisions, per-session writes/scalars/stats, the aggregate clock —
    // replays bit-identically across 1/2/4 worker threads and both dispatch
    // modes.
    #[test]
    fn service_replays_bit_identically_across_threads_and_modes(
        seed in any::<u64>(),
        chaos in any::<bool>(),
    ) {
        let progs: Vec<CompiledProgram> =
            (0..4).map(|t| compile(&tenant_program(t))).collect();
        let cfg = ServiceConfig::default().with_max_concurrent(2);
        let faults = if chaos {
            FaultConfig::chaos(seed)
        } else {
            FaultConfig::disabled()
        };
        let mut transcripts = Vec::new();
        for mode in [ParallelismMode::Pool, ParallelismMode::PerOperator] {
            for threads in [1usize, 2, 4] {
                let engine = tiny_engine()
                    .with_parallelism_mode(mode)
                    .with_worker_threads(Some(threads))
                    .with_faults(faults);
                transcripts.push(service_transcript(engine, &progs, cfg));
            }
        }
        let (decisions0, runs0, stats0) = &transcripts[0];
        prop_assert_eq!(decisions0.len(), 4);
        for (decisions, runs, stats) in &transcripts[1..] {
            prop_assert_eq!(decisions0, decisions);
            prop_assert_eq!(stats0, stats);
            prop_assert_eq!(
                stats0.simulated_secs.to_bits(),
                stats.simulated_secs.to_bits(),
                "aggregate service clock leaked scheduling state"
            );
            for (a, b) in runs0.iter().zip(runs) {
                match (a, b) {
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(&a.writes, &b.writes);
                        prop_assert_eq!(&a.scalars, &b.scalars);
                        prop_assert_eq!(&a.stats, &b.stats);
                        prop_assert_eq!(
                            a.stats.simulated_secs.to_bits(),
                            b.stats.simulated_secs.to_bits()
                        );
                    }
                    (None, None) => {}
                    _ => prop_assert!(false, "session outcome diverged across variants"),
                }
            }
        }
    }
}
