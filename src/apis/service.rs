//! Multi-tenant serving API: submit many compiled programs against one
//! engine, one catalog, and one cross-session result cache.
//!
//! A thin convenience layer over [`emma_engine::service::SessionService`]
//! (DESIGN.md §3.11): the service estimates each program's working set,
//! admits it against the [`ServiceConfig`] budgets, and
//! executes admitted sessions in a driver-ordered schedule so the whole
//! transcript — results, per-session stats, admission decisions, the
//! aggregate sim clock — replays bit-identically however many worker
//! threads each run fans out over.

pub use emma_engine::{
    AdmissionDecision, ServiceConfig, ServiceStats, SessionCacheStats, SessionReport,
    SessionService, SharedCatalogCache,
};

use emma_compiler::interp::Catalog;
use emma_compiler::pipeline::CompiledProgram;
use emma_engine::Engine;

/// Submits every program in order, drains the service, and returns it for
/// inspection — the one-call path for "run these queries concurrently
/// against shared cached bags".
///
/// ```
/// use emma::apis::service::{run_concurrently, ServiceConfig};
/// use emma::prelude::*;
///
/// let catalog = Catalog::new().with("xs", (0..32).map(Value::Int).collect());
/// let prog = |sink: &str| {
///     parallelize(
///         &Program::new(vec![Stmt::write(sink.to_string(), BagExpr::read("xs"))]),
///         &OptimizerFlags::all(),
///     )
/// };
/// let svc = run_concurrently(
///     Engine::new(ClusterSpec::tiny(), Personality::sparrow()),
///     catalog,
///     &[prog("a"), prog("b")],
///     ServiceConfig::default(),
/// );
/// assert_eq!(svc.stats().completed, 2);
/// assert_eq!(svc.report(1).run().unwrap().writes["b"].len(), 32);
/// ```
pub fn run_concurrently(
    engine: Engine,
    catalog: Catalog,
    progs: &[CompiledProgram],
    config: ServiceConfig,
) -> SessionService {
    let mut svc = SessionService::new(engine, catalog, config);
    for p in progs {
        svc.submit(p);
    }
    svc.drain();
    svc
}
