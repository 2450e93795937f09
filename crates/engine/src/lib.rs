//! # emma-engine — the simulated distributed runtime substrate
//!
//! The paper evaluates Emma on Spark v1.2 and Flink v0.8 over a 40-node
//! cluster. Neither exists in Rust, so this crate provides the substitute
//! substrate (see DESIGN.md §2): a from-scratch dataflow runtime that
//! *really executes* compiled [`emma_compiler::pipeline::CompiledProgram`]s
//! over partitioned collections, while a deterministic cost model charges
//! simulated time for exactly the physical effects the paper's evaluation
//! attributes speedups to:
//!
//! * storage scans and sink writes;
//! * hash shuffles, with stage time driven by the most loaded receiver
//!   (skew);
//! * broadcasts of driver variables and UDF-captured bags (Fig. 3b data
//!   motion), with per-engine cost factors;
//! * re-execution of uncached lazy lineage vs. cache reads (in-memory on
//!   Sparrow/Spark, HDFS-backed on Flamingo/Flink v0.8);
//! * group materialization memory pressure — the superlinear penalty that
//!   makes un-fused `groupBy`s time out, reproducing the paper's
//!   "did not finish within one hour" rows;
//! * per-stage scheduling and per-iteration loop overheads (lazy unrolling
//!   vs. native iterations).
//!
//! Because plans are really executed, every benchmark doubles as a
//! correctness check against the reference interpreter in `emma-compiler`.

#![warn(missing_docs)]

pub mod cluster;
mod cost;
pub mod dataset;
mod exec;
mod fault;
mod metrics;
mod pool;
pub mod service;
pub mod skew;

pub use cluster::{ClusterSpec, Personality};
pub use dataset::{Partitioned, Partitioning};
pub use emma_compiler::vectorized::BatchConfig;
pub use exec::{Engine, EngineRun};
pub use fault::{
    CheckpointConfig, CheckpointPolicy, CostDrivenConfig, FaultConfig, SpeculationPolicy,
};
pub use metrics::{ExecError, ExecStats};
pub use pool::ParallelismMode;
pub use service::{
    AdmissionDecision, ServiceConfig, ServiceStats, SessionCacheStats, SessionReport,
    SessionService, SharedCatalogCache,
};
pub use skew::SkewConfig;
