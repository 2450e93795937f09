//! # emma-compiler — the deep embedding and compiler pipeline
//!
//! This crate is the paper's primary contribution, transplanted to Rust:
//! a *deeply embedded* language for parallel data analysis, compiled
//! holistically through a monad-comprehension intermediate representation.
//!
//! In the Scala original, user code inside `parallelize { … }` brackets is
//! quoted by a macro; here, programs are first-class values — a driver AST
//! ([`program::Program`]) whose bag expressions ([`bag_expr::BagExpr`]) carry
//! analyzable UDFs written in a small scalar-expression language
//! ([`expr::ScalarExpr`]). Every stage of the paper's Figure 1 pipeline then
//! operates exactly as described:
//!
//! 1. **Recovering comprehensions** ([`comprehension`]): MC⁻¹ resugaring of
//!    `map`/`flatMap`/`withFilter`/`fold` chains, single-use inlining, and
//!    normalization (head unnesting, generator fusion, exists-unnesting).
//! 2. **Logical optimization** ([`fusion`]): fold-group fusion via banana
//!    split + fold-build fusion, rewriting `groupBy` to `aggBy`.
//! 3. **Lowering** ([`lower`]): Grust-style combinator rules (Figure 2)
//!    driven by the Figure 3a state machine, producing abstract dataflow
//!    [`plan::Plan`]s.
//! 4. **Physical optimization** ([`physical`]): caching of multiply
//!    referenced bags, partition pulling across loop barriers, broadcast
//!    insertion for unbound driver variables.
//!
//! The pipeline entry point is [`pipeline::parallelize`], which takes a
//! [`program::Program`] plus [`pipeline::OptimizerFlags`] (so each paper
//! experiment can toggle individual optimizations) and produces a
//! [`pipeline::CompiledProgram`] ready for an `emma-engine` runtime, together
//! with an optimization report that reproduces the paper's Table 1.
//!
//! A reference interpreter ([`interp`]) provides the sequential semantics
//! that optimized, distributed execution must preserve.

#![warn(missing_docs)]

pub mod bag_expr;
pub mod compiled;
pub mod comprehension;
pub mod csvio;
pub mod expr;
pub mod freshen;
pub mod fusion;
pub mod interp;
pub mod lower;
pub mod physical;
pub mod physical_pipeline;
pub mod pipeline;
pub mod plan;
pub mod program;
pub mod value;
pub mod vectorized;

pub use bag_expr::{BagExpr, BagLambda};
pub use compiled::{compile_bag_body, compile_lambda, CompiledBag, CompiledEval, Machine};
pub use expr::{BinOp, BuiltinFn, FoldKind, FoldOp, Lambda, ScalarExpr, UnOp};
pub use interp::{Catalog, Interp, RunOutput};
pub use pipeline::{parallelize, CompiledProgram, OptimizationReport, OptimizerFlags};
pub use plan::Plan;
pub use program::{Program, RValue, Stmt};
pub use value::{Value, ValueError};
pub use vectorized::{
    specialize_sampled, BatchConfig, VecStageSpec, VectorPipeline, VectorScratch,
};
