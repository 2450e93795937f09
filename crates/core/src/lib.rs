//! # emma-core — the `DataBag` abstraction
//!
//! This crate implements the *host-language execution* layer of Emma
//! ("Implicit Parallelism through Deep Language Embedding", SIGMOD 2015):
//! a typed, local implementation of the paper's core collection abstraction.
//!
//! The central type is [`DataBag`], a homogeneous collection with **bag
//! semantics** — elements share a type, have no order, and duplicates are
//! allowed. Following the paper (Section 2.2), bags are modeled in **union
//! representation** (`emp | sng x | uni xs ys`) and the *only* primitive way
//! to compute a value from a bag is **structural recursion** via
//! [`DataBag::fold`]. Every aggregate (`sum`, `count`, `min_by`, `exists`, …)
//! is an alias for a specific fold, and the algebraic laws that make folds
//! well-defined (unit, associativity, commutativity of the union operation)
//! are what licenses data-parallel execution.
//!
//! The crate also provides:
//!
//! * [`algebra`] — explicit constructor-application trees for both the
//!   insert representation (`AlgBag-Ins`) and the union representation
//!   (`AlgBag-Union`), with the semantic equations from the paper. These are
//!   used by the property-based test-suite to check fold well-definedness and
//!   the rewrite laws (banana split, fold-build fusion) that the compiler
//!   crate relies on.
//! * [`Grp`] — the group type produced by [`DataBag::group_by`]. Group
//!   values are themselves `DataBag`s (not iterators), which is what lets the
//!   compiler treat "groupBy + fold" uniformly and fuse it.
//! * [`StatefulBag`] — keyed state with point-wise updates returning deltas,
//!   enabling naive and semi-naive iteration (PageRank, Connected
//!   Components) without a domain-specific programming model.
//! * [`ops`] — the one definition of `groupBy`, `aggBy`, `minus`,
//!   `distinct` and stateful create / update, over the first-seen
//!   [`ops::InsertionMap`].
//! * [`io`] — small CSV-style readers/writers used by the examples.
//!
//! This layer is deliberately sequential and simple: the paper's promise is
//! that a programmer develops and debugs against *this* implementation, and
//! the `emma-compiler` / `emma-engine` crates then execute the same programs
//! in parallel with identical semantics. [`ops`] is what makes that hold by
//! construction for the keyed operators: the `DataBag`, the quoted-program
//! interpreter, the scalar compiled tier and the engine's per-partition
//! loops all call it rather than keep their own copy.

#![warn(missing_docs)]

pub mod algebra;
pub mod bag;
pub mod fold;
pub mod group;
pub mod io;
pub mod ops;
pub mod stateful;

pub use bag::DataBag;
pub use fold::Fold;
pub use group::Grp;
pub use stateful::{Keyed, StatefulBag};
