//! Bag expressions: the `DataBag` API as analyzable syntax.
//!
//! A [`BagExpr`] is the quoted form of a `DataBag` operator chain — what the
//! Scala macro would see in the user's AST. The API surface mirrors the
//! paper's Listing 3: monad operators (`map`, `flat_map`, `filter`),
//! `group_by` (nesting), set operators, I/O, and folds (which return
//! [`ScalarExpr`]s, crossing back into the scalar world).
//!
//! Binary operators like `join` and `cross` are deliberately absent: they are
//! *discovered* by the compiler from comprehensions (paper, Section 3.1).
//!
//! The `AggBy` variant never appears in user programs — it is introduced by
//! the fold-group-fusion rewrite (Section 4.2.2).

use std::collections::HashSet;
use std::fmt;

use crate::expr::{FoldOp, Lambda, ScalarExpr, Term, TermMut};
use crate::value::Value;

/// A lambda whose body is a bag (the shape of `flatMap` arguments).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BagLambda {
    /// The bound element variable.
    pub param: String,
    /// The bag-valued body.
    pub body: BagExpr,
}

impl BagLambda {
    /// Creates a bag lambda.
    pub fn new(param: impl Into<String>, body: BagExpr) -> Self {
        BagLambda {
            param: param.into(),
            body,
        }
    }
}

/// A quoted `DataBag` expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum BagExpr {
    /// `read(source)`: a named dataset from the catalog/storage layer.
    Read {
        /// Catalog name of the dataset.
        source: String,
    },
    /// A literal bag of values (the `Seq → DataBag` conversion /
    /// `parallelize`).
    Values(Vec<Value>),
    /// A reference to a driver-program variable holding a bag.
    Ref {
        /// Driver variable name.
        name: String,
    },
    /// A scalar expression evaluating to a `Value::Bag`, viewed as a bag —
    /// how nested group values (`g.values`) re-enter bag-land.
    OfValue(Box<ScalarExpr>),
    /// `input.map(f)`.
    Map {
        /// Upstream bag.
        input: Box<BagExpr>,
        /// Per-element transformation.
        f: Lambda,
    },
    /// `input.flat_map(f)`.
    FlatMap {
        /// Upstream bag.
        input: Box<BagExpr>,
        /// Per-element bag-valued transformation.
        f: Box<BagLambda>,
    },
    /// `input.with_filter(p)`.
    Filter {
        /// Upstream bag.
        input: Box<BagExpr>,
        /// Keep-predicate.
        p: Lambda,
    },
    /// `input.group_by(key)`: yields `(key, values-bag)` tuples.
    GroupBy {
        /// Upstream bag.
        input: Box<BagExpr>,
        /// Grouping key extractor.
        key: Lambda,
    },
    /// Fused grouping + folding (`aggBy`): yields `(key, fold-result)`
    /// tuples. Introduced only by the optimizer.
    AggBy {
        /// Upstream bag.
        input: Box<BagExpr>,
        /// Grouping key extractor.
        key: Lambda,
        /// The (possibly banana-split) fold applied per group.
        fold: FoldOp,
    },
    /// Bag union (`plus`).
    Plus(Box<BagExpr>, Box<BagExpr>),
    /// Bag difference (`minus`).
    Minus(Box<BagExpr>, Box<BagExpr>),
    /// Duplicate elimination.
    Distinct(Box<BagExpr>),
}

impl BagExpr {
    // -------------------------------------------------------------- sources

    /// `read(source)`.
    pub fn read(source: impl Into<String>) -> BagExpr {
        BagExpr::Read {
            source: source.into(),
        }
    }

    /// Literal bag.
    pub fn values(vs: impl Into<Vec<Value>>) -> BagExpr {
        BagExpr::Values(vs.into())
    }

    /// Reference to a driver bag variable.
    pub fn var(name: impl Into<String>) -> BagExpr {
        BagExpr::Ref { name: name.into() }
    }

    /// Views a scalar (group values, driver sequence) as a bag.
    pub fn of_value(e: ScalarExpr) -> BagExpr {
        BagExpr::OfValue(Box::new(e))
    }

    // ------------------------------------------------------------ operators

    /// `self.map(f)`.
    pub fn map(self, f: Lambda) -> BagExpr {
        assert_eq!(f.params.len(), 1, "map takes a unary lambda");
        BagExpr::Map {
            input: Box::new(self),
            f,
        }
    }

    /// `self.flat_map(f)`.
    pub fn flat_map(self, f: BagLambda) -> BagExpr {
        BagExpr::FlatMap {
            input: Box::new(self),
            f: Box::new(f),
        }
    }

    /// `self.with_filter(p)`.
    pub fn filter(self, p: Lambda) -> BagExpr {
        assert_eq!(p.params.len(), 1, "filter takes a unary lambda");
        BagExpr::Filter {
            input: Box::new(self),
            p,
        }
    }

    /// `self.group_by(key)`.
    pub fn group_by(self, key: Lambda) -> BagExpr {
        assert_eq!(key.params.len(), 1, "group_by takes a unary lambda");
        BagExpr::GroupBy {
            input: Box::new(self),
            key,
        }
    }

    /// `self.plus(other)`.
    pub fn plus(self, other: BagExpr) -> BagExpr {
        BagExpr::Plus(Box::new(self), Box::new(other))
    }

    /// `self.minus(other)`.
    pub fn minus(self, other: BagExpr) -> BagExpr {
        BagExpr::Minus(Box::new(self), Box::new(other))
    }

    /// `self.distinct()`.
    pub fn distinct(self) -> BagExpr {
        BagExpr::Distinct(Box::new(self))
    }

    // ----------------------------------------------------------- folds

    /// `self.fold(op)` — terminal aggregate, producing a scalar expression.
    pub fn fold(self, op: FoldOp) -> ScalarExpr {
        ScalarExpr::Fold(Box::new(self), Box::new(op))
    }

    /// `self.sum()`.
    pub fn sum(self) -> ScalarExpr {
        self.fold(FoldOp::sum())
    }

    /// `self.count()`.
    pub fn count(self) -> ScalarExpr {
        self.fold(FoldOp::count())
    }

    /// `self.min()`.
    pub fn min(self) -> ScalarExpr {
        self.fold(FoldOp::min())
    }

    /// `self.max()`.
    pub fn max(self) -> ScalarExpr {
        self.fold(FoldOp::max())
    }

    /// `self.exists(p)`.
    pub fn exists(self, p: Lambda) -> ScalarExpr {
        self.fold(FoldOp::exists(p))
    }

    /// `self.forall(p)`.
    pub fn forall(self, p: Lambda) -> ScalarExpr {
        self.fold(FoldOp::forall(p))
    }

    /// `self.is_empty()`.
    pub fn is_empty(self) -> ScalarExpr {
        self.fold(FoldOp::is_empty())
    }

    /// `self.min_by(key)`.
    pub fn min_by(self, key: Lambda) -> ScalarExpr {
        self.fold(FoldOp::min_by(key))
    }

    /// `self.max_by(key)`.
    pub fn max_by(self, key: Lambda) -> ScalarExpr {
        self.fold(FoldOp::max_by(key))
    }

    // ----------------------------------------------------------- analysis

    /// Static CPU cost of evaluating this chain per driving element (sums
    /// the lambdas' [`Lambda::static_cost`]s; sources count a constant).
    pub fn static_cost(&self) -> f64 {
        match self {
            BagExpr::Read { .. } | BagExpr::Values(_) | BagExpr::Ref { .. } => 2.0,
            BagExpr::OfValue(e) => 2.0 + e.static_cost(),
            BagExpr::Map { input, f } | BagExpr::Filter { input, p: f } => {
                input.static_cost() + f.static_cost()
            }
            BagExpr::FlatMap { input, f } => input.static_cost() + f.body.static_cost(),
            BagExpr::GroupBy { input, key } => input.static_cost() + key.static_cost() + 4.0,
            BagExpr::AggBy { input, key, fold } => {
                input.static_cost()
                    + key.static_cost()
                    + fold.sng.static_cost()
                    + fold.uni.static_cost()
            }
            BagExpr::Plus(l, r) | BagExpr::Minus(l, r) => l.static_cost() + r.static_cost(),
            BagExpr::Distinct(e) => 2.0 + e.static_cost(),
        }
    }

    /// Static per-input-byte CPU cost of evaluating this chain per driving
    /// element (sums the lambdas' [`Lambda::static_byte_cost`]s; sources are
    /// byte-free). The bag analogue of [`ScalarExpr::static_byte_cost`].
    pub fn static_byte_cost(&self) -> f64 {
        match self {
            BagExpr::Read { .. } | BagExpr::Values(_) | BagExpr::Ref { .. } => 0.0,
            BagExpr::OfValue(e) => e.static_byte_cost(),
            BagExpr::Map { input, f } | BagExpr::Filter { input, p: f } => {
                input.static_byte_cost() + f.static_byte_cost()
            }
            BagExpr::FlatMap { input, f } => input.static_byte_cost() + f.body.static_byte_cost(),
            BagExpr::GroupBy { input, key } => input.static_byte_cost() + key.static_byte_cost(),
            BagExpr::AggBy { input, key, fold } => {
                input.static_byte_cost()
                    + key.static_byte_cost()
                    + fold.sng.static_byte_cost()
                    + fold.uni.static_byte_cost()
            }
            BagExpr::Plus(l, r) | BagExpr::Minus(l, r) => {
                l.static_byte_cost() + r.static_byte_cost()
            }
            BagExpr::Distinct(e) => e.static_byte_cost(),
        }
    }

    /// Free variables (bag refs *and* scalar vars) of this expression.
    pub fn free_vars(&self) -> HashSet<String> {
        Term::Bag(self).free_vars()
    }

    /// Substitutes `replacement` for free occurrences of scalar variable
    /// `name` inside lambdas and nested scalar expressions.
    pub fn substitute(&self, name: &str, replacement: &ScalarExpr) -> BagExpr {
        let mut b = self.clone();
        TermMut::Bag(&mut b).substitute(name, replacement);
        b
    }

    /// Replaces a bag `Ref { name }` with another bag expression (used by the
    /// inlining pass of Section 4.1).
    pub fn substitute_ref(&self, name: &str, replacement: &BagExpr) -> BagExpr {
        let mut b = self.clone();
        TermMut::Bag(&mut b).substitute_ref(name, replacement);
        b
    }

    /// The direct sub-terms in evaluation order (see [`Term`]).
    pub fn for_each_child<'a>(&'a self, mut visit: impl FnMut(Term<'a>)) {
        match self {
            BagExpr::Read { .. } | BagExpr::Values(_) | BagExpr::Ref { .. } => {}
            BagExpr::OfValue(e) => visit(Term::Scalar(e)),
            BagExpr::Map { input, f: lam }
            | BagExpr::Filter { input, p: lam }
            | BagExpr::GroupBy { input, key: lam } => {
                visit(Term::Bag(input));
                visit(Term::Lambda(lam));
            }
            BagExpr::FlatMap { input, f } => {
                visit(Term::Bag(input));
                visit(Term::BagLambda(&f.param, &f.body));
            }
            BagExpr::AggBy { input, key, fold } => {
                visit(Term::Bag(input));
                visit(Term::Lambda(key));
                fold.terms().into_iter().for_each(visit)
            }
            BagExpr::Plus(l, r) | BagExpr::Minus(l, r) => {
                visit(Term::Bag(l));
                visit(Term::Bag(r));
            }
            BagExpr::Distinct(e) => visit(Term::Bag(e)),
        }
    }

    /// The `&mut` twin of [`BagExpr::for_each_child`].
    pub fn for_each_child_mut<'a>(&'a mut self, mut visit: impl FnMut(TermMut<'a>)) {
        match self {
            BagExpr::Read { .. } | BagExpr::Values(_) | BagExpr::Ref { .. } => {}
            BagExpr::OfValue(e) => visit(TermMut::Scalar(e)),
            BagExpr::Map { input, f: lam }
            | BagExpr::Filter { input, p: lam }
            | BagExpr::GroupBy { input, key: lam } => {
                visit(TermMut::Bag(input));
                visit(TermMut::Lambda(lam));
            }
            BagExpr::FlatMap { input, f } => {
                visit(TermMut::Bag(input));
                let BagLambda { param, body } = &mut **f;
                visit(TermMut::BagLambda(param, body));
            }
            BagExpr::AggBy { input, key, fold } => {
                visit(TermMut::Bag(input));
                visit(TermMut::Lambda(key));
                fold.terms_mut().into_iter().for_each(visit)
            }
            BagExpr::Plus(l, r) | BagExpr::Minus(l, r) => {
                visit(TermMut::Bag(l));
                visit(TermMut::Bag(r));
            }
            BagExpr::Distinct(e) => visit(TermMut::Bag(e)),
        }
    }
}

impl fmt::Display for BagExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BagExpr::Read { source } => write!(f, "read({source})"),
            BagExpr::Values(vs) => write!(f, "values(n={})", vs.len()),
            BagExpr::Ref { name } => write!(f, "{name}"),
            BagExpr::OfValue(e) => write!(f, "bagOf({e})"),
            BagExpr::Map { input, f: lam } => write!(f, "{input}.map({lam})"),
            BagExpr::FlatMap { input, f: lam } => {
                write!(f, "{input}.flatMap(λ{}. {})", lam.param, lam.body)
            }
            BagExpr::Filter { input, p } => write!(f, "{input}.filter({p})"),
            BagExpr::GroupBy { input, key } => write!(f, "{input}.groupBy({key})"),
            BagExpr::AggBy { input, key, fold } => {
                write!(f, "{input}.aggBy({key}, fold[{:?}])", fold.kind)
            }
            BagExpr::Plus(l, r) => write!(f, "({l}).plus({r})"),
            BagExpr::Minus(l, r) => write!(f, "({l}).minus({r})"),
            BagExpr::Distinct(e) => write!(f, "({e}).distinct()"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_compose() {
        let e = BagExpr::read("xs")
            .map(Lambda::new(["x"], ScalarExpr::var("x").get(0)))
            .filter(Lambda::new(
                ["y"],
                ScalarExpr::var("y").gt(ScalarExpr::lit(3i64)),
            ));
        match &e {
            BagExpr::Filter { input, .. } => {
                assert!(matches!(**input, BagExpr::Map { .. }));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn free_vars_include_refs_and_lambda_captures() {
        let e = BagExpr::var("points").map(Lambda::new(
            ["p"],
            ScalarExpr::Fold(
                Box::new(BagExpr::var("ctrds")),
                Box::new(FoldOp::min_by(Lambda::new(
                    ["c"],
                    ScalarExpr::var("c").get(0),
                ))),
            ),
        ));
        let fv = e.free_vars();
        assert!(fv.contains("points"));
        assert!(fv.contains("ctrds"));
        assert!(!fv.contains("p"));
        assert!(!fv.contains("c"));
    }

    #[test]
    fn substitute_ref_inlines_bag_definitions() {
        let def = BagExpr::read("emails").filter(Lambda::new(
            ["e"],
            ScalarExpr::var("e").get(0).gt(ScalarExpr::lit(0i64)),
        ));
        let usage = BagExpr::var("nonSpam").map(Lambda::new(["x"], ScalarExpr::var("x")));
        let inlined = usage.substitute_ref("nonSpam", &def);
        match &inlined {
            BagExpr::Map { input, .. } => assert_eq!(**input, def),
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn substitute_ref_descends_into_fold_bags() {
        // filter(e => bl.exists(..)) — inlining `bl` must reach inside the fold.
        let pred = Lambda::new(
            ["e"],
            BagExpr::var("bl").exists(Lambda::new(
                ["l"],
                ScalarExpr::var("l").eq(ScalarExpr::var("e")),
            )),
        );
        let e = BagExpr::read("emails").filter(pred);
        let inlined = e.substitute_ref("bl", &BagExpr::read("blacklist"));
        assert!(!inlined.free_vars().contains("bl"));
    }

    #[test]
    fn display_is_readable() {
        let e = BagExpr::read("xs").map(Lambda::new(["x"], ScalarExpr::var("x")));
        assert_eq!(e.to_string(), "read(xs).map(λx. x)");
    }
}
