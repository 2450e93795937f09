//! Abstract dataflow plans — the combinator trees produced by lowering
//! (paper, Section 4.3).
//!
//! Each [`Plan`] node corresponds to a higher-order operator supported by the
//! target runtimes (map, flatMap, filter, join, cross, groupBy/aggBy,
//! fold, set operations) plus the *physical* nodes introduced by the
//! optimizer: [`Plan::Cache`] and [`Plan::Repartition`]. Join strategy is
//! deliberately [`JoinStrategy::Auto`] by default — the just-in-time part of
//! the paper's pipeline picks broadcast vs. repartition when actual input
//! sizes are known (Section 4.3.1, "we trigger the actual dataflow
//! generation just-in-time at runtime").

use std::collections::HashSet;
use std::fmt;

use crate::bag_expr::BagExpr;
use crate::expr::{FoldOp, Lambda, ScalarExpr, Term};
use crate::value::Value;

/// Join multiplicity semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner equi-join producing `(left, right)` tuples.
    Inner,
    /// Left semi-join: keeps left elements with at least one match.
    LeftSemi,
    /// Left anti-join: keeps left elements with no match.
    LeftAnti,
}

/// Physical join strategy, fixed just-in-time unless pinned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Decide from runtime input sizes.
    Auto,
    /// Ship the right side to every worker.
    Broadcast,
    /// Hash-partition both sides on the join key.
    Repartition,
}

/// One narrow (per-element, partition-local) operator fused into a
/// [`Plan::Pipeline`]. Stages carry the same UDFs as the standalone
/// `Map` / `Filter` / `FlatMap` nodes they replace.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineStage {
    /// Element-wise transformation (a fused `Plan::Map`).
    Map {
        /// The UDF.
        f: Lambda,
    },
    /// Element filter (a fused `Plan::Filter`).
    Filter {
        /// Keep-predicate.
        p: Lambda,
    },
    /// Element-to-bag expansion (a fused `Plan::FlatMap`).
    FlatMap {
        /// Bound element variable.
        param: String,
        /// Bag-valued body.
        body: BagExpr,
    },
}

impl PipelineStage {
    /// The stage's UDF.
    pub(crate) fn term(&self) -> Term<'_> {
        match self {
            PipelineStage::Map { f } | PipelineStage::Filter { p: f } => Term::Lambda(f),
            PipelineStage::FlatMap { param, body } => Term::BagLambda(param, body),
        }
    }

    /// Operator name of the standalone node this stage was fused from.
    pub(crate) fn op_name(&self) -> &'static str {
        match self {
            PipelineStage::Map { .. } => "Map",
            PipelineStage::Filter { .. } => "Filter",
            PipelineStage::FlatMap { .. } => "FlatMap",
        }
    }
}

/// An abstract dataflow plan node.
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// Scan of a named dataset.
    Source {
        /// Catalog name.
        name: String,
    },
    /// A literal collection shipped from the driver (`parallelize`).
    Literal {
        /// The rows.
        rows: Vec<Value>,
    },
    /// A reference to a driver-bound bag (a thunk; forcing it may trigger
    /// re-execution or hit a cache).
    RefBag {
        /// Driver variable name.
        name: String,
    },
    /// A small bag computed by a driver-side scalar expression.
    OfScalar {
        /// The expression (must evaluate to `Value::Bag`).
        expr: ScalarExpr,
    },
    /// Element-wise transformation.
    Map {
        /// Upstream plan.
        input: Box<Plan>,
        /// The UDF.
        f: Lambda,
    },
    /// Element-to-bag expansion; the body is evaluated locally per element.
    FlatMap {
        /// Upstream plan.
        input: Box<Plan>,
        /// Bound element variable.
        param: String,
        /// Bag-valued body.
        body: BagExpr,
    },
    /// Element filter.
    Filter {
        /// Upstream plan.
        input: Box<Plan>,
        /// Keep-predicate.
        p: Lambda,
    },
    /// Equi-join (with optional non-equi residual predicate).
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Key extractor on left elements.
        lkey: Lambda,
        /// Key extractor on right elements.
        rkey: Lambda,
        /// Residual predicate over `(left, right)` pairs.
        residual: Option<Lambda>,
        /// Inner / semi / anti.
        kind: JoinKind,
        /// Physical strategy.
        strategy: JoinStrategy,
    },
    /// Cartesian product producing `(left, right)` tuples.
    Cross {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Grouping with *materialized* group values `(key, {{values}})`.
    GroupBy {
        /// Upstream plan.
        input: Box<Plan>,
        /// Key extractor.
        key: Lambda,
    },
    /// Fused grouping + folding `(key, acc)` — the target of fold-group
    /// fusion; executes with combiner-side partial aggregation.
    AggBy {
        /// Upstream plan.
        input: Box<Plan>,
        /// Key extractor.
        key: Lambda,
        /// Per-group fold.
        fold: FoldOp,
    },
    /// Terminal fold producing a scalar.
    Fold {
        /// Upstream plan.
        input: Box<Plan>,
        /// The fold algebra.
        fold: FoldOp,
    },
    /// Bag union.
    Plus {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Bag difference.
    Minus {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Upstream plan.
        input: Box<Plan>,
    },
    /// Materialize-and-reuse marker inserted by the caching heuristic.
    Cache {
        /// Upstream plan.
        input: Box<Plan>,
    },
    /// Enforced hash partitioning inserted by partition pulling.
    Repartition {
        /// Upstream plan.
        input: Box<Plan>,
        /// Partitioning key.
        key: Lambda,
    },
    /// A maximal chain of narrow operators fused by the physical-pipeline
    /// pass: each partition is processed in one pass with no intermediate
    /// materialization between stages. Stage order is upstream → downstream.
    Pipeline {
        /// Upstream plan feeding the first stage.
        input: Box<Plan>,
        /// At least two fused narrow stages.
        stages: Vec<PipelineStage>,
    },
}

impl Plan {
    /// Child plans, for generic traversals (no allocation).
    pub fn children(&self) -> impl Iterator<Item = &Plan> {
        let (first, second): (Option<&Plan>, Option<&Plan>) = match self {
            Plan::Source { .. }
            | Plan::Literal { .. }
            | Plan::RefBag { .. }
            | Plan::OfScalar { .. } => (None, None),
            Plan::Map { input, .. }
            | Plan::FlatMap { input, .. }
            | Plan::Filter { input, .. }
            | Plan::GroupBy { input, .. }
            | Plan::AggBy { input, .. }
            | Plan::Fold { input, .. }
            | Plan::Distinct { input }
            | Plan::Cache { input }
            | Plan::Repartition { input, .. }
            | Plan::Pipeline { input, .. } => (Some(input), None),
            Plan::Join { left, right, .. }
            | Plan::Cross { left, right }
            | Plan::Plus { left, right }
            | Plan::Minus { left, right } => (Some(left), Some(right)),
        };
        first.into_iter().chain(second)
    }

    /// The `&mut` twin of [`Plan::children`].
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut Plan> {
        let (first, second): (Option<&mut Plan>, Option<&mut Plan>) = match self {
            Plan::Source { .. }
            | Plan::Literal { .. }
            | Plan::RefBag { .. }
            | Plan::OfScalar { .. } => (None, None),
            Plan::Map { input, .. }
            | Plan::FlatMap { input, .. }
            | Plan::Filter { input, .. }
            | Plan::GroupBy { input, .. }
            | Plan::AggBy { input, .. }
            | Plan::Fold { input, .. }
            | Plan::Distinct { input }
            | Plan::Cache { input }
            | Plan::Repartition { input, .. }
            | Plan::Pipeline { input, .. } => (Some(input), None),
            Plan::Join { left, right, .. }
            | Plan::Cross { left, right }
            | Plan::Plus { left, right }
            | Plan::Minus { left, right } => (Some(left), Some(right)),
        };
        first.into_iter().chain(second)
    }

    /// Visits every node in the plan tree (pre-order).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Plan)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// The UDF terms this node embeds (not its children's), in evaluation
    /// order: a driver-side expression, key extractors, a join's residual,
    /// a fold's `zero` / `sng` / `uni`, every fused stage's UDF.
    pub fn for_each_term<'a>(&'a self, mut visit: impl FnMut(Term<'a>)) {
        match self {
            Plan::OfScalar { expr } => visit(Term::Scalar(expr)),
            Plan::Map { f, .. }
            | Plan::Filter { p: f, .. }
            | Plan::GroupBy { key: f, .. }
            | Plan::Repartition { key: f, .. } => visit(Term::Lambda(f)),
            Plan::FlatMap { param, body, .. } => visit(Term::BagLambda(param, body)),
            Plan::Join {
                lkey,
                rkey,
                residual,
                ..
            } => [lkey, rkey]
                .into_iter()
                .chain(residual)
                .for_each(|f| visit(Term::Lambda(f))),
            Plan::AggBy { key, fold, .. } => {
                visit(Term::Lambda(key));
                fold.terms().into_iter().for_each(visit)
            }
            Plan::Fold { fold, .. } => fold.terms().into_iter().for_each(visit),
            Plan::Pipeline { stages, .. } => stages.iter().for_each(|s| visit(s.term())),
            Plan::Source { .. }
            | Plan::Literal { .. }
            | Plan::RefBag { .. }
            | Plan::Cross { .. }
            | Plan::Plus { .. }
            | Plan::Minus { .. }
            | Plan::Distinct { .. }
            | Plan::Cache { .. } => {}
        }
    }

    /// All driver-bag references in this plan: `RefBag` inputs *and*
    /// `BagExpr::Ref`s hidden inside UDF lambdas (the latter become
    /// broadcasts at runtime — paper Fig. 3b, "Driver to UDFs").
    pub fn bag_refs(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |p| {
            if let Plan::RefBag { name } = p {
                out.push(name.clone());
            }
            p.for_each_term(|t| t.for_each_bag_ref(|r| out.push(r.to_string())));
        });
        out
    }

    /// Driver *scalar* variables free in the plan's UDFs — these are
    /// broadcast to workers as read-only variables.
    pub fn free_scalar_vars(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.visit(&mut |p| p.for_each_term(|t| out.extend(t.free_vars())));
        out
    }

    /// A one-line operator name (for plan rendering and tests).
    pub fn op_name(&self) -> &'static str {
        match self {
            Plan::Source { .. } => "Source",
            Plan::Literal { .. } => "Literal",
            Plan::RefBag { .. } => "RefBag",
            Plan::OfScalar { .. } => "OfScalar",
            Plan::Map { .. } => "Map",
            Plan::FlatMap { .. } => "FlatMap",
            Plan::Filter { .. } => "Filter",
            Plan::Join { .. } => "Join",
            Plan::Cross { .. } => "Cross",
            Plan::GroupBy { .. } => "GroupBy",
            Plan::AggBy { .. } => "AggBy",
            Plan::Fold { .. } => "Fold",
            Plan::Plus { .. } => "Plus",
            Plan::Minus { .. } => "Minus",
            Plan::Distinct { .. } => "Distinct",
            Plan::Cache { .. } => "Cache",
            Plan::Repartition { .. } => "Repartition",
            Plan::Pipeline { .. } => "Pipeline",
        }
    }

    /// Renders the plan as a Graphviz DOT digraph (one node per operator,
    /// edges child → parent along the data flow) — handy for inspecting what
    /// the optimizer produced.
    pub fn to_dot(&self) -> String {
        fn label(p: &Plan) -> String {
            match p {
                Plan::Source { name } => format!("Source\n{name}"),
                Plan::RefBag { name } => format!("RefBag\n{name}"),
                Plan::Literal { rows } => format!("Literal\nn={}", rows.len()),
                Plan::Join { kind, strategy, .. } => {
                    format!("Join\n{kind:?}/{strategy:?}")
                }
                Plan::AggBy { fold, .. } => format!("AggBy\nfold[{:?}]", fold.kind),
                Plan::Fold { fold, .. } => format!("Fold\n[{:?}]", fold.kind),
                Plan::Pipeline { stages, .. } => {
                    let names: Vec<&str> = stages.iter().map(|s| s.op_name()).collect();
                    format!("Pipeline\n{}", names.join("→"))
                }
                other => other.op_name().to_string(),
            }
        }
        fn go(p: &Plan, out: &mut String, next_id: &mut usize) -> usize {
            let id = *next_id;
            *next_id += 1;
            out.push_str(&format!("  n{id} [label=\"{}\"];\n", label(p)));
            for c in p.children() {
                let cid = go(c, out, next_id);
                out.push_str(&format!("  n{cid} -> n{id};\n"));
            }
            id
        }
        let mut body = String::new();
        let mut next = 0usize;
        go(self, &mut body, &mut next);
        format!("digraph plan {{\n  rankdir=BT;\n{body}}}\n")
    }

    /// Counts nodes with the given operator name. Operators absorbed into a
    /// fused [`Plan::Pipeline`] still count under their original name —
    /// fusion changes execution strategy, not the plan's logical shape.
    pub fn count_ops(&self, name: &str) -> usize {
        let mut n = 0;
        self.visit(&mut |p| {
            if p.op_name() == name {
                n += 1;
            }
            if let Plan::Pipeline { stages, .. } = p {
                n += stages.iter().filter(|s| s.op_name() == name).count();
            }
        });
        n
    }

    /// The number of logical operators in this plan's lineage — every node
    /// (including through `Cache`) plus the stages absorbed into fused
    /// [`Plan::Pipeline`]s under their original identities. The engine uses
    /// this to account for how much lineage a cache eviction forces it to
    /// re-derive.
    pub fn lineage_size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p| {
            n += 1;
            if let Plan::Pipeline { stages, .. } = p {
                n += stages.len();
            }
        });
        n
    }

    /// Whether this cache site is worth persisting to durable storage as a
    /// checkpoint: losing it would force at least `min_lineage` logical
    /// operators to be re-derived. Shallow sites fail the threshold — a bare
    /// source scan's recovery path *is* re-reading the source, so writing it
    /// out again buys nothing.
    pub fn checkpoint_eligible(&self, min_lineage: usize) -> bool {
        self.lineage_size() >= min_lineage
    }

    /// How this operator's *input shuffle* may be split when the skew-aware
    /// shuffle layer detects a hot partition. Classifies the merge story the
    /// engine has for each wide operator; narrow operators and operators
    /// whose layout is part of their contract are [`SkewEligibility::Ineligible`].
    pub fn skew_eligibility(&self) -> SkewEligibility {
        match self {
            // groupBy re-merges sub-partition groups in a two-phase pass, and
            // the repartition join replicates its (small) build partition
            // across the probe's sub-partitions: both tolerate one key
            // landing in several sub-partitions, so the stronger
            // contiguous-chunk balancing applies.
            Plan::GroupBy { .. } | Plan::Join { .. } => SkewEligibility::Balanced,
            // aggBy merges partials per key and Distinct dedups per
            // partition: both need every copy of a key in one sub-partition,
            // so only a key-preserving secondary hash is safe.
            Plan::AggBy { .. } | Plan::Distinct { .. } => SkewEligibility::KeyPreserving,
            // Minus aligns both sides partition-by-partition and Repartition
            // *is* a layout contract; everything else is narrow or
            // driver-side and never shuffles.
            _ => SkewEligibility::Ineligible,
        }
    }
}

/// How a wide operator can consume a skew-split shuffle layout
/// (see [`Plan::skew_eligibility`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkewEligibility {
    /// Hot partitions may be split into contiguous row chunks — best
    /// balancing, requires the operator to merge per-key state across
    /// sub-partitions (or tolerate duplicates of a key).
    Balanced,
    /// Hot partitions may be split only by a secondary hash of the key, so
    /// each key stays whole in one sub-partition.
    KeyPreserving,
    /// The operator's input shuffle must not be split.
    Ineligible,
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(p: &Plan, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match p {
                Plan::Source { name } => writeln!(f, "{pad}Source({name})")?,
                Plan::Literal { rows } => writeln!(f, "{pad}Literal(n={})", rows.len())?,
                Plan::RefBag { name } => writeln!(f, "{pad}RefBag({name})")?,
                Plan::OfScalar { expr } => writeln!(f, "{pad}OfScalar({expr})")?,
                Plan::Map { f: lam, .. } => writeln!(f, "{pad}Map({lam})")?,
                Plan::FlatMap { param, body, .. } => writeln!(f, "{pad}FlatMap(λ{param}. {body})")?,
                Plan::Filter { p: lam, .. } => writeln!(f, "{pad}Filter({lam})")?,
                Plan::Join {
                    lkey,
                    rkey,
                    kind,
                    strategy,
                    residual,
                    ..
                } => writeln!(
                    f,
                    "{pad}Join[{kind:?},{strategy:?}]({lkey} == {rkey}{})",
                    if residual.is_some() {
                        ", +residual"
                    } else {
                        ""
                    }
                )?,
                Plan::Cross { .. } => writeln!(f, "{pad}Cross")?,
                Plan::GroupBy { key, .. } => writeln!(f, "{pad}GroupBy({key})")?,
                Plan::AggBy { key, fold, .. } => {
                    writeln!(f, "{pad}AggBy({key}, fold[{:?}])", fold.kind)?
                }
                Plan::Fold { fold, .. } => writeln!(f, "{pad}Fold[{:?}]", fold.kind)?,
                Plan::Plus { .. } => writeln!(f, "{pad}Plus")?,
                Plan::Minus { .. } => writeln!(f, "{pad}Minus")?,
                Plan::Distinct { .. } => writeln!(f, "{pad}Distinct")?,
                Plan::Cache { .. } => writeln!(f, "{pad}Cache")?,
                Plan::Repartition { key, .. } => writeln!(f, "{pad}Repartition({key})")?,
                Plan::Pipeline { stages, .. } => {
                    let names: Vec<&str> = stages.iter().map(|s| s.op_name()).collect();
                    writeln!(f, "{pad}Pipeline[{}]", names.join(" → "))?
                }
            }
            for c in p.children() {
                go(c, f, indent + 1)?;
            }
            Ok(())
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bag_refs_sees_lambda_nested_refs() {
        // Map whose UDF folds over a driver bag (k-means nearest-centroid).
        let p = Plan::Map {
            input: Box::new(Plan::Source {
                name: "points".into(),
            }),
            f: Lambda::new(
                ["p"],
                ScalarExpr::Fold(
                    Box::new(BagExpr::var("ctrds")),
                    Box::new(FoldOp::min_by(Lambda::new(
                        ["c"],
                        ScalarExpr::var("c").get(0),
                    ))),
                ),
            ),
        };
        assert_eq!(p.bag_refs(), vec!["ctrds".to_string()]);
    }

    #[test]
    fn free_scalar_vars_exclude_params() {
        let p = Plan::Filter {
            input: Box::new(Plan::Source { name: "xs".into() }),
            p: Lambda::new(["x"], ScalarExpr::var("x").gt(ScalarExpr::var("threshold"))),
        };
        let fv = p.free_scalar_vars();
        assert!(fv.contains("threshold"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn to_dot_emits_nodes_and_edges() {
        let p = Plan::Filter {
            input: Box::new(Plan::Source { name: "xs".into() }),
            p: Lambda::new(["x"], ScalarExpr::lit(true)),
        };
        let dot = p.to_dot();
        assert!(dot.starts_with("digraph plan {"), "{dot}");
        assert!(dot.contains("Source"), "{dot}");
        assert!(dot.contains("Filter"), "{dot}");
        assert!(dot.contains("->"), "{dot}");
    }

    #[test]
    fn skew_eligibility_classifies_per_operator() {
        let src = || Box::new(Plan::Source { name: "xs".into() });
        let key = || Lambda::new(["t"], ScalarExpr::var("t").get(0));
        let group = Plan::GroupBy {
            input: src(),
            key: key(),
        };
        assert_eq!(group.skew_eligibility(), SkewEligibility::Balanced);
        let join = Plan::Join {
            left: src(),
            right: src(),
            lkey: key(),
            rkey: key(),
            residual: None,
            kind: JoinKind::Inner,
            strategy: JoinStrategy::Auto,
        };
        assert_eq!(join.skew_eligibility(), SkewEligibility::Balanced);
        let agg = Plan::AggBy {
            input: src(),
            key: key(),
            fold: FoldOp::min(),
        };
        assert_eq!(agg.skew_eligibility(), SkewEligibility::KeyPreserving);
        let distinct = Plan::Distinct { input: src() };
        assert_eq!(distinct.skew_eligibility(), SkewEligibility::KeyPreserving);
        // Layout-contract and alignment operators never split.
        let repart = Plan::Repartition {
            input: src(),
            key: key(),
        };
        assert_eq!(repart.skew_eligibility(), SkewEligibility::Ineligible);
        let minus = Plan::Minus {
            left: src(),
            right: src(),
        };
        assert_eq!(minus.skew_eligibility(), SkewEligibility::Ineligible);
        assert_eq!((*src()).skew_eligibility(), SkewEligibility::Ineligible);
    }

    #[test]
    fn count_ops_and_display() {
        let p = Plan::Filter {
            input: Box::new(Plan::Map {
                input: Box::new(Plan::Source { name: "xs".into() }),
                f: Lambda::new(["x"], ScalarExpr::var("x")),
            }),
            p: Lambda::new(["x"], ScalarExpr::lit(true)),
        };
        assert_eq!(p.count_ops("Map"), 1);
        assert_eq!(p.count_ops("Source"), 1);
        let text = p.to_string();
        assert!(text.contains("Filter"));
        assert!(text.contains("  Map"));
    }
}
