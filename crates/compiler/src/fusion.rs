//! Fold-group fusion (paper, Section 4.2.2).
//!
//! Candidates are comprehensions with a generator bound to a `groupBy` whose
//! group values (`g.values`, i.e. field 1 of the group tuple) are used
//! *exclusively* as inputs to folds. When the rewrite fires:
//!
//! 1. every fold chain over `g.values` (possibly through `map`/`filter`/
//!    `flatMap` stages) is *fold-build fused* into a single per-element
//!    `sng` function — deforestation: the intermediate bags are never built;
//! 2. the resulting folds are combined into one composite fold over tuples by
//!    the **banana split** law ([`FoldOp::banana_split`]);
//! 3. the `groupBy` is replaced by an `aggBy` carrying the composite fold,
//!    and each original fold term in the head is replaced by a projection of
//!    the corresponding aggregate slot.
//!
//! Semantically, `groupBy(k)` + per-group folds ≡ `aggBy(k, fused-fold)`;
//! operationally the fused form never materializes groups and enables
//! combiner-side partial aggregation — the difference between the paper's
//! "finishes in minutes" and "times out after an hour" (Section 5.2).

use crate::bag_expr::BagExpr;
use crate::comprehension::{Comprehension, GenSource, Qual};
use crate::expr::{FoldOp, Lambda, ScalarExpr, TermMut};
use crate::freshen::NameGen;

/// Attempts fold-group fusion on every groupBy generator of the (normalized)
/// comprehension. Returns the number of groupBys fused.
pub fn fuse_fold_group(c: &mut Comprehension, gen: &mut NameGen) -> usize {
    let mut fused = 0;
    for qi in 0..c.quals.len() {
        let Qual::Gen(g) = &c.quals[qi] else { continue };
        let GenSource::Atom(BagExpr::GroupBy { input, key }) = &g.source else {
            continue;
        };
        let gvar = g.var.clone();
        let (input, key) = ((**input).clone(), key.clone());

        // Phase 1: validate all uses of the generator variable and collect
        // the fold chains over its group values.
        let mut folds: Vec<(BagExpr, FoldOp)> = Vec::new();
        let mut ok = collect(&c.head, &gvar, &mut folds);
        for q in &c.quals {
            match q {
                Qual::Guard(e) => ok &= collect(e, &gvar, &mut folds),
                Qual::Gen(other) if other.var != gvar => {
                    if let GenSource::Atom(b) = &other.source {
                        // Another generator ranging over this group's values
                        // (or otherwise touching g) blocks the rewrite.
                        if b.free_vars().contains(&gvar) {
                            ok = false;
                        }
                    }
                }
                Qual::Gen(_) => {}
            }
        }
        if !ok || folds.is_empty() {
            continue;
        }

        // Phase 2: fold-build fusion of each chain, then banana split.
        let fused_folds: Vec<FoldOp> = folds
            .iter()
            .map(|(chain, op)| FoldOp {
                kind: op.kind.clone(),
                zero: op.zero.clone(),
                sng: fuse_chain(chain, op.sng.clone(), &op.zero, &op.uni, gen),
                uni: op.uni.clone(),
            })
            .collect();
        let composite = FoldOp::banana_split(&fused_folds);

        // Phase 3: rewrite the generator source and substitute aggregate
        // slots for the original fold terms.
        let new_source = GenSource::Atom(BagExpr::AggBy {
            input: Box::new(input),
            key,
            fold: composite,
        });
        let mut counter = 0usize;
        rewrite(&mut c.head, &gvar, &mut counter);
        for q in &mut c.quals {
            if let Qual::Guard(e) = q {
                rewrite(e, &gvar, &mut counter);
            }
        }
        debug_assert_eq!(counter, folds.len(), "rewrite must visit every fold");
        if let Qual::Gen(g) = &mut c.quals[qi] {
            g.source = new_source;
        }
        fused += 1;
    }
    fused
}

/// Checks whether a bag expression is a chain of `map`/`filter`/`flatMap`
/// stages rooted at `g.values` (i.e. `OfValue(g.1)`), with no other
/// references to `g` inside the stage lambdas.
fn chain_rooted_at_values(b: &BagExpr, gvar: &str) -> bool {
    match b {
        BagExpr::OfValue(e) => {
            matches!(&**e, ScalarExpr::Field(inner, 1)
                if matches!(&**inner, ScalarExpr::Var(v) if v == gvar))
        }
        BagExpr::Map { input, f } | BagExpr::Filter { input, p: f } => {
            chain_rooted_at_values(input, gvar) && !f.free_vars().contains(gvar)
        }
        BagExpr::FlatMap { input, f } => {
            let mut fv = f.body.free_vars();
            fv.remove(&f.param);
            chain_rooted_at_values(input, gvar) && !fv.contains(gvar)
        }
        _ => false,
    }
}

/// Validates uses of `gvar` in `e` and collects candidate fold chains.
/// Returns `false` if `gvar` is used in a non-fusable way.
fn collect(e: &ScalarExpr, gvar: &str, folds: &mut Vec<(BagExpr, FoldOp)>) -> bool {
    match e {
        ScalarExpr::Fold(bag, op) if chain_rooted_at_values(bag, gvar) => {
            // The fold's own components must not capture the group variable.
            let clean = !op.zero.free_vars().contains(gvar)
                && !op.sng.free_vars().contains(gvar)
                && !op.uni.free_vars().contains(gvar);
            if clean {
                folds.push(((**bag).clone(), (**op).clone()));
                true
            } else {
                false
            }
        }
        // `g.key` access is always fine.
        ScalarExpr::Field(inner, 0) if matches!(&**inner, ScalarExpr::Var(v) if v == gvar) => true,
        // Any other direct reference to the group blocks fusion.
        ScalarExpr::Var(v) if v == gvar => false,
        ScalarExpr::Lit(_) | ScalarExpr::Var(_) => true,
        ScalarExpr::Field(inner, _) | ScalarExpr::UnOp(_, inner) => collect(inner, gvar, folds),
        ScalarExpr::BinOp(_, l, r) => collect(l, gvar, folds) && collect(r, gvar, folds),
        ScalarExpr::Call(_, args) | ScalarExpr::Tuple(args) => {
            args.iter().all(|a| collect(a, gvar, folds))
        }
        ScalarExpr::If(c, t, el) => {
            collect(c, gvar, folds) && collect(t, gvar, folds) && collect(el, gvar, folds)
        }
        ScalarExpr::Fold(bag, op) => {
            // A fold not rooted at g.values: its bag and components may still
            // reference g illegally.
            !bag.free_vars().contains(gvar)
                && !op.zero.free_vars().contains(gvar)
                && !op.sng.free_vars().contains(gvar)
                && !op.uni.free_vars().contains(gvar)
        }
        ScalarExpr::BagOf(bag) => !bag.free_vars().contains(gvar),
    }
}

/// Rewrites collected fold terms to aggregate-slot projections
/// `g.1.i` in discovery order (must mirror [`collect`]'s traversal).
fn rewrite(e: &mut ScalarExpr, gvar: &str, counter: &mut usize) {
    match e {
        ScalarExpr::Fold(bag, _) if chain_rooted_at_values(bag, gvar) => {
            *e = ScalarExpr::var(gvar).get(1).get(*counter);
            *counter += 1;
        }
        ScalarExpr::Fold(_, _) | ScalarExpr::BagOf(_) => {}
        // Every other node's children are scalars.
        _ => e.for_each_child_mut(|c| {
            if let TermMut::Scalar(c) = c {
                rewrite(c, gvar, counter)
            }
        }),
    }
}

/// Fold-build fusion of one chain: turns `chain-over-values` + `fold(sng)`
/// into a single `sng'` applied to *raw* group elements.
///
/// Walking outside-in, each `map f` pre-composes `f`, each `filter p`
/// contributes `zero` for dropped elements, and each `flatMap f` folds the
/// locally produced bag (a nested fold with the same algebra).
fn fuse_chain(
    chain: &BagExpr,
    post: Lambda,
    zero: &ScalarExpr,
    uni: &Lambda,
    gen: &mut NameGen,
) -> Lambda {
    match chain {
        BagExpr::OfValue(_) => post,
        BagExpr::Map { input, f } => {
            let p = gen.fresh("e");
            let new_post = Lambda {
                params: vec![p.clone()],
                body: post.apply(&[f.apply(&[ScalarExpr::var(p)])]),
            };
            fuse_chain(input, new_post, zero, uni, gen)
        }
        BagExpr::Filter { input, p: pred } => {
            let p = gen.fresh("e");
            let body = ScalarExpr::If(
                Box::new(pred.apply(&[ScalarExpr::var(p.clone())])),
                Box::new(post.apply(&[ScalarExpr::var(p.clone())])),
                Box::new(zero.clone()),
            );
            let new_post = Lambda {
                params: vec![p],
                body,
            };
            fuse_chain(input, new_post, zero, uni, gen)
        }
        BagExpr::FlatMap { input, f } => {
            let p = gen.fresh("e");
            let inner_bag = f.body.substitute(&f.param, &ScalarExpr::var(p.clone()));
            let body = ScalarExpr::Fold(
                Box::new(inner_bag),
                Box::new(FoldOp::custom(zero.clone(), post.clone(), uni.clone())),
            );
            let new_post = Lambda {
                params: vec![p],
                body,
            };
            fuse_chain(input, new_post, zero, uni, gen)
        }
        other => unreachable!("validated chain contained {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comprehension::{normalize, resugar, NormalizeOpts};
    use crate::freshen::freshen_bag;
    use std::collections::HashMap;

    /// The k-means newCtrds shape: for (g <- xs.groupBy(_.0)) yield
    /// (g.key, g.values.map(_.1).sum() / g.values.count()).
    fn group_fold_comp() -> (Comprehension, NameGen) {
        let e = BagExpr::read("xs")
            .group_by(Lambda::new(["x"], ScalarExpr::var("x").get(0)))
            .map(Lambda::new(
                ["g"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("g").get(0),
                    BagExpr::of_value(ScalarExpr::var("g").get(1))
                        .map(Lambda::new(["v"], ScalarExpr::var("v").get(1)))
                        .sum()
                        .div(BagExpr::of_value(ScalarExpr::var("g").get(1)).count()),
                ]),
            ));
        let mut gen = NameGen::new();
        let e = freshen_bag(&e, &HashMap::new(), &mut gen);
        let c = resugar(&e, &mut gen);
        let (n, _) = normalize(c, NormalizeOpts::default(), &mut gen);
        (n, gen)
    }

    #[test]
    fn fuses_group_by_with_two_folds() {
        let (mut c, mut gen) = group_fold_comp();
        let fused = fuse_fold_group(&mut c, &mut gen);
        assert_eq!(fused, 1);
        // Generator source is now an AggBy with a banana-split fold.
        let Qual::Gen(g) = &c.quals[0] else {
            panic!("expected generator")
        };
        match &g.source {
            GenSource::Atom(BagExpr::AggBy { fold, .. }) => {
                assert_eq!(fold.kind, crate::expr::FoldKind::BananaSplit);
            }
            other => panic!("expected AggBy source, got {other:?}"),
        }
        // Head no longer contains any fold terms.
        fn has_fold(e: &ScalarExpr) -> bool {
            match e {
                ScalarExpr::Fold(_, _) => true,
                ScalarExpr::Field(i, _) | ScalarExpr::UnOp(_, i) => has_fold(i),
                ScalarExpr::BinOp(_, l, r) => has_fold(l) || has_fold(r),
                ScalarExpr::Call(_, a) | ScalarExpr::Tuple(a) => a.iter().any(has_fold),
                ScalarExpr::If(c, t, e) => has_fold(c) || has_fold(t) || has_fold(e),
                _ => false,
            }
        }
        assert!(!has_fold(&c.head), "head still has folds: {}", c.head);
    }

    #[test]
    fn group_values_escaping_blocks_fusion() {
        // for (g <- xs.groupBy(_.0)) yield (g.key, g.values) — the values
        // escape as a bag; fusion must not fire.
        let e = BagExpr::read("xs")
            .group_by(Lambda::new(["x"], ScalarExpr::var("x").get(0)))
            .map(Lambda::new(
                ["g"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("g").get(0),
                    ScalarExpr::var("g").get(1),
                ]),
            ));
        let mut gen = NameGen::new();
        let e = freshen_bag(&e, &HashMap::new(), &mut gen);
        let c = resugar(&e, &mut gen);
        let (mut n, _) = normalize(c, NormalizeOpts::default(), &mut gen);
        assert_eq!(fuse_fold_group(&mut n, &mut gen), 0);
    }

    #[test]
    fn filter_inside_chain_is_fused_with_zero_default() {
        // g.values.filter(_.1 > 0).count()
        let e = BagExpr::read("xs")
            .group_by(Lambda::new(["x"], ScalarExpr::var("x").get(0)))
            .map(Lambda::new(
                ["g"],
                BagExpr::of_value(ScalarExpr::var("g").get(1))
                    .filter(Lambda::new(
                        ["v"],
                        ScalarExpr::var("v").get(1).gt(ScalarExpr::lit(0i64)),
                    ))
                    .count(),
            ));
        let mut gen = NameGen::new();
        let e = freshen_bag(&e, &HashMap::new(), &mut gen);
        let c = resugar(&e, &mut gen);
        let (mut n, _) = normalize(c, NormalizeOpts::default(), &mut gen);
        assert_eq!(fuse_fold_group(&mut n, &mut gen), 1);
    }

    #[test]
    fn semantics_preserved_by_fusion() {
        use crate::comprehension::desugar;
        use crate::interp::{eval_bag, Catalog, Env};
        use crate::value::Value;

        let rows: Vec<Value> = (0..40)
            .map(|i| Value::tuple(vec![Value::Int(i % 5), Value::Int(i)]))
            .collect();
        let catalog = Catalog::new().with("xs", rows);

        let (mut c, mut gen) = group_fold_comp();
        let unfused_bag = desugar(&c, &mut gen);
        assert_eq!(fuse_fold_group(&mut c, &mut gen), 1);
        let fused_bag = desugar(&c, &mut gen);

        let base = HashMap::new();
        let mut env = Env::new(&base);
        let a = eval_bag(&unfused_bag, &mut env, &catalog).unwrap();
        let b = eval_bag(&fused_bag, &mut env, &catalog).unwrap();
        assert_eq!(Value::bag(a), Value::bag(b));
    }
}
