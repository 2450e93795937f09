//! Monad comprehensions: the core intermediate representation
//! (paper, Sections 2.2.3 and 4.1).
//!
//! A comprehension `[[ e | qs ]]^T` consists of a *head* `e`, a sequence of
//! *qualifiers* `qs` (generators `x ← xs` and guards `p`), and a *monad* `T`
//! (bag construction, flattened bag construction, or a fold algebra).
//!
//! This module implements:
//!
//! * **MC⁻¹ resugaring** ([`resugar`]): recovering comprehensions from
//!   desugared `map`/`flatMap`/`withFilter`/`fold` chains — the inverse of
//!   Scala's for-comprehension desugaring;
//! * **normalization** ([`normalize`]): the paper's three rewrite rules —
//!   head unnesting of `flatten`, generator unnesting (compile-time *fusion*
//!   of map/fold chains), and `exists`-unnesting (the generalization of
//!   Kim's type-N optimization that turns nested existential predicates into
//!   join opportunities).
//!
//! Generators introduced by exists-unnesting carry a [`SemiKind`] marker so
//! the combinator lowering can emit semi/anti-joins, preserving the
//! multiplicity semantics of the original predicate.

use std::collections::HashSet;
use std::fmt;

use crate::bag_expr::BagExpr;
use crate::expr::{BinOp, FoldKind, FoldOp, Lambda, ScalarExpr, TermMut, UnOp};
use crate::freshen::NameGen;

/// The monad a comprehension constructs its result in.
#[derive(Clone, Debug, PartialEq)]
pub enum Monad {
    /// `[[ e | qs ]]^Bag` — construct a bag of head values.
    Bag,
    /// `flatten [[ e | qs ]]` — the head is bag-valued; union the heads.
    FlattenBag,
    /// `[[ e | qs ]]^fold` — evaluate the head values with a fold algebra.
    Fold(FoldOp),
}

/// How an existentially introduced generator joins with the rest of the
/// comprehension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SemiKind {
    /// From a positive `exists` — lowers to a left semi-join.
    Exists,
    /// From a negated `exists` — lowers to a left anti-join.
    NotExists,
}

/// A generator source: an atomic bag expression, or a nested comprehension
/// (before normalization splices it away).
#[derive(Clone, Debug, PartialEq)]
pub enum GenSource {
    /// A non-comprehended bag term (`Read`, `Ref`, `GroupBy`, …).
    Atom(BagExpr),
    /// A nested comprehension.
    Comp(Box<Comprehension>),
}

/// A generator qualifier `var ← source`.
#[derive(Clone, Debug, PartialEq)]
pub struct Generator {
    /// The bound variable.
    pub var: String,
    /// Where the values come from.
    pub source: GenSource,
    /// Set when this generator was introduced by exists-unnesting.
    pub semi: Option<SemiKind>,
}

/// A qualifier: generator or guard.
#[derive(Clone, Debug, PartialEq)]
pub enum Qual {
    /// `x ← xs`.
    Gen(Generator),
    /// A boolean filter.
    Guard(ScalarExpr),
}

/// A monad comprehension `[[ head | quals ]]^monad`.
#[derive(Clone, Debug, PartialEq)]
pub struct Comprehension {
    /// The head expression (bag-valued for [`Monad::FlattenBag`]).
    pub head: ScalarExpr,
    /// Qualifiers, in dependency order.
    pub quals: Vec<Qual>,
    /// The target monad.
    pub monad: Monad,
}

impl Comprehension {
    /// Variables bound by this comprehension's generators.
    pub fn gen_vars(&self) -> HashSet<String> {
        self.quals
            .iter()
            .filter_map(|q| match q {
                Qual::Gen(g) => Some(g.var.clone()),
                Qual::Guard(_) => None,
            })
            .collect()
    }
}

/// True if the bag expression is "comprehendable": it desugars from
/// comprehension syntax and will be resugared rather than treated atomically.
fn is_comprehended(e: &BagExpr) -> bool {
    matches!(
        e,
        BagExpr::Map { .. } | BagExpr::Filter { .. } | BagExpr::FlatMap { .. }
    )
}

/// Resugars the source position of a generator.
pub fn resugar_source(e: &BagExpr, gen: &mut NameGen) -> GenSource {
    if is_comprehended(e) {
        GenSource::Comp(Box::new(resugar(e, gen)))
    } else {
        GenSource::Atom(e.clone())
    }
}

/// MC⁻¹: recovers a comprehension from an operator chain (paper, the
/// translation scheme in Section 4.1):
///
/// ```text
/// t0.map(x ⟼ t)        ⇒ [[ t | x ← MC⁻¹(t0) ]]^Bag
/// t0.withFilter(x ⟼ t) ⇒ [[ x | x ← MC⁻¹(t0), t ]]^Bag
/// t0.flatMap(x ⟼ t)    ⇒ flatten [[ t | x ← MC⁻¹(t0) ]]^Bag
/// t0.fold(e, s, u)      ⇒ [[ x | x ← MC⁻¹(t0) ]]^fold(e,s,u)
/// ```
pub fn resugar(e: &BagExpr, gen: &mut NameGen) -> Comprehension {
    match e {
        BagExpr::Map { input, f } => Comprehension {
            head: f.body.clone(),
            quals: vec![Qual::Gen(Generator {
                var: f.params[0].clone(),
                source: resugar_source(input, gen),
                semi: None,
            })],
            monad: Monad::Bag,
        },
        BagExpr::Filter { input, p } => Comprehension {
            head: ScalarExpr::var(p.params[0].clone()),
            quals: vec![
                Qual::Gen(Generator {
                    var: p.params[0].clone(),
                    source: resugar_source(input, gen),
                    semi: None,
                }),
                Qual::Guard(p.body.clone()),
            ],
            monad: Monad::Bag,
        },
        BagExpr::FlatMap { input, f } => Comprehension {
            head: ScalarExpr::BagOf(Box::new(f.body.clone())),
            quals: vec![Qual::Gen(Generator {
                var: f.param.clone(),
                source: resugar_source(input, gen),
                semi: None,
            })],
            monad: Monad::FlattenBag,
        },
        atom => {
            let v = gen.fresh("x");
            Comprehension {
                head: ScalarExpr::var(v.clone()),
                quals: vec![Qual::Gen(Generator {
                    var: v,
                    source: GenSource::Atom(atom.clone()),
                    semi: None,
                })],
                monad: Monad::Bag,
            }
        }
    }
}

/// Resugars a terminal fold `t0.fold(e, s, u)` into
/// `[[ x | x ← MC⁻¹(t0) ]]^fold`.
pub fn resugar_fold(bag: &BagExpr, op: &FoldOp, gen: &mut NameGen) -> Comprehension {
    let v = gen.fresh("x");
    Comprehension {
        head: ScalarExpr::var(v.clone()),
        quals: vec![Qual::Gen(Generator {
            var: v,
            source: resugar_source(bag, gen),
            semi: None,
        })],
        monad: Monad::Fold(op.clone()),
    }
}

/// Options controlling which normalization rules fire.
#[derive(Clone, Copy, Debug)]
pub struct NormalizeOpts {
    /// Enable the head/generator unnesting (fusion) rules.
    pub fusion: bool,
    /// Enable exists-unnesting of nested existential guards.
    pub unnest_exists: bool,
}

impl Default for NormalizeOpts {
    fn default() -> Self {
        NormalizeOpts {
            fusion: true,
            unnest_exists: true,
        }
    }
}

/// Statistics of a normalization run (feeds the optimization report).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NormalizeStats {
    /// Generator/head unnesting (fusion) rule applications.
    pub fusions: usize,
    /// Exists-unnesting rule applications.
    pub exists_unnested: usize,
}

/// Normalizes a comprehension to a flat form whose generators are all atoms:
/// applies guard splitting and the paper's three rewrite rules to fixpoint.
pub fn normalize(
    mut c: Comprehension,
    opts: NormalizeOpts,
    gen: &mut NameGen,
) -> (Comprehension, NormalizeStats) {
    let mut stats = NormalizeStats::default();
    // First normalize nested comprehensions bottom-up.
    for q in &mut c.quals {
        if let Qual::Gen(g) = q {
            if let GenSource::Comp(inner) = &g.source {
                let (norm, inner_stats) = normalize((**inner).clone(), opts, gen);
                stats.fusions += inner_stats.fusions;
                stats.exists_unnested += inner_stats.exists_unnested;
                g.source = GenSource::Comp(Box::new(norm));
            }
        }
    }

    let mut changed = true;
    let mut rounds = 0usize;
    while changed {
        changed = false;
        rounds += 1;
        assert!(rounds < 10_000, "comprehension normalization diverged");

        if split_guards(&mut c) {
            changed = true;
            continue;
        }
        if opts.fusion && unnest_generator(&mut c, opts, gen, &mut stats) {
            changed = true;
            continue;
        }
        if opts.fusion && unnest_flatten_head(&mut c, gen, &mut stats) {
            changed = true;
            continue;
        }
        if opts.unnest_exists && unnest_exists(&mut c, gen, &mut stats) {
            changed = true;
            continue;
        }
    }
    (c, stats)
}

/// Splits conjunction guards: `Guard(a ∧ b) ⇒ Guard(a), Guard(b)`.
fn split_guards(c: &mut Comprehension) -> bool {
    for (i, q) in c.quals.iter().enumerate() {
        if let Qual::Guard(ScalarExpr::BinOp(BinOp::And, a, b)) = q {
            let (a, b) = ((**a).clone(), (**b).clone());
            c.quals.splice(i..=i, [Qual::Guard(a), Qual::Guard(b)]);
            return true;
        }
    }
    false
}

/// Rule 2 of the paper:
/// `[[ t | qs, x ← [[ t' | qs' ]], qs'' ]] ⇒ [[ t[t'/x] | qs, qs', qs''[t'/x] ]]`.
///
/// This performs *fusion* at compile time: map and fold chains collapse into
/// a single comprehension and will execute as one task.
fn unnest_generator(
    c: &mut Comprehension,
    opts: NormalizeOpts,
    gen: &mut NameGen,
    stats: &mut NormalizeStats,
) -> bool {
    for i in 0..c.quals.len() {
        let Qual::Gen(g) = &c.quals[i] else { continue };
        let GenSource::Comp(inner) = &g.source else {
            continue;
        };
        match inner.monad {
            Monad::Bag => {
                let var = g.var.clone();
                let semi = g.semi;
                let inner = (**inner).clone();
                // Substitute the inner head for the generator variable in
                // all subsequent qualifiers and in the head.
                let head_expr = inner.head.clone();
                let mut new_quals: Vec<Qual> =
                    Vec::with_capacity(c.quals.len() + inner.quals.len());
                new_quals.extend_from_slice(&c.quals[..i]);
                // Splice the inner qualifiers. If the outer generator was
                // existential, its replacement generators inherit the marker
                // (an element "exists" iff the underlying elements do).
                for q in inner.quals {
                    match q {
                        Qual::Gen(mut ig) => {
                            if semi.is_some() && ig.semi.is_none() {
                                ig.semi = semi;
                            }
                            new_quals.push(Qual::Gen(ig));
                        }
                        guard => new_quals.push(guard),
                    }
                }
                for q in &c.quals[i + 1..] {
                    let mut q = q.clone();
                    substitute_in_qual(&mut q, &var, &head_expr);
                    new_quals.push(q);
                }
                TermMut::Scalar(&mut c.head).substitute(&var, &head_expr);
                c.quals = new_quals;
                stats.fusions += 1;
                return true;
            }
            Monad::FlattenBag => {
                // `x ← flatten [[ b | qs' ]]` ⇒ `qs', x ← b`.
                let var = g.var.clone();
                let semi = g.semi;
                let inner = (**inner).clone();
                let bag_head = match inner.head {
                    ScalarExpr::BagOf(b) => *b,
                    other => BagExpr::OfValue(Box::new(other)),
                };
                let mut new_quals: Vec<Qual> =
                    Vec::with_capacity(c.quals.len() + inner.quals.len());
                new_quals.extend_from_slice(&c.quals[..i]);
                for q in inner.quals {
                    match q {
                        Qual::Gen(mut ig) => {
                            if semi.is_some() && ig.semi.is_none() {
                                ig.semi = semi;
                            }
                            new_quals.push(Qual::Gen(ig));
                        }
                        guard => new_quals.push(guard),
                    }
                }
                new_quals.push(Qual::Gen(Generator {
                    var,
                    source: {
                        let src = resugar_source(&bag_head, gen);
                        if let GenSource::Comp(inner2) = src {
                            let (norm, s2) = normalize((*inner2).clone(), opts, gen);
                            stats.fusions += s2.fusions;
                            stats.exists_unnested += s2.exists_unnested;
                            GenSource::Comp(Box::new(norm))
                        } else {
                            src
                        }
                    },
                    semi,
                }));
                new_quals.extend_from_slice(&c.quals[i + 1..]);
                c.quals = new_quals;
                stats.fusions += 1;
                return true;
            }
            Monad::Fold(_) => {
                // A fold is scalar-valued; it cannot be a generator source.
                // (Construction never produces this.)
                continue;
            }
        }
    }
    false
}

/// Rule 1 of the paper:
/// `flatten [[ [[ e | qs' ]] | qs ]] ⇒ [[ e | qs, qs' ]]`.
fn unnest_flatten_head(
    c: &mut Comprehension,
    gen: &mut NameGen,
    stats: &mut NormalizeStats,
) -> bool {
    if c.monad != Monad::FlattenBag {
        return false;
    }
    let ScalarExpr::BagOf(b) = &c.head else {
        return false;
    };
    let inner = resugar(b, gen);
    // The inner comprehension references outer generator variables; its
    // qualifiers are appended *after* the outer ones, so scoping holds.
    c.quals.extend(inner.quals);
    c.head = inner.head;
    c.monad = match inner.monad {
        Monad::Bag => Monad::Bag,
        Monad::FlattenBag => Monad::FlattenBag,
        Monad::Fold(_) => unreachable!("resugar of a bag never yields a fold comprehension"),
    };
    stats.fusions += 1;
    true
}

/// Rule 3 of the paper (exists-unnesting, generalizing Kim's type-N):
/// `[[ e | qs, [[ p | qs'' ]]^exists, qs' ]] ⇒ [[ e | qs, qs'', p, qs' ]]`.
///
/// A guard of the form `bag.exists(p)` (or its negation) whose bag does not
/// depend on the comprehension's own generators is replaced by an
/// existentially marked generator over the bag plus the predicate as a plain
/// guard. Lowering turns the marked generator into a semi-/anti-join, letting
/// the runtime choose broadcast vs. repartition strategies instead of
/// hard-coding a broadcast in the user's filter (Section 4.2.1).
fn unnest_exists(c: &mut Comprehension, gen: &mut NameGen, stats: &mut NormalizeStats) -> bool {
    let gen_vars = c.gen_vars();
    for i in 0..c.quals.len() {
        let Qual::Guard(g) = &c.quals[i] else {
            continue;
        };
        let (fold_term, negated) = match g {
            ScalarExpr::Fold(bag, op) if op.kind == FoldKind::Exists => ((bag, op), false),
            ScalarExpr::UnOp(UnOp::Not, inner) => match &**inner {
                ScalarExpr::Fold(bag, op) if op.kind == FoldKind::Exists => ((bag, op), true),
                _ => continue,
            },
            _ => continue,
        };
        let (bag, op) = fold_term;
        // The inner bag must be independent of this comprehension's
        // generators; a correlated *predicate* is fine (that is the join
        // condition), a correlated *source* is not unnestable here.
        if bag.free_vars().intersection(&gen_vars).next().is_some() {
            continue;
        }
        let bag = (**bag).clone();
        let pred = op.sng.clone();
        let var = gen.fresh("ex");
        let guard = pred.apply(&[ScalarExpr::var(var.clone())]);
        let kind = if negated {
            SemiKind::NotExists
        } else {
            SemiKind::Exists
        };
        let generator = Qual::Gen(Generator {
            var,
            source: resugar_source(&bag, gen),
            semi: Some(kind),
        });
        c.quals.splice(i..=i, [generator, Qual::Guard(guard)]);
        stats.exists_unnested += 1;
        return true;
    }
    false
}

/// Reifies a (bag- or flatten-monad) comprehension back into an operator
/// chain — the forward desugaring that Scala's compiler performs on
/// for-comprehensions. Used for dependent generator bodies during lowering
/// and for semantics-preservation tests (`desugar ∘ normalize ∘ resugar`
/// must be observationally equal to the original chain).
///
/// # Panics
///
/// On fold-monad comprehensions and on existential generators (which have no
/// direct operator-chain form; they arise only from exists-unnesting and are
/// consumed by semi-join lowering).
pub fn desugar(c: &Comprehension, gen: &mut NameGen) -> BagExpr {
    assert!(
        !matches!(c.monad, Monad::Fold(_)),
        "cannot desugar a fold comprehension to a bag expression"
    );
    let flatten = c.monad == Monad::FlattenBag;
    go(&c.quals, &c.head, flatten, gen)
}

fn go(quals: &[Qual], head: &ScalarExpr, flatten: bool, gen: &mut NameGen) -> BagExpr {
    // Find the first generator; guards before it are generator-independent
    // and are folded into that generator's filter.
    let first_gen = quals
        .iter()
        .position(|q| matches!(q, Qual::Gen(_)))
        .expect("comprehension without a generator");
    let leading_guards: Vec<&ScalarExpr> = quals[..first_gen]
        .iter()
        .map(|q| match q {
            Qual::Guard(g) => g,
            Qual::Gen(_) => unreachable!(),
        })
        .collect();
    let Qual::Gen(g) = &quals[first_gen] else {
        unreachable!()
    };
    assert!(
        g.semi.is_none(),
        "cannot desugar an existential generator; lower it to a semi-join instead"
    );
    let mut src = match &g.source {
        GenSource::Atom(b) => b.clone(),
        GenSource::Comp(inner) => desugar(inner, gen),
    };
    // Guards immediately following this generator (before the next one)
    // filter it; they may reference enclosing generators lexically.
    let mut i = first_gen + 1;
    let mut filters: Vec<ScalarExpr> = leading_guards.into_iter().cloned().collect();
    while i < quals.len() {
        match &quals[i] {
            Qual::Guard(p) => filters.push(p.clone()),
            Qual::Gen(_) => break,
        }
        i += 1;
    }
    if !filters.is_empty() {
        let pred = filters
            .into_iter()
            .reduce(|a, b| a.and(b))
            .expect("non-empty filters");
        src = src.filter(Lambda {
            params: vec![g.var.clone()],
            body: pred,
        });
    }
    let rest = &quals[i..];
    if rest.iter().any(|q| matches!(q, Qual::Gen(_))) {
        src.flat_map(crate::bag_expr::BagLambda {
            param: g.var.clone(),
            body: go(rest, head, flatten, gen),
        })
    } else if flatten {
        let body = match head {
            ScalarExpr::BagOf(b) => (**b).clone(),
            other => BagExpr::OfValue(Box::new(other.clone())),
        };
        src.flat_map(crate::bag_expr::BagLambda {
            param: g.var.clone(),
            body,
        })
    } else if *head == ScalarExpr::var(g.var.clone()) {
        src
    } else {
        src.map(Lambda {
            params: vec![g.var.clone()],
            body: head.clone(),
        })
    }
}

fn substitute_in_qual(q: &mut Qual, var: &str, replacement: &ScalarExpr) {
    match q {
        Qual::Guard(g) => TermMut::Scalar(g).substitute(var, replacement),
        Qual::Gen(g) => match &mut g.source {
            GenSource::Atom(b) => TermMut::Bag(b).substitute(var, replacement),
            GenSource::Comp(c) => {
                TermMut::Scalar(&mut c.head).substitute(var, replacement);
                for q in &mut c.quals {
                    substitute_in_qual(q, var, replacement);
                }
            }
        },
    }
}

impl fmt::Display for Comprehension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.monad == Monad::FlattenBag {
            write!(f, "flatten ")?;
        }
        write!(f, "[[ {} | ", self.head)?;
        for (i, q) in self.quals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match q {
                Qual::Gen(g) => {
                    let marker = match g.semi {
                        Some(SemiKind::Exists) => "∃",
                        Some(SemiKind::NotExists) => "∄",
                        None => "",
                    };
                    match &g.source {
                        GenSource::Atom(b) => write!(f, "{}{} ← {}", marker, g.var, b)?,
                        GenSource::Comp(c) => write!(f, "{}{} ← {}", marker, g.var, c)?,
                    }
                }
                Qual::Guard(g) => write!(f, "{g}")?,
            }
        }
        match &self.monad {
            Monad::Bag | Monad::FlattenBag => write!(f, " ]]"),
            Monad::Fold(op) => write!(f, " ]]^fold[{:?}]", op.kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshen::freshen_bag;
    use std::collections::HashMap;

    fn fresh(e: &BagExpr) -> (BagExpr, NameGen) {
        let mut gen = NameGen::new();
        let f = freshen_bag(e, &HashMap::new(), &mut gen);
        (f, gen)
    }

    fn atoms_only(c: &Comprehension) -> bool {
        c.quals.iter().all(|q| match q {
            Qual::Gen(g) => matches!(g.source, GenSource::Atom(_)),
            Qual::Guard(_) => true,
        })
    }

    #[test]
    fn resugar_map_produces_single_generator() {
        let e = BagExpr::read("xs").map(Lambda::new(["x"], ScalarExpr::var("x").get(0)));
        let (e, mut gen) = fresh(&e);
        let c = resugar(&e, &mut gen);
        assert_eq!(c.monad, Monad::Bag);
        assert_eq!(c.quals.len(), 1);
    }

    #[test]
    fn normalization_fuses_map_chains() {
        // xs.map(f).map(g) should normalize to one comprehension over xs.
        let e = BagExpr::read("xs")
            .map(Lambda::new(
                ["x"],
                ScalarExpr::var("x").add(ScalarExpr::lit(1i64)),
            ))
            .map(Lambda::new(
                ["y"],
                ScalarExpr::var("y").mul(ScalarExpr::lit(2i64)),
            ));
        let (e, mut gen) = fresh(&e);
        let c = resugar(&e, &mut gen);
        let (n, stats) = normalize(c, NormalizeOpts::default(), &mut gen);
        assert!(stats.fusions >= 1);
        assert!(atoms_only(&n));
        assert_eq!(n.quals.len(), 1, "fused into a single generator: {n}");
        // Head is g(f(x)) = (x + 1) * 2.
        match &n.head {
            ScalarExpr::BinOp(BinOp::Mul, l, _) => {
                assert!(matches!(**l, ScalarExpr::BinOp(BinOp::Add, _, _)))
            }
            other => panic!("expected fused head, got {other:?}"),
        }
    }

    #[test]
    fn normalization_flattens_flat_map_join_shape() {
        // ctrds.flatMap(x => newCtrds.withFilter(y => x.0 == y.0).map(y => x.1 - y.1))
        let inner = BagExpr::var("newCtrds")
            .filter(Lambda::new(
                ["y"],
                ScalarExpr::var("x").get(0).eq(ScalarExpr::var("y").get(0)),
            ))
            .map(Lambda::new(
                ["y"],
                ScalarExpr::var("x").get(1).sub(ScalarExpr::var("y").get(1)),
            ));
        let e = BagExpr::var("ctrds").flat_map(crate::bag_expr::BagLambda::new("x", inner));
        let (e, mut gen) = fresh(&e);
        let c = resugar(&e, &mut gen);
        let (n, _) = normalize(c, NormalizeOpts::default(), &mut gen);
        assert_eq!(n.monad, Monad::Bag, "flatten eliminated: {n}");
        assert!(atoms_only(&n));
        // Expect exactly two generators and one guard — the paper's
        // [[ dist(x,y) | x ← ctrds, y ← newCtrds, x.id = y.id ]] shape.
        let gens = n.quals.iter().filter(|q| matches!(q, Qual::Gen(_))).count();
        let guards = n
            .quals
            .iter()
            .filter(|q| matches!(q, Qual::Guard(_)))
            .count();
        assert_eq!((gens, guards), (2, 1), "{n}");
    }

    #[test]
    fn exists_guard_is_unnested_to_semi_generator() {
        // emails.withFilter(e => bl.exists(l => l.0 == e.0))
        let e = BagExpr::read("emails").filter(Lambda::new(
            ["e"],
            BagExpr::read("blacklist").exists(Lambda::new(
                ["l"],
                ScalarExpr::var("l").get(0).eq(ScalarExpr::var("e").get(0)),
            )),
        ));
        let (e, mut gen) = fresh(&e);
        let c = resugar(&e, &mut gen);
        let (n, stats) = normalize(c, NormalizeOpts::default(), &mut gen);
        assert_eq!(stats.exists_unnested, 1);
        let semi_gens: Vec<&Generator> = n
            .quals
            .iter()
            .filter_map(|q| match q {
                Qual::Gen(g) if g.semi == Some(SemiKind::Exists) => Some(g),
                _ => None,
            })
            .collect();
        assert_eq!(semi_gens.len(), 1, "{n}");
    }

    #[test]
    fn negated_exists_becomes_anti_generator() {
        let e = BagExpr::read("emails").filter(Lambda::new(
            ["e"],
            BagExpr::read("blacklist")
                .exists(Lambda::new(
                    ["l"],
                    ScalarExpr::var("l").get(0).eq(ScalarExpr::var("e").get(0)),
                ))
                .not(),
        ));
        let (e, mut gen) = fresh(&e);
        let c = resugar(&e, &mut gen);
        let (n, stats) = normalize(c, NormalizeOpts::default(), &mut gen);
        assert_eq!(stats.exists_unnested, 1);
        assert!(n.quals.iter().any(|q| matches!(
            q,
            Qual::Gen(Generator {
                semi: Some(SemiKind::NotExists),
                ..
            })
        )));
    }

    #[test]
    fn correlated_exists_source_is_not_unnested() {
        // xs.filter(x => bagOf(x.1).exists(...)) — the bag depends on x.
        let e = BagExpr::read("xs").filter(Lambda::new(
            ["x"],
            BagExpr::of_value(ScalarExpr::var("x").get(1)).exists(Lambda::new(
                ["y"],
                ScalarExpr::var("y").gt(ScalarExpr::lit(0i64)),
            )),
        ));
        let (e, mut gen) = fresh(&e);
        let c = resugar(&e, &mut gen);
        let (n, stats) = normalize(c, NormalizeOpts::default(), &mut gen);
        assert_eq!(stats.exists_unnested, 0, "{n}");
    }

    #[test]
    fn exists_unnesting_can_be_disabled() {
        let e = BagExpr::read("emails").filter(Lambda::new(
            ["e"],
            BagExpr::read("blacklist").exists(Lambda::new(
                ["l"],
                ScalarExpr::var("l").eq(ScalarExpr::var("e")),
            )),
        ));
        let (e, mut gen) = fresh(&e);
        let c = resugar(&e, &mut gen);
        let opts = NormalizeOpts {
            fusion: true,
            unnest_exists: false,
        };
        let (n, stats) = normalize(c, opts, &mut gen);
        assert_eq!(stats.exists_unnested, 0);
        // The exists stays as a guard — it will be evaluated with a
        // broadcast of the blacklist.
        assert!(n
            .quals
            .iter()
            .any(|q| matches!(q, Qual::Guard(ScalarExpr::Fold(_, _)))));
    }

    #[test]
    fn conjunction_guards_are_split() {
        let e = BagExpr::read("xs").filter(Lambda::new(
            ["x"],
            ScalarExpr::var("x")
                .get(0)
                .gt(ScalarExpr::lit(0i64))
                .and(ScalarExpr::var("x").get(1).lt(ScalarExpr::lit(9i64))),
        ));
        let (e, mut gen) = fresh(&e);
        let c = resugar(&e, &mut gen);
        let (n, _) = normalize(c, NormalizeOpts::default(), &mut gen);
        let guards = n
            .quals
            .iter()
            .filter(|q| matches!(q, Qual::Guard(_)))
            .count();
        assert_eq!(guards, 2);
    }

    #[test]
    fn display_uses_paper_notation() {
        let e = BagExpr::read("xs").map(Lambda::new(["x"], ScalarExpr::var("x")));
        let (e, mut gen) = fresh(&e);
        let c = resugar(&e, &mut gen);
        let s = c.to_string();
        assert!(s.starts_with("[[ "), "{s}");
        assert!(s.contains("←"), "{s}");
    }
}
