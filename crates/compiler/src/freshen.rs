//! Alpha-renaming of binders to globally fresh names.
//!
//! Comprehension normalization splices qualifier lists from different
//! comprehensions together and substitutes heads into other comprehensions'
//! bodies. Doing this hygienically requires that no two binders in the whole
//! program share a name. This pass renames every lambda parameter and
//! `flatMap` binder to a unique `name$N` form before the pipeline starts;
//! driver-level variable names (which live in a single global scope) are left
//! untouched.

use std::collections::HashMap;

use crate::bag_expr::BagExpr;
use crate::expr::{ScalarExpr, TermMut};
use crate::program::{Program, Stmt};

/// Monotone counter handing out fresh binder names.
#[derive(Debug, Default)]
pub struct NameGen {
    next: usize,
}

impl NameGen {
    /// Creates a fresh-name generator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh name derived from `base` (its pre-`$` stem).
    pub fn fresh(&mut self, base: &str) -> String {
        let stem = base.split('$').next().unwrap_or(base);
        self.next += 1;
        format!("{stem}${}", self.next)
    }
}

/// Environment mapping in-scope original binder names to their fresh names.
type Scope = HashMap<String, String>;

/// Freshens all binders in a program.
pub fn freshen_program(p: &Program, gen: &mut NameGen) -> Program {
    let mut p = p.clone();
    freshen_stmts(&mut p.body, gen);
    p
}

fn freshen_stmts(stmts: &mut [Stmt], gen: &mut NameGen) {
    for s in stmts {
        // Statement-level names (bindings, the ForEach variable) live in the
        // driver's single global scope: not renamed.
        s.for_each_term_mut(|t| freshen(t, &mut Vec::new(), gen));
        s.blocks_mut().for_each(|b| freshen_stmts(b, gen));
    }
}

/// Freshens binders in a standalone bag expression; `scope` renames the
/// variables it maps.
pub fn freshen_bag(b: &BagExpr, scope: &Scope, gen: &mut NameGen) -> BagExpr {
    let mut b = b.clone();
    let mut scope: Vec<(String, String)> = scope.clone().into_iter().collect();
    freshen(TermMut::Bag(&mut b), &mut scope, gen);
    b
}

/// Renames every binder below `t` in visit order, and every variable or bag
/// reference to the innermost in-scope binder of its name. `scope` is a
/// stack of (original, fresh) pairs.
fn freshen(mut t: TermMut<'_>, scope: &mut Vec<(String, String)>, gen: &mut NameGen) {
    if let TermMut::Scalar(ScalarExpr::Var(name)) | TermMut::Bag(BagExpr::Ref { name }) = &mut t {
        if let Some((_, fresh)) = scope.iter().rev().find(|(old, _)| old == name) {
            name.clone_from(fresh);
        }
        return;
    }
    let depth = scope.len();
    for p in t.binders() {
        let fresh = gen.fresh(p);
        scope.push((std::mem::replace(p, fresh.clone()), fresh));
    }
    t.for_each_child(|c| freshen(c, scope, gen));
    scope.truncate(depth);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{FoldOp, Lambda, Term};
    use std::collections::HashSet;

    /// Collects all binder names in a bag expression.
    fn binders(b: &BagExpr, out: &mut Vec<String>) {
        Term::Bag(b).walk(&mut |t| out.extend(t.binders().iter().cloned()));
    }

    #[test]
    fn freshening_makes_all_binders_unique() {
        // Same binder name `x` used in three nested positions.
        let e = BagExpr::read("xs")
            .map(Lambda::new(["x"], ScalarExpr::var("x")))
            .filter(Lambda::new(
                ["x"],
                ScalarExpr::Fold(
                    Box::new(BagExpr::read("ys").map(Lambda::new(["x"], ScalarExpr::var("x")))),
                    Box::new(FoldOp::exists(Lambda::new(
                        ["x"],
                        ScalarExpr::var("x").eq(ScalarExpr::lit(1i64)),
                    ))),
                ),
            ));
        let mut gen = NameGen::new();
        let fresh = freshen_bag(&e, &Scope::new(), &mut gen);
        let mut names = Vec::new();
        binders(&fresh, &mut names);
        let set: HashSet<&String> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "binders not unique: {names:?}");
    }

    #[test]
    fn freshening_preserves_free_variables() {
        let e = BagExpr::var("points").map(Lambda::new(
            ["p"],
            ScalarExpr::var("p").add(ScalarExpr::var("epsilon")),
        ));
        let mut gen = NameGen::new();
        let fresh = freshen_bag(&e, &Scope::new(), &mut gen);
        let fv = fresh.free_vars();
        assert!(fv.contains("points"));
        assert!(fv.contains("epsilon"));
        assert_eq!(fv.len(), 2);
    }

    #[test]
    fn bound_references_are_renamed_consistently() {
        let e = BagExpr::read("xs").map(Lambda::new(["x"], ScalarExpr::var("x").get(1)));
        let mut gen = NameGen::new();
        let fresh = freshen_bag(&e, &Scope::new(), &mut gen);
        match fresh {
            BagExpr::Map { f, .. } => {
                assert_eq!(f.params[0], "x$1");
                assert_eq!(f.body, ScalarExpr::var("x$1").get(1));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
