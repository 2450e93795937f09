//! Algebraic specifications of bags (paper, Section 2.2.1).
//!
//! Bags can be specified by two constructor algebras:
//!
//! * **`AlgBag-Ins`** (insert representation): `emp | cons x xs`, with the
//!   semantic equation `cons x₁ (cons x₂ xs) = cons x₂ (cons x₁ xs)`
//!   (insertion order is irrelevant). This imposes a left-deep, list-like
//!   structure; it is the view a sequential `scan` operator takes.
//! * **`AlgBag-Union`** (union representation): `emp | sng x | uni xs ys`,
//!   with unit, associativity and commutativity equations for `uni`. General
//!   binary trees are the natural fit for *distributed* bags: a bag
//!   partitioned over n nodes is conceptually `uni p₁ (uni p₂ (… pₙ))`, and a
//!   fold can be pushed to the partitions with only the partial results
//!   shipped.
//!
//! These explicit tree types exist so the equational theory can be *tested*:
//! the property suite re-associates and commutes trees at random and checks
//! that (a) the denoted bag is unchanged and (b) every well-defined fold
//! yields the same result on every equivalent tree — the precondition for
//! parallel evaluation.

use crate::bag::DataBag;

/// A constructor-application tree in insert representation (`AlgBag-Ins`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InsTree<A> {
    /// The empty bag.
    Emp,
    /// `cons x xs`: the bag `xs` with `x` added.
    Cons(A, Box<InsTree<A>>),
}

impl<A: Clone> InsTree<A> {
    /// Builds a left-deep insert tree from a slice.
    pub fn from_slice(xs: &[A]) -> Self {
        xs.iter()
            .rev()
            .fold(InsTree::Emp, |t, x| InsTree::Cons(x.clone(), Box::new(t)))
    }

    /// The bag this tree denotes.
    pub fn to_bag(&self) -> DataBag<A> {
        let mut out = Vec::new();
        let mut cur = self;
        while let InsTree::Cons(x, rest) = cur {
            out.push(x.clone());
            cur = rest;
        }
        DataBag::from_seq(out)
    }

    /// Structural recursion in insert representation:
    /// `fold_ins(e, c)` substitutes `e` for `Emp` and `c` for `Cons`.
    pub(crate) fn fold_ins<B>(&self, e: B, c: &impl Fn(&A, B) -> B) -> B {
        match self {
            InsTree::Emp => e,
            InsTree::Cons(x, rest) => {
                let tail = rest.fold_ins(e, c);
                c(x, tail)
            }
        }
    }
}

/// A constructor-application tree in union representation (`AlgBag-Union`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnionTree<A> {
    /// The empty bag `{{}}`.
    Emp,
    /// The singleton bag `{{x}}`.
    Sng(A),
    /// The union of two bags.
    Uni(Box<UnionTree<A>>, Box<UnionTree<A>>),
}

impl<A: Clone> UnionTree<A> {
    /// The bag this tree denotes.
    pub fn to_bag(&self) -> DataBag<A> {
        let mut out = Vec::new();
        self.collect_into(&mut out);
        DataBag::from_seq(out)
    }

    fn collect_into(&self, out: &mut Vec<A>) {
        match self {
            UnionTree::Emp => {}
            UnionTree::Sng(x) => out.push(x.clone()),
            UnionTree::Uni(l, r) => {
                l.collect_into(out);
                r.collect_into(out);
            }
        }
    }

    /// Structural recursion in union representation: substitutes
    /// `(zero, sng, uni)` for the three constructors and evaluates the tree.
    ///
    /// This evaluation follows the *tree shape*, unlike `DataBag::fold` which
    /// folds a flat sequence left-to-right. Comparing the two on randomly
    /// rebalanced trees is how the tests certify fold well-definedness.
    pub fn fold<B>(&self, zero: &B, sng: &impl Fn(&A) -> B, uni: &impl Fn(B, B) -> B) -> B
    where
        B: Clone,
    {
        match self {
            UnionTree::Emp => zero.clone(),
            UnionTree::Sng(x) => sng(x),
            UnionTree::Uni(l, r) => uni(l.fold(zero, sng, uni), r.fold(zero, sng, uni)),
        }
    }

    /// Applies the `EQ-Unit` equation everywhere: removes `Uni` nodes with an
    /// `Emp` child. Denotes the same bag.
    pub fn normalize_units(self) -> Self {
        match self {
            UnionTree::Uni(l, r) => {
                let l = l.normalize_units();
                let r = r.normalize_units();
                match (l, r) {
                    (UnionTree::Emp, r) => r,
                    (l, UnionTree::Emp) => l,
                    (l, r) => UnionTree::Uni(Box::new(l), Box::new(r)),
                }
            }
            t => t,
        }
    }

    /// Applies `EQ-Comm` at the root: swaps the children of a `Uni` node.
    /// Denotes the same bag.
    pub fn commute(self) -> Self {
        match self {
            UnionTree::Uni(l, r) => UnionTree::Uni(r, l),
            t => t,
        }
    }

    /// Applies `EQ-Assoc` at the root when possible:
    /// `uni (uni a b) c ⇒ uni a (uni b c)`. Denotes the same bag.
    pub fn reassociate(self) -> Self {
        match self {
            UnionTree::Uni(l, r) => match *l {
                UnionTree::Uni(a, b) => UnionTree::Uni(a, Box::new(UnionTree::Uni(b, r))),
                l => UnionTree::Uni(Box::new(l), r),
            },
            t => t,
        }
    }
}

/// Converts an insert-representation tree to a union-representation tree
/// (the initiality-induced translation mentioned in the paper).
pub fn ins_to_union<A: Clone>(t: &InsTree<A>) -> UnionTree<A> {
    t.fold_ins(UnionTree::Emp, &|x: &A, rest: UnionTree<A>| {
        UnionTree::Uni(Box::new(UnionTree::Sng(x.clone())), Box::new(rest))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<A: Clone> UnionTree<A> {
        /// Builds a right-leaning union tree from a slice.
        fn from_slice(xs: &[A]) -> Self {
            match xs {
                [] => UnionTree::Emp,
                [x] => UnionTree::Sng(x.clone()),
                _ => {
                    let mid = xs.len() / 2;
                    UnionTree::Uni(
                        Box::new(Self::from_slice(&xs[..mid])),
                        Box::new(Self::from_slice(&xs[mid..])),
                    )
                }
            }
        }
    }

    #[test]
    fn ins_tree_round_trips() {
        let t = InsTree::from_slice(&[2, 42]);
        assert!(t.to_bag().bag_eq(&DataBag::from_seq(vec![42, 2])));
    }

    #[test]
    fn union_tree_fold_sums_like_flat_fold() {
        let xs = [3i64, 5, 7];
        let t = UnionTree::from_slice(&xs);
        let tree_sum = t.fold(&0i64, &|x| *x, &|a, b| a + b);
        assert_eq!(tree_sum, 15);
    }

    #[test]
    fn equations_preserve_denotation() {
        let xs = [1i64, 2, 3, 4, 5];
        let t = UnionTree::from_slice(&xs);
        let bag = t.to_bag();
        assert!(t.clone().commute().to_bag().bag_eq(&bag));
        assert!(t.clone().reassociate().to_bag().bag_eq(&bag));
        let with_unit = UnionTree::Uni(Box::new(t.clone()), Box::new(UnionTree::Emp));
        assert!(with_unit.normalize_units().to_bag().bag_eq(&bag));
    }

    #[test]
    fn representation_translations_preserve_bags() {
        let xs = [9i64, 9, 1];
        let ins = InsTree::from_slice(&xs);
        let uni = ins_to_union(&ins);
        assert!(uni.to_bag().bag_eq(&ins.to_bag()));
    }

    #[test]
    fn partitioned_fold_matches_global_fold() {
        // The distributed-execution picture from the paper: fold partitions
        // locally, combine the partial results.
        let node1 = [3i64, 5];
        let node2 = [7i64];
        let global = UnionTree::Uni(
            Box::new(UnionTree::from_slice(&node1)),
            Box::new(UnionTree::from_slice(&node2)),
        );
        let local1 = UnionTree::from_slice(&node1).fold(&0i64, &|x| *x, &|a, b| a + b);
        let local2 = UnionTree::from_slice(&node2).fold(&0i64, &|x| *x, &|a, b| a + b);
        let combined = local1 + local2;
        assert_eq!(combined, global.fold(&0i64, &|x| *x, &|a, b| a + b));
    }
}
