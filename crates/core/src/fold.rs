//! Structural recursion on bags: the [`Fold`] triple.
//!
//! A fold over a bag in union representation substitutes the three bag
//! constructors `emp`, `sng`, `uni` with a value `zero`, a function `sng`,
//! and a binary function `uni`, and evaluates the resulting expression tree
//! (paper, Section 2.2.2). The fold is *well-defined* — i.e. yields the same
//! result for every constructor tree representing the same bag — exactly when
//! the substituted operations satisfy the same equations as the constructors:
//!
//! ```text
//! u(x, e) = u(e, x) = x        (unit)
//! u(x, u(y, z)) = u(u(x, y), z) (associativity)
//! u(x, y) = u(y, x)            (commutativity)
//! ```
//!
//! These conditions are what make a fold safe to evaluate *in parallel* over
//! arbitrary partitionings of the bag: each worker folds its partition
//! locally and only the small partial results are combined.

/// A reified fold: the `(zero, sng, uni)` triple of structural recursion.
///
/// `Fold` packages the three substitution functions as boxed closures so that
/// folds can be stored, passed around, and — crucially for the compiler —
/// *combined*. The [`Fold::zip`] combinator implements the **banana split**
/// law (a tuple of folds over the same bag is a single fold over tuples),
/// which underpins fold-group fusion.
pub struct Fold<A, B> {
    /// Substitute for the `emp` constructor: the result on the empty bag.
    pub zero: B,
    /// Substitute for the `sng` constructor: maps one element to a partial result.
    pub sng: Box<dyn Fn(&A) -> B>,
    /// Substitute for the `uni` constructor: combines two partial results.
    /// Must be associative and commutative with `zero` as unit.
    pub uni: Box<dyn Fn(B, B) -> B>,
}

impl<A, B: Clone + 'static> Fold<A, B> {
    /// Creates a fold from its three components.
    pub(crate) fn new(
        zero: B,
        sng: impl Fn(&A) -> B + 'static,
        uni: impl Fn(B, B) -> B + 'static,
    ) -> Self {
        Fold {
            zero,
            sng: Box::new(sng),
            uni: Box::new(uni),
        }
    }

    /// Applies the fold to a sequence of elements (left-to-right evaluation;
    /// any evaluation order gives the same result when the fold is
    /// well-defined).
    pub(crate) fn apply<'a>(&self, items: impl IntoIterator<Item = &'a A>) -> B
    where
        A: 'a,
    {
        let mut acc = self.zero.clone();
        for x in items {
            acc = (self.uni)(acc, (self.sng)(x));
        }
        acc
    }
}

impl<A: 'static, B: Clone + 'static> Fold<A, B> {
    /// **Banana split**: combines two folds over the same element type into a
    /// single fold producing a pair.
    ///
    /// `f.zip(g)` folds once and yields `(f-result, g-result)`; the paper
    /// (Section 4.2.2) uses this law to replace the several folds consuming a
    /// group's values with one composite fold, which is then fused into the
    /// grouping operator itself.
    pub fn zip<C: Clone + 'static>(self, other: Fold<A, C>) -> Fold<A, (B, C)> {
        let (s1, u1) = (self.sng, self.uni);
        let (s2, u2) = (other.sng, other.uni);
        Fold {
            zero: (self.zero, other.zero),
            sng: Box::new(move |a| (s1(a), s2(a))),
            uni: Box::new(move |(x1, x2), (y1, y2)| (u1(x1, y1), u2(x2, y2))),
        }
    }
}

/// Commonly used fold constructors (the aliases of Listing 3).
pub mod aliases {
    use super::Fold;

    /// `count`: fold(0, _ ⟼ 1, +).
    pub fn count<A: 'static>() -> Fold<A, u64> {
        Fold::new(0, |_| 1, |x, y| x + y)
    }

    /// `sum` over integer projections.
    pub fn isum_by<A: 'static>(s: impl Fn(&A) -> i64 + 'static) -> Fold<A, i64> {
        Fold::new(0, s, |x, y| x + y)
    }
}

#[cfg(test)]
mod tests {
    use super::aliases;

    #[test]
    fn count_folds() {
        let f = aliases::count::<i64>();
        assert_eq!(f.apply(&[1, 2, 3]), 3);
        assert_eq!(f.apply(&[]), 0);
    }

    #[test]
    fn banana_split_zip_equals_separate_folds() {
        let xs = vec![3i64, 5, 7];
        let sum = aliases::isum_by(|x: &i64| *x);
        let cnt = aliases::count::<i64>();
        let split = aliases::isum_by(|x: &i64| *x).zip(aliases::count::<i64>());
        let (s, c) = split.apply(&xs);
        assert_eq!(s, sum.apply(&xs));
        assert_eq!(c, cnt.apply(&xs));
    }
}
