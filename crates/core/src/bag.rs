//! The [`DataBag`] collection type (paper, Listing 3).
//!
//! `DataBag<A>` is a homogeneous collection with *bag semantics*: elements
//! are unordered and duplicates are allowed. The API deliberately mirrors the
//! paper:
//!
//! * **Monad operators** `map` / `flat_map` / `with_filter` enable
//!   comprehension-style dataflow assembly (in Scala these back
//!   for-comprehensions; in Rust the `emma-compiler` crate provides the
//!   declarative comprehension surface).
//! * **`group_by`** introduces *nesting* — group values are `DataBag`s, not
//!   iterators, so "groupBy and fold" is the single, uniform grouping model.
//! * **`fold`** is the only primitive computation; all aggregates are folds.
//! * Binary operators like `join` and `cross` are intentionally *absent*:
//!   they are expressed as comprehensions and discovered by the compiler.
//!
//! Internally the bag is a `Vec`, but no public operation exposes or depends
//! on element order except [`DataBag::fetch`], the explicit bag→sequence
//! conversion.

use std::convert::Infallible;
use std::hash::Hash;

use crate::fold::Fold;
use crate::group::Grp;
use crate::ops;

/// A key callback's result for the [`ops`] operators, whose typed callers
/// cannot fail.
pub(crate) fn total<K: Hash>(key: K) -> Result<(u64, K), Infallible> {
    Ok(ops::hashed(key))
}

/// A homogeneous collection with bag semantics.
///
/// See the [module documentation](self) for the design rationale.
#[derive(Clone, Debug)]
pub struct DataBag<A> {
    elems: Vec<A>,
}

impl<A> Default for DataBag<A> {
    fn default() -> Self {
        DataBag { elems: Vec::new() }
    }
}

impl<A> DataBag<A> {
    // ---------------------------------------------------------------- ctors

    /// The empty bag (`emp`).
    pub fn empty() -> Self {
        DataBag { elems: Vec::new() }
    }

    /// The singleton bag (`sng x`).
    pub fn of(x: A) -> Self {
        DataBag { elems: vec![x] }
    }

    /// Union of two bags (`uni xs ys`). Consumes both operands.
    pub fn union(mut self, mut other: Self) -> Self {
        self.elems.append(&mut other.elems);
        self
    }

    /// Conversion from a sequence (the `Seq[A] -> DataBag` constructor).
    pub fn from_seq(s: impl IntoIterator<Item = A>) -> Self {
        s.into_iter().collect()
    }

    /// Conversion to a sequence (`fetch()`): materializes the bag contents in
    /// an unspecified but deterministic order.
    pub fn fetch(self) -> Vec<A> {
        self.elems
    }

    /// Borrowing iterator over the elements, in unspecified order.
    pub fn iter(&self) -> std::slice::Iter<'_, A> {
        self.elems.iter()
    }

    // ----------------------------------------------------------- monad ops

    /// Applies `f` to every element (the functor `map`).
    pub fn map<B>(&self, f: impl Fn(&A) -> B) -> DataBag<B> {
        self.elems.iter().map(f).collect()
    }

    /// Applies `f` to every element and unions the resulting bags
    /// (the monadic bind).
    pub fn flat_map<B>(&self, f: impl Fn(&A) -> DataBag<B>) -> DataBag<B> {
        self.elems.iter().flat_map(|a| f(a).elems).collect()
    }

    /// Keeps the elements satisfying `p` (named after Scala's
    /// comprehension-desugaring target `withFilter`).
    pub fn with_filter(&self, p: impl Fn(&A) -> bool) -> DataBag<A>
    where
        A: Clone,
    {
        self.elems.iter().filter(|a| p(a)).cloned().collect()
    }

    // -------------------------------------------------------------- nesting

    /// Groups the elements by the key function `k`.
    ///
    /// The result is a bag of [`Grp`]s whose `values` component is itself a
    /// `DataBag` — fundamentally different from Spark/Flink/Hadoop where
    /// group values are `Iterable`s. This uniform nesting is what lets the
    /// compiler recognize "groupBy + fold" patterns and fuse them
    /// (fold-group fusion, paper Section 4.2.2).
    pub fn group_by<K: Eq + Hash + Clone>(&self, k: impl Fn(&A) -> K) -> DataBag<Grp<K, DataBag<A>>>
    where
        A: Clone,
    {
        let Ok(groups) = ops::group(self.elems.iter().cloned(), &mut (), |_, a| total(k(a)));
        let grp = |g: ops::Entry<K, Vec<A>>| Grp::new(g.key, DataBag { elems: g.value });
        groups.into_iter().map(grp).collect()
    }

    /// Fused grouping + folding: groups by `k` and immediately folds each
    /// group's values with `fold`, never materializing the groups.
    ///
    /// This is the `aggBy` operator that fold-group fusion rewrites
    /// `group_by` into; it exists on the local bag so the rewrite can be
    /// tested for semantic equivalence (`group_by(k)` + fold per group ≡
    /// `agg_by(k, fold)`).
    pub fn agg_by<K: Eq + Hash + Clone, B: Clone + 'static>(
        &self,
        k: impl Fn(&A) -> K,
        fold: &Fold<A, B>,
    ) -> DataBag<Grp<K, B>> {
        // `None` is the placeholder `ops::agg` moves an accumulator out through.
        let (mut accs, zero) = (ops::InsertionMap::new(), Some(fold.zero.clone()));
        let key = |_: &mut (), a: &&A| total(k(a));
        let sng = |_: &mut (), a: &A| Ok(Some((fold.sng)(a)));
        let uni =
            |_: &mut (), x: Option<B>, y: Option<B>| Ok(x.zip(y).map(|(x, y)| (fold.uni)(x, y)));
        let Ok(()) = ops::agg(&mut accs, &self.elems, &mut (), key, &zero, sng, uni);
        let grp = |a: ops::Entry<K, Option<B>>| Grp::new(a.key, a.value.expect("never `None`"));
        accs.into_iter().map(grp).collect()
    }

    // --------------------------------------------------------------- setops

    /// Bag union (`plus`): multiplicities add up.
    pub fn plus(&self, addend: &DataBag<A>) -> DataBag<A>
    where
        A: Clone,
    {
        self.elems.iter().chain(&addend.elems).cloned().collect()
    }

    /// Bag difference (`minus`): multiplicities subtract, floored at zero.
    pub fn minus(&self, subtrahend: &DataBag<A>) -> DataBag<A>
    where
        A: Clone + Eq + Hash,
    {
        ops::minus(&self.elems, &subtrahend.elems)
            .cloned()
            .collect()
    }

    /// Duplicate removal.
    pub fn distinct(&self) -> DataBag<A>
    where
        A: Clone + Eq + Hash,
    {
        ops::distinct(&self.elems).cloned().collect()
    }

    // ----------------------------------------------------- structural recursion

    /// Structural recursion — the only primitive computation on bags.
    ///
    /// Substitutes `zero` for `emp`, `sng` for the singleton constructor and
    /// `uni` for bag union in (any) constructor tree of this bag and
    /// evaluates it. For the result to be independent of the particular tree
    /// — and hence safe to evaluate in parallel over partitions — `uni` must
    /// be associative and commutative with `zero` as its unit. The algebra
    /// property tests (`crates/core/tests`) exercise exactly this contract.
    pub fn fold<B>(&self, zero: B, sng: impl Fn(&A) -> B, uni: impl Fn(B, B) -> B) -> B {
        let mut acc = zero;
        for a in &self.elems {
            acc = uni(acc, sng(a));
        }
        acc
    }

    /// Applies a reified [`Fold`].
    pub fn fold_with<B: Clone + 'static>(&self, f: &Fold<A, B>) -> B {
        f.apply(&self.elems)
    }

    // ------------------------------------------------------ fold aliases

    /// Number of elements: `fold(0, _ ⟼ 1, +)`.
    pub fn count(&self) -> u64 {
        self.fold(0, |_| 1, |x, y| x + y)
    }

    /// `true` iff the bag has no elements: `fold(true, _ ⟼ false, ∧)`.
    pub fn is_empty(&self) -> bool {
        self.fold(true, |_| false, |x, y| x && y)
    }

    /// `true` iff some element satisfies `p`: `fold(false, p, ∨)`.
    pub fn exists(&self, p: impl Fn(&A) -> bool) -> bool {
        self.fold(false, |a| p(a), |x, y| x || y)
    }

    /// `true` iff every element satisfies `p`: `fold(true, p, ∧)`.
    pub fn forall(&self, p: impl Fn(&A) -> bool) -> bool {
        self.fold(true, |a| p(a), |x, y| x && y)
    }

    /// Element minimizing `key`; `None` on the empty bag. Ties resolve to
    /// either element (bags are unordered).
    pub fn min_by<K: PartialOrd>(&self, key: impl Fn(&A) -> K) -> Option<A>
    where
        A: Clone,
    {
        self.fold(
            None,
            |a| Some(a.clone()),
            |x, y| match (x, y) {
                (None, r) => r,
                (l, None) => l,
                (Some(l), Some(r)) => {
                    if key(&l) <= key(&r) {
                        Some(l)
                    } else {
                        Some(r)
                    }
                }
            },
        )
    }

    /// Element maximizing `key`; `None` on the empty bag.
    pub fn max_by<K: PartialOrd>(&self, key: impl Fn(&A) -> K) -> Option<A>
    where
        A: Clone,
    {
        self.fold(
            None,
            |a| Some(a.clone()),
            |x, y| match (x, y) {
                (None, r) => r,
                (l, None) => l,
                (Some(l), Some(r)) => {
                    if key(&l) >= key(&r) {
                        Some(l)
                    } else {
                        Some(r)
                    }
                }
            },
        )
    }

    /// Sum of an `f64` projection.
    pub fn sum_by(&self, f: impl Fn(&A) -> f64) -> f64 {
        self.fold(0.0, |a| f(a), |x, y| x + y)
    }

    /// Sum of an `i64` projection.
    pub fn isum_by(&self, f: impl Fn(&A) -> i64) -> i64 {
        self.fold(0, |a| f(a), |x, y| x + y)
    }

    /// Product of an `f64` projection.
    pub fn product_by(&self, f: impl Fn(&A) -> f64) -> f64 {
        self.fold(1.0, |a| f(a), |x, y| x * y)
    }
}

impl<A> DataBag<A> {
    /// The `n` smallest elements by `key`, ascending — a *bounded* fold:
    /// the accumulator is a sorted, capped vector, so the merge is
    /// associative and commutative and the fold parallelizes like any other.
    pub fn bottom_by<K: PartialOrd>(&self, n: usize, key: impl Fn(&A) -> K) -> Vec<A>
    where
        A: Clone,
    {
        let merge = |mut acc: Vec<A>, more: Vec<A>| -> Vec<A> {
            acc.extend(more);
            acc.sort_by(|a, b| {
                key(a)
                    .partial_cmp(&key(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            acc.truncate(n);
            acc
        };
        self.fold(Vec::new(), |a| vec![a.clone()], merge)
    }

    /// The `n` largest elements by `key`, descending.
    pub fn top_by<K: PartialOrd>(&self, n: usize, key: impl Fn(&A) -> K) -> Vec<A>
    where
        A: Clone,
    {
        let merge = |mut acc: Vec<A>, more: Vec<A>| -> Vec<A> {
            acc.extend(more);
            acc.sort_by(|a, b| {
                key(b)
                    .partial_cmp(&key(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            acc.truncate(n);
            acc
        };
        self.fold(Vec::new(), |a| vec![a.clone()], merge)
    }

    /// A deterministic pseudo-random sample of up to `n` elements: a
    /// bounded fold keeping the elements with the smallest salted hashes
    /// (reservoir-style, but associative so it parallelizes).
    pub fn sample(&self, n: usize, seed: u64) -> Vec<A>
    where
        A: Clone + std::hash::Hash,
    {
        self.bottom_by(n, |a| ops::hash_of(&(seed, a)))
    }

    /// Number of distinct elements.
    pub fn count_distinct(&self) -> u64
    where
        A: Clone + Eq + Hash,
    {
        self.distinct().count()
    }

    /// Mean of an `f64` projection; `None` on the empty bag. A single
    /// banana-split fold (sum × count) with a finishing division.
    pub fn mean_by(&self, f: impl Fn(&A) -> f64) -> Option<f64> {
        let (sum, cnt) = self.fold(
            (0.0f64, 0u64),
            |a| (f(a), 1),
            |(s1, c1), (s2, c2)| (s1 + s2, c1 + c2),
        );
        if cnt == 0 {
            None
        } else {
            Some(sum / cnt as f64)
        }
    }

    /// Population variance of an `f64` projection; `None` on the empty bag.
    /// One fold over `(count, sum, sum-of-squares)`.
    pub fn variance_by(&self, f: impl Fn(&A) -> f64) -> Option<f64> {
        let (cnt, sum, sq) = self.fold(
            (0u64, 0.0f64, 0.0f64),
            |a| {
                let x = f(a);
                (1, x, x * x)
            },
            |(c1, s1, q1), (c2, s2, q2)| (c1 + c2, s1 + s2, q1 + q2),
        );
        if cnt == 0 {
            None
        } else {
            let n = cnt as f64;
            Some((sq - sum * sum / n) / n)
        }
    }
}

impl<A: Clone + std::ops::Add<Output = A> + Default> DataBag<A> {
    /// Sum of the elements themselves (requires `Default` as the additive
    /// zero, which holds for all primitive numeric types).
    pub fn sum(&self) -> A {
        self.fold(A::default(), |a| a.clone(), |x, y| x + y)
    }
}

impl<A: PartialOrd + Clone> DataBag<A> {
    /// Minimum element; `None` on the empty bag.
    pub fn min(&self) -> Option<A> {
        self.min_by(|a| a.clone())
    }

    /// Maximum element; `None` on the empty bag.
    pub fn max(&self) -> Option<A> {
        self.max_by(|a| a.clone())
    }
}

impl<A: Eq + Hash + Clone> DataBag<A> {
    /// Multiset equality: same elements with the same multiplicities,
    /// regardless of internal order: equal sizes, and `other` cancels every
    /// element of `self` ([`ops::minus`]).
    pub fn bag_eq(&self, other: &DataBag<A>) -> bool {
        self.elems.len() == other.elems.len()
            && ops::minus(&self.elems, &other.elems).next().is_none()
    }
}

impl<A> FromIterator<A> for DataBag<A> {
    fn from_iter<T: IntoIterator<Item = A>>(iter: T) -> Self {
        DataBag {
            elems: iter.into_iter().collect(),
        }
    }
}

impl<A> IntoIterator for DataBag<A> {
    type Item = A;
    type IntoIter = std::vec::IntoIter<A>;

    fn into_iter(self) -> Self::IntoIter {
        self.elems.into_iter()
    }
}

impl<'a, A> IntoIterator for &'a DataBag<A> {
    type Item = &'a A;
    type IntoIter = std::slice::Iter<'a, A>;

    fn into_iter(self) -> Self::IntoIter {
        self.elems.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::aliases;

    fn bag(xs: &[i64]) -> DataBag<i64> {
        DataBag::from_seq(xs.iter().copied())
    }

    #[test]
    fn constructors_and_fetch() {
        assert!(DataBag::<i64>::empty().fetch().is_empty());
        assert_eq!(DataBag::of(7).fetch(), vec![7]);
        assert!(bag(&[1, 2]).union(bag(&[3])).bag_eq(&bag(&[3, 2, 1])));
    }

    #[test]
    fn map_preserves_multiplicity() {
        let xs = bag(&[1, 1, 2]);
        assert!(xs.map(|x| x * 10).bag_eq(&bag(&[10, 10, 20])));
    }

    #[test]
    fn flat_map_unions_results() {
        let xs = bag(&[1, 3]);
        let ys = xs.flat_map(|x| DataBag::from_seq(vec![*x, *x + 1]));
        assert!(ys.bag_eq(&bag(&[1, 2, 3, 4])));
    }

    #[test]
    fn with_filter_keeps_matching() {
        let xs = bag(&[1, 2, 3, 4]);
        assert!(xs.with_filter(|x| x % 2 == 0).bag_eq(&bag(&[2, 4])));
    }

    #[test]
    fn group_by_nests_values_as_bags() {
        let xs = bag(&[1, 2, 3, 4, 5]);
        let groups = xs.group_by(|x| x % 2);
        assert_eq!(groups.count(), 2);
        for g in groups.iter() {
            if g.key == 0 {
                assert!(g.values.bag_eq(&bag(&[2, 4])));
            } else {
                assert!(g.values.bag_eq(&bag(&[1, 3, 5])));
            }
        }
    }

    #[test]
    fn agg_by_equals_group_by_then_fold() {
        let xs = bag(&[1, 2, 3, 4, 5, 6, 7]);
        let fold = aliases::isum_by(|x: &i64| *x);
        let fused = xs.agg_by(|x| x % 3, &fold);
        let unfused = xs
            .group_by(|x| x % 3)
            .map(|g| (g.key, g.values.isum_by(|x| *x)));
        let fused_pairs: DataBag<(i64, i64)> = fused.map(|g| (g.key, g.values));
        assert!(fused_pairs.bag_eq(&unfused));
    }

    #[test]
    fn minus_respects_multiplicity() {
        let xs = bag(&[1, 1, 2, 3]);
        let ys = bag(&[1, 3, 3]);
        assert!(xs.minus(&ys).bag_eq(&bag(&[1, 2])));
    }

    #[test]
    fn plus_adds_multiplicities() {
        assert!(bag(&[1, 2]).plus(&bag(&[2])).bag_eq(&bag(&[1, 2, 2])));
    }

    #[test]
    fn distinct_removes_duplicates() {
        assert!(bag(&[1, 1, 2, 2, 2, 3]).distinct().bag_eq(&bag(&[1, 2, 3])));
    }

    #[test]
    fn fold_aliases_match_primitives() {
        let xs = bag(&[3, 5, 7]);
        assert_eq!(xs.sum(), 15);
        assert_eq!(xs.count(), 3);
        assert_eq!(xs.min(), Some(3));
        assert_eq!(xs.max(), Some(7));
        assert!(!xs.is_empty());
        assert!(DataBag::<i64>::empty().is_empty());
        assert!(xs.exists(|x| *x == 5));
        assert!(xs.forall(|x| *x > 0));
        assert_eq!(xs.min_by(|x| -*x), Some(7));
        assert_eq!(xs.max_by(|x| -*x), Some(3));
        assert_eq!(xs.product_by(|x| *x as f64), 105.0);
    }

    #[test]
    fn bag_eq_ignores_order_but_not_counts() {
        assert!(bag(&[1, 2, 2]).bag_eq(&bag(&[2, 1, 2])));
        assert!(!bag(&[1, 2]).bag_eq(&bag(&[1, 2, 2])));
        assert!(!bag(&[1, 2, 3]).bag_eq(&bag(&[1, 2, 4])));
    }

    #[test]
    fn top_and_bottom_are_bounded_folds() {
        let xs = bag(&[5, 1, 9, 3, 7, 2]);
        assert_eq!(xs.bottom_by(3, |x| *x), vec![1, 2, 3]);
        assert_eq!(xs.top_by(2, |x| *x), vec![9, 7]);
        // Requesting more than the bag holds returns everything, ordered.
        assert_eq!(xs.bottom_by(100, |x| *x), vec![1, 2, 3, 5, 7, 9]);
        assert!(DataBag::<i64>::empty().top_by(3, |x| *x).is_empty());
    }

    #[test]
    fn sample_is_deterministic_and_bounded() {
        let xs = bag(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let a = xs.sample(3, 42);
        let b = xs.sample(3, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let c = xs.sample(3, 43);
        // Different seed usually picks a different sample (not guaranteed,
        // but these fixed seeds do differ).
        assert_ne!(a, c);
    }

    #[test]
    fn count_distinct_and_statistics() {
        let xs = bag(&[1, 1, 2, 3, 3, 3]);
        assert_eq!(xs.count_distinct(), 3);
        assert_eq!(xs.mean_by(|x| *x as f64), Some(13.0 / 6.0));
        assert!(DataBag::<i64>::empty().mean_by(|x| *x as f64).is_none());
        let uniform = bag(&[2, 2, 2]);
        assert_eq!(uniform.variance_by(|x| *x as f64), Some(0.0));
        let spread = bag(&[0, 4]);
        assert_eq!(spread.variance_by(|x| *x as f64), Some(4.0));
    }

    #[test]
    fn sum_on_empty_is_default() {
        assert_eq!(DataBag::<i64>::empty().sum(), 0);
        assert_eq!(DataBag::<f64>::empty().sum(), 0.0);
    }
}
