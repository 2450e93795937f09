//! The local semantics of every keyed bag operator, written once.
//!
//! `groupBy`, `aggBy`, `minus`, `distinct` and stateful create / update are
//! defined here over plain iterators and callbacks, and every layer that
//! evaluates them calls these functions: the typed [`DataBag`] and
//! [`StatefulBag`], the quoted-program interpreter (the specification) and
//! the engine's per-partition loops.
//! The order rules are part of the semantics:
//!
//! * [`group`]: groups in first-seen key order, rows in input order;
//! * [`agg`]: groups in first-seen key order; a key's first contribution
//!   is `uni(zero, sng(x))`, every later one `uni(acc, sng(x))`;
//! * [`minus`]: a multiset budget of the right side; kept rows in the left
//!   side's order;
//! * [`distinct`]: each row's first occurrence;
//! * [`create`]: a key keeps its first position and takes its last value;
//! * [`update`], per message: a message whose key has no entry is dropped,
//!   an update returning `None` changes nothing, and the delta holds one
//!   entry per changed key, with its final value, in first-change order.
//!
//! Callbacks are fallible and run row by row in a fixed order (`key`, then
//! `sng`, then `uni`; the message key, then `update`) over lazily consumed
//! input, so the error returned is the one at the earliest row. Every
//! callback receives the same context `cx`, so one evaluator can serve all
//! of an operator's UDFs. A key callback returns the key with its
//! [`hash_of`]; a caller that already carries the hash passes it through.
//!
//! [`DataBag`]: crate::DataBag
//! [`StatefulBag`]: crate::StatefulBag

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The hash the `*_hashed` entry points and key callbacks use:
/// `DefaultHasher` over the key.
pub fn hash_of<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// A key paired with its [`hash_of`], as key callbacks return it.
pub fn hashed<K: Hash>(key: K) -> (u64, K) {
    (hash_of(&key), key)
}

/// A hash map that iterates in first-insertion order.
///
/// The entries are one dense `Vec` in first-insertion order, each with its
/// key's hash. The index maps a hash to its newest entry and entries whose
/// hashes collide chain through `next`, so a key costs no allocation of its
/// own and draining re-hashes nothing.
#[derive(Clone, Debug)]
pub struct InsertionMap<K, V> {
    entries: Vec<Entry<K, V>>,
    index: HashMap<u64, usize, BuildHasherDefault<Spread>>,
}

/// One key of an [`InsertionMap`], as the map is consumed.
#[derive(Clone, Debug)]
pub struct Entry<K, V> {
    /// The key's [`hash_of`].
    pub hash: u64,
    /// The key.
    pub key: K,
    /// Its value.
    pub value: V,
    /// The next older entry with the same hash, or `usize::MAX`.
    next: usize,
}

/// The index's hasher. Its keys are [`hash_of`] outputs already; it only
/// moves their high half into the low bits the table buckets by, because a
/// shuffle routes keys by `hash % partitions`, which fixes those bits.
#[derive(Default)]
struct Spread(u64);

impl Hasher for Spread {
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = u64::from_ne_bytes(bytes.try_into().expect("the index is keyed by u64"));
    }
}

impl<K, V> Default for InsertionMap<K, V> {
    fn default() -> Self {
        InsertionMap {
            entries: Vec::new(),
            index: HashMap::default(),
        }
    }
}

impl<K: Eq, V> InsertionMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no key has been inserted.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn find(&self, hash: u64, key: &K) -> Option<usize> {
        let mut i = *self.index.get(&hash)?;
        while self.entries.get(i)?.key != *key {
            i = self.entries[i].next;
        }
        Some(i)
    }

    fn push(&mut self, hash: u64, key: K, value: V) -> &mut V {
        let slot = self.entries.len();
        let next = self.index.insert(hash, slot).unwrap_or(usize::MAX);
        self.entries.push(Entry {
            hash,
            key,
            value,
            next,
        });
        &mut self.entries[slot].value
    }

    /// The value of `key`, whose [`hash_of`] is `hash`, if it was inserted.
    pub fn get_mut_hashed(&mut self, hash: u64, key: &K) -> Option<&mut V> {
        let i = self.find(hash, key)?;
        Some(&mut self.entries[i].value)
    }

    /// The value of `key`, inserting `default()` behind every key so far
    /// on first sight.
    pub fn entry_hashed(&mut self, hash: u64, key: K, default: impl FnOnce() -> V) -> &mut V {
        match self.find(hash, &key) {
            Some(i) => &mut self.entries[i].value,
            None => self.push(hash, key, default()),
        }
    }

    /// Sets the value of `key`: a known key keeps its position, a new one
    /// goes behind every key so far.
    pub fn insert_hashed(&mut self, hash: u64, key: K, value: V) {
        match self.find(hash, &key) {
            Some(i) => self.entries[i].value = value,
            None => drop(self.push(hash, key, value)),
        }
    }

    /// The values, in first-insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|e| &e.value)
    }
}

impl<K, V> IntoIterator for InsertionMap<K, V> {
    type Item = Entry<K, V>;
    type IntoIter = std::vec::IntoIter<Entry<K, V>>;

    /// Consumes the map into its entries, in first-insertion order.
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// `groupBy`: the rows of each key, keys in first-seen order.
pub fn group<T, K: Eq, C, E>(
    rows: impl IntoIterator<Item = T>,
    cx: &mut C,
    mut key: impl FnMut(&mut C, &T) -> Result<(u64, K), E>,
) -> Result<InsertionMap<K, Vec<T>>, E> {
    let mut groups = InsertionMap::new();
    for x in rows {
        let (h, k) = key(cx, &x)?;
        groups.entry_hashed(h, k, Vec::new).push(x);
    }
    Ok(groups)
}

/// `aggBy`: folds each row into its key's accumulator in `accs`, opening
/// the accumulators of new keys behind the ones already there. `uni` takes
/// the accumulator by value; `B::default()` holds its place meanwhile.
pub fn agg<T, K: Eq, B: Clone + Default, C, E>(
    accs: &mut InsertionMap<K, B>,
    rows: impl IntoIterator<Item = T>,
    cx: &mut C,
    mut key: impl FnMut(&mut C, &T) -> Result<(u64, K), E>,
    zero: &B,
    mut sng: impl FnMut(&mut C, T) -> Result<B, E>,
    mut uni: impl FnMut(&mut C, B, B) -> Result<B, E>,
) -> Result<(), E> {
    for x in rows {
        let (h, k) = key(cx, &x)?;
        let s = sng(cx, x)?;
        match accs.get_mut_hashed(h, &k) {
            Some(acc) => *acc = uni(cx, std::mem::take(acc), s)?,
            None => drop(accs.push(h, k, uni(cx, zero.clone(), s)?)),
        }
    }
    Ok(())
}

/// Bag difference: each row of `right` cancels one equal row of `left`.
pub fn minus<A: Eq + Hash>(
    left: impl IntoIterator<Item = A>,
    right: impl IntoIterator<Item = A>,
) -> impl Iterator<Item = A> {
    let mut budget = InsertionMap::new();
    for y in right {
        *budget.entry_hashed(hash_of(&y), y, || 0usize) += 1;
    }
    left.into_iter()
        .filter(move |x| match budget.get_mut_hashed(hash_of(x), x) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        })
}

/// Duplicate removal: each row's first occurrence.
pub fn distinct<A: Eq + Hash + Clone>(
    rows: impl IntoIterator<Item = A>,
) -> impl Iterator<Item = A> {
    let mut seen = InsertionMap::new();
    rows.into_iter().filter(move |x| {
        let h = hash_of(x);
        seen.find(h, x).is_none() && {
            seen.push(h, x.clone(), ());
            true
        }
    })
}

/// Stateful create: one entry per key, at its first position with its last
/// row.
pub fn create<T, K: Eq, C, E>(
    rows: impl IntoIterator<Item = T>,
    cx: &mut C,
    mut key: impl FnMut(&mut C, &T) -> Result<(u64, K), E>,
) -> Result<InsertionMap<K, T>, E> {
    let mut state = InsertionMap::new();
    for x in rows {
        let (h, k) = key(cx, &x)?;
        state.insert_hashed(h, k, x);
    }
    Ok(state)
}

/// Stateful update: routes each message to the entry of its key in
/// `state[slot(hash)]` and replaces the entry with what `update` returns.
/// Returns the delta: each changed key with its final value, in
/// first-change order.
pub fn update<M, K: Eq, A: Clone, C, E>(
    state: &mut [InsertionMap<K, A>],
    slot: impl Fn(u64) -> usize,
    messages: impl IntoIterator<Item = M>,
    cx: &mut C,
    mut key: impl FnMut(&mut C, &M) -> Result<(u64, K), E>,
    mut update: impl FnMut(&mut C, &A, M) -> Result<Option<A>, E>,
) -> Result<InsertionMap<K, A>, E> {
    let mut delta = InsertionMap::new();
    for m in messages {
        let (h, k) = key(cx, &m)?;
        let Some(current) = state[slot(h)].get_mut_hashed(h, &k) else {
            continue;
        };
        if let Some(new) = update(cx, current, m)? {
            *current = new.clone();
            delta.insert_hashed(h, k, new);
        }
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn ok<T>(t: T) -> Result<T, Infallible> {
        Ok(t)
    }

    fn pairs<K, V>(m: InsertionMap<K, V>) -> Vec<(K, V)> {
        m.into_iter().map(|e| (e.key, e.value)).collect()
    }

    #[test]
    fn map_keeps_first_insertion_order() {
        let mut m: InsertionMap<&str, i64> = InsertionMap::new();
        assert!(m.is_empty());
        for k in ["b", "a", "c", "a", "b", "d"] {
            *m.entry_hashed(hash_of(&k), k, || 0) += 1;
        }
        m.insert_hashed(hash_of(&"c"), "c", 7);
        assert_eq!(m.len(), 4);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![2, 2, 7, 1]);
        assert_eq!(pairs(m), vec![("b", 2), ("a", 2), ("c", 7), ("d", 1)]);
    }

    #[test]
    fn colliding_hashes_resolve_by_key_equality() {
        // Every key in one chain: the map must still tell them apart and
        // keep insertion order.
        let mut m: InsertionMap<i64, &str> = InsertionMap::new();
        m.insert_hashed(42, 1, "one");
        m.insert_hashed(42, 2, "two");
        m.insert_hashed(42, 1, "ONE");
        assert_eq!(m.get_mut_hashed(42, &1).map(|v| *v), Some("ONE"));
        assert_eq!(m.get_mut_hashed(42, &2).map(|v| *v), Some("two"));
        assert_eq!(m.get_mut_hashed(42, &3), None);
        let drained: Vec<(u64, i64, &str)> =
            m.into_iter().map(|e| (e.hash, e.key, e.value)).collect();
        assert_eq!(drained, vec![(42, 1, "ONE"), (42, 2, "two")]);
    }

    #[test]
    fn keys_sharing_their_low_hash_bits_stay_distinct() {
        // A shuffle partition's keys agree on `hash % parts`.
        let mut m: InsertionMap<u64, u64> = InsertionMap::new();
        for k in 0..2_000u64 {
            m.insert_hashed(k << 32 | 7, k, k * 2);
        }
        assert_eq!(m.len(), 2_000);
        assert_eq!(m.get_mut_hashed(1_999 << 32 | 7, &1_999), Some(&mut 3_998));
    }

    #[test]
    fn operators_follow_their_order_rules() {
        let xs = [3, 1, 3, 2, 1, 3];
        let groups = group(xs, &mut (), |_, x| ok(hashed(x % 2))).unwrap();
        assert_eq!(pairs(groups), vec![(1, vec![3, 1, 3, 1, 3]), (0, vec![2])]);

        let mut accs = InsertionMap::new();
        let sng = |_: &mut (), x: i32| ok(vec![x]);
        let uni = |_: &mut (), mut a: Vec<i32>, b: Vec<i32>| {
            a.extend(b);
            ok(a)
        };
        agg(
            &mut accs,
            xs,
            &mut (),
            |_, x| ok(hashed(*x)),
            &vec![0],
            sng,
            uni,
        )
        .unwrap();
        assert_eq!(
            pairs(accs),
            vec![(3, vec![0, 3, 3, 3]), (1, vec![0, 1, 1]), (2, vec![0, 2])]
        );

        assert_eq!(minus(xs, [3, 1, 9]).collect::<Vec<_>>(), vec![3, 2, 1, 3]);
        assert_eq!(distinct(xs).collect::<Vec<_>>(), vec![3, 1, 2]);

        let rows = [(1, 'a'), (2, 'b'), (1, 'c')];
        let mut state = [create(rows, &mut (), |_, r| ok(hashed(r.0))).unwrap()];
        let msgs = [(2, 'x'), (9, 'y'), (1, '-'), (2, 'z')];
        let delta = update(
            &mut state,
            |_| 0,
            msgs,
            &mut (),
            |_, m| ok(hashed(m.0)),
            |_, cur, m| ok((m.1 != '-').then_some((cur.0, m.1))),
        )
        .unwrap();
        let [state] = state;
        assert_eq!(pairs(state), vec![(1, (1, 'c')), (2, (2, 'z'))]);
        assert_eq!(pairs(delta), vec![(2, (2, 'z'))]);
    }

    #[test]
    fn callbacks_run_row_by_row_and_stop_at_the_first_error() {
        let mut log = Vec::new();
        let r = agg(
            &mut InsertionMap::new(),
            0..5,
            &mut log,
            |log, x| {
                log.push(format!("key {x}"));
                if *x == 3 {
                    Err(*x)
                } else {
                    Ok(hashed(*x))
                }
            },
            &0,
            |log, x| {
                log.push(format!("sng {x}"));
                Ok(x)
            },
            |log, a, b| {
                log.push(format!("uni {a} {b}"));
                if b == 2 {
                    Err(-b)
                } else {
                    Ok(a + b)
                }
            },
        );
        assert_eq!(r, Err(-2));
        assert_eq!(
            log.join(", "),
            "key 0, sng 0, uni 0 0, key 1, sng 1, uni 0 1, key 2, sng 2, uni 0 2"
        );
    }
}
