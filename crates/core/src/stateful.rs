//! Stateful bags (paper, Listing 3 lines 24–31 and Section 3.1).
//!
//! A range of algorithms refine a bag iteratively via *point-wise updates* —
//! graph algorithms being the canonical case ("vertex-centric" models are a
//! domain-specific instance). Emma captures this domain-agnostically with
//! [`StatefulBag`]: a keyed bag whose elements can be updated in place, with
//! the *changed delta* returned to the caller. Returning the delta is what
//! enables semi-naive iteration (Connected Components, Listing 7) in the core
//! language, with no special graph API.

use std::hash::Hash;

use crate::bag::{total, DataBag};
use crate::ops::{self, InsertionMap};

/// Types with an intrinsic key (the paper's `A <: Key[K]` bound).
pub trait Keyed {
    /// The key type.
    type Key: Eq + Hash + Clone;

    /// Returns this element's key. Two elements with equal keys denote the
    /// same stateful entity; a `StatefulBag` keeps exactly one element per key.
    fn key(&self) -> Self::Key;
}

/// A keyed bag supporting point-wise in-place updates.
///
/// Constructed explicitly from a [`DataBag`] (conversion is deliberately
/// user-visible — state is not transparent), and convertible back with
/// [`StatefulBag::bag`]. The state keeps its keys in first-insertion order,
/// as the quoted interpreter and the engine do.
#[derive(Clone, Debug)]
pub struct StatefulBag<A: Keyed> {
    state: InsertionMap<A::Key, A>,
}

impl<A: Keyed + Clone> StatefulBag<A> {
    /// Creates the stateful bag from an initial `DataBag`.
    ///
    /// If several input elements share a key, the last one wins — mirroring
    /// the upsert semantics of a keyed state store — at the position of the
    /// first.
    pub fn new(initial: DataBag<A>) -> Self {
        let Ok(state) = ops::create(initial, &mut (), |_, a| total(a.key()));
        StatefulBag { state }
    }

    /// A stateless snapshot of the current state (`bag()`), in
    /// first-insertion order.
    pub fn bag(&self) -> DataBag<A> {
        DataBag::from_seq(self.state.values().cloned())
    }

    /// Number of stateful elements (one per distinct key).
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// `true` iff no state is held.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Point-wise update without messages.
    ///
    /// Applies `u` to every element; where `u` returns `Some(new)`, the state
    /// is replaced and `new` joins the returned delta. The updated element
    /// must keep its key (enforced by a debug assertion): point-wise update
    /// refines state, it does not re-key it. This is
    /// [`update_with_messages`](Self::update_with_messages) with every
    /// element as its own message, so the delta is in state order.
    pub fn update(&mut self, u: impl Fn(&A) -> Option<A>) -> DataBag<A> {
        self.update_with_messages(self.bag(), |a, _| u(a))
    }

    /// Point-wise update driven by *update messages* that share the element
    /// key space.
    ///
    /// Each message is routed to the state element with the matching key and
    /// `u(element, message)` decides whether to replace it. Messages whose
    /// key has no state element are dropped (there is nothing to update).
    /// Multiple messages for the same key are applied in sequence, each
    /// seeing the effect of the previous one. Returns the changed delta, with
    /// one entry per *element* that changed (its final version), in
    /// first-change order.
    pub fn update_with_messages<B: Keyed<Key = A::Key>>(
        &mut self,
        messages: DataBag<B>,
        u: impl Fn(&A, &B) -> Option<A>,
    ) -> DataBag<A> {
        let state = std::slice::from_mut(&mut self.state);
        let Ok(delta) = ops::update(
            state,
            |_| 0,
            messages,
            &mut (),
            |_, m| total(m.key()),
            |_, a, m| {
                let new = u(a, &m);
                debug_assert!(
                    new.as_ref().is_none_or(|new| new.key() == a.key()),
                    "point-wise update must preserve the element key"
                );
                Ok(new)
            },
        );
        delta.into_iter().map(|e| e.value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Account {
        id: u64,
        balance: i64,
    }

    impl Keyed for Account {
        type Key = u64;
        fn key(&self) -> u64 {
            self.id
        }
    }

    #[derive(Clone, Debug)]
    struct Deposit {
        id: u64,
        amount: i64,
    }

    impl Keyed for Deposit {
        type Key = u64;
        fn key(&self) -> u64 {
            self.id
        }
    }

    fn accounts() -> DataBag<Account> {
        DataBag::from_seq(vec![
            Account { id: 1, balance: 10 },
            Account { id: 2, balance: 20 },
        ])
    }

    #[test]
    fn construction_keeps_one_element_per_key() {
        let sb = StatefulBag::new(DataBag::from_seq(vec![
            Account { id: 1, balance: 1 },
            Account { id: 1, balance: 2 },
        ]));
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.bag().fetch()[0].balance, 2);
    }

    #[test]
    fn update_returns_only_changed_delta() {
        let mut sb = StatefulBag::new(accounts());
        let delta = sb.update(|a| {
            if a.id == 1 {
                Some(Account {
                    id: 1,
                    balance: a.balance + 5,
                })
            } else {
                None
            }
        });
        assert_eq!(delta.count(), 1);
        assert_eq!(delta.fetch()[0].balance, 15);
        let state = sb.bag();
        assert!(state.exists(|a| a.id == 1 && a.balance == 15));
        assert!(state.exists(|a| a.id == 2 && a.balance == 20));
    }

    #[test]
    fn update_with_messages_routes_by_key() {
        let mut sb = StatefulBag::new(accounts());
        let msgs = DataBag::from_seq(vec![
            Deposit { id: 2, amount: 7 },
            Deposit { id: 9, amount: 1 }, // no matching state: dropped
        ]);
        let delta = sb.update_with_messages(msgs, |a, m| {
            Some(Account {
                id: a.id,
                balance: a.balance + m.amount,
            })
        });
        assert_eq!(delta.count(), 1);
        assert_eq!(delta.fetch()[0], Account { id: 2, balance: 27 });
    }

    #[test]
    fn multiple_messages_for_one_key_compose() {
        let mut sb = StatefulBag::new(accounts());
        let msgs = DataBag::from_seq(vec![
            Deposit { id: 1, amount: 1 },
            Deposit { id: 1, amount: 2 },
        ]);
        let delta = sb.update_with_messages(msgs, |a, m| {
            Some(Account {
                id: a.id,
                balance: a.balance + m.amount,
            })
        });
        // One delta entry per changed element (final version), not per message.
        assert_eq!(delta.count(), 1);
        assert_eq!(delta.fetch()[0].balance, 13);
    }

    #[test]
    fn state_and_deltas_come_back_in_first_insertion_order() {
        // 64 accounts, ids scattered, every id later re-inserted with a new
        // balance: the first position stays, the last value wins.
        let ids: Vec<u64> = (0..64).map(|i| (i * 37) % 64).collect();
        let rows = ids
            .iter()
            .map(|&id| Account { id, balance: 0 })
            .chain(ids.iter().map(|&id| Account {
                id,
                balance: id as i64,
            }));
        let a = StatefulBag::new(DataBag::from_seq(rows.clone()));
        let mut b = StatefulBag::new(DataBag::from_seq(rows));
        assert_eq!(a.bag().fetch(), b.bag().fetch());
        let want: Vec<Account> = ids
            .iter()
            .map(|&id| Account {
                id,
                balance: id as i64,
            })
            .collect();
        assert_eq!(a.bag().fetch(), want);

        // Deltas follow first-change order, one entry per changed key.
        let msgs = [5u64, 63, 5, 0].map(|id| Deposit { id, amount: 1 });
        let delta = b.update_with_messages(DataBag::from_seq(msgs), |a, m| {
            Some(Account {
                id: a.id,
                balance: a.balance + m.amount,
            })
        });
        let changed: Vec<(u64, i64)> = delta.fetch().iter().map(|a| (a.id, a.balance)).collect();
        assert_eq!(changed, vec![(5, 7), (63, 64), (0, 1)]);
        let all_ids: Vec<u64> = b
            .update(|a| Some(a.clone()))
            .fetch()
            .iter()
            .map(|a| a.id)
            .collect();
        assert_eq!(all_ids, ids);
    }

    #[test]
    fn declining_update_changes_nothing() {
        let mut sb = StatefulBag::new(accounts());
        let delta = sb.update(|_| None);
        assert!(delta.is_empty());
        assert_eq!(sb.bag().count(), 2);
    }
}
