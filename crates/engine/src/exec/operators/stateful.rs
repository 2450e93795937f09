//! Stateful bags (the paper's Listings 6/7): keyed state held in place,
//! created from a bag and updated point-wise by routed messages.

use crate::exec::keyed::{next_key, Placement};
use crate::exec::prepare::prepare_lambda;
use crate::exec::*;

use std::ops::Range;

/// Keyed state held in place on the cluster: hash-partitioned by the element
/// key, updated point-wise, never re-shuffled — the paper's observation that
/// PageRank "stores the vertices and their ranks already partitioned by the
/// vertex ID in-memory in a form that is ready to be consumed by the next
/// iteration".
pub(crate) struct EngineState {
    key: Lambda,
    /// Per-partition entries by key, in first-insertion order.
    parts: Vec<InsertionMap<Value, Value>>,
    /// The skew split the creating shuffle applied, if any. Message routing
    /// must replay the same two-level hash (`bucket`, then key-preserving
    /// sub-hash) to find an entry's slot.
    split: Option<SplitPlan>,
}

impl EngineState {
    pub(crate) fn snapshot(&self) -> Partitioned {
        Partitioned {
            parts: (self.parts.iter())
                .map(|entries| entries.values().cloned().collect())
                .collect(),
            partitioning: self.partitioning(),
        }
    }

    /// What the state's layout, and a delta's, may claim: a split layout is
    /// two-level-hashed, not `hash % n`, so it must never satisfy a plain
    /// partitioning request (or let a downstream shuffle be elided).
    fn partitioning(&self) -> Option<Partitioning> {
        self.split.is_none().then(|| Partitioning {
            key: self.key.clone(),
            parts: self.parts.len(),
        })
    }

    /// The state slots, out of `nparts`, that a message routed to shuffle
    /// bucket `pi` can reach: slot `pi` unsplit, the bucket's sub-partitions
    /// under the creating shuffle's `split`. The entry of a key that hashed
    /// to `h` is in the one [`skew::sub_hash`] picks — the same two-level
    /// placement that shuffle used, so updates always find their entry
    /// locally.
    fn slot_for(split: Option<&SplitPlan>, nparts: usize, pi: usize) -> Range<usize> {
        match split {
            None => pi % nparts..pi % nparts + 1,
            Some(sp) => {
                let b = pi % sp.ways.len();
                sp.offsets[b]..sp.offsets[b] + sp.ways[b]
            }
        }
    }
}

impl Session<'_> {
    /// Runs `CStmt::StatefulCreate`: binds `name` to the state built from
    /// `plan`'s rows, one entry per `key`.
    pub(crate) fn stateful_create(
        &mut self,
        name: &str,
        plan: &Plan,
        key: &Lambda,
    ) -> Result<(), ExecError> {
        let env = self.snapshot();
        let d = self.exec_keyed_input(plan, key, &env, true)?;
        // Stateful bags split key-preservingly: every copy of a key lands in
        // the same sub-partition, so per-slot lookups stay local and updates
        // route through the same two-level hash.
        let kind = (self.engine.skew.is_some()).then_some(SplitKind::KeyPreserving);
        let keyed = self.keyed(d, key, &env, Placement::Hashed(kind))?;
        let (data, catalog) = (&keyed.data, self.catalog);
        let parts = self.run_tasks(true, data.parts.len(), data.total_rows(), |pi, tally| {
            let keys = keyed.keys(pi, catalog, tally);
            let (rows, mut keys) = (data.parts[pi].iter().cloned(), keys.iter());
            ops::create(rows, &mut keys, |ks, _| next_key(ks))
        })?;
        let state = EngineState {
            key: key.clone(),
            parts,
            split: keyed.split,
        };
        let binding = Binding::Stateful(Arc::new(Mutex::new(state)));
        self.env.insert(name.to_string(), binding);
        self.check_budget()
    }

    /// Runs `CStmt::StatefulUpdate`: routes `messages` to the entries of
    /// `state` by `message_key`, applies `update` to each, and binds `delta`
    /// to the entries that changed.
    pub(crate) fn stateful_update(
        &mut self,
        state: &str,
        delta: &str,
        messages: &Plan,
        message_key: &Lambda,
        update: &Lambda,
    ) -> Result<(), ExecError> {
        let env = self.snapshot();
        let msgs = self.exec_keyed_input(messages, message_key, &env, true)?;
        // Whatever else `state` names, no stateful bag is an unbound one —
        // the interpreter's error, at the interpreter's point.
        let Some(Binding::Stateful(cell)) = self.env.get(state).cloned() else {
            return Err(ExecError::Eval(ValueError::UnboundVariable(state.into())));
        };
        // Route messages to their state elements: a shuffle on the message
        // key, colocated with the state partitioning.
        let routed = self.keyed(msgs, message_key, &env, Placement::Hashed(None))?;
        let base = self.eval_base(&[Term::Lambda(update)], &env)?;
        let (up_prep, catalog) = (prepare_lambda(update), self.catalog);
        let mut st = cell.lock().unwrap();
        let delta_partitioning = st.partitioning();
        let EngineState { parts, split, .. } = &mut *st;
        let (split, nparts) = (split.as_ref(), parts.len().max(1));
        // Each bucket's task owns the state slots its messages can reach.
        // State was hash-partitioned by key with the same partition count
        // (plus the secondary split hash when the creating shuffle split), so
        // those ranges tile the state in bucket order: disjoint, asserted.
        let buckets = routed.data.parts.len();
        let mut rest = &mut parts[..];
        let owned: Vec<Mutex<&mut [InsertionMap<Value, Value>]>> = (0..buckets)
            .map(|pi| {
                let slots = EngineState::slot_for(split, nparts, pi);
                assert_eq!(
                    slots.start,
                    nparts - rest.len(),
                    "slot ranges tile the state"
                );
                let (mine, tail) = std::mem::take(&mut rest).split_at_mut(slots.len());
                rest = tail;
                Mutex::new(mine)
            })
            .collect();
        let deltas = self.run_tasks(true, buckets, routed.data.total_rows(), |pi, tally| {
            let keys = routed.keys(pi, catalog, tally);
            let mut mine = owned[pi].lock().expect("one body runs per bucket");
            let ways = mine.len() as u64;
            let slot = |h| (skew::sub_hash(h) % ways) as usize;
            let changed = ops::update(
                &mut mine,
                slot,
                routed.data.parts[pi].iter(),
                &mut (keys.iter(), up_prep.ctx(&base)),
                |(ks, _), _| next_key(ks),
                |(_, ucx), current, msg| {
                    let new = up_prep.call(&[current.clone(), msg.clone()], ucx, catalog)?;
                    Ok((!new.is_null()).then_some(new))
                },
            )?;
            let mut delta = vec![Vec::new(); mine.len()];
            for e in changed {
                delta[slot(e.hash)].push(e.value);
            }
            Ok(delta)
        })?;
        drop(st);
        let processed = routed.data.total_rows();
        self.charge(Charge::cpu(processed, processed / self.dop().max(1) as u64));
        let delta_data = Partitioned {
            parts: deltas.into_iter().flatten().map(Part::from).collect(),
            partitioning: delta_partitioning,
        };
        // Bind the delta as an already-materialized bag.
        let placeholder = Plan::Literal { rows: vec![] };
        let binding = Thunk::bind(&placeholder, self.snapshot(), Some(delta_data));
        self.env.insert(delta.to_string(), binding);
        self.check_budget()
    }
}
