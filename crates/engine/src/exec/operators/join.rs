//! Joins: broadcast or repartition, decided just in time from the measured
//! build side.

use std::sync::OnceLock;

use emma_compiler::plan::{JoinKind, JoinStrategy};

use crate::exec::keyed::{PartKeys, Placement};
use crate::exec::*;

impl Session<'_> {
    /// Runs a `Plan::Join`.
    pub(crate) fn exec_join(
        &mut self,
        plan: &Plan,
        env: &EnvSnapshot,
    ) -> Result<PlanResult, ExecError> {
        let Plan::Join {
            left,
            right,
            lkey,
            rkey,
            residual,
            kind,
            strategy,
        } = plan
        else {
            unreachable!("exec_join runs Join nodes")
        };
        let (kind, residual) = (*kind, residual.as_ref());
        let probe_split = self.split_kind(plan.skew_eligibility());
        let l = self.exec_keyed_input(left, lkey, env, true)?;
        let r = self.exec_keyed_input(right, rkey, env, true)?;
        let base = self.eval_base(residual.map(Term::Lambda).as_slice(), env)?;

        // Just-in-time strategy resolution from actual input sizes. What
        // this measures of the right side, its shuffle then carries.
        let strategy = match strategy {
            JoinStrategy::Auto => {
                if r.data.total_bytes() <= self.engine.spec.broadcast_threshold {
                    JoinStrategy::Broadcast
                } else {
                    JoinStrategy::Repartition
                }
            }
            s => *s,
        };

        self.charge(Charge::Stage);

        let (probe, build) = match strategy {
            JoinStrategy::Broadcast => {
                // Ship the entire right side to every node, as one build
                // partition every probe task reads; left stays put.
                let bytes = r.data.total_bytes();
                self.charge(Charge::DriverLink(bytes));
                self.charge(Charge::Broadcast(bytes));
                (
                    self.keyed(l, lkey, env, Placement::InPlace)?,
                    self.keyed(r.gathered(), rkey, env, Placement::InPlace)?,
                )
            }
            JoinStrategy::Repartition | JoinStrategy::Auto => {
                // Only the probe (left) side splits — the build side's
                // partitions are replicated across their bucket's
                // sub-partitions instead, which is the classic skew-join
                // move when the build side is the small one.
                let probe = self.keyed(l, lkey, env, Placement::Hashed(probe_split))?;
                let build = self.keyed(r, rkey, env, Placement::Hashed(None))?;
                if let Some(sp) = &probe.split {
                    // Each extra probe sub-partition re-reads its bucket's
                    // build partition from the shuffle output.
                    let bytes = (sp.ways.iter().zip(&build.data.parts))
                        .filter(|(&w, _)| w > 1)
                        .map(|(&w, part)| part.bytes() * (w as u64 - 1))
                        .sum();
                    self.charge(Charge::ReplicatedBuild(bytes));
                }
                (probe, build)
            }
        };
        let res_prep = residual.map(|res| self.prepare_lambda(res, &base));

        // Build a hash table per build partition, probe with the left — one
        // probe task per left partition, fanned out on the pool. A build
        // partition's keys and table are made once, by the first probe task
        // that reads it, and shared with the rest: every task of a broadcast
        // join, every sub-partition of a split bucket. A build-key error is
        // what each of those tasks returns, before it looks at a probe row.
        type BuildTable<'k> = (PartKeys<'k>, HashSlots);
        let tables: Vec<OnceLock<Result<BuildTable<'_>, ValueError>>> =
            build.data.parts.iter().map(|_| OnceLock::new()).collect();
        let catalog = self.catalog;
        let lwork = &probe.data;
        let probe_rows = lwork.total_rows() + build.data.total_rows();
        let outs = self.run_tasks(true, lwork.parts.len(), probe_rows, |pi, tally| {
            // Under a probe split, every sub-partition of a hot bucket reads
            // that bucket's (replicated) build partition.
            let ri = match &probe.split {
                Some(sp) => sp.parent(pi),
                None => pi.min(tables.len() - 1),
            };
            let rrows = &build.data.parts[ri];
            let built = tables[ri].get_or_init(|| {
                let keys = build.keys(ri, catalog, tally);
                let table = HashSlots::build(keys.iter().map(|hk| hk.map(|&(h, _)| h)))?;
                Ok((keys, table))
            });
            let (rkeys, table) = built.as_ref().map_err(Clone::clone)?;
            let lkeys = probe.keys(pi, catalog, tally);
            let mut rescx = res_prep.as_ref().map(|p| p.ctx(&base));
            let mut out = Vec::new();
            for (lrow, hk) in lwork.parts[pi].iter().zip(lkeys.iter()) {
                let (h, k) = hk?;
                let mut any = false;
                for slot in table.slots(*h) {
                    if rkeys.keys[slot].1 != *k {
                        continue;
                    }
                    let rrow = &rrows[slot];
                    let pass = match (&res_prep, &mut rescx) {
                        (Some(res), Some(cx)) => res
                            .call(&[lrow.clone(), rrow.clone()], cx, catalog)?
                            .as_bool()?,
                        _ => true,
                    };
                    if pass {
                        any = true;
                        if kind == JoinKind::Inner {
                            out.push(Value::tuple([lrow.clone(), rrow.clone()]));
                        } else {
                            break;
                        }
                    }
                }
                match kind {
                    JoinKind::LeftSemi if any => out.push(lrow.clone()),
                    JoinKind::LeftAnti if !any => out.push(lrow.clone()),
                    _ => {}
                }
            }
            Ok(out)
        })?;
        let produced: u64 = outs.iter().map(|out| out.len() as u64).sum();
        self.charge(Charge::cpu(
            lwork.total_rows() + produced,
            lwork.max_part_rows() + produced / self.dop().max(1) as u64,
        ));
        // Semi/anti joins keep their probe rows where they are, so they keep
        // the probe layout's claim: the left key after a repartition, the
        // left input's own under broadcast, none if the probe side was split
        // (two-level-hashed).
        let partitioning = (kind != JoinKind::Inner)
            .then(|| lwork.partitioning.clone())
            .flatten();
        let parts = outs.into_iter().map(Part::from).collect();
        Ok(PlanResult::Bag(Partitioned {
            parts,
            partitioning,
        }))
    }
}

/// A build partition's hash table: its `(hash, slot)` pairs, sorted, so the
/// slots of one hash are one run in ascending order — the per-key match
/// order. Keys that share a hash are told apart at probe time.
struct HashSlots(Vec<(u64, u32)>);

impl HashSlots {
    /// The table over each row's key hash, in row order, up to the first
    /// key that raised — whose error it returns.
    fn build(hashes: impl Iterator<Item = Result<u64, ValueError>>) -> Result<Self, ValueError> {
        let mut table = Vec::with_capacity(hashes.size_hint().0);
        for (slot, h) in hashes.enumerate() {
            table.push((
                h?,
                u32::try_from(slot).expect("a build partition of < 2^32 rows"),
            ));
        }
        table.sort_unstable();
        Ok(HashSlots(table))
    }

    /// The slots whose key hashed to `h`, ascending.
    fn slots(&self, h: u64) -> impl Iterator<Item = usize> + '_ {
        let run = &self.0[self.0.partition_point(|&(th, _)| th < h)..];
        run.iter()
            .take_while(move |&&(th, _)| th == h)
            .map(|&(_, slot)| slot as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hash_s_slots_come_back_ascending_and_a_key_error_stops_the_build() {
        let table = HashSlots::build([5, 3, 5, 9, 3, 5].into_iter().map(Ok)).unwrap();
        let slots = |h| table.slots(h).collect::<Vec<_>>();
        assert_eq!(slots(5), [0, 2, 5]);
        assert_eq!(slots(3), [1, 4]);
        assert_eq!(slots(9), [3]);
        assert_eq!(slots(4), Vec::<usize>::new());
        assert_eq!(slots(u64::MAX), Vec::<usize>::new());

        let raised = ValueError::Arithmetic("raised".into());
        let hashes = [Ok(1), Err(raised.clone()), Ok(2)];
        assert_eq!(HashSlots::build(hashes.into_iter()).err(), Some(raised));
    }
}
