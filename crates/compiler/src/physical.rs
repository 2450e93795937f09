//! Physical optimizations over compiled programs (paper, Section 4.4).
//!
//! Both passes exploit the holistic view over driver control flow that deep
//! embedding provides:
//!
//! * **Caching** — dataflow results referenced more than once (in particular
//!   referenced inside a loop while defined outside it) are wrapped in a
//!   [`Plan::Cache`] node. Without it, lazy evaluation re-executes the whole
//!   lineage on every reference — once per loop iteration.
//! * **Partition pulling** — when a join inside a loop consumes a bag defined
//!   outside the loop (through partition-preserving operators), the required
//!   hash partitioning is enforced at the *producer*, before the loop (and
//!   before the cache), so the per-iteration shuffle is paid only once.

use crate::pipeline::{CRValue, CStmt, CTerm, OptimizationReport};
use crate::plan::Plan;

// ------------------------------------------------------------------ caching

/// Applies the caching heuristic: every bag binding whose *name* is
/// referenced at least twice across the whole program (references inside
/// loops weighted double — they repeat per iteration) is wrapped in a
/// `Cache`. A mutable binding rebound inside a loop counts its readers on
/// every iteration, so iterative state (k-means centroids, PageRank ranks)
/// is materialized per step instead of dragging an ever-deeper lazy lineage.
pub fn apply_caching(body: &mut [CStmt], report: &mut OptimizationReport) {
    let mut names: Vec<String> = Vec::new();
    collect_bound_bag_names(body, &mut names);
    names.sort();
    names.dedup();
    for name in names {
        let weight: usize = body.iter().map(|s| ref_weight(s, &name, 1)).sum();
        if weight >= 2 {
            let mut wrapped = false;
            wrap_binds(body, &name, &mut wrapped);
            if wrapped {
                report.cached.push(name);
            }
        }
    }
}

fn collect_bound_bag_names(body: &[CStmt], out: &mut Vec<String>) {
    for s in body {
        if let CStmt::Bind {
            name,
            value: CRValue::Bag(_),
            ..
        } = s
        {
            out.push(name.clone());
        }
        s.blocks().for_each(|b| collect_bound_bag_names(b, out));
    }
}

/// Wraps every bag bind of `name` in a `Cache` marker.
fn wrap_binds(body: &mut [CStmt], name: &str, wrapped: &mut bool) {
    for s in body.iter_mut() {
        match s {
            CStmt::Bind {
                name: n,
                value: CRValue::Bag(plan),
                ..
            } if n == name && !matches!(plan, Plan::Cache { .. }) => {
                let inner = std::mem::replace(plan, Plan::Literal { rows: vec![] });
                *plan = Plan::Cache {
                    input: Box::new(inner),
                };
                *wrapped = true;
            }
            _ => s.blocks_mut().for_each(|b| wrap_binds(b, name, wrapped)),
        }
    }
}

/// Weighted reference count of bag `name` in a compiled statement — in its
/// plans and in the lambdas it holds; references inside nested loops are
/// weighted double (they repeat per iteration).
fn ref_weight(s: &CStmt, name: &str, factor: usize) -> usize {
    let mut own = 0;
    s.for_each_term(|t| match t {
        CTerm::Plan(p) => own += p.bag_refs().iter().filter(|r| *r == name).count(),
        CTerm::Term(t) => t.for_each_bag_ref(|r| own += usize::from(r == name)),
    });
    let nested = |body: &[CStmt], factor| -> usize {
        body.iter().map(|s| ref_weight(s, name, factor)).sum()
    };
    match s {
        // A while condition's thunks re-run on every iteration.
        CStmt::While { body, .. } => 2 * factor * own + nested(body, 2 * factor),
        CStmt::ForEach { body, .. } => factor * own + nested(body, 2 * factor),
        // Branches are alternatives; count the heavier one.
        CStmt::If {
            then_branch,
            else_branch,
            ..
        } => factor * own + nested(then_branch, factor).max(nested(else_branch, factor)),
        _ => factor * own,
    }
}

// -------------------------------------------------------- partition pulling

/// A partitioning requirement discovered at a join inside a loop.
struct PullCandidate {
    /// The producing binding.
    def: String,
    /// The key the consumer joins on (params refer to the def's elements).
    key: crate::expr::Lambda,
}

/// Applies partition pulling: joins inside loops whose inputs reach back
/// (through partition-preserving `Filter`s) to bindings are recorded, and the
/// partitioning is enforced at the binding — inside its `Cache` if present.
pub fn apply_partition_pulling(body: &mut [CStmt], report: &mut OptimizationReport) {
    let mut candidates: Vec<PullCandidate> = Vec::new();
    collect_candidates(body, false, &mut candidates);
    if candidates.is_empty() {
        return;
    }
    enforce(body, &candidates, report);
}

fn collect_candidates(body: &[CStmt], in_loop: bool, out: &mut Vec<PullCandidate>) {
    for s in body {
        let in_loop = in_loop || matches!(s, CStmt::While { .. } | CStmt::ForEach { .. });
        s.for_each_term(|t| {
            if let CTerm::Plan(p) = t {
                collect_from_plan(p, in_loop, out)
            }
        });
        s.blocks().for_each(|b| collect_candidates(b, in_loop, out));
    }
}

fn collect_from_plan(plan: &Plan, in_loop: bool, out: &mut Vec<PullCandidate>) {
    if !in_loop {
        return;
    }
    plan.visit(&mut |p| {
        if let Plan::Join {
            left,
            right,
            lkey,
            rkey,
            ..
        } = p
        {
            for (side, key) in [(left, lkey), (right, rkey)] {
                if let Some(def) = chase_partition_preserving(side) {
                    if !out.iter().any(|c| c.def == def) {
                        out.push(PullCandidate {
                            def,
                            key: key.clone(),
                        });
                    }
                }
            }
        }
    });
}

/// Walks down through partition-preserving operators (filters) to find a
/// driver-bag reference whose elements are exactly the join input's elements.
fn chase_partition_preserving(plan: &Plan) -> Option<String> {
    match plan {
        Plan::Filter { input, .. } => chase_partition_preserving(input),
        Plan::RefBag { name } => Some(name.clone()),
        _ => None,
    }
}

fn enforce(body: &mut [CStmt], candidates: &[PullCandidate], report: &mut OptimizationReport) {
    for s in body.iter_mut() {
        match s {
            CStmt::Bind {
                name,
                value: CRValue::Bag(plan),
                ..
            } => {
                if let Some(c) = candidates.iter().find(|c| &c.def == name) {
                    if insert_repartition(plan, &c.key) {
                        report.partitions_pulled.push(name.clone());
                    }
                }
            }
            _ => s.blocks_mut().for_each(|b| enforce(b, candidates, report)),
        }
    }
}

/// Inserts a `Repartition` beneath the binding's `Cache` (if any), so the
/// shuffled layout is what gets cached. Returns false if one is already
/// enforced.
fn insert_repartition(plan: &mut Plan, key: &crate::expr::Lambda) -> bool {
    match plan {
        Plan::Cache { input } => insert_repartition(input, key),
        Plan::Repartition { .. } => false,
        other => {
            let inner = std::mem::replace(other, Plan::Literal { rows: vec![] });
            *other = Plan::Repartition {
                input: Box::new(inner),
                key: key.clone(),
            };
            true
        }
    }
}
