//! Physical pipeline fusion — collapsing maximal chains of narrow operators
//! into single per-partition passes.
//!
//! Narrow operators (`Map`, `Filter`, `FlatMap`) neither move data between
//! partitions nor look across elements, so a chain of them can run as one
//! loop over each partition with no intermediate collection materialized
//! between steps. This is what Flink's operator chaining and Spark's
//! pipelined narrow stages do inside one task; here it is made explicit in
//! the plan language as a [`Plan::Pipeline`] node so the engine can execute
//! (and meter) the fused pass directly.
//!
//! The pass runs after caching and partition pulling: `Cache` and
//! `Repartition` nodes act as fusion barriers (a cache point must
//! materialize its input; a repartition moves rows), as do all wide
//! operators. Chains of length one are left untouched — a `Pipeline` always
//! absorbs at least two operators.
//!
//! Fusion is purely structural: the stages carry the exact UDFs of the nodes
//! they replace, in upstream → downstream order, so the engine can reproduce
//! the unfused semantics — including the simulated cost accounting —
//! bit for bit.

use crate::pipeline::{CStmt, CTermMut, OptimizationReport};
use crate::plan::{PipelineStage, Plan};

/// Rewrites every plan embedded in the compiled body, fusing narrow chains.
pub fn apply_pipeline_fusion(body: &mut [CStmt], report: &mut OptimizationReport) {
    for stmt in body {
        stmt.for_each_term_mut(|t| {
            if let CTermMut::Plan(plan) = t {
                fuse_in_place(plan, report)
            }
        });
        stmt.blocks_mut()
            .for_each(|b| apply_pipeline_fusion(b, report));
    }
}

/// True if the node is a narrow, partition-local, per-element operator.
fn is_narrow(plan: &Plan) -> bool {
    matches!(
        plan,
        Plan::Map { .. } | Plan::Filter { .. } | Plan::FlatMap { .. }
    )
}

/// Collapses the maximal narrow chain rooted at `plan` into a
/// [`Plan::Pipeline`] if it has ≥ 2 operators, and fuses below it.
fn fuse_in_place(plan: &mut Plan, report: &mut OptimizationReport) {
    let len = std::iter::successors(Some(&*plan), |p| p.children().next())
        .take_while(|p| is_narrow(p))
        .count();
    if len < 2 {
        plan.children_mut().for_each(|c| fuse_in_place(c, report));
        return;
    }
    // Walk down the chain, collecting stages downstream-first.
    let mut stages = Vec::with_capacity(len);
    let mut source = std::mem::replace(plan, Plan::Literal { rows: vec![] });
    while is_narrow(&source) {
        source = match source {
            Plan::Map { input, f } => {
                stages.push(PipelineStage::Map { f });
                *input
            }
            Plan::Filter { input, p } => {
                stages.push(PipelineStage::Filter { p });
                *input
            }
            Plan::FlatMap { input, param, body } => {
                stages.push(PipelineStage::FlatMap { param, body });
                *input
            }
            _ => unreachable!("is_narrow admits only Map/Filter/FlatMap"),
        };
    }
    fuse_in_place(&mut source, report);
    report.pipelines_fused += 1;
    report.pipeline_stages_fused += len;
    stages.reverse();
    *plan = Plan::Pipeline {
        input: Box::new(source),
        stages,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Lambda, ScalarExpr};

    fn fuse_plan(mut plan: Plan, report: &mut OptimizationReport) -> Plan {
        fuse_in_place(&mut plan, report);
        plan
    }

    fn src() -> Plan {
        Plan::Source { name: "xs".into() }
    }

    fn map_over(input: Plan) -> Plan {
        Plan::Map {
            input: Box::new(input),
            f: Lambda::new(["x"], ScalarExpr::var("x")),
        }
    }

    fn filter_over(input: Plan) -> Plan {
        Plan::Filter {
            input: Box::new(input),
            p: Lambda::new(["x"], ScalarExpr::lit(true)),
        }
    }

    #[test]
    fn fuses_map_filter_chain() {
        let mut report = OptimizationReport::default();
        let fused = fuse_plan(filter_over(map_over(src())), &mut report);
        match &fused {
            Plan::Pipeline { input, stages } => {
                assert_eq!(stages.len(), 2);
                assert_eq!(stages[0].op_name(), "Map");
                assert_eq!(stages[1].op_name(), "Filter");
                assert_eq!(**input, src());
            }
            other => panic!("expected Pipeline, got {other:?}"),
        }
        assert_eq!(report.pipelines_fused, 1);
        assert_eq!(report.pipeline_stages_fused, 2);
    }

    #[test]
    fn lone_narrow_op_untouched() {
        let mut report = OptimizationReport::default();
        let plan = map_over(src());
        let fused = fuse_plan(plan.clone(), &mut report);
        assert_eq!(fused, plan);
        assert_eq!(report.pipelines_fused, 0);
    }

    #[test]
    fn cache_is_a_fusion_barrier() {
        let mut report = OptimizationReport::default();
        // map ∘ cache ∘ filter ∘ map: only filter∘map below the cache... no —
        // the cache splits the chain into singletons above and a pair below.
        let plan = map_over(Plan::Cache {
            input: Box::new(filter_over(map_over(src()))),
        });
        let fused = fuse_plan(plan, &mut report);
        match &fused {
            Plan::Map { input, .. } => match &**input {
                Plan::Cache { input } => {
                    assert!(matches!(&**input, Plan::Pipeline { stages, .. } if stages.len() == 2));
                }
                other => panic!("expected Cache, got {other:?}"),
            },
            other => panic!("expected Map above the cache, got {other:?}"),
        }
        assert_eq!(report.pipelines_fused, 1);
    }

    #[test]
    fn fuses_on_both_sides_of_a_join() {
        let mut report = OptimizationReport::default();
        let plan = Plan::Cross {
            left: Box::new(filter_over(map_over(src()))),
            right: Box::new(map_over(filter_over(Plan::Source { name: "ys".into() }))),
        };
        let fused = fuse_plan(plan, &mut report);
        match &fused {
            Plan::Cross { left, right } => {
                assert!(matches!(&**left, Plan::Pipeline { .. }));
                assert!(matches!(&**right, Plan::Pipeline { .. }));
            }
            other => panic!("expected Cross, got {other:?}"),
        }
        assert_eq!(report.pipelines_fused, 2);
        assert_eq!(report.pipeline_stages_fused, 4);
    }
}
