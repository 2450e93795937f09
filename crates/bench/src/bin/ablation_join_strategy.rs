//! Ablation: broadcast vs. repartition join strategy as the build side
//! grows — the decision the paper's pipeline defers to just-in-time
//! dataflow generation (Section 4.3.1).
//!
//! The workflow's email/blacklist semi-join runs with the strategy pinned to
//! broadcast, pinned to repartition, and left on automatic; the automatic
//! choice should track the winner across the crossover.

use emma::prelude::*;
use emma_bench::print_table;
use emma_compiler::pipeline::{CStmt, CTermMut};
use emma_compiler::plan::{JoinStrategy, Plan};
use emma_datagen::emails::{self, EmailSpec};

/// Pins every Auto join in a compiled program to the given strategy.
fn pin_strategy(body: &mut [CStmt], strategy: JoinStrategy) {
    fn pin_plan(plan: &mut Plan, strategy: JoinStrategy) {
        if let Plan::Join { strategy: s, .. } = plan {
            *s = strategy;
        }
        plan.children_mut().for_each(|c| pin_plan(c, strategy));
    }
    for s in body.iter_mut() {
        s.for_each_term_mut(|t| {
            if let CTermMut::Plan(plan) = t {
                pin_plan(plan, strategy)
            }
        });
        s.blocks_mut().for_each(|b| pin_strategy(b, strategy));
    }
}

fn main() {
    // One pass of the email/blacklist semi-join, blacklist size swept.
    let program = Program::new(vec![Stmt::write(
        "hits",
        BagExpr::read("emails_raw").filter(Lambda::new(
            ["e"],
            BagExpr::read("blacklist").exists(Lambda::new(
                ["l"],
                ScalarExpr::var("l").get(0).eq(ScalarExpr::var("e").get(0)),
            )),
        )),
    )]);

    let mut rows = Vec::new();
    for blacklist in [8usize, 64, 512, 4_096] {
        let spec = EmailSpec {
            emails: 4_000,
            blacklist,
            ip_domain: 8_192,
            body_bytes: 200,
            info_bytes: 60,
            seed: 42,
        };
        let (emails_rows, blacklist_rows) = emails::generate(&spec);
        let catalog = Catalog::new()
            .with("emails_raw", emails_rows)
            .with("blacklist", blacklist_rows);
        let mut secs = Vec::new();
        let mut results: Vec<usize> = Vec::new();
        for strategy in [
            None,
            Some(JoinStrategy::Broadcast),
            Some(JoinStrategy::Repartition),
        ] {
            let mut compiled = parallelize(&program, &OptimizerFlags::all());
            if let Some(st) = strategy {
                pin_strategy(&mut compiled.body, st);
            }
            let run = Engine::sparrow().run(&compiled, &catalog).expect("run");
            secs.push(run.stats.simulated_secs);
            results.push(run.writes["hits"].len());
        }
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "strategies must agree on results"
        );
        let best = secs[1].min(secs[2]);
        rows.push(vec![
            format!("{blacklist}"),
            format!("{:.2}s", secs[0]),
            format!("{:.2}s", secs[1]),
            format!("{:.2}s", secs[2]),
            if (secs[0] - best).abs() < best * 0.25 {
                "tracks winner".into()
            } else {
                "suboptimal".into()
            },
        ]);
    }
    print_table(
        "Ablation — join strategy crossover (semi-join build side sweep)",
        &[
            "Blacklist rows",
            "Auto",
            "Broadcast",
            "Repartition",
            "Auto verdict",
        ],
        &rows,
    );
}
