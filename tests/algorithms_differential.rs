//! End-to-end differential tests: every paper algorithm, compiled under
//! every optimizer configuration, must produce (approximately) the same
//! results on both engines as the sequential reference interpreter — and,
//! where a typed local implementation exists, match it too.

mod common;

use common::*;
use emma::algorithms::{connected_components as cc, groupagg, kmeans, pagerank, spam, tpch};
use emma::prelude::*;
use emma_datagen::emails::EmailSpec;
use emma_datagen::graph::{self, GraphSpec};
use emma_datagen::points::{self, PointsSpec};
use emma_datagen::tpch::TpchSpec;
use emma_datagen::KeyDistribution;

fn small_points() -> PointsSpec {
    PointsSpec {
        n: 300,
        ..Default::default()
    }
}

fn small_graph() -> GraphSpec {
    GraphSpec {
        vertices: 120,
        avg_degree: 4,
        ..Default::default()
    }
}

fn small_emails() -> EmailSpec {
    EmailSpec {
        emails: 300,
        blacklist: 60,
        ip_domain: 300,
        body_bytes: 40,
        info_bytes: 20,
        seed: 7,
    }
}

fn small_tpch() -> TpchSpec {
    TpchSpec {
        scale: 0.1,
        seed: 7,
    }
}

#[test]
fn kmeans_differential_across_flags_and_engines() {
    let spec = small_points();
    let params = kmeans::KmeansParams::default();
    let program = kmeans::program(&params, points::initial_centroids(&spec));
    let catalog = kmeans::catalog(&spec);
    for flags in flag_matrix() {
        for p in [Personality::sparrow(), Personality::flamingo()] {
            assert_engine_matches_interp(&program, &catalog, &flags, &tiny_engine(p), 1e-6);
        }
    }
}

#[test]
fn kmeans_engine_matches_typed_local_implementation() {
    let spec = small_points();
    let params = kmeans::KmeansParams::default();
    let program = kmeans::program(&params, points::initial_centroids(&spec));
    let catalog = kmeans::catalog(&spec);
    let compiled = parallelize(&program, &OptimizerFlags::all());
    let run = tiny_engine(Personality::sparrow())
        .run(&compiled, &catalog)
        .expect("engine run");

    // Ground truth: the typed local implementation.
    let (pts_rows, _) = points::generate(&spec);
    let pts: Vec<(i64, Vec<f64>)> = pts_rows
        .iter()
        .map(|p| {
            (
                p.field(0).unwrap().as_int().unwrap(),
                p.field(1).unwrap().as_vector().unwrap().to_vec(),
            )
        })
        .collect();
    let init: Vec<(i64, Vec<f64>)> = points::initial_centroids(&spec)
        .iter()
        .map(|c| {
            (
                c.field(0).unwrap().as_int().unwrap(),
                c.field(1).unwrap().as_vector().unwrap().to_vec(),
            )
        })
        .collect();
    let truth = kmeans::local_kmeans(&pts, &init, params.epsilon);

    // Compare cluster assignment: each written solution is (cid, point);
    // recompute nearest-center under the local truth and compare.
    let dist = |a: &[f64], b: &[f64]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    };
    let solutions = &run.writes[kmeans::SINK];
    assert_eq!(solutions.len(), pts.len());
    let mut disagreements = 0usize;
    for s in solutions {
        let cid = s.field(0).unwrap().as_int().unwrap();
        let pos = s.field(1).unwrap().field(1).unwrap().as_vector().unwrap();
        let best = truth
            .iter()
            .min_by(|a, b| dist(&a.1, pos).total_cmp(&dist(&b.1, pos)))
            .unwrap()
            .0;
        if best != cid {
            disagreements += 1;
        }
    }
    // Well-separated blobs: assignments agree (allow boundary noise ≤ 1 %).
    assert!(
        disagreements <= solutions.len() / 100,
        "{disagreements} of {} assignments disagree with the local run",
        solutions.len()
    );
}

#[test]
fn pagerank_differential_across_flags() {
    let gspec = small_graph();
    let params = pagerank::PagerankParams {
        iterations: 5,
        num_pages: gspec.vertices,
        ..Default::default()
    };
    let program = pagerank::program(&params);
    let catalog = pagerank::catalog(&gspec);
    for flags in flag_matrix() {
        assert_engine_matches_interp(
            &program,
            &catalog,
            &flags,
            &tiny_engine(Personality::sparrow()),
            1e-6,
        );
    }
}

/// The two iterative programs may get faster only by doing the same work
/// faster. On the default tier, on the interpreter alone and at batch 64 they
/// give the interpreter's rows and — exactly — the records, stages and
/// simulated clock written here from the commit before the scalar tier
/// started reading nested bags by reference, and the refusals written when
/// the messages' unnest head began feeding the kernels: a change that moves
/// stage structure or the fallback count fails here, not in a benchmark.
#[test]
fn iterative_programs_do_the_same_work_on_every_tier() {
    let gspec = small_graph();
    let params = pagerank::PagerankParams {
        iterations: 5,
        num_pages: gspec.vertices,
        ..Default::default()
    };
    // (records_processed, stages, vector_fallbacks, simulated_secs bits)
    let cases = [
        (
            pagerank::program(&params),
            pagerank::catalog(&gspec),
            (8475u64, 23u64, 0u64, 4617844881388415361u64),
        ),
        (
            cc::stateful_program(),
            cc::catalog(&gspec),
            (6695, 47, 0, 4621502485543244773),
        ),
    ];
    for (program, catalog, (records, stages, fallbacks, clock)) in cases {
        let expected = Interp::new(&catalog).run(&program).expect("interp run");
        let compiled = parallelize(&program, &OptimizerFlags::all());
        let interpreted = parallelize(&program, &OptimizerFlags::all().with_compiled_eval(false));
        let engine = || tiny_engine(Personality::sparrow());
        let default = engine().run(&compiled, &catalog).expect("default tier");
        for (sink, rows) in &expected.writes {
            assert!(
                approx_rows_eq(rows, &default.writes[sink], 1e-6),
                "sink `{sink}`"
            );
        }
        let tiers = [
            ("default", engine(), &compiled, fallbacks),
            // The interpreter alone never asks the kernels, so none refuse.
            ("interpreter", engine(), &interpreted, 0),
            (
                "batch 64",
                engine().with_vectorized_eval(BatchConfig::new(64)),
                &compiled,
                fallbacks,
            ),
        ];
        for (tier, engine, program, fallbacks) in tiers {
            let run = engine.run(program, &catalog).expect("engine run");
            assert_eq!(run.writes, default.writes, "{tier}: rows");
            let got = (
                run.stats.records_processed,
                run.stats.stages,
                run.stats.vector_fallbacks,
                run.stats.simulated_secs.to_bits(),
            );
            assert_eq!(
                got,
                (records, stages, fallbacks, clock),
                "{tier}: {}",
                run.stats
            );
        }
    }
}

#[test]
fn pagerank_ranks_form_a_distribution_and_favor_popular_vertices() {
    let gspec = small_graph();
    let params = pagerank::PagerankParams {
        iterations: 15,
        num_pages: gspec.vertices,
        ..Default::default()
    };
    let compiled = parallelize(&pagerank::program(&params), &OptimizerFlags::all());
    let run = tiny_engine(Personality::sparrow())
        .run(&compiled, &pagerank::catalog(&gspec))
        .expect("engine run");
    let ranks = &run.writes[pagerank::SINK];
    // The Zipf target-popularity makes vertex 0 the most linked-to.
    let rank_of = |id: i64| -> f64 {
        ranks
            .iter()
            .find(|r| r.field(0).unwrap().as_int().unwrap() == id)
            .map(|r| r.field(1).unwrap().as_float().unwrap())
            .unwrap_or(0.0)
    };
    let r0 = rank_of(0);
    let tail_avg: f64 = (60..120).map(rank_of).sum::<f64>() / 60.0;
    assert!(
        r0 > tail_avg * 5.0,
        "hub rank {r0} vs tail average {tail_avg}"
    );
}

#[test]
fn connected_components_differential_and_ground_truth() {
    let gspec = small_graph();
    let program = cc::program();
    let catalog = cc::catalog(&gspec);
    for flags in flag_matrix() {
        assert_engine_matches_interp(
            &program,
            &catalog,
            &flags,
            &tiny_engine(Personality::flamingo()),
            0.0,
        );
    }
    // Cross-check against the typed StatefulBag variant (Listing 7):
    // components must induce the same partition of vertices, even though the
    // dataflow form uses min-labels and Listing 7 uses max-labels.
    let adjacency_rows = graph::adjacency(&gspec);
    let mut undirected: std::collections::HashMap<i64, Vec<i64>> = std::collections::HashMap::new();
    for row in &adjacency_rows {
        let v = row.field(0).unwrap().as_int().unwrap();
        undirected.entry(v).or_default();
        for n in row.field(1).unwrap().as_bag().unwrap() {
            let n = n.as_int().unwrap();
            undirected.entry(v).or_default().push(n);
            undirected.entry(n).or_default().push(v);
        }
    }
    let adj: Vec<(i64, Vec<i64>)> = undirected.into_iter().collect();
    let truth = cc::local_cc_stateful(&adj);
    let truth_map: std::collections::HashMap<i64, i64> = truth.into_iter().collect();

    let compiled = parallelize(&program, &OptimizerFlags::all());
    let run = tiny_engine(Personality::sparrow())
        .run(&compiled, &catalog)
        .expect("engine run");
    let comps = &run.writes[cc::SINK];
    // Same-partition check: two vertices share a dataflow label iff they
    // share a Listing-7 label.
    let got: std::collections::HashMap<i64, i64> = comps
        .iter()
        .map(|c| {
            (
                c.field(0).unwrap().as_int().unwrap(),
                c.field(1).unwrap().as_int().unwrap(),
            )
        })
        .collect();
    for (v, label) in &got {
        for (w, label2) in &got {
            let same_dataflow = label == label2;
            let same_truth = truth_map[v] == truth_map[w];
            assert_eq!(
                same_dataflow, same_truth,
                "vertices {v} and {w} disagree on connectivity"
            );
        }
    }
}

#[test]
fn spam_workflow_differential_across_flags_and_engines() {
    let espec = small_emails();
    let program = spam::program(emma_datagen::emails::classifiers(3));
    let catalog = spam::catalog(&espec);
    for flags in flag_matrix() {
        for p in [Personality::sparrow(), Personality::flamingo()] {
            assert_engine_matches_interp(&program, &catalog, &flags, &tiny_engine(p), 0.0);
        }
    }
}

#[test]
fn spam_workflow_picks_the_strictest_classifier() {
    // Higher threshold ⇒ more emails classified spam ⇒ fewer non-spam from
    // blacklisted servers ⇒ fewer hits. The strictest classifier must win.
    let espec = small_emails();
    let classifiers = emma_datagen::emails::classifiers(3); // 20, 30, 40
    let program = spam::program(classifiers);
    let compiled = parallelize(&program, &OptimizerFlags::all());
    let run = tiny_engine(Personality::sparrow())
        .run(&compiled, &spam::catalog(&espec))
        .expect("engine run");
    let best = &run.writes[spam::SINK][0];
    assert_eq!(best.field(0).unwrap().as_int().unwrap(), 40);
}

#[test]
fn tpch_q1_differential_and_shape() {
    let spec = small_tpch();
    let program = tpch::q1_program();
    let catalog = tpch::catalog(&spec);
    for flags in flag_matrix() {
        assert_engine_matches_interp(
            &program,
            &catalog,
            &flags,
            &tiny_engine(Personality::sparrow()),
            1e-6,
        );
    }
    let run = tiny_engine(Personality::flamingo())
        .run(&parallelize(&program, &OptimizerFlags::all()), &catalog)
        .expect("engine run");
    let rows = &run.writes[tpch::Q1_SINK];
    // 3 return flags × 2 line statuses.
    assert_eq!(rows.len(), 6);
    for row in rows {
        let sum_qty = row.field(2).unwrap().as_float().unwrap();
        let avg_qty = row.field(6).unwrap().as_float().unwrap();
        let count = row.field(9).unwrap().as_int().unwrap();
        assert!(count > 0);
        assert!((avg_qty - sum_qty / count as f64).abs() < 1e-9);
        assert!((1.0..=50.0).contains(&avg_qty));
    }
}

#[test]
fn tpch_q4_differential_and_shape() {
    let spec = small_tpch();
    let program = tpch::q4_program();
    let catalog = tpch::catalog(&spec);
    for flags in flag_matrix() {
        assert_engine_matches_interp(
            &program,
            &catalog,
            &flags,
            &tiny_engine(Personality::sparrow()),
            0.0,
        );
    }
    let run = tiny_engine(Personality::sparrow())
        .run(&parallelize(&program, &OptimizerFlags::all()), &catalog)
        .expect("engine run");
    let rows = &run.writes[tpch::Q4_SINK];
    assert!(
        !rows.is_empty() && rows.len() <= 5,
        "{} priorities",
        rows.len()
    );
    let total: i64 = rows
        .iter()
        .map(|r| r.field(1).unwrap().as_int().unwrap())
        .sum();
    assert!(total > 0);
}

#[test]
fn groupagg_differential_across_distributions() {
    let program = groupagg::program();
    for dist in KeyDistribution::all() {
        let catalog = groupagg::catalog(2_000, 40, dist, 5);
        for flags in [
            OptimizerFlags::all(),
            OptimizerFlags::all().with_fold_group_fusion(false),
        ] {
            assert_engine_matches_interp(
                &program,
                &catalog,
                &flags,
                &tiny_engine(Personality::sparrow()),
                0.0,
            );
        }
    }
}
