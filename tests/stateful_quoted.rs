//! Tests for the *quoted* `StatefulBag` (paper, Listing 3 lines 24–31 and
//! Listings 6–7 verbatim): state creation, point-wise message updates with
//! declines, delta semantics, interpreter/engine differentials, and
//! cross-checks against the typed `StatefulBag` ground truth.

mod common;

use common::*;
use emma::algorithms::{connected_components as cc, pagerank};
use emma::prelude::*;
use emma_datagen::graph::{self, GraphSpec};

fn kv(k: i64, v: i64) -> Value {
    Value::tuple(vec![Value::Int(k), Value::Int(v)])
}

/// A minimal stateful program: accounts receiving deposits; negative
/// deposits are declined by the update UDF.
fn accounts_program() -> Program {
    Program::new(vec![
        Stmt::stateful(
            "accounts",
            BagExpr::read("accounts"),
            Lambda::new(["a"], ScalarExpr::var("a").get(0)),
        ),
        Stmt::stateful_update(
            "accounts",
            "delta",
            BagExpr::read("deposits"),
            Lambda::new(["d"], ScalarExpr::var("d").get(0)),
            Lambda::new(
                ["a", "d"],
                ScalarExpr::If(
                    Box::new(ScalarExpr::var("d").get(1).gt(ScalarExpr::lit(0i64))),
                    Box::new(ScalarExpr::Tuple(vec![
                        ScalarExpr::var("a").get(0),
                        ScalarExpr::var("a").get(1).add(ScalarExpr::var("d").get(1)),
                    ])),
                    Box::new(ScalarExpr::Lit(Value::Null)),
                ),
            ),
        ),
        Stmt::write("state", BagExpr::var("accounts")),
        Stmt::write("delta", BagExpr::var("delta")),
    ])
}

fn accounts_catalog() -> Catalog {
    Catalog::new()
        .with("accounts", vec![kv(1, 10), kv(2, 20), kv(3, 30)])
        .with(
            "deposits",
            vec![
                kv(1, 5),   // applies
                kv(1, 2),   // applies on top (messages compose in sequence)
                kv(2, -99), // declined by the UDF
                kv(9, 1),   // no matching state element: dropped
            ],
        )
}

#[test]
fn stateful_update_semantics_in_interpreter() {
    let out = Interp::new(&accounts_catalog())
        .run(&accounts_program())
        .expect("interp run");
    let state = Value::bag(out.writes["state"].clone());
    assert_eq!(
        state,
        Value::bag(vec![kv(1, 17), kv(2, 20), kv(3, 30)]),
        "deposits to 1 compose; decline leaves 2; 3 untouched"
    );
    // The delta contains only the final version of changed elements.
    assert_eq!(
        Value::bag(out.writes["delta"].clone()),
        Value::bag(vec![kv(1, 17)])
    );
}

#[test]
fn updating_a_name_that_is_no_stateful_bag_raises_one_error_everywhere() {
    // `s` is either never bound or bound to a plain bag.
    let update_s = |mut body: Vec<Stmt>| {
        body.push(Stmt::stateful_update(
            "s",
            "delta",
            BagExpr::read("deposits"),
            Lambda::new(["d"], ScalarExpr::var("d").get(0)),
            Lambda::new(["a", "d"], ScalarExpr::var("a")),
        ));
        body.push(Stmt::write("delta", BagExpr::var("delta")));
        Program::new(body)
    };
    let never_bound = update_s(vec![]);
    let plain_bag = update_s(vec![Stmt::val("s", BagExpr::read("accounts"))]);
    let catalog = accounts_catalog();
    for program in [never_bound, plain_bag] {
        let want = Interp::new(&catalog).run(&program).unwrap_err();
        assert_eq!(want, ValueError::UnboundVariable("s".into()));
        for flags in flag_matrix() {
            let run =
                tiny_engine(Personality::sparrow()).run(&parallelize(&program, &flags), &catalog);
            match run {
                Err(ExecError::Eval(got)) => assert_eq!(got, want, "under {flags:?}"),
                other => panic!("under {flags:?}: expected {want:?}, got {:?}", other.err()),
            }
        }
    }
}

#[test]
fn stateful_differential_engine_vs_interpreter() {
    let program = accounts_program();
    let catalog = accounts_catalog();
    for flags in flag_matrix() {
        for p in [Personality::sparrow(), Personality::flamingo()] {
            assert_engine_matches_interp(&program, &catalog, &flags, &tiny_engine(p), 0.0);
        }
    }
}

#[test]
fn stateful_pagerank_differential_across_flags() {
    let gspec = GraphSpec {
        vertices: 100,
        avg_degree: 4,
        ..Default::default()
    };
    let params = pagerank::PagerankParams {
        iterations: 4,
        num_pages: gspec.vertices,
        ..Default::default()
    };
    let program = pagerank::stateful_program(&params);
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

#[test]
fn stateful_pagerank_matches_typed_listing6() {
    let gspec = GraphSpec {
        vertices: 150,
        avg_degree: 5,
        ..Default::default()
    };
    let params = pagerank::PagerankParams {
        iterations: 8,
        num_pages: gspec.vertices,
        ..Default::default()
    };
    // Quoted Listing 6 on the engine.
    let compiled = parallelize(&pagerank::stateful_program(&params), &OptimizerFlags::all());
    let run = tiny_engine(Personality::sparrow())
        .run(&compiled, &pagerank::catalog(&gspec))
        .expect("engine run");
    let mut engine_ranks: Vec<(i64, f64)> = run.writes[pagerank::SINK]
        .iter()
        .map(|r| {
            (
                r.field(0).unwrap().as_int().unwrap(),
                r.field(1).unwrap().as_float().unwrap(),
            )
        })
        .collect();
    engine_ranks.sort_by_key(|(id, _)| *id);

    // Typed Listing 6 ground truth.
    let adjacency: Vec<(i64, Vec<i64>)> = graph::adjacency(&gspec)
        .iter()
        .map(|r| {
            (
                r.field(0).unwrap().as_int().unwrap(),
                r.field(1)
                    .unwrap()
                    .as_bag()
                    .unwrap()
                    .iter()
                    .map(|n| n.as_int().unwrap())
                    .collect(),
            )
        })
        .collect();
    let mut truth = pagerank::local_pagerank_stateful(&adjacency, &params);
    truth.sort_by_key(|(id, _)| *id);

    assert_eq!(engine_ranks.len(), truth.len());
    for ((a_id, a_rank), (b_id, b_rank)) in engine_ranks.iter().zip(&truth) {
        assert_eq!(a_id, b_id);
        assert!(
            (a_rank - b_rank).abs() < 1e-9 * (1.0 + b_rank.abs()),
            "vertex {a_id}: {a_rank} vs {b_rank}"
        );
    }
}

#[test]
fn stateful_pagerank_keeps_messageless_vertices() {
    // A vertex with out-edges but no in-edges keeps its initial rank in the
    // stateful variant — the semantics Listing 6's point-wise update gives.
    let catalog = Catalog::new().with(
        "vertices",
        vec![
            // 0 → 1, 1 → 0; 2 → 0 but nothing points at 2.
            Value::tuple(vec![Value::Int(0), Value::bag(vec![Value::Int(1)])]),
            Value::tuple(vec![Value::Int(1), Value::bag(vec![Value::Int(0)])]),
            Value::tuple(vec![Value::Int(2), Value::bag(vec![Value::Int(0)])]),
        ],
    );
    let params = pagerank::PagerankParams {
        iterations: 3,
        num_pages: 3,
        ..Default::default()
    };
    let compiled = parallelize(&pagerank::stateful_program(&params), &OptimizerFlags::all());
    let run = tiny_engine(Personality::flamingo())
        .run(&compiled, &catalog)
        .expect("engine run");
    let rank2 = run.writes[pagerank::SINK]
        .iter()
        .find(|r| r.field(0).unwrap().as_int().unwrap() == 2)
        .expect("vertex 2 present")
        .field(1)
        .unwrap()
        .as_float()
        .unwrap();
    assert!(
        (rank2 - 1.0 / 3.0).abs() < 1e-12,
        "kept initial rank, got {rank2}"
    );
}

#[test]
fn stateful_cc_differential_and_agreement_with_dataflow_variant() {
    let gspec = GraphSpec {
        vertices: 80,
        avg_degree: 3,
        skew: 1.4,
        seed: 9,
    };
    let program = cc::stateful_program();
    // Listing 7 propagates along *directed* out-edges of the state's
    // neighbor lists; give it the symmetrized adjacency so connectivity is
    // undirected like the dataflow variant.
    let adjacency = graph::adjacency(&gspec);
    let mut undirected: std::collections::HashMap<i64, Vec<Value>> =
        std::collections::HashMap::new();
    for row in &adjacency {
        let v = row.field(0).unwrap().as_int().unwrap();
        undirected.entry(v).or_default();
        for n in row.field(1).unwrap().as_bag().unwrap() {
            let n_id = n.as_int().unwrap();
            undirected.entry(v).or_default().push(Value::Int(n_id));
            undirected.entry(n_id).or_default().push(Value::Int(v));
        }
    }
    let sym_vertices: Vec<Value> = undirected
        .into_iter()
        .map(|(v, ns)| Value::tuple(vec![Value::Int(v), Value::bag(ns)]))
        .collect();
    let catalog = Catalog::new().with("vertices", sym_vertices);

    for flags in [OptimizerFlags::all(), OptimizerFlags::none()] {
        assert_engine_matches_interp(
            &program,
            &catalog,
            &flags,
            &tiny_engine(Personality::sparrow()),
            0.0,
        );
    }

    // Same partition as the dataflow (min-label) variant.
    let df_catalog = cc::catalog(&gspec);
    let df_run = tiny_engine(Personality::sparrow())
        .run(
            &parallelize(&cc::program(), &OptimizerFlags::all()),
            &df_catalog,
        )
        .expect("dataflow run");
    let st_run = tiny_engine(Personality::sparrow())
        .run(&parallelize(&program, &OptimizerFlags::all()), &catalog)
        .expect("stateful run");
    let to_map = |rows: &Vec<Value>| -> std::collections::HashMap<i64, i64> {
        rows.iter()
            .map(|r| {
                (
                    r.field(0).unwrap().as_int().unwrap(),
                    r.field(1).unwrap().as_int().unwrap(),
                )
            })
            .collect()
    };
    let df = to_map(&df_run.writes[cc::SINK]);
    let st = to_map(&st_run.writes[cc::SINK]);
    assert_eq!(df.len(), st.len());
    for (v, l1) in &df {
        for (w, l2) in &df {
            assert_eq!(
                l1 == l2,
                st[v] == st[w],
                "vertices {v},{w}: dataflow and stateful partitions disagree"
            );
        }
    }
}
