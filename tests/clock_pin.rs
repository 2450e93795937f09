//! Pins the simulated clock, bit for bit, and every counter that moves with
//! it, on the programs the benchmark and the paper's experiments run — plus
//! the legs that reach the charges those programs never issue. A leg hashes
//! (FNV-1a) the bits of `simulated_secs`, `retry_sim_secs` and
//! `speculation_wasted_secs` with the byte, record, stage and iteration
//! counters, or a `Timeout`'s clock and budget; an `estimate` row hashes
//! `service::estimate_working_set` for one program.
//!
//! Which legs issue each `Charge` variant of `crates/engine/src/cost.rs`
//! (the `chaos_*` legs are `chaos_every2` and `chaos_cost_driven`):
//!
//! | charge | legs |
//! |---|---|
//! | `Cpu`, `Source`, `StorageWrite` | every leg that completes |
//! | `Stage`, `Shuffle` | every program but `narrow_chain` |
//! | `Iteration` | `pagerank`, `kmeans`, `spam_workflow`, `cc_stateful`, `pagerank_stateful`, `chaos_*`, `timeout` |
//! | `CpuBytes` | `strings`, `cross`: a narrow stage, the `exists` fold, the `aggBy` key |
//! | `StorageRead` | `q4_nested_loop`, `strings` (datasets a UDF scans); `chaos_*` (checkpoint restores) |
//! | `CacheRead`, `CacheWrite` | `pagerank`, `kmeans`, `spam_workflow`, `cc_stateful`, `pagerank_stateful`, `chaos_*`; on Flamingo they move the storage counters too |
//! | `StateSnapshot` | `cc_stateful`, `pagerank_stateful` |
//! | `DriverLink` | broadcast joins (`pagerank`, `spam_workflow`, `kmeans`, `pagerank_stateful`), `kmeans`' captured bag, literals (`kmeans`, `spam_workflow`, `strings`, `cross`) |
//! | `Broadcast` | the same joins and captured bag, the `Cross` in `cross`, the datasets `q4_nested_loop` and `strings` scan in a UDF |
//! | `BroadcastScans` | `kmeans` (a head stage), `q4_nested_loop` (a later stage) |
//! | `NestedBagFolds` | `q1_unfused`, `q1_spilling` (past worker memory) |
//! | `GroupMaterialization` | `q1_unfused`, `q1_spilling` (spilled, collapsed), `skew` (split) |
//! | `FoldPartials` | `kmeans`, `spam_workflow`, `cc_stateful`, `strings`, `cross`, `skew` |
//! | `SplitMerge`, `ReplicatedBuild` | `skew` |
//! | `Straggler`, `Backoff`, `DuplicateWork` | `chaos_*` |

mod common;

use common::*;
use emma::algorithms::{connected_components as cc, groupagg, kmeans, pagerank, spam, tpch};
use emma::prelude::*;
use emma_datagen::distributions::{self, KeyDistribution};
use emma_datagen::emails::{self, EmailSpec};
use emma_datagen::graph::GraphSpec;
use emma_datagen::points::{self, PointsSpec};
use emma_datagen::tpch::TpchSpec;
use emma_engine::service::estimate_working_set;

/// FNV-1a over little-endian words: stable across runs and toolchains.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn contains(haystack: ScalarExpr, needle: &str) -> ScalarExpr {
    ScalarExpr::call(
        BuiltinFn::StrContains,
        vec![haystack, ScalarExpr::lit(needle)],
    )
}

fn small_graph() -> GraphSpec {
    GraphSpec {
        vertices: 120,
        avg_degree: 4,
        ..Default::default()
    }
}

fn pagerank_params() -> pagerank::PagerankParams {
    pagerank::PagerankParams {
        iterations: 5,
        num_pages: small_graph().vertices,
        ..Default::default()
    }
}

fn tpch_catalog() -> Catalog {
    tpch::catalog(&TpchSpec {
        scale: 0.1,
        seed: 7,
    })
}

/// The seven benchmark programs, k-means and Listing 6, at test sizes.
fn programs() -> Vec<(&'static str, Program, Catalog, OptimizerFlags)> {
    let all = OptimizerFlags::all();
    let xs = (0..2_000i64)
        .map(|i| {
            Value::tuple([
                Value::Int(i * 7_919 % 10_000),
                Value::Int(i * 104_729 % 1_000),
            ])
        })
        .collect();
    let emails = EmailSpec {
        emails: 300,
        blacklist: 60,
        ip_domain: 300,
        body_bytes: 40,
        info_bytes: 20,
        seed: 7,
    };
    let points = PointsSpec {
        n: 300,
        ..Default::default()
    };
    let centroids = points::initial_centroids(&points);
    vec![
        (
            "narrow_chain",
            narrow_chain(),
            Catalog::new().with("xs", xs),
            all.with_normalization(false),
        ),
        ("tpch_q1", tpch::q1_program(), tpch_catalog(), all),
        ("tpch_q4", tpch::q4_program(), tpch_catalog(), all),
        (
            "groupagg_pareto",
            groupagg::program(),
            groupagg::catalog(2_000, 40, KeyDistribution::Pareto, 5),
            all,
        ),
        (
            "pagerank",
            pagerank::program(&pagerank_params()),
            pagerank::catalog(&small_graph()),
            all,
        ),
        (
            "spam_workflow",
            spam::program(emails::classifiers(3)),
            spam::catalog(&emails),
            all,
        ),
        (
            "cc_stateful",
            cc::stateful_program(),
            cc::catalog(&small_graph()),
            all,
        ),
        (
            "kmeans",
            kmeans::program(&kmeans::KmeansParams::default(), centroids),
            kmeans::catalog(&points),
            all,
        ),
        (
            "pagerank_stateful",
            pagerank::stateful_program(&pagerank_params()),
            pagerank::catalog(&small_graph()),
            all,
        ),
    ]
}

/// Byte-weighted UDFs at every site that prices them — a head stage, a later
/// stage of a fused chain, a fold and an `aggBy` key — and a cartesian
/// product of two catalog sets next to a literal bag.
fn strings_and_cross() -> (Program, Catalog) {
    let words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"];
    let notes = (0..600i64)
        .map(|i| {
            let text: Vec<&str> = (0..1 + i % 5)
                .map(|k| words[((i * 7 + k * 3) % 6) as usize])
                .collect();
            Value::tuple([Value::Int(i), Value::str(text.join(" "))])
        })
        .collect();
    let s1 = || var("s").get(1);
    let program = Program::new(vec![
        Stmt::write(
            "hits",
            BagExpr::read("notes").filter(Lambda::new(["s"], contains(s1(), "ch"))),
        ),
        Stmt::write(
            "later",
            BagExpr::read("notes")
                .map(Lambda::new(["s"], s1()))
                .filter(Lambda::new(["x"], contains(var("x"), "lt"))),
        ),
        Stmt::val(
            "any",
            BagExpr::read("notes").exists(Lambda::new(["s"], contains(s1(), "xray"))),
        ),
        Stmt::write(
            "by_tag",
            BagExpr::read("notes")
                .group_by(Lambda::new(["s"], contains(s1(), "echo")))
                .map(Lambda::new(
                    ["g"],
                    ScalarExpr::Tuple(vec![
                        var("g").get(0),
                        BagExpr::of_value(var("g").get(1)).count(),
                    ]),
                )),
        ),
        Stmt::write(
            "pairs",
            BagExpr::read("tags").flat_map(BagLambda::new(
                "t",
                BagExpr::read("codes").map(Lambda::new(
                    ["c"],
                    ScalarExpr::Tuple(vec![var("t"), var("c")]),
                )),
            )),
        ),
        Stmt::write(
            "literal",
            BagExpr::values(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
        ),
    ]);
    let catalog = Catalog::new()
        .with("notes", notes)
        .with("tags", words.iter().map(|w| Value::str(*w)).collect())
        .with("codes", (0..5).map(Value::Int).collect());
    (program, catalog)
}

/// A Zipf-keyed `groupBy` (its split merges), a repartition join whose probe
/// side splits (its build side replicates), an `aggBy` and a driver fold.
fn skewed() -> (Program, Catalog) {
    let t0 = || var("t").get(0);
    // Past `ClusterSpec::tiny`'s 8 KiB broadcast threshold, so the join
    // repartitions.
    let dims = (0..40i64)
        .map(|k| Value::tuple([Value::Int(k), Value::str("d".repeat(256))]))
        .collect();
    let events = distributions::keyed_tuples(3_000, 40, KeyDistribution::Zipf(1.4), 11);
    let join = BagExpr::read("dims")
        .filter(Lambda::new(["d"], var("o").get(0).eq(var("d").get(0))))
        .map(Lambda::new(
            ["d"],
            ScalarExpr::Tuple(vec![var("o").get(1), var("d").get(0)]),
        ));
    let program = Program::new(vec![
        Stmt::write(
            "groups",
            BagExpr::read("events").group_by(Lambda::new(["t"], t0())),
        ),
        Stmt::write(
            "joined",
            BagExpr::read("events").flat_map(BagLambda::new("o", join)),
        ),
        Stmt::write(
            "agg",
            BagExpr::read("events")
                .group_by(Lambda::new(["t"], t0()))
                .map(Lambda::new(
                    ["g"],
                    ScalarExpr::Tuple(vec![
                        var("g").get(0),
                        BagExpr::of_value(var("g").get(1)).count(),
                    ]),
                )),
        ),
        Stmt::val(
            "total",
            BagExpr::read("events")
                .map(Lambda::new(["t"], var("t").get(1)))
                .sum(),
        ),
    ]);
    (
        program,
        Catalog::new().with("events", events).with("dims", dims),
    )
}

type Outcome = Result<ExecStats, ExecError>;

fn run(engine: &Engine, program: &Program, catalog: &Catalog, flags: &OptimizerFlags) -> Outcome {
    engine
        .run(&parallelize(program, flags), catalog)
        .map(|run| run.stats)
}

fn outcome_hash(outcome: &Outcome) -> u64 {
    match outcome {
        Ok(s) => fnv([
            s.simulated_secs.to_bits(),
            s.retry_sim_secs.to_bits(),
            s.speculation_wasted_secs.to_bits(),
            s.bytes_shuffled,
            s.bytes_broadcast,
            s.bytes_read_storage,
            s.bytes_written_storage,
            s.bytes_spilled,
            s.records_processed,
            s.stages,
            s.iterations,
        ]),
        Err(ExecError::Timeout {
            at_secs,
            budget_secs,
        }) => fnv([at_secs.to_bits(), budget_secs.to_bits()]),
        Err(e) => panic!("{e}"),
    }
}

/// Every leg's hash, in a fixed order. Each extra leg also asserts that it
/// reached the path it exists for.
fn legs() -> Vec<(String, u64)> {
    let all = OptimizerFlags::all();
    let mut out = Vec::new();
    for (name, program, catalog, flags) in programs() {
        for p in [Personality::sparrow(), Personality::flamingo()] {
            let leg = format!("{name}/{}", p.name);
            out.push((
                leg,
                outcome_hash(&run(&tiny_engine(p), &program, &catalog, &flags)),
            ));
        }
        let ws = estimate_working_set(&parallelize(&program, &flags), &catalog);
        out.push((format!("{name}/estimate"), fnv([ws])));
    }
    let sparrow = || tiny_engine(Personality::sparrow());
    let (strings, notes) = strings_and_cross();
    let (skew_program, events) = skewed();
    let pagerank = pagerank::program(&pagerank_params());
    let graph = pagerank::catalog(&small_graph());
    // The second chaos leg fails tasks often enough to retry a partition
    // more than once, so the backoff doubles.
    let chaos = |ck, task_fail_p| {
        let faults = FaultConfig::chaos_speculative(5).with_task_fail_p(task_fail_p);
        sparrow().with_faults(faults).with_checkpoints(ck)
    };
    let recovered: fn(&Outcome) -> bool = |o| {
        matches!(o, Ok(s) if s.checkpoint_restores > 0 && s.tasks_retried > 0
            && s.speculation_wasted_secs > 0.0)
    };
    let completed: fn(&Outcome) -> bool = |o| o.is_ok();
    let extras = [
        (
            "q1_unfused",
            sparrow(),
            tpch::q1_program(),
            tpch_catalog(),
            all.with_fold_group_fusion(false),
            completed,
        ),
        (
            "q1_spilling",
            Engine::new(
                ClusterSpec::tiny().with_mem_per_worker(2 * 1024),
                Personality::sparrow(),
            ),
            tpch::q1_program(),
            tpch_catalog(),
            all.with_fold_group_fusion(false),
            |o| matches!(o, Ok(s) if s.bytes_spilled > 0),
        ),
        (
            "q4_nested_loop",
            sparrow(),
            tpch::q4_program(),
            tpch_catalog(),
            all.with_unnest_exists(false),
            completed,
        ),
        (
            "strings",
            tiny_engine(Personality::flamingo()),
            strings.clone(),
            notes.clone(),
            all.with_normalization(false),
            completed,
        ),
        ("cross", sparrow(), strings, notes, all, completed),
        (
            "chaos_every2",
            chaos(CheckpointConfig::every(2), 0.05),
            pagerank.clone(),
            graph.clone(),
            all,
            recovered,
        ),
        (
            "chaos_cost_driven",
            chaos(CheckpointConfig::cost_driven(), 0.3),
            pagerank.clone(),
            graph.clone(),
            all,
            recovered,
        ),
        (
            "skew",
            sparrow().with_skew_splitting(SkewConfig::default().with_min_part_rows(64)),
            skew_program,
            events,
            all,
            |o| matches!(o, Ok(s) if s.partitions_split > 0),
        ),
        (
            "timeout",
            sparrow().with_timeout(2.0),
            pagerank,
            graph,
            all,
            |o| matches!(o, Err(ExecError::Timeout { .. })),
        ),
    ];
    for (name, engine, program, catalog, flags, reached) in extras {
        let outcome = run(&engine, &program, &catalog, &flags);
        assert!(reached(&outcome), "{name}: {outcome:?}");
        out.push((name.to_string(), outcome_hash(&outcome)));
    }
    out
}

/// Recorded before the cost model moved into `cost.rs`; the two `chaos_*`
/// legs again once a keyed operator's shuffle ran its write side in the wave
/// that produces its rows (one wave fewer renumbers the failure schedule);
/// the `*/estimate` rows again once they hashed the working set alone.
const PINNED: &[(&str, u64)] = &[
    ("narrow_chain/sparrow", 0x23484699afb69a39),
    ("narrow_chain/flamingo", 0xeb7c32ba6de62d40),
    ("narrow_chain/estimate", 0xaa05ab9422cbd60c),
    ("tpch_q1/sparrow", 0x4ed25ac2cdcf4f8e),
    ("tpch_q1/flamingo", 0x97a047898a6b198b),
    ("tpch_q1/estimate", 0xd12bd0c33dcea1bc),
    ("tpch_q4/sparrow", 0x48db3a2d5a6389a1),
    ("tpch_q4/flamingo", 0x87f93fbc4e0b242b),
    ("tpch_q4/estimate", 0xd12bd0c33dcea1bc),
    ("groupagg_pareto/sparrow", 0x944194183c3cf165),
    ("groupagg_pareto/flamingo", 0x962b52b900364697),
    ("groupagg_pareto/estimate", 0x7428f4d7406c1ae4),
    ("pagerank/sparrow", 0x35163d3ec7dcacaa),
    ("pagerank/flamingo", 0xbb8863e7342b83cf),
    ("pagerank/estimate", 0x197b912804f955e0),
    ("spam_workflow/sparrow", 0x40d9ec668d84cd63),
    ("spam_workflow/flamingo", 0x59fb9552d6245112),
    ("spam_workflow/estimate", 0x54ebd2fa8cebc198),
    ("cc_stateful/sparrow", 0xd0c787818438fd3f),
    ("cc_stateful/flamingo", 0x5f441d29d2a85e50),
    ("cc_stateful/estimate", 0x6e1a73bc79ee0ca0),
    ("kmeans/sparrow", 0x8702755f038f6606),
    ("kmeans/flamingo", 0x95fcc0e98a2beadf),
    ("kmeans/estimate", 0xbbdb2206c86bc9eb),
    ("pagerank_stateful/sparrow", 0x516eb1b0450e4213),
    ("pagerank_stateful/flamingo", 0xe46c9ab70a9dd9b8),
    ("pagerank_stateful/estimate", 0xc453d882e7bc2830),
    ("q1_unfused", 0xdfd12ea342bdeb39),
    ("q1_spilling", 0xba0ccc37f33bfb3b),
    ("q4_nested_loop", 0x455a413d6eb3ebe6),
    ("strings", 0x6f8d91a0a2f1ce83),
    ("cross", 0xc25e077a89629f25),
    ("chaos_every2", 0x72a8a37e0a446baa),
    ("chaos_cost_driven", 0x316790f44be4cb72),
    ("skew", 0xdd668bee15fd6ab1),
    ("timeout", 0x33ec3c4ed45b0df1),
];

#[test]
fn the_clock_and_its_counters_are_pinned_on_every_leg() {
    let got = legs();
    let table: Vec<String> = got
        .iter()
        .map(|(leg, h)| format!("    (\"{leg}\", {h:#018x}),"))
        .collect();
    let want: Vec<(String, u64)> = PINNED
        .iter()
        .map(|(leg, h)| (leg.to_string(), *h))
        .collect();
    assert!(
        got == want,
        "clock pins differ; the legs now hash to:\n{}",
        table.join("\n")
    );
}
