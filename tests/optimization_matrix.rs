//! Reproduction of the paper's **Table 1**: which optimizations apply to
//! which program. The optimizer's report must mark exactly the rewrites the
//! paper lists (one documented deviation: our partition-pulling heuristic
//! also fires for the iterative graph algorithms' vertex join, where the
//! paper obtains the same layout effect through Spark's cache of shuffled
//! state — see EXPERIMENTS.md).

use emma::algorithms::{groupagg, kmeans, pagerank, spam, tpch};
use emma::prelude::*;
use emma_datagen::points::{self, PointsSpec};

fn report_for(program: &Program) -> OptimizationReport {
    parallelize(program, &OptimizerFlags::all()).report
}

#[test]
fn workflow_row_matches_table1() {
    // Workflow: Unnesting ✓, Group Fusion ✗, Cache ✓, Partition Pulling ✓.
    let r = report_for(&spam::program(emma_datagen::emails::classifiers(3)));
    let [unnest, fusion, cache, partition] = r.table1_row();
    assert!(unnest, "{r}");
    assert!(!fusion, "{r}");
    assert!(cache, "{r}");
    assert!(partition, "{r}");
    // Both join inputs get a pulled partitioning (emails and blacklist).
    assert!(
        r.partitions_pulled.iter().any(|n| n.contains("emails")),
        "{r}"
    );
    assert!(
        r.partitions_pulled.iter().any(|n| n.contains("blacklist")),
        "{r}"
    );
}

#[test]
fn kmeans_row_matches_table1() {
    // k-means: Unnesting ✗, Group Fusion ✓, Cache ✓, Partition ✗ (paper).
    let spec = PointsSpec::default();
    let r = report_for(&kmeans::program(
        &kmeans::KmeansParams::default(),
        points::initial_centroids(&spec),
    ));
    let [unnest, fusion, cache, _partition] = r.table1_row();
    assert!(!unnest, "{r}");
    assert!(fusion, "{r}");
    assert!(cache, "{r}");
    assert!(r.cached.iter().any(|n| n.contains("points")), "{r}");
}

#[test]
fn pagerank_row_matches_table1() {
    // PageRank: Unnesting ✗, Group Fusion ✓, Cache ✓ (paper).
    let r = report_for(&pagerank::program(&pagerank::PagerankParams::default()));
    let [unnest, fusion, cache, _partition] = r.table1_row();
    assert!(!unnest, "{r}");
    assert!(fusion, "{r}");
    assert!(cache, "{r}");
}

#[test]
fn tpch_q1_row_matches_table1() {
    // Q1: Unnesting ✗, Group Fusion ✓, Cache ✗, Partition ✗.
    let r = report_for(&tpch::q1_program());
    assert_eq!(r.table1_row(), [false, true, false, false], "{r}");
}

#[test]
fn tpch_q4_row_matches_table1() {
    // Q4: Unnesting ✓, Group Fusion ✓, Cache ✗, Partition ✗.
    let r = report_for(&tpch::q4_program());
    assert_eq!(r.table1_row(), [true, true, false, false], "{r}");
}

#[test]
fn groupagg_applies_only_fold_group_fusion() {
    let r = report_for(&groupagg::program());
    assert_eq!(r.table1_row(), [false, true, false, false], "{r}");
}

#[test]
fn flags_gate_each_optimization_independently() {
    let q4 = tpch::q4_program();
    let no_unnest = parallelize(&q4, &OptimizerFlags::all().with_unnest_exists(false)).report;
    assert_eq!(no_unnest.exists_unnested, 0);
    assert!(no_unnest.fold_group_fused > 0);
    let no_fusion = parallelize(&q4, &OptimizerFlags::all().with_fold_group_fusion(false)).report;
    assert_eq!(no_fusion.fold_group_fused, 0);
    assert!(no_fusion.exists_unnested > 0);
    let none = parallelize(&q4, &OptimizerFlags::none()).report;
    assert_eq!(none.table1_row(), [false, false, false, false]);
    assert!(none.inlined.is_empty());
}

#[test]
fn inlining_reports_single_use_definitions() {
    // k-means defines `newCtrds` (used twice — kept) and the Listing-4
    // structure inlines the single-use `clusters`-like chains during
    // normalization; the spam workflow has explicit single-use vals.
    let r = report_for(&spam::program(emma_datagen::emails::classifiers(2)));
    assert!(r.inlined.iter().any(|n| n.contains("nonSpamEmails")), "{r}");
}

#[test]
fn q1_fuses_all_aggregates_into_one_agg_by() {
    let compiled = parallelize(&tpch::q1_program(), &OptimizerFlags::all());
    let emma_compiler::pipeline::CStmt::Write { plan, .. } = &compiled.body[0] else {
        panic!("expected a write")
    };
    assert_eq!(plan.count_ops("AggBy"), 1, "plan:\n{plan}");
    assert_eq!(plan.count_ops("GroupBy"), 0, "plan:\n{plan}");
    // Without fusion the groupBy stays.
    let unfused = parallelize(
        &tpch::q1_program(),
        &OptimizerFlags::all().with_fold_group_fusion(false),
    );
    let emma_compiler::pipeline::CStmt::Write { plan, .. } = &unfused.body[0] else {
        panic!("expected a write")
    };
    assert_eq!(plan.count_ops("GroupBy"), 1, "plan:\n{plan}");
}

#[test]
fn q4_plan_contains_semi_join_with_pushed_filter() {
    let compiled = parallelize(&tpch::q4_program(), &OptimizerFlags::all());
    let emma_compiler::pipeline::CStmt::Write { plan, .. } = &compiled.body[0] else {
        panic!("expected a write")
    };
    let mut found_semi = false;
    plan.visit(&mut |p| {
        if let Plan::Join { kind, right, .. } = p {
            if *kind == emma_compiler::plan::JoinKind::LeftSemi {
                found_semi = true;
                // The commitDate < receiptDate predicate is pushed below the
                // join onto the lineitem side.
                assert_eq!(right.count_ops("Filter"), 1, "plan:\n{p}");
            }
        }
    });
    assert!(found_semi, "no semi-join in plan:\n{plan}");
}

// ------------------------------------------------- walkers that forget a child

/// `val b = read(bl).map(y => y)`: a bag definition the tests below read.
fn blacklist_def() -> Stmt {
    Stmt::val(
        "b",
        BagExpr::read("bl").map(Lambda::new(["y"], ScalarExpr::var("y"))),
    )
}

/// `b.exists(z => z == e)`: a predicate that reads the bag `b`.
fn in_blacklist(e: ScalarExpr) -> ScalarExpr {
    BagExpr::var("b").exists(Lambda::new(["z"], ScalarExpr::var("z").eq(e)))
}

/// A stateful update whose lambda reads `b`: each message `(k, v)` adds `v`
/// to account `k` when `v` is blacklisted, and is declined otherwise.
fn update_reading_b() -> Stmt {
    Stmt::stateful_update(
        "s",
        "d",
        BagExpr::read("msgs"),
        Lambda::new(["m"], ScalarExpr::var("m").get(0)),
        Lambda::new(
            ["a", "m"],
            ScalarExpr::If(
                Box::new(in_blacklist(ScalarExpr::var("m").get(1))),
                Box::new(ScalarExpr::Tuple(vec![
                    ScalarExpr::var("a").get(0),
                    ScalarExpr::var("a").get(1).add(ScalarExpr::var("m").get(1)),
                ])),
                Box::new(ScalarExpr::Lit(Value::Null)),
            ),
        ),
    )
}

fn pair(k: i64, v: i64) -> Value {
    Value::tuple(vec![Value::Int(k), Value::Int(v)])
}

fn walker_catalog() -> Catalog {
    Catalog::new()
        .with("xs", (1..=6).map(Value::Int).collect())
        .with("bl", vec![Value::Int(2), Value::Int(4)])
        .with("acc", vec![pair(1, 10), pair(2, 20), pair(3, 30)])
        .with("msgs", vec![pair(1, 2), pair(2, 3), pair(3, 4), pair(1, 4)])
}

/// `all()` and `all()` with each single flag turned off.
fn all_and_each_flag_off() -> Vec<OptimizerFlags> {
    let all = OptimizerFlags::all();
    vec![
        all,
        all.with_inlining(false),
        all.with_normalization(false),
        all.with_unnest_exists(false),
        all.with_fold_group_fusion(false),
        all.with_caching(false),
        all.with_partition_pulling(false),
        all.with_pipeline_fusion(false),
        all.with_compiled_eval(false),
    ]
}

fn sorted(rows: &[Value]) -> Vec<Value> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}

/// Runs `program` through the interpreter and the engine under every flag
/// set of [`all_and_each_flag_off`]; every sink must hold the same multiset.
fn assert_engine_matches_interp_per_flag(program: &Program, catalog: &Catalog) {
    let expected = Interp::new(catalog).run(program).expect("interp run");
    for flags in all_and_each_flag_off() {
        let compiled = parallelize(program, &flags);
        let run = Engine::sparrow()
            .run(&compiled, catalog)
            .unwrap_or_else(|e| panic!("engine run under {flags:?}: {e:?}"));
        assert_eq!(expected.writes.len(), run.writes.len(), "{flags:?}");
        for (sink, rows) in &expected.writes {
            assert_eq!(
                sorted(rows),
                sorted(&run.writes[sink]),
                "sink `{sink}` under {flags:?}"
            );
        }
    }
}

/// A single-use bag read inside a `groupBy` key is inlined into the key.
/// Fails before the IR visitor: the inliner counted the reference in the key
/// but substituted only into the grouping's input, so it deleted `b` and the
/// run failed with `UnboundVariable("b")` under every flag set with
/// inlining on.
#[test]
fn single_use_bag_read_in_a_group_by_key_is_inlined_into_the_key() {
    let program = Program::new(vec![
        blacklist_def(),
        Stmt::write(
            "groups",
            BagExpr::read("xs").group_by(Lambda::new(["x"], in_blacklist(ScalarExpr::var("x")))),
        ),
    ]);
    assert_eq!(
        parallelize(&program, &OptimizerFlags::all()).report.inlined,
        vec!["b".to_string()]
    );
    assert_engine_matches_interp_per_flag(&program, &walker_catalog());
}

/// A bag read by a `Write` and by a stateful update lambda is read twice and
/// stays bound. Fails before the IR visitor: the inliner skipped the
/// stateful statements' lambdas, so it inlined `b` into the write, deleted
/// it, and the update failed with `UnboundVariable("b")`.
#[test]
fn bag_read_by_a_write_and_an_update_lambda_is_not_inlined() {
    let program = Program::new(vec![
        blacklist_def(),
        Stmt::stateful(
            "s",
            BagExpr::read("acc"),
            Lambda::new(["a"], ScalarExpr::var("a").get(0)),
        ),
        update_reading_b(),
        Stmt::write("b_out", BagExpr::var("b")),
        Stmt::write("state", BagExpr::var("s")),
        Stmt::write("delta", BagExpr::var("d")),
    ]);
    assert_eq!(
        parallelize(&program, &OptimizerFlags::all()).report.inlined,
        Vec::<String>::new()
    );
    assert_engine_matches_interp_per_flag(&program, &walker_catalog());
}

/// A bag defined before a five-round loop and read only by the update
/// lambda inside it is cached and derived once. Fails before the IR
/// visitor: caching counted only a stateful update's message plan, so
/// `report.cached` stayed empty and `b` was re-derived and re-broadcast
/// every round — `cache_misses` was 5.
#[test]
fn bag_read_only_by_a_looped_update_lambda_is_cached() {
    let program = Program::new(vec![
        blacklist_def(),
        Stmt::stateful(
            "s",
            BagExpr::read("acc"),
            Lambda::new(["a"], ScalarExpr::var("a").get(0)),
        ),
        Stmt::var("i", ScalarExpr::lit(0i64)),
        Stmt::while_loop(
            ScalarExpr::var("i").lt(ScalarExpr::lit(5i64)),
            vec![
                update_reading_b(),
                Stmt::assign("i", ScalarExpr::var("i").add(ScalarExpr::lit(1i64))),
            ],
        ),
        Stmt::write("state", BagExpr::var("s")),
    ]);
    let catalog = walker_catalog();
    let compiled = parallelize(&program, &OptimizerFlags::all());
    assert_eq!(compiled.report.cached, vec!["b".to_string()]);
    let run = Engine::sparrow()
        .run(&compiled, &catalog)
        .expect("engine run");
    assert_eq!(run.stats.cache_misses, 1);
    let expected = Interp::new(&catalog).run(&program).expect("interp run");
    assert_eq!(
        sorted(&expected.writes["state"]),
        sorted(&run.writes["state"])
    );
}
