//! Cross-tier differential harness for the columnar fused `aggBy`.
//!
//! For generated `filter → groupBy → folds` programs (shared generator in
//! `tests/common/agg_programs.rs`) the reference interpreter, the scalar
//! compiled tier and the vectorized tier must agree on every sink's values;
//! the two engine tiers must additionally agree bit for bit on rows
//! (including float bit patterns and which of `0.0`/`-0.0`/`NaN` represents a
//! group), on errors, on every deterministic counter and on the simulated
//! clock — across 1/2/4 worker threads, both dispatch modes, injected chaos
//! and skew splitting. The batch tier's only permitted trace is its own
//! telemetry.
//!
//! The deterministic tests cover the degenerate inputs (empty and singleton
//! partitions, a mixed Int/Float column that aborts a batch mid-partition, an
//! element function that divides by zero on one row) and pin which folds
//! engage the aggregation kernel and which are one counted refusal.

#[path = "common/agg_programs.rs"]
mod agg_programs;
mod common;

use agg_programs::{agg_program, fold_expr, VI};
use common::{scalar_tier, MATRIX};
use emma::algorithms::tpch;
use emma::prelude::*;
use emma_datagen::tpch::{lineitem as li, TpchSpec, Q1_SHIP_CUTOFF};
use emma_engine::ParallelismMode;
use proptest::prelude::*;

fn engine() -> Engine {
    common::tiny_engine(Personality::sparrow())
}

fn x() -> ScalarExpr {
    ScalarExpr::var("x")
}

fn compile(p: &Program) -> CompiledProgram {
    parallelize(p, &OptimizerFlags::all().with_compiled_eval(true))
}

/// Bit-exact value identity: `Value`'s own equality conflates `0.0` with
/// `-0.0` and every `NaN`, which is exactly what the tiers must *not* be
/// allowed to differ in.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Tuple(x), Value::Tuple(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| same_bits(p, q))
        }
        (Value::Int(_) | Value::Float(_) | Value::Tuple(_), _) => false,
        _ => a == b,
    }
}

fn assert_same_runs(what: &str, a: &EngineRun, b: &EngineRun) {
    assert_eq!(a.writes.len(), b.writes.len(), "{what}: sink sets differ");
    for (sink, rows) in &a.writes {
        let other = &b.writes[sink];
        assert!(
            rows.len() == other.len() && rows.iter().zip(other).all(|(p, q)| same_bits(p, q)),
            "{what}: sink `{sink}` differs\n  left:  {rows:?}\n  right: {other:?}"
        );
    }
    assert_eq!(a.scalars, b.scalars, "{what}: scalars differ");
}

/// Canonical form for comparing against the interpreter, which may keep a
/// different representative of a float key class and sums in another order.
fn canon(v: &Value) -> Value {
    match v {
        Value::Float(f) if f.is_nan() => Value::Float(f64::NAN),
        Value::Float(f) if *f == 0.0 => Value::Float(0.0),
        Value::Tuple(fs) => Value::tuple(fs.iter().map(canon).collect::<Vec<_>>()),
        other => other.clone(),
    }
}

fn approx(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x.is_nan() && y.is_nan()) || common::approx_eq(a, b, 1e-6)
        }
        (Value::Tuple(x), Value::Tuple(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| approx(p, q))
        }
        _ => common::approx_eq(a, b, 1e-6),
    }
}

fn assert_matches_interp(what: &str, want: &RunOutput, got: &EngineRun) {
    for (sink, rows) in &want.writes {
        let mut xs: Vec<Value> = rows.iter().map(canon).collect();
        let mut ys: Vec<Value> = got.writes[sink].iter().map(canon).collect();
        xs.sort();
        ys.sort();
        assert!(
            xs.len() == ys.len() && xs.iter().zip(&ys).all(|(p, q)| approx(p, q)),
            "{what}: sink `{sink}` diverges from the interpreter\n  interp: {xs:?}\n  engine: {ys:?}"
        );
    }
}

/// The whole contract for one program and catalog: interpreter vs scalar
/// compiled vs vectorized, over the matrix, with and without chaos and skew
/// splitting. `exact_interp` is off for mixed-type columns, where `uni` is
/// not associative across the Int/Float boundary and only the engine tiers
/// (which fold in the same order) can be held to identical values.
fn assert_tiers_agree(p: &Program, catalog: &Catalog, chaos_seed: u64, exact_interp: bool) {
    let interp = Interp::new(catalog).run(p);
    let prog = compile(p);
    let skew_cfg = SkewConfig::default().with_min_part_rows(8);
    for chaos in [None, Some(FaultConfig::chaos(chaos_seed))] {
        for skew_on in [false, true] {
            let what = format!("chaos {} skew {skew_on}", chaos.is_some());
            let mk = |vec_on: bool, mode: ParallelismMode, threads: usize| {
                let mut e = engine()
                    .with_parallelism_mode(mode)
                    .with_worker_threads(Some(threads));
                if let Some(cfg) = chaos {
                    e = e.with_faults(cfg);
                }
                if skew_on {
                    e = e.with_skew_splitting(skew_cfg);
                }
                e.vectorized = vec_on.then(|| BatchConfig::new(16));
                e.run(&prog, catalog)
            };
            let scalar = mk(false, ParallelismMode::Pool, 2);
            let vec_runs: Vec<_> = MATRIX.iter().map(|&(m, t)| mk(true, m, t)).collect();
            match &scalar {
                Err(e) => {
                    assert!(
                        interp.is_err(),
                        "{what}: engine errored but the interpreter succeeded: {e:?}"
                    );
                    for vr in &vec_runs {
                        let ve = vr.as_ref().err().unwrap_or_else(|| {
                            panic!("{what}: vectorized run succeeded where the scalar tier failed")
                        });
                        assert_eq!(
                            format!("{e:?}"),
                            format!("{ve:?}"),
                            "{what}: error identity"
                        );
                    }
                }
                Ok(s) => {
                    let want = interp.as_ref().expect("interp agrees the program runs");
                    if exact_interp {
                        assert_matches_interp(&what, want, s);
                    }
                    let first = vec_runs[0].as_ref().expect("vectorized run");
                    // Conforming rows either vectorize or are a counted
                    // refusal. (A mixed column may put its odd row first:
                    // the tier then specializes against it and every batch
                    // replays — engaged, but with nothing to show for it.)
                    assert!(
                        first.stats.rows_vectorized + first.stats.vector_fallbacks > 0
                            || s.stats.records_processed == 0
                            || !exact_interp,
                        "{what}: vectorized tier neither engaged nor reported"
                    );
                    for vr in &vec_runs {
                        let v = vr.as_ref().expect("vectorized run");
                        assert_same_runs(&what, v, s);
                        assert_eq!(v.stats.without_tier_telemetry(), s.stats, "{what}");
                        assert_eq!(v.stats, first.stats, "{what}: telemetry replay");
                        assert_eq!(
                            v.stats.simulated_secs.to_bits(),
                            s.stats.simulated_secs.to_bits(),
                            "{what}: vectorization moved the clock"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cross_tier_differential_on_generated_agg_programs(
        filter in agg_programs::filter_body(),
        key in agg_programs::key_body(),
        folds in agg_programs::fold_list(),
        rows in prop::collection::vec(agg_programs::agg_row(), 0..300),
        chaos_seed in any::<u64>(),
    ) {
        let catalog = Catalog::new().with("rows", rows);
        assert_tiers_agree(&agg_program(filter, key, folds), &catalog, chaos_seed, true);
    }

    // A mixed Int/Float fold input: no scalar fold errors on it, but the
    // typed loads do not conform, so batches abort and the rest of the
    // partition replays through the scalar loop against the same groups.
    #[test]
    fn mixed_columns_abort_and_replay_identically(
        key in agg_programs::key_body(),
        folds in agg_programs::fold_list(),
        rows in prop::collection::vec(agg_programs::mixed_agg_row(), 100..300),
        chaos_seed in any::<u64>(),
    ) {
        let catalog = Catalog::new().with("rows", rows);
        let keep_all = x().get(VI).eq(x().get(VI));
        assert_tiers_agree(&agg_program(keep_all, key, folds), &catalog, chaos_seed, false);
    }

    // `sum(x.5 / x.4)` divides by the zeros of the Int column: whichever
    // row errors first in evaluation order must be the error every tier,
    // thread count and dispatch mode reports.
    #[test]
    fn element_errors_reproduce_across_tiers(
        key in agg_programs::key_body(),
        folds in agg_programs::fold_list(),
        rows in prop::collection::vec(agg_programs::agg_row(), 50..300),
        at in 0usize..10,
        chaos_seed in any::<u64>(),
    ) {
        let mut folds = folds;
        folds.insert(at.min(folds.len()), fold_expr(13, 0));
        let catalog = Catalog::new().with("rows", rows);
        let keep_all = x().get(VI).eq(x().get(VI));
        assert_tiers_agree(&agg_program(keep_all, key, folds), &catalog, chaos_seed, true);
    }
}

fn conforming_rows(n: usize) -> Vec<Value> {
    (0..n as i64)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i % 5),
                Value::str(["a", "b", "ab"][i as usize % 3]),
                Value::str(["", "z"][i as usize % 2]),
                Value::Float([0.0, -0.0, f64::NAN, 1.5][i as usize % 4]),
                Value::Int(i - 7),
                Value::Float(i as f64 * 0.25 - 3.0),
            ])
        })
        .collect()
}

/// Every fold of the infallible menu at once, keyed by a tuple of strings —
/// the Q1 shape.
fn all_folds_program() -> Program {
    agg_program(
        x().get(VI).ge(ScalarExpr::lit(Value::Int(-5))),
        ScalarExpr::Tuple(vec![x().get(1), x().get(2)]),
        (0u8..13).map(|w| fold_expr(w, 3)).collect(),
    )
}

fn run_pair(p: &Program, catalog: &Catalog, batch: usize) -> (EngineRun, EngineRun) {
    let prog = compile(p);
    let scalar = scalar_tier(engine()).run(&prog, catalog).expect("scalar");
    let vec = engine()
        .with_vectorized_eval(BatchConfig::new(batch))
        .run(&prog, catalog)
        .expect("vectorized");
    assert_same_runs("pair", &vec, &scalar);
    assert_eq!(vec.stats.without_tier_telemetry(), scalar.stats);
    assert_eq!(
        vec.stats.simulated_secs.to_bits(),
        scalar.stats.simulated_secs.to_bits()
    );
    (scalar, vec)
}

#[test]
fn empty_and_singleton_partitions() {
    // Eight partitions: 0 rows leaves all of them empty, 1 and 3 leave
    // singletons beside empties, 9 mixes two-row and one-row partitions.
    for n in [0usize, 1, 3, 9] {
        let catalog = Catalog::new().with("rows", conforming_rows(n));
        let p = all_folds_program();
        assert_tiers_agree(&p, &catalog, 7, true);
        let (_, vec) = run_pair(&p, &catalog, 4);
        assert_eq!(vec.stats.vector_fallbacks, 0, "n={n}: {}", vec.stats);
        assert_eq!(vec.stats.key_path_fallbacks, 0, "n={n}: {}", vec.stats);
    }
}

#[test]
fn every_recognized_fold_engages_the_kernel() {
    let rows = conforming_rows(600);
    let kept = rows
        .iter()
        .filter(|r| matches!(r.field(VI), Ok(Value::Int(v)) if *v >= -5))
        .count() as u64;
    let catalog = Catalog::new().with("rows", rows);
    let (_, vec) = run_pair(&all_folds_program(), &catalog, 32);
    assert_eq!(vec.stats.vector_fallbacks, 0, "{}", vec.stats);
    assert_eq!(vec.stats.key_path_fallbacks, 0, "{}", vec.stats);
    // The filter vectorizes all 600 rows, the combiner the kept rows and the
    // final projection its six groups; the merge phase's partials come on
    // top.
    assert!(
        vec.stats.rows_vectorized > 600 + kept + 6,
        "aggBy rows not counted: {}",
        vec.stats
    );
}

#[test]
fn mixed_column_aborts_mid_partition_and_replays() {
    // 75 rows per partition, batches of 16: the Float at row 400 sits in the
    // second batch of partition 5, whose tail replays through the scalar
    // loop seeded with the first batch's groups.
    let mut rows = conforming_rows(600);
    if let Value::Tuple(fs) = &rows[400] {
        let mut fs = fs.to_vec();
        fs[VI] = Value::Float(2.5);
        rows[400] = Value::tuple(fs);
    }
    let clean = Catalog::new().with("rows", conforming_rows(600));
    let catalog = Catalog::new().with("rows", rows);
    let p = agg_program(
        x().get(VI).eq(x().get(VI)),
        x().get(0),
        (0u8..13).map(|w| fold_expr(w, 3)).collect(),
    );
    let (_, vec) = run_pair(&p, &catalog, 16);
    let (_, vec_clean) = run_pair(&p, &clean, 16);
    assert_eq!(vec.stats.vector_fallbacks, 0, "{}", vec.stats);
    assert!(vec.stats.rows_vectorized > 0, "{}", vec.stats);
    // Partition 5 loses its 75 − 16 trailing rows to the scalar loop (its
    // filter batch aborts too); every other partition stays columnar.
    assert!(
        vec.stats.rows_vectorized < vec_clean.stats.rows_vectorized,
        "abort did not replay: {} vs {}",
        vec.stats,
        vec_clean.stats
    );
    assert_tiers_agree(&p, &catalog, 11, false);
}

#[test]
fn element_division_by_zero_on_one_row() {
    // `x.4` is `i − 7`, so row 7 (and only row 7) divides by zero.
    let catalog = Catalog::new().with("rows", conforming_rows(300));
    let p = agg_program(
        x().get(VI).eq(x().get(VI)),
        x().get(1),
        vec![fold_expr(2, 0), fold_expr(13, 0), fold_expr(0, 0)],
    );
    let prog = compile(&p);
    let scalar = scalar_tier(engine())
        .run(&prog, &catalog)
        .expect_err("scalar errors");
    let vec = engine()
        .with_vectorized_eval(BatchConfig::new(16))
        .run(&prog, &catalog)
        .expect_err("vectorized errors");
    assert_eq!(format!("{scalar:?}"), format!("{vec:?}"));
    assert!(
        format!("{scalar:?}").contains("division by zero"),
        "{scalar:?}"
    );
    assert_tiers_agree(&p, &catalog, 3, true);
}

#[test]
fn q1_plan_runs_its_agg_by_through_the_kernel() {
    let catalog = tpch::catalog(&TpchSpec {
        scale: 2.0,
        seed: 42,
    });
    let lineitems = catalog.get("lineitem").expect("lineitem");
    let kept = lineitems
        .iter()
        .filter(|r| r.field(li::SHIP_DATE).expect("ship date") <= &Value::Int(Q1_SHIP_CUTOFF))
        .count() as u64;
    assert!(kept > 0);
    let (scalar, vec) = run_pair(&tpch::q1_program(), &catalog, 256);
    assert_eq!(vec.stats.vector_fallbacks, 0, "{}", vec.stats);
    assert_eq!(vec.stats.key_path_fallbacks, 0, "{}", vec.stats);
    // The filter counts every lineitem, the combiner every kept row, the
    // final projection one row per group; what lies beyond is the merge
    // phase's partials.
    let groups = scalar.writes[tpch::Q1_SINK].len() as u64;
    assert!(
        vec.stats.rows_vectorized > lineitems.len() as u64 + kept + groups,
        "Q1's aggBy rows not counted in rows_vectorized: {}",
        vec.stats
    );
}

/// A bare `aggBy` over the int key with the given fold: the source is not a
/// vectorization site, so the fold is the only thing that can be refused.
fn bare_agg_by(fold: FoldOp) -> Program {
    Program::new(vec![Stmt::write(
        "agg",
        BagExpr::AggBy {
            input: Box::new(BagExpr::read("rows")),
            key: Lambda::new(["x"], x().get(0)),
            fold,
        },
    )])
}

#[test]
fn folds_that_do_not_specialize_are_exactly_one_counted_refusal() {
    let catalog = Catalog::new().with("rows", conforming_rows(200));
    let (a, b) = (ScalarExpr::var("a"), ScalarExpr::var("b"));
    // Slots that read each other's neighbours are not slot-wise.
    let crossed = FoldOp::custom(
        ScalarExpr::Tuple(vec![
            ScalarExpr::lit(Value::Int(0)),
            ScalarExpr::lit(Value::Int(0)),
        ]),
        Lambda::new(["x"], ScalarExpr::Tuple(vec![x().get(VI), x().get(0)])),
        Lambda::new(
            ["a", "b"],
            ScalarExpr::Tuple(vec![
                a.clone().get(0).add(b.clone().get(1)),
                a.get(1).add(b.get(0)),
            ]),
        ),
    );
    // A vector sum combines with `vec_add`, not with a typed slot op.
    let mut vec_sum = FoldOp::vec_sum(2);
    vec_sum.sng = Lambda::new(
        ["x"],
        ScalarExpr::call(
            BuiltinFn::VecScale,
            vec![
                ScalarExpr::lit(Value::vector(vec![1.0, 2.0])),
                x().get(agg_programs::VF),
            ],
        ),
    );
    for (what, fold) in [("crossed slots", crossed), ("vec_sum", vec_sum)] {
        let (_, vec) = run_pair(&bare_agg_by(fold), &catalog, 32);
        assert_eq!(vec.stats.vector_fallbacks, 1, "{what}: {}", vec.stats);
        assert_eq!(vec.stats.key_path_fallbacks, 0, "{what}: {}", vec.stats);
        assert_eq!(vec.stats.rows_vectorized, 0, "{what}: {}", vec.stats);
    }
    // The same bare shape with a recognized fold is no refusal at all.
    let (_, vec) = run_pair(&bare_agg_by(FoldOp::count()), &catalog, 32);
    assert_eq!(vec.stats.vector_fallbacks, 0, "{}", vec.stats);
    assert!(vec.stats.rows_vectorized >= 200, "{}", vec.stats);
}

/// Keys no typed column holds together, over eight partitions: the first
/// holds only Float keys (the combiner kernel specializes on it), the rest
/// mix signed zeros and NaNs, an Int beside the Float it equals, strings and
/// tuples (their combiner batches abort to the scalar loop). Every partial
/// meets the others of its class in the merge, whose kernel groups them by
/// their carried keys. The values are halves, so every sum is exact in any
/// order.
fn mixed_key_rows() -> Vec<Value> {
    let floats = [0.0, -0.0, f64::NAN, -f64::NAN, 1.0, 2.5].map(Value::Float);
    let mixed = [
        Value::Int(1),
        Value::Float(-0.0),
        Value::str("a"),
        Value::Float(1.0),
        Value::tuple([Value::Int(1), Value::str("a")]),
        Value::Float(f64::NAN),
        Value::Int(2),
        Value::tuple([Value::Float(1.0), Value::str("a")]),
        Value::str("b"),
        Value::Float(0.0),
        Value::Float(2.0),
    ];
    (0..320usize)
        .map(|i| {
            let key = match i {
                0..40 => floats[i % floats.len()].clone(),
                _ => mixed[(i * 7 + i / 13) % mixed.len()].clone(),
            };
            Value::tuple([key, Value::Float((i % 7) as f64 * 0.5)])
        })
        .collect()
}

#[test]
fn the_merge_groups_mixed_keys_alike_on_every_tier() {
    let catalog = Catalog::new().with("rows", mixed_key_rows());
    let fold = FoldOp {
        sng: Lambda::new(["x"], x().get(1)),
        ..FoldOp::sum()
    };
    let p = bare_agg_by(fold);
    let want = Interp::new(&catalog)
        .run(&p)
        .expect("the interpreter runs it");
    let kernels_prog = compile(&p);
    let interp_prog = parallelize(&p, &OptimizerFlags::all().with_compiled_eval(false));
    let skew_cfg = SkewConfig::default().with_min_part_rows(8);
    let mut reference: Option<EngineRun> = None;
    for chaos in [None, Some(FaultConfig::chaos(0xA66))] {
        for skew_on in [false, true] {
            let mk = |tier: &str, mode: ParallelismMode, threads: usize| {
                let mut e = engine()
                    .with_parallelism_mode(mode)
                    .with_worker_threads(Some(threads));
                if let Some(cfg) = chaos {
                    e = e.with_faults(cfg);
                }
                if skew_on {
                    e = e.with_skew_splitting(skew_cfg);
                }
                let prog = match tier {
                    "interp" => &interp_prog,
                    _ => &kernels_prog,
                };
                let e = if tier == "scalar" { scalar_tier(e) } else { e };
                e.run(prog, &catalog).expect("runs")
            };
            let what =
                |tier: &str, m, t| format!("{tier} {m:?}×{t} chaos {chaos:?} skew {skew_on}");
            let base = mk("kernels", MATRIX[0].0, MATRIX[0].1);
            // The combiner's first partition, then the merge's partials.
            assert!(base.stats.rows_vectorized > 40, "{}", base.stats);
            assert_matches_interp("kernels", &want, &base);
            for tier in ["kernels", "scalar", "interp"] {
                for &(m, t) in &MATRIX {
                    let run = mk(tier, m, t);
                    let what = what(tier, m, t);
                    assert_same_runs(&what, &run, &base);
                    assert_eq!(
                        run.stats.without_tier_telemetry(),
                        base.stats.without_tier_telemetry(),
                        "{what}"
                    );
                    assert_eq!(
                        run.stats.simulated_secs.to_bits(),
                        base.stats.simulated_secs.to_bits(),
                        "{what}"
                    );
                }
            }
            // Chaos and skew move the clock, never the rows.
            let first = reference.get_or_insert(base.clone());
            assert_same_runs("across chaos and skew", &base, first);
        }
    }
    let sink = &reference.expect("ran").writes["agg"];
    // Eight classes: ±0, NaN, 1, 2.5, 2, "a", "b" and the (1, "a") tuple.
    assert_eq!(sink.len(), 8, "{sink:?}");
}

/// 2 000 rows of [`agg_row`](agg_programs::agg_row)'s shape over 100 int
/// keys, a third of them on key 0. Sixty of the keys hash to the partial
/// bucket of key 0, so that bucket's partials are skewed by key
/// cardinality. The fold inputs are small ints and halves: every sum is
/// exact in any order.
fn skewed_fold_rows() -> Vec<Value> {
    let dop = ClusterSpec::tiny().dop() as u64;
    let bucket = |k: i64| emma_engine::dataset::value_hash(&Value::Int(k)) % dop;
    let (hot, cold): (Vec<i64>, Vec<i64>) = (0..2000).partition(|&k| bucket(k) == bucket(0));
    let keys: Vec<i64> = hot[..60].iter().chain(&cold[..40]).copied().collect();
    (0..2000i64)
        .map(|i| {
            let key = if i % 3 == 0 {
                0
            } else {
                keys[(i * 7 % 100) as usize]
            };
            Value::tuple(vec![
                Value::Int(key),
                Value::str("a"),
                Value::str("b"),
                Value::Float(0.0),
                Value::Int(i % 13 - 6),
                Value::Float((i % 9) as f64 * 0.5),
            ])
        })
        .collect()
}

#[test]
fn a_fused_group_by_s_accumulator_columns_cross_alike_on_every_tier() {
    // `(key, int sum, float sum, count, exists)`: every combiner covers its
    // partition, so the kernels' exchange ships the four accumulators as
    // columns while the scalar tier and the interpreter ship rows.
    let catalog = Catalog::new().with("rows", skewed_fold_rows());
    let folds = [
        fold_expr(9, 0),
        fold_expr(1, 0),
        fold_expr(2, 0),
        fold_expr(7, 3),
    ];
    let p = agg_program(
        x().get(VI).ge(ScalarExpr::lit(Value::Int(-5))),
        x().get(0),
        folds.to_vec(),
    );
    let want = Interp::new(&catalog)
        .run(&p)
        .expect("the interpreter runs it");
    let kernels_prog = compile(&p);
    assert_eq!(kernels_prog.report.fold_group_fused, 1);
    let interp_prog = parallelize(&p, &OptimizerFlags::all().with_compiled_eval(false));
    let skew_cfg = SkewConfig::default().with_min_part_rows(8);
    // One reference run per skew setting: a split layout lands the groups
    // in another order.
    let mut reference: [Option<EngineRun>; 2] = [None, None];
    for chaos in [None, Some(FaultConfig::chaos(0xC01))] {
        for skew_on in [false, true] {
            let mk = |tier: &str, mode: ParallelismMode, threads: usize| {
                let mut e = engine()
                    .with_parallelism_mode(mode)
                    .with_worker_threads(Some(threads));
                if let Some(cfg) = chaos {
                    e = e.with_faults(cfg);
                }
                if skew_on {
                    e = e.with_skew_splitting(skew_cfg);
                }
                let prog = if tier == "interp" {
                    &interp_prog
                } else {
                    &kernels_prog
                };
                let e = if tier == "scalar" { scalar_tier(e) } else { e };
                e.run(prog, &catalog).expect("runs")
            };
            let base = mk("kernels", MATRIX[0].0, MATRIX[0].1);
            assert_eq!(base.stats.vector_fallbacks, 0, "{}", base.stats);
            assert!(base.stats.rows_vectorized > 2000, "{}", base.stats);
            assert_eq!(base.stats.partitions_split > 0, skew_on, "{}", base.stats);
            assert_matches_interp("kernels", &want, &base);
            for tier in ["kernels", "scalar", "interp"] {
                for &(m, t) in &MATRIX {
                    let run = mk(tier, m, t);
                    let what = format!("{tier} {m:?}×{t} chaos {chaos:?} skew {skew_on}");
                    assert_same_runs(&what, &run, &base);
                    assert_eq!(
                        run.stats.without_tier_telemetry(),
                        base.stats.without_tier_telemetry(),
                        "{what}"
                    );
                    assert_eq!(
                        run.stats.simulated_secs.to_bits(),
                        base.stats.simulated_secs.to_bits(),
                        "{what}"
                    );
                }
            }
            let first = reference[usize::from(skew_on)].get_or_insert(base.clone());
            assert_same_runs("across chaos", &base, first);
        }
    }
    let [unsplit, split] = reference.map(|r| {
        let mut rows = r.expect("ran").writes["agg"].clone();
        rows.sort();
        rows
    });
    assert_eq!(unsplit, split);
    assert_eq!(unsplit.len(), 100);
}

/// The rows of a grid input that get a 0 divisor or modulus: `chain` in
/// `d`, `key` in `m`, `sng` in `e` ([`grid_row`]).
#[derive(Clone, Copy)]
struct Zeros {
    chain: Option<usize>,
    key: Option<usize>,
    sng: Option<usize>,
}

fn zeros(chain: Option<usize>, key: Option<usize>, sng: Option<usize>) -> Zeros {
    Zeros { chain, key, sng }
}

/// Row `i` of the fused-combiner grid, `(k, d, m, v, e, js)`: a group, the
/// chain's divisor, the key's modulus, a value, the fold's divisor and a
/// bag for a `FlatMap` to range over, with the zeros `zero` plants.
fn grid_row(i: usize, zero: Zeros) -> Value {
    let at = |z: Option<usize>, v: i64| if z == Some(i) { 0 } else { v };
    let Zeros { chain, key, sng } = zero;
    Value::tuple([
        Value::Int(i as i64 % 7),
        Value::Int(at(chain, [1, 2, 3, -1][i % 4])),
        Value::Int(at(key, [2, 3, 5][i % 3])),
        Value::Float((i % 11) as f64 * 0.5 - 1.0),
        Value::Int(at(sng, [1, 2, -4][i % 3])),
        Value::bag(vec![Value::Int(0), Value::Int(1)]),
    ])
}

/// The chain's division, `x.3 / x.1`: a chain error on a row whose `d` is 0.
fn chain_div() -> ScalarExpr {
    x().get(3).div(x().get(1))
}

/// `(k, d, m, f(x), e)`: the row with its value replaced.
fn replace_value(f: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Tuple(vec![x().get(0), x().get(1), x().get(2), f, x().get(4)])
}

/// The chains of the grid, each over `rows`: three that fuse into their
/// combiner and two that keep their own wave.
fn grid_chains() -> Vec<(&'static str, BagExpr)> {
    let rows = || BagExpr::read("rows");
    let filter = || Lambda::new(["x"], chain_div().gt(ScalarExpr::lit(Value::Float(-2.0))));
    let map = || {
        Lambda::new(
            ["x"],
            replace_value(chain_div().add(ScalarExpr::lit(1.0f64))),
        )
    };
    let twice = BagExpr::of_value(x().get(5)).map(Lambda::new(
        ["j"],
        ScalarExpr::Tuple(vec![
            x().get(0).add(ScalarExpr::var("j")),
            x().get(1),
            x().get(2),
            chain_div(),
            x().get(4),
        ]),
    ));
    // A vector builtin: no kernel takes it, so the chain is a counted
    // refusal and runs through the scalar tier.
    let norm = ScalarExpr::call(
        BuiltinFn::Dist,
        vec![
            ScalarExpr::call(
                BuiltinFn::VecScale,
                vec![ScalarExpr::lit(Value::vector(vec![1.0])), x().get(3)],
            ),
            ScalarExpr::lit(Value::vector(vec![0.0])),
        ],
    );
    vec![
        ("filter", rows().filter(filter())),
        ("map", rows().map(map())),
        ("pipeline", rows().filter(filter()).map(map())),
        ("flat_map", rows().flat_map(BagLambda::new("x", twice))),
        (
            "refused",
            rows().map(Lambda::new(["x"], replace_value(norm.div(x().get(1))))),
        ),
    ]
}

/// `aggBy(x.0 % x.2)` of `(sum(x.3 / x.4), count, max(x.0))` over `chain`:
/// a key error on a row whose `m` is 0, an `sng` error on one whose `e` is.
fn grid_program(chain: BagExpr) -> Program {
    let sum = FoldOp::sum();
    let fold = FoldOp::banana_split(&[
        FoldOp {
            sng: Lambda::new(["x"], x().get(3).div(x().get(4))),
            ..sum
        },
        FoldOp::count(),
        FoldOp {
            sng: Lambda::new(["x"], x().get(0)),
            ..FoldOp::max()
        },
    ]);
    Program::new(vec![Stmt::write(
        "agg",
        BagExpr::AggBy {
            input: Box::new(chain),
            key: Lambda::new(["x"], x().get(0).rem(x().get(2))),
            fold,
        },
    )])
}

/// One cell of the grid: `p` over `catalog` on the interpreter tier, the
/// scalar tier and the kernels, across `MATRIX`, with and without chaos.
/// Every run raises the interpreter tier's error, which is `want_err`, or
/// writes its rows with its counters and clock; the kernels' telemetry
/// replays on every leg.
fn assert_grid_cell(cell: &str, p: &Program, catalog: &Catalog, want_err: Option<&str>) {
    let reference = Interp::new(catalog).run(p);
    let kernels_prog = compile(p);
    let interp_prog = parallelize(p, &OptimizerFlags::all().with_compiled_eval(false));
    for chaos in [None, Some(FaultConfig::chaos(0x5EED))] {
        let mk = |tier: &str, mode: ParallelismMode, threads: usize| {
            let mut e = engine()
                .with_parallelism_mode(mode)
                .with_worker_threads(Some(threads));
            if let Some(cfg) = chaos {
                e = e.with_faults(cfg);
            }
            let (e, prog) = match tier {
                "interp" => (e, &interp_prog),
                "scalar" => (scalar_tier(e), &kernels_prog),
                _ => (e.with_vectorized_eval(BatchConfig::new(16)), &kernels_prog),
            };
            e.run(prog, catalog)
        };
        let what = |tier: &str, m, t| format!("{cell}: {tier} {m:?}×{t} chaos {}", chaos.is_some());
        let base = mk("interp", MATRIX[0].0, MATRIX[0].1);
        match (&base, want_err) {
            (Err(e), Some(msg)) => {
                assert!(format!("{e:?}").contains(msg), "{cell}: {e:?}");
                assert!(reference.is_err(), "{cell}: the reference runs");
            }
            (Ok(run), None) => {
                let want = reference.as_ref().expect("the reference runs it");
                assert_matches_interp(cell, want, run);
            }
            (got, _) => panic!("{cell}: {got:?}"),
        }
        let mut telemetry: Option<ExecStats> = None;
        for tier in ["interp", "scalar", "kernels"] {
            for &(m, t) in &MATRIX {
                let what = what(tier, m, t);
                match (mk(tier, m, t), &base) {
                    (Err(got), Err(want)) => {
                        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}")
                    }
                    (Ok(run), Ok(want)) => {
                        assert_same_runs(&what, &run, want);
                        assert_eq!(run.stats.without_tier_telemetry(), want.stats, "{what}");
                        assert_eq!(
                            run.stats.simulated_secs.to_bits(),
                            want.stats.simulated_secs.to_bits(),
                            "{what}"
                        );
                        if tier == "kernels" {
                            let first = telemetry.get_or_insert_with(|| run.stats.clone());
                            assert_eq!(&run.stats, first, "{what}: telemetry replay");
                        }
                    }
                    (got, _) => panic!("{what}: {got:?} against {base:?}"),
                }
            }
        }
    }
}

#[test]
fn a_combiner_over_a_narrow_chain_agrees_with_the_interpreter_on_every_input() {
    // 320 rows in eight partitions of 40 (three batches of 16). Row 44, in
    // partition 1, passes the filter; rows 72 and 204 sit later in
    // partition 1 and four partitions later, row 100 in partition 2.
    let div = Some("division by zero");
    let inputs = [
        ("clean", zeros(None, None, None), None),
        (
            "key error",
            zeros(None, Some(44), None),
            Some("modulo by zero"),
        ),
        ("sng error", zeros(None, None, Some(44)), div),
        (
            "chain error later in the partition",
            zeros(Some(72), Some(44), None),
            div,
        ),
        (
            "chain error four partitions later",
            zeros(Some(204), Some(44), None),
            div,
        ),
        (
            "one chain lane divides by zero",
            zeros(Some(100), None, None),
            div,
        ),
    ];
    for (chain, bag) in grid_chains() {
        let p = grid_program(bag);
        for (input, zero, want_err) in inputs {
            let rows = (0..320).map(|i| grid_row(i, zero)).collect();
            let catalog = Catalog::new().with("rows", rows);
            assert_grid_cell(&format!("{chain} / {input}"), &p, &catalog, want_err);
        }
    }
}

#[test]
fn q1_s_filter_runs_inside_its_combiner_and_counts_as_two_waves() {
    // The benchmark's `tpch_q1` instance at 1/8 scale, on its engine.
    let catalog = tpch::catalog(&TpchSpec {
        scale: 2.0,
        seed: 42,
    });
    let engine = Engine::sparrow().with_worker_threads(Some(1));
    let run = engine
        .run(&compile(&tpch::q1_program()), &catalog)
        .expect("Q1 runs");
    let wall = &run.stats.op_wall_secs;
    assert!(!wall.contains_key("Filter"), "{wall:?}");
    assert!(wall.contains_key("AggBy"), "{wall:?}");
    // What the Filter's wave and the combiner's wave tallied between them
    // when each ran as a wave of its own.
    assert_eq!(
        (run.stats.rows_vectorized, run.stats.batches_executed),
        (25_484, 646),
        "{}",
        run.stats
    );
    assert_eq!(run.stats.vector_fallbacks, 0, "{}", run.stats);
}

/// Row `i` of the unnest grid, `(k, ns, r, d, cs)`: a vertex, its neighbor
/// bag (`i % 4` ids below 50), a rank, a divisor and a second bag for a
/// `count`. `plant` replaces field `f` of row `i` for each `(i, Some(f), v)`,
/// and the whole row for each `(i, None, v)`.
fn unnest_rows(plant: &[(usize, Option<usize>, Value)]) -> Vec<Value> {
    let ids = |i: usize, n: usize| {
        Value::bag(
            (0..n)
                .map(|j| Value::Int(((i * 7 + j) % 50) as i64))
                .collect::<Vec<_>>(),
        )
    };
    (0..320)
        .map(|i| {
            let mut fields = vec![
                Value::Int(i as i64),
                ids(i, i % 4),
                Value::Float(1.0 / (1 + i % 5) as f64),
                Value::Int([1, 2, 3][i % 3]),
                ids(i, 1 + i % 3),
            ];
            for (_, f, v) in plant.iter().filter(|(at, ..)| *at == i) {
                match f {
                    Some(f) => fields[*f] = v.clone(),
                    None => return v.clone(),
                }
            }
            Value::tuple(fields)
        })
        .collect()
}

/// The dependent generator `for (x <- rows; y <- x.1) yield head(x, y)`,
/// written as PageRank and connected components write theirs: lowering
/// gives it an unnest head and `head` a `Map` after it.
fn unnest_chain(head: ScalarExpr) -> BagExpr {
    let ys = BagExpr::of_value(x().get(1)).map(Lambda::new(["y"], head));
    BagExpr::read("rows").flat_map(BagLambda::new("x", ys))
}

/// The unnest grid's chains.
fn unnest_chains() -> Vec<(&'static str, BagExpr)> {
    let y = || ScalarExpr::var("y");
    let count = |f: usize| BagExpr::of_value(x().get(f)).count();
    let pair = |a: ScalarExpr, b: ScalarExpr| ScalarExpr::Tuple(vec![a, b]);
    let above = BagExpr::of_value(x().get(1))
        .filter(Lambda::new(["y"], y().gt(ScalarExpr::lit(10i64))))
        .map(Lambda::new(["y"], pair(y(), x().get(2))));
    vec![
        (
            "pagerank",
            unnest_chain(pair(y(), x().get(2).div(count(1)))),
        ),
        ("cc", unnest_chain(pair(y(), x().get(0)))),
        (
            "divide",
            unnest_chain(pair(y(), x().get(2).div(x().get(3)))),
        ),
        ("count", unnest_chain(pair(y(), count(4)))),
        (
            "filter after the head",
            BagExpr::read("rows").flat_map(BagLambda::new("x", above)),
        ),
    ]
}

/// `aggBy(m.0)` of `(sum(m.1), count)` over `chain`.
fn unnest_agg(chain: BagExpr) -> BagExpr {
    let sum = FoldOp {
        sng: Lambda::new(["m"], ScalarExpr::var("m").get(1)),
        ..FoldOp::sum()
    };
    BagExpr::AggBy {
        input: Box::new(chain),
        key: Lambda::new(["m"], ScalarExpr::var("m").get(0)),
        fold: FoldOp::banana_split(&[sum, FoldOp::count()]),
    }
}

#[test]
fn an_unnest_head_feeds_the_kernels_alike_on_every_input() {
    // 320 rows in eight partitions of 40 (three batches of 16). Row 45,
    // with one neighbor, is in partition 1, row 101 in partition 2 and row
    // 205 four partitions after row 45.
    let empty = || Value::bag(Vec::new());
    let all = |f: usize, v: Value| (0..320).map(|i| (i, Some(f), v.clone())).collect();
    let mixed = Value::bag(vec![Value::Int(1), Value::Float(2.5), Value::Int(3)]);
    // Each input, and the error it raises: in every chain, or (`Some`) only
    // in the chain that reads the field it plants.
    let bag_err = Some("expected: \"Bag\"");
    type Plant = Vec<(usize, Option<usize>, Value)>;
    let inputs: Vec<(&str, Plant, Option<&str>, Option<&str>)> = vec![
        ("clean", vec![], None, None),
        ("empty bags", all(1, empty()), None, None),
        (
            "a partition of empty bags",
            (40..80).map(|i| (i, Some(1), empty())).collect(),
            None,
            None,
        ),
        (
            "a null field",
            vec![(45, Some(1), Value::Null)],
            bag_err,
            None,
        ),
        (
            "an int field",
            vec![(45, Some(1), Value::Int(3))],
            bag_err,
            None,
        ),
        (
            "a field out of range",
            vec![(45, None, Value::tuple([Value::Int(45)]))],
            Some("FieldOutOfRange"),
            None,
        ),
        (
            "a mixed bag",
            vec![(45, Some(1), mixed.clone())],
            None,
            None,
        ),
        (
            "count over a non-bag",
            vec![(45, Some(4), Value::Int(2))],
            bag_err,
            Some("count"),
        ),
        (
            "no bag to count",
            all(4, Value::Int(2)),
            bag_err,
            Some("count"),
        ),
        (
            "division by zero",
            vec![(101, Some(3), Value::Int(0))],
            Some("division by zero"),
            Some("divide"),
        ),
        (
            "a chain error four partitions later",
            vec![(45, Some(1), mixed), (205, Some(1), Value::Null)],
            bag_err,
            None,
        ),
    ];
    for (chain, bag) in unnest_chains() {
        let shapes = [
            ("standalone", bag.clone()),
            ("under an aggBy", unnest_agg(bag)),
        ];
        for (shape, bag) in shapes {
            let p = Program::new(vec![Stmt::write("out", bag)]);
            for (input, plant, err, only) in &inputs {
                let want_err = err.filter(|_| only.is_none_or(|c| c == chain));
                let catalog = Catalog::new().with("rows", unnest_rows(plant));
                let cell = format!("{chain} {shape} / {input}");
                assert_grid_cell(&cell, &p, &catalog, want_err);
                if want_err.is_some() {
                    continue;
                }
                let run = engine().with_vectorized_eval(BatchConfig::new(16));
                let stats = run.run(&compile(&p), &catalog).expect("runs").stats;
                if plant.is_empty() {
                    assert_eq!(stats.vector_fallbacks, 0, "{cell}: {stats}");
                    assert!(stats.rows_vectorized >= 320, "{cell}: {stats}");
                }
                // Under an aggBy the chain runs in the combiner's frame,
                // also when its bags hold no pair to read.
                let wall = &stats.op_wall_secs;
                let own_frame = wall.contains_key("Pipeline");
                assert_eq!(own_frame, shape == "standalone", "{cell}: {wall:?}");
            }
        }
    }
}

#[test]
fn a_flat_map_that_is_no_unnest_head_stays_a_counted_refusal() {
    use emma::emma_compiler::physical_pipeline::apply_pipeline_fusion;
    use emma::emma_compiler::pipeline::{CStmt, OptimizationReport};
    // Hand-built plans: lowering gives a dependent generator only the
    // unnest head's shape, and the normalizer rewrites a literal bag.
    let y = || ScalarExpr::var("y");
    let pair = || Lambda::new(["y"], ScalarExpr::Tuple(vec![x(), y()]));
    let flat_map = |input: Plan, body: BagExpr| Plan::FlatMap {
        input: Box::new(input),
        param: "x".into(),
        body,
    };
    let rows = || Plan::Source {
        name: "rows".into(),
    };
    let neighbors = || BagExpr::of_value(x().get(1));
    let swapped = Lambda::new(["y"], ScalarExpr::Tuple(vec![y(), x()]));
    let literal = BagExpr::values(vec![Value::Int(0), Value::Int(1)]);
    let filtered = neighbors().filter(Lambda::new(["y"], y().ge(ScalarExpr::lit(0i64))));
    let after_a_map = flat_map(
        Plan::Map {
            input: Box::new(rows()),
            f: Lambda::new(["x"], x()),
        },
        neighbors().map(pair()),
    );
    let cases = [
        (
            "an unnest head",
            flat_map(rows(), neighbors().map(pair())),
            0,
        ),
        (
            "a swapped pair",
            flat_map(rows(), neighbors().map(swapped)),
            1,
        ),
        ("a literal bag", flat_map(rows(), literal.map(pair())), 1),
        ("a filtered body", flat_map(rows(), filtered.map(pair())), 1),
        ("not at the head", after_a_map, 1),
    ];
    let catalog = Catalog::new().with("rows", unnest_rows(&[]));
    for (what, plan, refusals) in cases {
        let mut prog = CompiledProgram {
            body: vec![CStmt::Write {
                sink: "out".into(),
                plan,
            }],
            report: OptimizationReport::default(),
            compiled_eval: true,
        };
        apply_pipeline_fusion(&mut prog.body, &mut prog.report);
        let scalar = scalar_tier(engine()).run(&prog, &catalog).expect("scalar");
        let run = engine().run(&prog, &catalog).expect("kernels");
        assert_same_runs(what, &run, &scalar);
        assert_eq!(run.stats.without_tier_telemetry(), scalar.stats, "{what}");
        assert_eq!(
            run.stats.vector_fallbacks, refusals,
            "{what}: {}",
            run.stats
        );
        assert_eq!(run.stats.rows_vectorized > 0, refusals == 0, "{what}");
    }
}

/// An adjacency row's neighbor ids.
fn neighbors(v: &Value) -> &[Value] {
    v.field(1).and_then(Value::as_bag).expect("adjacency")
}

/// The messages PageRank sends over `iterations` rounds: every vertex with
/// a rank sends one per neighbor, and a vertex has a rank from the second
/// round on when it received a message.
fn pagerank_messages(vertices: &[Value], iterations: usize) -> u64 {
    let mut ranked: Vec<Value> = vertices
        .iter()
        .map(|v| v.field(0).unwrap().clone())
        .collect();
    let mut sent = 0;
    for _ in 0..iterations {
        let mut got = Vec::new();
        for v in vertices
            .iter()
            .filter(|v| ranked.contains(v.field(0).unwrap()))
        {
            sent += neighbors(v).len() as u64;
            got.extend(neighbors(v).iter().cloned());
        }
        got.sort();
        got.dedup();
        ranked = got;
    }
    sent
}

/// The messages stateful connected components sends until no component
/// changes: each changed vertex sends its component to every neighbor.
fn cc_messages(vertices: &[Value]) -> u64 {
    let id = |v: &Value| v.field(0).unwrap().as_int().unwrap();
    let mut comp: std::collections::HashMap<i64, i64> =
        vertices.iter().map(|v| (id(v), id(v))).collect();
    let mut delta: Vec<&Value> = vertices.iter().collect();
    let mut sent = 0;
    while !delta.is_empty() {
        let mut best: std::collections::BTreeMap<i64, i64> = Default::default();
        for v in &delta {
            for n in neighbors(v) {
                sent += 1;
                let c = best.entry(n.as_int().unwrap()).or_insert(i64::MIN);
                *c = (*c).max(comp[&id(v)]);
            }
        }
        let mut changed = Vec::new();
        for (n, c) in best {
            if comp.get(&n).is_some_and(|&old| c > old) {
                comp.insert(n, c);
                changed.push(n);
            }
        }
        delta = vertices
            .iter()
            .filter(|v| changed.contains(&id(v)))
            .collect();
    }
    sent
}

#[test]
fn pagerank_s_and_cc_s_messages_fold_inside_their_combiners() {
    use emma::algorithms::{connected_components as cc, pagerank};
    let spec = emma_datagen::graph::GraphSpec {
        vertices: 400,
        avg_degree: 10,
        skew: 1.2,
        seed: 42,
    };
    let params = pagerank::PagerankParams {
        iterations: 5,
        num_pages: spec.vertices,
        ..Default::default()
    };
    let pr = pagerank::catalog(&spec);
    let vertices = pr.get("vertices").expect("vertices").clone();
    let cases = [
        (
            "pagerank",
            pagerank::program(&params),
            pr,
            pagerank_messages(&vertices, 5),
        ),
        (
            "cc",
            cc::stateful_program(),
            cc::catalog(&spec),
            cc_messages(&vertices),
        ),
    ];
    for (what, program, catalog, messages) in cases {
        let run = Engine::sparrow()
            .run(&compile(&program), &catalog)
            .expect("runs");
        let stats = &run.stats;
        assert_eq!(stats.vector_fallbacks, 0, "{what}: {stats}");
        let wall = &stats.op_wall_secs;
        assert!(!wall.contains_key("Pipeline"), "{what}: {wall:?}");
        assert!(
            stats.rows_vectorized >= messages,
            "{what}: {messages} messages, {stats}"
        );
    }
}
