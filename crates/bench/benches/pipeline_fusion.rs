//! Wall-clock benchmark of pipeline fusion and the persistent worker pool:
//! the same narrow-operator chain executed (a) the seed way — one operator
//! at a time on per-operator thread scopes, materializing an intermediate
//! collection between every pair of operators — and (b) fused into a single
//! `Plan::Pipeline` per-partition pass on the per-run worker pool, plus the
//! two single-change ablations in between.
//!
//! Besides printing the usual criterion summary, the harness writes
//! `BENCH_pipeline_fusion.json` at the repository root with the raw
//! measurements and the headline fused-pool-vs-seed speedup. The
//! deterministic *simulated* time is identical across all four
//! configurations by construction (see `tests/fusion_equivalence.rs`);
//! everything measured here is real elapsed time.

use criterion::{criterion_group, take_measurements, Criterion, Measurement};
use emma::prelude::*;
use emma_compiler::bag_expr::BagExpr;
use emma_compiler::physical_pipeline::apply_pipeline_fusion;
use emma_compiler::pipeline::{CStmt, CompiledProgram, OptimizationReport};
use emma_engine::ParallelismMode;

/// Rows in the benchmark dataset. Large enough that the ~24 MB intermediate
/// collections the unfused execution materializes between stages exceed
/// typical last-level caches, so the fused pass's avoided round-trips to
/// memory show up in wall time.
const ROWS: i64 = 1_000_000;

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn lit(k: i64) -> ScalarExpr {
    ScalarExpr::lit(k)
}

/// A deep narrow chain over integer rows — the shape fusion targets: seven
/// per-element operators with nothing wide in between, so the unfused
/// execution materializes six intermediate collections that the fused pass
/// never allocates.
fn filter_gt(input: Box<Plan>, k: i64) -> Plan {
    Plan::Filter {
        input,
        p: Lambda::new(["x"], var("x").gt(lit(k))),
    }
}

fn map_add(input: Box<Plan>, k: i64) -> Plan {
    Plan::Map {
        input,
        f: Lambda::new(["x"], var("x").add(lit(k))),
    }
}

/// A data-cleaning-shaped chain: alternating validity filters (each keeps
/// nearly every row, as real validity checks do) and cheap per-element maps.
/// Every stage of the unfused execution materializes a full ~`ROWS`-element
/// intermediate collection; the fused pass allocates only the final output.
fn chain_plan() -> Plan {
    let mut plan = Plan::Source { name: "xs".into() };
    for i in 0..5 {
        plan = filter_gt(Box::new(plan), -1 - i);
        plan = map_add(Box::new(plan), i);
    }
    plan
}

/// The same shape with a row-expanding flatMap in the middle — the operator
/// the seed executed serially and the pool fans out.
fn flatmap_chain_plan() -> Plan {
    let mut plan = Plan::Source { name: "xs".into() };
    plan = filter_gt(Box::new(plan), -1);
    plan = map_add(Box::new(plan), 3);
    plan = Plan::FlatMap {
        input: Box::new(plan),
        param: "x".into(),
        body: BagExpr::values(vec![Value::Int(0), Value::Int(1)])
            .map(Lambda::new(["d"], var("x").add(var("d")))),
    };
    plan = filter_gt(Box::new(plan), 10);
    plan = map_add(Box::new(plan), 1);
    plan
}

fn program(plan: Plan, fused: bool) -> CompiledProgram {
    let mut prog = CompiledProgram {
        body: vec![CStmt::Write {
            sink: "out".into(),
            plan,
        }],
        report: OptimizationReport::default(),
        compiled_eval: true,
    };
    if fused {
        apply_pipeline_fusion(&mut prog.body, &mut prog.report);
        assert_eq!(prog.report.pipelines_fused, 1, "chain must fuse");
    }
    prog
}

fn engine(mode: ParallelismMode) -> Engine {
    Engine::sparrow()
        .with_parallelism_mode(mode)
        .with_parallelism_threshold(4_096)
}

/// The four configurations: seed baseline, the two single-change ablations,
/// and the full fused-pool execution.
fn configs() -> [(&'static str, bool, ParallelismMode); 4] {
    [
        ("seed_per_operator", false, ParallelismMode::PerOperator),
        ("pool_only", false, ParallelismMode::Pool),
        ("fusion_only", true, ParallelismMode::PerOperator),
        ("fused_pool", true, ParallelismMode::Pool),
    ]
}

fn bench_pipeline_fusion(c: &mut Criterion) {
    let catalog = Catalog::new().with("xs", (0..ROWS).map(Value::Int).collect::<Vec<_>>());
    for (group_name, plan) in [
        ("pipeline_fusion", chain_plan as fn() -> Plan),
        (
            "pipeline_fusion_flatmap",
            flatmap_chain_plan as fn() -> Plan,
        ),
    ] {
        let mut group = c.benchmark_group(group_name);
        group.sample_size(8);
        for (name, fused, mode) in configs() {
            let prog = program(plan(), fused);
            let eng = engine(mode);
            group.bench_function(name, |b| {
                b.iter(|| std::hint::black_box(eng.run(&prog, &catalog).expect("run")))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_pipeline_fusion);

fn mean_of<'a>(ms: &'a [Measurement], id: &str) -> Option<&'a Measurement> {
    ms.iter().find(|m| m.id == id)
}

fn main() {
    let mut criterion = Criterion::default();
    benches(&mut criterion);
    criterion.final_summary();

    let ms = take_measurements();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (speedup, speedup_min) = match (
        mean_of(&ms, "pipeline_fusion/seed_per_operator"),
        mean_of(&ms, "pipeline_fusion/fused_pool"),
    ) {
        (Some(seed), Some(fused)) => (
            seed.mean_ns / fused.mean_ns,
            // Fastest-sample ratio: robust against scheduler noise on
            // shared machines, where slow outliers inflate both means.
            seed.min_ns / fused.min_ns,
        ),
        _ => (f64::NAN, f64::NAN),
    };
    let results = emma_bench::bench_json(&ms, ROWS as u64);
    let json = format!(
        "{{\n  \"bench\": \"pipeline_fusion\",\n  \"rows\": {ROWS},\n  \"stages\": 10,\n  \"threads\": {threads},\n  \"speedup_fused_pool_vs_seed\": {speedup:.3},\n  \"speedup_fused_pool_vs_seed_min\": {speedup_min:.3},\n  \"results\": [\n{results}\n  ]\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_pipeline_fusion.json"
    );
    std::fs::write(path, &json).expect("write BENCH_pipeline_fusion.json");
    println!("\nwrote {path}");
    println!(
        "fused_pool vs seed_per_operator speedup: {speedup:.2}x mean, {speedup_min:.2}x fastest-sample ({threads} threads)"
    );
}
