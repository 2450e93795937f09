//! Whole-tool tests: every workload at 1/50 of its size with one repetition,
//! and the agreement between the tool and `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::measure::{self, Tally, SMOKE};
use crate::workloads::WORKLOADS;

/// Names in `BENCHMARK.json`: a letter or digit, then letters, digits, `_`,
/// `.` and `-`, at most 64 in all.
fn is_name(s: &str) -> bool {
    let tail_ok = s
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && tail_ok
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

/// Timed and traced metrics of one workload's smoke run, after checking the
/// result line they would print.
fn smoke(w: &'static crate::workloads::Workload) -> (Vec<String>, Vec<String>) {
    let mut tally = Tally::default();
    let mut log = String::new();
    let timed = measure::timed_run(w, 42, 0.0, SMOKE, &mut tally, &mut log);
    let (traced, tracer) = measure::traced_run(w, 42, SMOKE, &mut tally, &mut log);
    assert_eq!(tally.failed, 0, "{}: an output check failed", w.name);
    assert!(tally.attempted > 0);
    for line in tracer.to_jsonl(w.name).lines() {
        json::parse(line).unwrap_or_else(|e| panic!("{}: span `{line}`: {e}", w.name));
    }
    let mut names = Vec::new();
    for metrics in [&timed.0, &traced.0] {
        let line = json::result_line(tally.attempted, tally.failed, metrics);
        let parsed = json::parse(&line).unwrap_or_else(|e| panic!("{}: {e}: {line}", w.name));
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("failed").and_then(Json::as_f64), Some(0.0));
        let Some(Json::Obj(fields)) = parsed.get("metrics") else {
            panic!("{}: no metrics object", w.name);
        };
        assert_eq!(fields.len(), metrics.len(), "a metric name is used twice");
        for (name, m) in fields {
            assert!(is_name(name), "metric name `{name}`");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(is_unit(unit), "unit `{unit}` of {name}");
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(value.is_finite(), "{name} is {value}");
        }
        names.push(fields.iter().map(|(k, _)| k.clone()).collect());
    }
    let traced = names.pop().expect("traced names");
    (names.pop().expect("timed names"), traced)
}

/// The object in `BENCHMARK.json` at the repository root.
fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_of(list: Option<&Json>) -> Vec<String> {
    let Some(Json::Arr(items)) = list else {
        panic!("expected a list in BENCHMARK.json");
    };
    items
        .iter()
        .map(|i| {
            i.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_passes_its_output_check_and_prints_what_benchmark_json_lists() {
    let spec = benchmark_json();
    let end_to_end = names_of(spec.get("end_to_end"));
    let per_layer = names_of(spec.get("per_layer"));
    for w in &WORKLOADS {
        let (timed, traced) = smoke(w);
        assert_eq!(timed, end_to_end, "{}: end-to-end metrics", w.name);
        assert_eq!(traced, per_layer, "{}: per-layer metrics", w.name);
    }
}

#[test]
fn benchmark_json_lists_the_workloads_with_their_reasons() {
    let spec = benchmark_json();
    let Some(Json::Arr(listed)) = spec.get("workloads") else {
        panic!("no workloads in BENCHMARK.json");
    };
    assert_eq!(listed.len(), WORKLOADS.len());
    for (w, l) in WORKLOADS.iter().zip(listed) {
        assert!(is_name(w.name), "workload name `{}`", w.name);
        assert_eq!(l.get("name").and_then(Json::as_str), Some(w.name));
        assert_eq!(l.get("why").and_then(Json::as_str), Some(w.why));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
}

#[test]
fn the_seed_decides_the_inputs() {
    for w in &WORKLOADS {
        let a = w.build(7, SMOKE.div).digest();
        assert_eq!(a, w.build(7, SMOKE.div).digest(), "{}: same seed", w.name);
        assert_ne!(a, w.build(8, SMOKE.div).digest(), "{}: other seed", w.name);
    }
}

#[test]
fn cc_stateful_takes_as_many_rounds_as_it_has_layers() {
    use emma::prelude::*;
    let w = crate::workloads::find("cc_stateful").expect("workload");
    for seed in [1, 2, 3] {
        let inst = w.build(seed, 10);
        let compiled = parallelize(&inst.program, &OptimizerFlags::all());
        let run = measure::Config::Default
            .engine()
            .run(&compiled, &inst.catalog)
            .expect("engine run");
        assert_eq!(run.stats.iterations, crate::workloads::CC_LAYERS as u64);
    }
}
