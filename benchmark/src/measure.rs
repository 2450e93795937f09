//! Set-up, the timed run and the traced run of one workload.
//!
//! Every layer is measured from outside: by timing calls to public functions
//! of the repository and by reading the `ExecStats` and `OptimizationReport`
//! those calls return.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use emma::prelude::*;
use emma_compiler::physical::{apply_caching, apply_partition_pulling};
use emma_compiler::physical_pipeline::apply_pipeline_fusion;
use emma_compiler::pipeline::CStmt;
use emma_engine::{ParallelismMode, Partitioned};

use crate::alloc;
use crate::check::{sink_digest, sinks_match};
use crate::json::Metrics;
use crate::stats::{fastest, median, quartiles, ratio};
use crate::trace::Tracer;
use crate::workloads::{Instance, Workload};

/// How much work a run does. [`FULL`] is the benchmark; the tests run
/// [`SMOKE`], the same code at 1/50 of the size with one repetition of
/// everything.
#[derive(Clone, Copy)]
pub struct Effort {
    /// Every row count is divided by this.
    pub div: usize,
    /// Set-ups per timed run; `setup_s` is their median.
    pub setups: usize,
    /// Warm-up runs per timed configuration in each set-up.
    pub warmups: usize,
    /// Least timed repetitions per configuration, however short `--seconds`
    /// is; also the least samples behind each staged compile time.
    pub min_reps: usize,
    /// Most samples behind each staged compile time.
    pub compile_reps: usize,
    /// Traced repetitions per configuration.
    pub traced_reps: u32,
    /// Repetitions of the `interp_tier` configuration and of each unit cost.
    pub slow_reps: u32,
}

pub const FULL: Effort = Effort {
    div: 1,
    setups: 3,
    warmups: 2,
    min_reps: 15,
    compile_reps: 200,
    traced_reps: 5,
    slow_reps: 3,
};

#[cfg(test)]
pub const SMOKE: Effort = Effort {
    div: 50,
    setups: 1,
    warmups: 1,
    min_reps: 1,
    compile_reps: 1,
    traced_reps: 1,
    slow_reps: 1,
};

/// Compile samples taken before each timed repetition.
const COMPILES_PER_REP: usize = 8;
/// The staged compile times stop sampling after this long (never before
/// `Effort::min_reps` samples).
const COMPILE_BUDGET: Duration = Duration::from_millis(400);

/// The fixed engine configurations. `Default` and `Vec` are timed; the rest
/// run in the traced run only.
///
/// The timed configurations use one worker thread. With two, the scheduler
/// of the 2-core box either overlaps the workers or stacks every thread on
/// one CPU (the other stays idle and wall time equals CPU time), and flips
/// between the two for seconds at a time: TPC-H Q4 reads 135 ms or 195 ms,
/// which no bound of the driver's could hold. What the second thread buys is
/// reported per layer instead (`pool.t2_ms`, `pool.speedup_t2`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Config {
    /// The workload's flags, Sparrow, 1 worker thread.
    Default,
    /// `Default` plus the vectorized evaluation tier.
    Vec,
    /// `Default` on 2 worker threads.
    T2,
    /// `T2` with per-operator thread scopes in place of the pool.
    PerOperator,
    /// `Default` with UDFs through the tree-walking interpreter.
    InterpTier,
    /// `Default` with fault injection, checkpoints and skew splitting on.
    PoliciesOn,
    /// `Default` on the Flink-like personality.
    Flamingo,
}

impl Config {
    pub fn name(self) -> &'static str {
        match self {
            Config::Default => "default",
            Config::Vec => "vec",
            Config::T2 => "t2",
            Config::PerOperator => "per_operator",
            Config::InterpTier => "interp_tier",
            Config::PoliciesOn => "policies_on",
            Config::Flamingo => "flamingo",
        }
    }

    pub fn engine(self) -> Engine {
        let threads = match self {
            Config::T2 | Config::PerOperator => 2,
            _ => 1,
        };
        let personality = match self {
            Config::Flamingo => Engine::flamingo(),
            _ => Engine::sparrow(),
        };
        let engine = personality.with_worker_threads(Some(threads));
        match self {
            Config::Vec => engine.with_vectorized_eval(BatchConfig::default()),
            Config::PerOperator => engine.with_parallelism_mode(ParallelismMode::PerOperator),
            Config::PoliciesOn => engine
                .with_faults(FaultConfig::chaos(0xFA17))
                .with_checkpoints(CheckpointConfig::cost_driven())
                .with_skew_splitting(SkewConfig::default()),
            _ => engine,
        }
    }

    /// The optimizer flags, from the workload's own.
    pub fn flags(self, workload: OptimizerFlags) -> OptimizerFlags {
        match self {
            Config::InterpTier => workload.with_compiled_eval(false),
            _ => workload,
        }
    }
}

/// Runs attempted and runs failed. An `Err`, a digest that differs from the
/// first run's, a reference mismatch and a counter that does not repeat are
/// all failures.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// A workload set up: inputs generated, reference checked, engine warm.
pub struct Prepared {
    pub instance: Instance,
    pub flags: OptimizerFlags,
    /// Digest of the first warm-up's sinks; every later run must repeat it.
    pub digest: u64,
    pub gen_secs: f64,
    pub reference_secs: f64,
    /// Rows of the interpreter's output that engine output was compared to.
    pub verify_rows: u64,
}

/// The flags of the logical half of the pipeline alone.
fn logical_flags(flags: OptimizerFlags) -> OptimizerFlags {
    flags
        .with_caching(false)
        .with_partition_pulling(false)
        .with_pipeline_fusion(false)
}

/// The three physical passes applied one by one to the logical body; the
/// result must equal the one-shot `parallelize`.
fn staged_compile(program: &Program, flags: OptimizerFlags, t: &mut Tracer) -> CompiledProgram {
    let logical = logical_flags(flags);
    let mut c = t.span("pipeline.logical", |_| parallelize(program, &logical));
    if flags.caching {
        t.span("physical.apply_caching", |_| {
            apply_caching(&mut c.body, &mut c.report)
        });
    }
    if flags.partition_pulling {
        t.span("physical.apply_partition_pulling", |_| {
            apply_partition_pulling(&mut c.body, &mut c.report)
        });
    }
    if flags.pipeline_fusion {
        t.span("physical_pipeline.apply_pipeline_fusion", |_| {
            apply_pipeline_fusion(&mut c.body, &mut c.report)
        });
    }
    c
}

/// One repetition: compile, run, check. Returns the wall time of compile
/// plus run in milliseconds and, if the engine returned one, the run.
///
/// With the tracer on, the compile is staged and every step is a span; with
/// it off this is exactly what a user calls: `parallelize` then `Engine::run`.
fn rep(
    instance: &Instance,
    flags: OptimizerFlags,
    cfg: Config,
    expect: Option<u64>,
    t: &mut Tracer,
    tally: &mut Tally,
) -> (f64, Option<EngineRun>) {
    let engine = cfg.engine();
    let flags = cfg.flags(flags);
    t.span("rep", |t| {
        let start = Instant::now();
        let compiled = if t.enabled {
            t.span("compile", |t| staged_compile(&instance.program, flags, t))
        } else {
            parallelize(&instance.program, &flags)
        };
        let result = t.span("exec.run", |t| {
            let result = engine.run(&compiled, &instance.catalog);
            if let (true, Ok(run)) = (t.enabled, &result) {
                for (k, _, v) in counters(&run.stats) {
                    t.attr(k, v as f64);
                }
                // In name order: the engine keeps them in a hash map.
                let mut kinds: Vec<_> = run.stats.op_wall_secs.iter().collect();
                kinds.sort_unstable_by_key(|(kind, _)| **kind);
                for (kind, secs) in kinds {
                    t.attr(format!("exec.op_ms.{kind}"), secs * 1e3);
                }
                t.attr("exec.wall_ms", run.stats.wall_secs * 1e3);
                t.attr("exec.simulated_secs", run.stats.simulated_secs);
                t.attr("skew.max_skew_ratio", run.stats.max_skew_ratio);
            }
            result
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let run = t.span("verify", |_| match result {
            Ok(run) => {
                let got = sink_digest(&run.writes);
                tally.record(expect.is_none_or(|d| d == got), || {
                    format!("{}: output digest {got:x} differs", cfg.name())
                });
                Some(run)
            }
            Err(e) => {
                tally.record(false, || format!("{}: {e}", cfg.name()));
                None
            }
        });
        (wall_ms, run)
    })
}

/// Generates the inputs, checks engine output against the interpreter's,
/// and warms the two timed configurations up.
///
/// The reference runs at full size where `Interp` can (`reference_div` 1);
/// elsewhere on a smaller instance from the same generator and seed, with
/// the full-size output held to the digest of its first run.
pub fn setup(
    w: &Workload,
    seed: u64,
    effort: Effort,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Prepared {
    let div = effort.div;
    let flags = (w.flags)();
    let start = Instant::now();
    let instance = t.span("datagen", |_| w.build(seed, div));
    let gen_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let small = (w.reference_div > 1).then(|| w.build(seed, div * w.reference_div));
    let checked = small.as_ref().unwrap_or(&instance);
    let reference = t.span("interp.reference", |_| {
        Interp::new(&checked.catalog).run(&checked.program)
    });
    let reference_secs = start.elapsed().as_secs_f64();
    let reference = match reference {
        Ok(out) => out.writes,
        Err(e) => {
            tally.record(false, || format!("interpreter: {e}"));
            HashMap::new()
        }
    };
    let verify_rows = reference.values().map(|rows| rows.len() as u64).sum();
    let against_reference = |cfg: Config, run: &Option<EngineRun>, tally: &mut Tally| {
        let ok = run
            .as_ref()
            .is_some_and(|r| sinks_match(&reference, &r.writes));
        tally.record(ok, || {
            format!("{}: output differs from the interpreter's", cfg.name())
        });
    };

    if let Some(small) = &small {
        for cfg in [Config::Default, Config::Vec] {
            let (_, run) = rep(small, flags, cfg, None, t, tally);
            against_reference(cfg, &run, tally);
        }
    }
    let mut digest = None;
    for i in 0..effort.warmups {
        for cfg in [Config::Default, Config::Vec] {
            let (_, run) = rep(&instance, flags, cfg, digest, t, tally);
            if i == 0 && small.is_none() {
                against_reference(cfg, &run, tally);
            }
            if let (None, Some(run)) = (digest, &run) {
                digest = Some(sink_digest(&run.writes));
            }
        }
    }
    Prepared {
        instance,
        flags,
        digest: digest.unwrap_or(0),
        gen_secs,
        reference_secs,
        verify_rows,
    }
}

impl Prepared {
    fn rep(&self, cfg: Config, t: &mut Tracer, tally: &mut Tally) -> (f64, Option<EngineRun>) {
        rep(&self.instance, self.flags, cfg, Some(self.digest), t, tally)
    }
}

/// The counters of a run that must repeat exactly: metric name, unit, value.
fn counters(s: &ExecStats) -> [(&'static str, &'static str, u64); 18] {
    [
        ("exec.records_processed", "count", s.records_processed),
        ("exec.stages", "count", s.stages),
        ("exec.iterations", "count", s.iterations),
        ("exec.cache_hits", "count", s.cache_hits),
        ("exec.cache_misses", "count", s.cache_misses),
        ("dataset.bytes_shuffled", "bytes", s.bytes_shuffled),
        ("dataset.bytes_broadcast", "bytes", s.bytes_broadcast),
        ("dataset.bytes_read_storage", "bytes", s.bytes_read_storage),
        (
            "dataset.bytes_written_storage",
            "bytes",
            s.bytes_written_storage,
        ),
        ("dataset.bytes_spilled", "bytes", s.bytes_spilled),
        ("vectorized.rows_vectorized", "count", s.rows_vectorized),
        ("vectorized.batches_executed", "count", s.batches_executed),
        ("vectorized.vector_fallbacks", "count", s.vector_fallbacks),
        (
            "vectorized.key_path_fallbacks",
            "count",
            s.key_path_fallbacks,
        ),
        ("fault.tasks_retried", "count", s.tasks_retried),
        ("fault.checkpoints_written", "count", s.checkpoints_written),
        (
            "fault.recomputed_plan_nodes",
            "count",
            s.recomputed_plan_nodes,
        ),
        ("skew.partitions_split", "count", s.partitions_split),
    ]
}

/// Pushes the counters of `s` whose layer (the name up to the dot) is listed.
fn push_counters(m: &mut Metrics, s: &ExecStats, layers: &[&str]) {
    for (name, unit, value) in counters(s) {
        if layers.iter().any(|l| name.split('.').next() == Some(l)) {
            m.push(name, value as f64, unit);
        }
    }
}

/// Everything about a run that must replay bit for bit: the counters, the
/// simulated clock and the skew ratio.
fn replay_key(s: &ExecStats) -> Vec<u64> {
    counters(s)
        .into_iter()
        .map(|(_, _, v)| v)
        .chain([s.simulated_secs.to_bits(), s.max_skew_ratio.to_bits()])
        .collect()
}

/// Fastest, in microseconds, of the times `f` reports for itself.
fn fastest_us(effort: Effort, mut f: impl FnMut() -> Duration) -> f64 {
    let begun = Instant::now();
    let mut samples = Vec::with_capacity(effort.compile_reps);
    while samples.len() < effort.compile_reps
        && (samples.len() < effort.min_reps || begun.elapsed() < COMPILE_BUDGET)
    {
        samples.push(f().as_secs_f64() * 1e6);
    }
    fastest(&samples)
}

/// Fastest call to `f`, in microseconds.
fn fastest_call_us<R>(effort: Effort, mut f: impl FnMut() -> R) -> f64 {
    fastest_us(effort, || {
        let start = Instant::now();
        black_box(f());
        start.elapsed()
    })
}

type Pass = fn(&mut [CStmt], &mut OptimizationReport);

/// Peak resident set size of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The timed run: tracing and allocation counting off, `default` and `vec`
/// interleaved repetition by repetition for `seconds`.
///
/// Wall metrics report the fastest repetition, not the median: host bursts
/// slow the box this was built on by 40–80 % for seconds at a time, and over
/// ten runs of one commit the per-run median moved by 2–43 % (first to third
/// quartile over the median) where the minimum moved by 1–15 %. Quartiles
/// are printed beside it.
pub fn timed_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    effort: Effort,
    tally: &mut Tally,
    log: &mut String,
) -> Metrics {
    let mut off = Tracer::new(false);
    let mut setups = Vec::with_capacity(effort.setups);
    let mut prepared = None;
    for _ in 0..effort.setups {
        // The previous data set goes first, so that two never share memory.
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(setup(w, seed, effort, &mut off, tally));
        setups.push(start.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up");

    let mut wall: HashMap<Config, Vec<f64>> = HashMap::new();
    let mut compile_us = Vec::new();
    let mut sim_bits = Vec::new();
    let begun = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut reps = 0;
    while reps < effort.min_reps || begun.elapsed() < budget {
        // Compile samples are spread over the run, a few before each
        // repetition, so that one noisy moment cannot hold them all.
        for _ in 0..COMPILES_PER_REP {
            let start = Instant::now();
            black_box(parallelize(&p.instance.program, &p.flags));
            compile_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        for cfg in [Config::Default, Config::Vec] {
            let (ms, run) = p.rep(cfg, &mut off, tally);
            wall.entry(cfg).or_default().push(ms);
            if let (Config::Default, Some(run)) = (cfg, run) {
                sim_bits.push(run.stats.simulated_secs.to_bits());
            }
        }
        reps += 1;
    }
    let sim_repeats = sim_bits.windows(2).all(|w| w[0] == w[1]);
    tally.record(sim_repeats && !sim_bits.is_empty(), || {
        "default: the simulated clock differs between repetitions".to_string()
    });
    let sim_sparrow = sim_bits.first().map_or(0.0, |b| f64::from_bits(*b));
    let (_, flamingo) = p.rep(Config::Flamingo, &mut off, tally);
    let sim_flamingo = flamingo.map_or(0.0, |r| r.stats.simulated_secs);

    let rows = p.instance.input_rows();
    *log += &format!(
        "timed: {reps} repetitions per configuration, {rows} input rows, {} set-ups, inputs {:016x}\n",
        effort.setups,
        p.instance.digest()
    );
    let mut m = Metrics::default();
    m.push("setup_s", median(&setups), "s");
    for (name, unit, samples) in [
        ("e2e_ms", "ms", &wall[&Config::Default]),
        ("e2e_vec_ms", "ms", &wall[&Config::Vec]),
        ("compile_us", "us", &compile_us),
    ] {
        let (q1, med, q3) = quartiles(samples);
        let min = fastest(samples);
        *log += &format!(
            "{name:<10} fastest {min:.3}  q1 {q1:.3}  median {med:.3}  q3 {q3:.3}  ({} samples)\n",
            samples.len()
        );
        m.push(name, min, unit);
        if name == "e2e_vec_ms" {
            let e2e_s = fastest(&wall[&Config::Default]) / 1e3;
            m.push("rows_per_s", ratio(rows as f64, e2e_s), "rows/s");
        }
    }
    m.push("sim_sparrow_s", sim_sparrow, "s");
    m.push("sim_flamingo_s", sim_flamingo, "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

/// Operator kinds whose exclusive wall time is reported.
const OP_KINDS: [&str; 12] = [
    "Pipeline",
    "Map",
    "Filter",
    "FlatMap",
    "AggBy",
    "GroupBy",
    "Join",
    "Fold",
    "Cache",
    "Source",
    "Repartition",
    "Distinct",
];

/// The run with the least engine wall time, whose breakdown is reported:
/// per-kind times of one run add up, minima over several runs would not.
fn fastest_run(runs: &[ExecStats]) -> ExecStats {
    runs.iter()
        .min_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
        .cloned()
        .unwrap_or_default()
}

fn deep_clone(v: &Value) -> Value {
    match v {
        Value::Str(s) => Value::str(s),
        Value::Vector(xs) => Value::vector(xs.to_vec()),
        Value::Tuple(fs) => Value::tuple(fs.iter().map(deep_clone).collect::<Vec<_>>()),
        Value::Bag(rows) => Value::bag(rows.iter().map(deep_clone).collect::<Vec<_>>()),
        scalar => scalar.clone(),
    }
}

/// Fastest of `reps` calls to `f`, in milliseconds.
fn fastest_call_ms<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    fastest(&samples)
}

/// The compile layers: the logical half and each physical pass timed alone,
/// the size of the IR, and how often each rewrite fired.
fn compile_layers(p: &Prepared, effort: Effort, tally: &mut Tally, m: &mut Metrics) {
    let program = &p.instance.program;
    let logical = logical_flags(p.flags);
    m.push(
        "pipeline.logical_us",
        fastest_call_us(effort, || parallelize(program, &logical)),
        "us",
    );
    let mut staged = parallelize(program, &logical);
    let passes: [(&str, bool, Pass); 3] = [
        ("physical.apply_caching_us", p.flags.caching, apply_caching),
        (
            "physical.apply_partition_pulling_us",
            p.flags.partition_pulling,
            apply_partition_pulling,
        ),
        (
            "physical_pipeline.apply_pipeline_fusion_us",
            p.flags.pipeline_fusion,
            apply_pipeline_fusion,
        ),
    ];
    for (name, enabled, pass) in passes {
        if !enabled {
            m.push(name, 0.0, "us");
            continue;
        }
        // Each pass is timed on copies of the body the pass before it left;
        // the copy is made outside the timed call.
        let us = fastest_us(effort, || {
            let mut body = staged.body.clone();
            let mut report = OptimizationReport::default();
            let start = Instant::now();
            pass(&mut body, &mut report);
            let spent = start.elapsed();
            black_box(body);
            spent
        });
        m.push(name, us, "us");
        pass(&mut staged.body, &mut staged.report);
    }
    let one_shot = parallelize(program, &p.flags);
    tally.record(staged.body == one_shot.body, || {
        "the staged compile differs from parallelize".to_string()
    });
    m.push(
        "pipeline.none_us",
        fastest_call_us(effort, || parallelize(program, &OptimizerFlags::none())),
        "us",
    );
    let ir_bytes = format!("{:?}", one_shot.body).len();
    m.push("pipeline.ir_bytes", ir_bytes as f64, "bytes");
    let r = &one_shot.report;
    for (name, count) in [
        ("comprehension.fusions", r.comprehension_fusions),
        ("comprehension.exists_unnested", r.exists_unnested),
        ("fusion.fold_group_fused", r.fold_group_fused),
        ("physical.cached", r.cached.len()),
        ("physical.partitions_pulled", r.partitions_pulled.len()),
        ("physical_pipeline.pipelines_fused", r.pipelines_fused),
        ("physical_pipeline.stages_fused", r.pipeline_stages_fused),
    ] {
        m.push(name, count as f64, "count");
    }
}

/// Unit costs of the row representation, on the largest input.
fn unit_costs(instance: &Instance, reps: u32, m: &mut Metrics) {
    let largest = instance.largest_input();
    let dop = Engine::sparrow().spec.dop();
    // `from_rows` takes the rows by value; the copy handed to it (one
    // reference-count increment per row) is timed alone and taken off.
    let copy_ms = fastest_call_ms(reps, || largest.to_vec());
    let from_rows_ms = fastest_call_ms(reps, || Partitioned::from_rows(largest.to_vec(), dop));
    m.push(
        "dataset.from_rows_ms",
        (from_rows_ms - copy_ms).max(0.0),
        "ms",
    );
    m.push(
        "dataset.value_hash_ms",
        fastest_call_ms(reps, || {
            largest
                .iter()
                .map(emma_engine::dataset::value_hash)
                .fold(0, u64::wrapping_add)
        }),
        "ms",
    );
    m.push(
        "value.clone_rows_ms",
        fastest_call_ms(reps, || largest.iter().map(deep_clone).collect::<Vec<_>>()),
        "ms",
    );
}

/// The traced run: spans on, every configuration, the staged compile, one
/// repetition under the counting allocator and the unit costs. Returns the
/// per-layer metrics and the spans. Times are those of the fastest
/// repetition, as in the timed run; counts are those of the first.
pub fn traced_run(
    w: &Workload,
    seed: u64,
    effort: Effort,
    tally: &mut Tally,
    log: &mut String,
) -> (Metrics, Tracer) {
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    on.set_rep(0, "setup");
    let p = setup(w, seed, effort, &mut on, tally);
    let mut m = Metrics::default();

    let rows = p.instance.input_rows();
    let bytes: u64 = p
        .instance
        .datasets()
        .iter()
        .flat_map(|(_, rows)| rows.iter())
        .map(Value::approx_bytes)
        .sum();
    m.push("datagen.gen_ms", p.gen_secs * 1e3, "ms");
    m.push("datagen.rows", rows as f64, "count");
    m.push("datagen.bytes", bytes as f64, "bytes");

    compile_layers(&p, effort, tally, &mut m);

    // Traced repetitions of every configuration, with untraced `default`
    // repetitions between them for the tracing overhead.
    const TRACED: [Config; 6] = [
        Config::Default,
        Config::Vec,
        Config::T2,
        Config::PerOperator,
        Config::PoliciesOn,
        Config::Flamingo,
    ];
    // Only the statistics are kept: the sinks of 33 runs would be held for nothing.
    let mut runs: HashMap<Config, Vec<ExecStats>> = HashMap::new();
    let mut traced_ms: HashMap<Config, Vec<f64>> = HashMap::new();
    let mut untraced_ms = Vec::new();
    for i in 0..effort.traced_reps {
        let (ms, _) = p.rep(Config::Default, &mut off, tally);
        untraced_ms.push(ms);
        let slow = (i < effort.slow_reps).then_some(Config::InterpTier);
        for cfg in TRACED.into_iter().chain(slow) {
            on.set_rep(i, cfg.name());
            let (ms, run) = p.rep(cfg, &mut on, tally);
            traced_ms.entry(cfg).or_default().push(ms);
            runs.entry(cfg).or_default().extend(run.map(|r| r.stats));
        }
    }
    // Counts come from the first repetition and must repeat in the others.
    for cfg in TRACED.into_iter().chain([Config::InterpTier]) {
        let rs = runs.get(&cfg).map_or(&[][..], Vec::as_slice);
        let repeats = rs.iter().all(|r| replay_key(r) == replay_key(&rs[0]));
        tally.record(repeats && !rs.is_empty(), || {
            format!("{}: a counter differs between repetitions", cfg.name())
        });
    }
    let of = |cfg: Config| runs.get(&cfg).map_or(&[][..], Vec::as_slice);
    let first = |cfg: Config| of(cfg).first().cloned().unwrap_or_default();
    let traced = |cfg: Config| traced_ms.get(&cfg).map_or(0.0, |ms| fastest(ms));
    let (default, vec, policies) = (
        first(Config::Default),
        first(Config::Vec),
        first(Config::PoliciesOn),
    );

    let best = fastest_run(of(Config::Default));
    let exec_wall = best.wall_secs * 1e3;
    m.push("exec.wall_ms", exec_wall, "ms");
    // What `Engine::run` takes beyond the engine's own clock: starting the
    // engine thread and the pool, and joining them.
    let run_span = fastest(&on.durations_ms("exec.run", Config::Default.name()));
    m.push("exec.spawn_ms", run_span - exec_wall, "ms");
    let mut listed = 0.0;
    for kind in OP_KINDS {
        let ms = best.op_wall_secs.get(kind).copied().unwrap_or(0.0) * 1e3;
        listed += ms;
        m.push(format!("exec.op_ms.{kind}"), ms, "ms");
    }
    // Driver loop, stateful operators, sinks and the kinds not listed.
    m.push("exec.op_ms.rest", exec_wall - listed, "ms");
    push_counters(&mut m, &default, &["exec", "dataset"]);

    unit_costs(&p.instance, effort.slow_reps, &mut m);

    // One `default` repetition under the counting allocator.
    let (_, counted) = alloc::counting(|| p.rep(Config::Default, &mut off, tally));
    let per_row = |n: u64| ratio(n as f64, rows as f64);
    m.push(
        "value.alloc_bytes_per_row",
        per_row(counted.bytes),
        "bytes/row",
    );
    m.push(
        "value.allocs_per_row",
        per_row(counted.allocs),
        "allocs/row",
    );
    m.push(
        "value.peak_live_mb",
        counted.peak_live_bytes as f64 / (1024.0 * 1024.0),
        "MB",
    );

    push_counters(&mut m, &vec, &["vectorized"]);
    m.push(
        "vectorized.coverage",
        ratio(vec.rows_vectorized as f64, vec.records_processed as f64),
        "ratio",
    );
    m.push(
        "vectorized.speedup",
        ratio(traced(Config::Default), traced(Config::Vec)),
        "ratio",
    );

    let tier_ms = fastest_run(of(Config::InterpTier)).wall_secs * 1e3;
    m.push(
        "compiled.speedup_vs_interp",
        ratio(tier_ms, exec_wall),
        "ratio",
    );
    m.push("interp.tier_ms", tier_ms, "ms");
    m.push("interp.reference_ms", p.reference_secs * 1e3, "ms");
    m.push("interp.verify_rows", p.verify_rows as f64, "count");

    let t2_ms = fastest_run(of(Config::T2)).wall_secs * 1e3;
    m.push("pool.t2_ms", t2_ms, "ms");
    m.push("pool.speedup_t2", ratio(exec_wall, t2_ms), "ratio");
    m.push(
        "pool.per_operator_ms",
        fastest_run(of(Config::PerOperator)).wall_secs * 1e3,
        "ms",
    );

    m.push(
        "fault.policies_on_ms",
        fastest_run(of(Config::PoliciesOn)).wall_secs * 1e3,
        "ms",
    );
    push_counters(&mut m, &policies, &["fault", "skew"]);
    m.push("skew.max_skew_ratio", policies.max_skew_ratio, "ratio");

    let untraced = fastest(&untraced_ms);
    m.push(
        "trace.overhead_pct",
        (ratio(traced(Config::Default), untraced) - 1.0) * 100.0,
        "%",
    );
    m.push("trace.spans", on.spans().len() as f64, "count");

    *log += &format!(
        "traced: {} repetitions per configuration ({} of interp_tier), fastest untraced default {untraced:.3} ms\n",
        effort.traced_reps,
        effort.slow_reps.min(effort.traced_reps)
    );
    (m, on)
}
