//! The seven workloads: each builds its `Program` and its seeded `Catalog`.
//!
//! Sizes are tuned on a 2-core box so that one `default` run takes roughly
//! 0.1–0.25 s; `div` shrinks every row count by the same factor (the 1/8
//! reference instances and the 1/50 test instances come from the same
//! generators and the same seed).

use emma::algorithms::{connected_components, groupagg, pagerank, spam, tpch};
use emma::prelude::*;
use emma_datagen::distributions::KeyDistribution;
use emma_datagen::emails::{self, EmailSpec};
use emma_datagen::graph::{self, GraphSpec};
use emma_datagen::tpch::TpchSpec;

/// A program and its generated inputs.
pub struct Instance {
    pub program: Program,
    pub catalog: Catalog,
}

impl Instance {
    /// Rows over every catalog dataset: the input size `rows_per_s` states.
    pub fn input_rows(&self) -> u64 {
        self.datasets().iter().map(|(_, r)| r.len() as u64).sum()
    }

    /// The largest catalog dataset, on which unit costs are timed.
    pub fn largest_input(&self) -> &[Value] {
        self.datasets()
            .into_iter()
            .max_by_key(|(_, rows)| rows.len())
            .map(|(_, rows)| rows.as_slice())
            .unwrap_or(&[])
    }

    /// Digest of the generated inputs: the same for the same seed.
    pub fn digest(&self) -> u64 {
        crate::check::digest(self.datasets())
    }

    /// Catalog datasets in name order (the catalog itself is a hash map).
    pub fn datasets(&self) -> Vec<(&str, &Vec<Value>)> {
        let mut names: Vec<&str> = self.catalog.names().collect();
        names.sort_unstable();
        names
            .into_iter()
            .map(|n| (n, self.catalog.get(n).expect("listed dataset")))
            .collect()
    }
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it was chosen (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    /// Size divisor of the instance the interpreter reference runs on: 1
    /// where `Interp` handles the full size; elsewhere (it is quadratic on
    /// `exists` and on the rank join) whatever keeps its run near 0.3 s.
    pub reference_div: usize,
    /// The optimizer flags of the `default` configuration.
    pub flags: fn() -> OptimizerFlags,
    build: fn(seed: u64, div: usize) -> Instance,
}

impl Workload {
    /// Generates the instance for `seed`, shrunk by `div`.
    pub fn build(&self, seed: u64, div: usize) -> Instance {
        (self.build)(seed, div.max(1))
    }
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "narrow_chain",
        why: "13-stage Map/Filter chain over int pairs: UDF evaluation and batch load/store only, no shuffle; the tier workload",
        reference_div: 1,
        // Generator unnesting substitutes a map's body into every use of its
        // variable downstream, so this chain's IR grows about sixfold per
        // stage: `parallelize(all())` yields 34 MB of IR in 0.7 s and the
        // run does not end. Normalization is therefore off here, which is
        // what a user of this chain has to do as well.
        flags: || OptimizerFlags::all().with_normalization(false),
        build: narrow_chain,
    },
    Workload {
        name: "tpch_q1",
        why: "TPC-H Q1: filter then fused aggBy, ten folds over six string-tuple groups; vectorized kernels buy nothing here today",
        reference_div: 1,
        flags: OptimizerFlags::all,
        build: tpch_q1,
    },
    Workload {
        name: "tpch_q4",
        why: "TPC-H Q4: exists-unnesting to semi-join plus groupBy count; shuffle routing, row clones and join dominate",
        reference_div: 160,
        flags: OptimizerFlags::all,
        build: tpch_q4,
    },
    Workload {
        name: "groupagg_pareto",
        why: "Fig. 5 aggBy with 1000 int keys, one fold, 35% of rows on one key: the many-key side of the aggBy layer",
        reference_div: 1,
        flags: OptimizerFlags::all,
        build: groupagg_pareto,
    },
    Workload {
        name: "pagerank",
        why: "Loop, cache, partition pulling, FlatMap fan-out and a shuffle per iteration: many small stages, pool dispatch",
        reference_div: 16,
        flags: OptimizerFlags::all,
        build: pagerank_wl,
    },
    Workload {
        name: "spam_workflow",
        why: "Fig. 4: driver for-loop, semi-join against a small side, caching and HashOf over strings; string kernels and cache",
        reference_div: 40,
        flags: OptimizerFlags::all,
        build: spam_workflow,
    },
    Workload {
        name: "cc_stateful",
        why: "Data-dependent while loop over StatefulCreate/StatefulUpdate: the only path to the stateful operators",
        reference_div: 1,
        flags: OptimizerFlags::all,
        build: cc_stateful,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the row formula of `narrow_chain` (the other workloads seed
/// the repository's own generators).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const NARROW_ROWS: usize = 60_000;

fn narrow_chain(seed: u64, div: usize) -> Instance {
    let mut state = seed;
    let rows: Vec<Value> = (0..NARROW_ROWS / div)
        .map(|_| {
            let r = splitmix(&mut state);
            Value::tuple(vec![
                Value::Int((r % 10_000) as i64),
                Value::Int(((r >> 32) % 1_000) as i64),
            ])
        })
        .collect();
    Instance {
        program: Program::new(vec![Stmt::write("out", narrow_chain_bag())]),
        catalog: Catalog::new().with("xs", rows),
    }
}

fn var(n: &str) -> ScalarExpr {
    ScalarExpr::var(n)
}

fn lit(k: i64) -> ScalarExpr {
    ScalarExpr::lit(k)
}

/// The thirteen-operator chain of `emma_bench::lambda_chain`, written as a
/// quoted bag expression so that it goes through `parallelize`: a branchy
/// tuple rewrite, a validity filter, a polynomial feature map, a second
/// filter, a collapse to one score, then four rounds of integer hashing each
/// followed by a keep-nearly-all filter.
fn narrow_chain_bag() -> BagExpr {
    let t0 = || var("t").get(0);
    let t1 = || var("t").get(1);
    let mut bag = BagExpr::read("xs")
        .map(Lambda::new(
            ["t"],
            ScalarExpr::If(
                Box::new(t0().rem(lit(3)).eq(lit(0))),
                Box::new(ScalarExpr::Tuple(vec![
                    t0().mul(lit(2)).add(t1()).sub(lit(7)),
                    t1().add(lit(1)),
                ])),
                Box::new(ScalarExpr::Tuple(vec![
                    t0().add(lit(3).mul(lit(7)).add(lit(2)).rem(lit(5))),
                    t1().mul(lit(3)).rem(lit(101)),
                ])),
            ),
        ))
        .filter(Lambda::new(
            ["t"],
            t0().add(t1())
                .rem(lit(17))
                .ne(lit(3))
                .and(t0().mul(lit(3)).sub(t1()).gt(lit(-1_000_000))),
        ))
        .map(Lambda::new(
            ["t"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::call(
                    BuiltinFn::MinOf,
                    vec![
                        t0().mul(lit(2))
                            .add(lit(1))
                            .mul(t0().rem(lit(7)).add(lit(3)))
                            .add(ScalarExpr::call(BuiltinFn::Abs, vec![t0().sub(t1())])),
                        lit(1 << 20),
                    ],
                ),
                t1().mul(lit(13)).rem(lit(997)),
            ]),
        ))
        .filter(Lambda::new(
            ["t"],
            t0().rem(lit(251)).ne(lit(0)).or(t1().lt(lit(500))),
        ))
        .map(Lambda::new(
            ["t"],
            t0().add(t1().mul(lit(31)))
                .rem(lit(1_000_003))
                .mul(lit(2))
                .add(t0().rem(lit(2))),
        ));
    for (a, b, m) in [
        (3, 11, 65_521),
        (7, 29, 32_749),
        (5, 17, 16_381),
        (13, 41, 8_191),
    ] {
        let x = || var("x");
        let hash_round = x()
            .mul(lit(a))
            .add(lit(b))
            .rem(lit(m))
            .add(x().mul(lit(b)).add(lit(a)).rem(lit(m - 2)))
            .add(x().rem(lit(7)).mul(x().rem(lit(13))).add(x().rem(lit(29))))
            .add(ScalarExpr::call(BuiltinFn::Abs, vec![x().sub(lit(m / 2))]))
            .rem(lit(m))
            .add(lit(a).mul(lit(b)).add(lit(2)).rem(lit(19)));
        bag = bag.map(Lambda::new(["x"], hash_round)).filter(Lambda::new(
            ["x"],
            x().rem(lit(m - 1)).ne(lit(m / 2)).or(x().ge(lit(0))),
        ));
    }
    bag
}

const Q1_SCALE: f64 = 16.0;

fn tpch_q1(seed: u64, div: usize) -> Instance {
    Instance {
        program: tpch::q1_program(),
        catalog: tpch::catalog(&TpchSpec {
            scale: Q1_SCALE / div as f64,
            seed,
        }),
    }
}

const Q4_SCALE: f64 = 40.0;

fn tpch_q4(seed: u64, div: usize) -> Instance {
    Instance {
        program: tpch::q4_program(),
        catalog: tpch::catalog(&TpchSpec {
            scale: Q4_SCALE / div as f64,
            seed,
        }),
    }
}

const GROUPAGG_ROWS: usize = 150_000;
const GROUPAGG_KEYS: i64 = 1_000;

fn groupagg_pareto(seed: u64, div: usize) -> Instance {
    Instance {
        program: groupagg::program(),
        catalog: groupagg::catalog(
            GROUPAGG_ROWS / div,
            GROUPAGG_KEYS,
            KeyDistribution::Pareto,
            seed,
        ),
    }
}

const PAGERANK_VERTICES: usize = 4_000;
const GRAPH_DEGREE: usize = 10;

fn pagerank_wl(seed: u64, div: usize) -> Instance {
    let spec = GraphSpec {
        vertices: PAGERANK_VERTICES / div,
        avg_degree: GRAPH_DEGREE,
        skew: 1.2,
        seed,
    };
    Instance {
        program: pagerank::program(&pagerank::PagerankParams {
            damping: 0.85,
            iterations: 5,
            num_pages: spec.vertices,
        }),
        catalog: pagerank::catalog(&spec),
    }
}

const SPAM_EMAILS: usize = 80_000;

fn spam_workflow(seed: u64, div: usize) -> Instance {
    let emails_n = SPAM_EMAILS / div;
    Instance {
        program: spam::program(emails::classifiers(3)),
        catalog: spam::catalog(&EmailSpec {
            emails: emails_n,
            blacklist: emails_n / 10,
            // One email in five comes from a blacklisted server, as in the
            // generator's default ratio.
            ip_domain: (emails_n / 2) as i64,
            body_bytes: 200,
            info_bytes: 50,
            seed,
        }),
    }
}

const CC_VERTICES: usize = 3_000;
/// Layers of the `cc_stateful` graph, which is also its number of rounds.
pub const CC_LAYERS: usize = 8;

/// The repository's power-law graph folded into `CC_LAYERS` layers: vertex
/// `v` of layer `k` keeps its generated targets, moved into layer `k + 1`,
/// plus an edge to `v + layer`, and the last layer has no out-edges. Ids are
/// reversed so that they fall from layer to layer.
///
/// Label propagation on the generated graph itself takes 17 to 23 rounds
/// depending on the seed, which would put that spread on every end-to-end
/// metric. Here every vertex below layer 0 has an in-edge from the layer
/// above and labels rise strictly toward layer 0, so round `k` changes
/// exactly the layers from `k` down and the loop runs `CC_LAYERS` times for
/// every seed, over edges that still come from the seeded generator.
fn layered_adjacency(spec: &GraphSpec) -> Vec<Value> {
    let rows = graph::adjacency(spec);
    let n = rows.len();
    let layer = n.div_ceil(CC_LAYERS);
    let id = |v: usize| Value::Int((n - 1 - v) as i64);
    rows.iter()
        .enumerate()
        .map(|(v, row)| {
            let below = (v / layer + 1) * layer;
            let mut targets: Vec<usize> = if below < n {
                let drawn = row.field(graph::vertex::NEIGHBORS).expect("neighbors");
                drawn
                    .as_bag()
                    .expect("bag of ids")
                    .iter()
                    .map(|t| below + t.as_int().expect("vertex id") as usize % layer)
                    .chain([v + layer])
                    .filter(|t| *t < n)
                    .collect()
            } else {
                Vec::new()
            };
            targets.sort_unstable();
            targets.dedup();
            Value::tuple(vec![
                id(v),
                Value::bag(targets.into_iter().map(id).collect::<Vec<_>>()),
            ])
        })
        .collect()
}

fn cc_stateful(seed: u64, div: usize) -> Instance {
    Instance {
        program: connected_components::stateful_program(),
        // The stateful program reads the adjacency rows only.
        catalog: Catalog::new().with(
            "vertices",
            layered_adjacency(&GraphSpec {
                vertices: CC_VERTICES / div,
                avg_degree: GRAPH_DEGREE,
                skew: 1.2,
                seed,
            }),
        ),
    }
}
