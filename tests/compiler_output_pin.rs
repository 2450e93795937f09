//! Pins what `parallelize` produces, byte for byte, on the programs the
//! benchmark and the paper's experiments run: the `Debug` rendering of every
//! compiled statement together with the `OptimizationReport`, hashed, under
//! the program's full flag set, `none()` and each single flag turned off.
//!
//! Freshened binder names (`x$17`) count the order in which the compiler
//! visits sub-terms, so a rewrite of any IR traversal that changes that
//! order — or drops a child — changes these hashes even when every result
//! row stays the same.

use std::fmt::Write as _;

mod common;

use common::narrow_chain;
use emma::algorithms::{connected_components, groupagg, kmeans, pagerank, spam, tpch};
use emma::prelude::*;
use emma_datagen::points::{self, PointsSpec};

/// FNV-1a over everything written to it: stable across runs and toolchains.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn output_hash(program: &Program, flags: &OptimizerFlags) -> u64 {
    let compiled = parallelize(program, flags);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{:?}|{:?}", compiled.body, compiled.report).unwrap();
    h.0
}

/// The program's base flags, `none()`, then the base with each of the
/// eight flags turned off.
fn flag_sets(base: OptimizerFlags) -> [(&'static str, OptimizerFlags); 10] {
    [
        ("all", base),
        ("none", OptimizerFlags::none()),
        ("-inlining", base.with_inlining(false)),
        ("-normalization", base.with_normalization(false)),
        ("-unnest_exists", base.with_unnest_exists(false)),
        ("-fold_group_fusion", base.with_fold_group_fusion(false)),
        ("-caching", base.with_caching(false)),
        ("-partition_pulling", base.with_partition_pulling(false)),
        ("-pipeline_fusion", base.with_pipeline_fusion(false)),
        ("-compiled_eval", base.with_compiled_eval(false)),
    ]
}

/// Each program with the base flags of its row. `narrow_chain` starts from
/// the benchmark's own configuration, normalization off: with it on,
/// generator unnesting grows that chain's IR about sixfold per stage.
fn programs() -> Vec<(&'static str, Program, OptimizerFlags)> {
    let all = OptimizerFlags::all();
    let pagerank_params = pagerank::PagerankParams {
        damping: 0.85,
        iterations: 5,
        num_pages: 4_000,
    };
    let classifiers = emma_datagen::emails::classifiers(3);
    let centroids = points::initial_centroids(&PointsSpec::default());
    vec![
        (
            "narrow_chain",
            narrow_chain(),
            all.with_normalization(false),
        ),
        ("tpch_q1", tpch::q1_program(), all),
        ("tpch_q4", tpch::q4_program(), all),
        ("groupagg_pareto", groupagg::program(), all),
        ("pagerank", pagerank::program(&pagerank_params), all),
        ("spam_workflow", spam::program(classifiers), all),
        ("cc_stateful", connected_components::stateful_program(), all),
        (
            "kmeans",
            kmeans::program(&kmeans::KmeansParams::default(), centroids),
            all,
        ),
        (
            "pagerank_stateful",
            pagerank::stateful_program(&pagerank_params),
            all,
        ),
    ]
}

/// One row per program, one column per entry of [`flag_sets`].
const PINNED: [(&str, [u64; 10]); 9] = [
    (
        "narrow_chain",
        [
            0xb27402b86d14c98d,
            0x59d9aae98d3067f4,
            0xb27402b86d14c98d,
            0xb27402b86d14c98d,
            0xb27402b86d14c98d,
            0xb27402b86d14c98d,
            0xb27402b86d14c98d,
            0xb27402b86d14c98d,
            0x59d9aae98d3067f4,
            0xb27402b86d14c98d,
        ],
    ),
    (
        "tpch_q1",
        [
            0xaa066b55307d9d34,
            0x8a9b6c128c6c24ff,
            0xaa066b55307d9d34,
            0xaa066b55307d9d34,
            0xaa066b55307d9d34,
            0x8a9b6c128c6c24ff,
            0xaa066b55307d9d34,
            0xaa066b55307d9d34,
            0xaa066b55307d9d34,
            0xaa066b55307d9d34,
        ],
    ),
    (
        "tpch_q4",
        [
            0x881bc78a289c70ce,
            0x5d4fe6f87f3f1a3b,
            0x881bc78a289c70ce,
            0x72b6c540d877b187,
            0xbb8023118db6459f,
            0xb7a74fd5edd30317,
            0x881bc78a289c70ce,
            0x881bc78a289c70ce,
            0xaa33b096712f9162,
            0x881bc78a289c70ce,
        ],
    ),
    (
        "groupagg_pareto",
        [
            0xbfb8c380e6293f8b,
            0xc0803a56d5074606,
            0xbfb8c380e6293f8b,
            0xbfb8c380e6293f8b,
            0xbfb8c380e6293f8b,
            0xc0803a56d5074606,
            0xbfb8c380e6293f8b,
            0xbfb8c380e6293f8b,
            0xbfb8c380e6293f8b,
            0xbfb8c380e6293f8b,
        ],
    ),
    (
        "pagerank",
        [
            0x300e9e03042d6918,
            0xaf6975e92b8b16b7,
            0x300e9e03042d6918,
            0x63a44c9a5c46fab3,
            0x300e9e03042d6918,
            0xb4ec988d70f37995,
            0x60ddbb336ee0ccea,
            0x22edd130ee2974c7,
            0xeb06af854a94cbec,
            0x300e9e03042d6918,
        ],
    ),
    (
        "spam_workflow",
        [
            0xc61e8623ab22f91f,
            0x2b18c18ee152667d,
            0xe6efd09afbdfadd5,
            0xae6bd64b417af82e,
            0xbdec74e0de6f4f7f,
            0xc61e8623ab22f91f,
            0x7bba00f40252457e,
            0x8e8932c1738b3ed7,
            0xc61e8623ab22f91f,
            0xc61e8623ab22f91f,
        ],
    ),
    (
        "cc_stateful",
        [
            0x6f052ddb488da0b1,
            0x59bad4c081369973,
            0x4aea5dd9df7cc992,
            0xede01dd2e50dfb5d,
            0x6f052ddb488da0b1,
            0xbd8195df0b98bca3,
            0x4234a6cc96757689,
            0x6f052ddb488da0b1,
            0x87eed1ce9883e58d,
            0x6f052ddb488da0b1,
        ],
    ),
    (
        "kmeans",
        [
            0xc6b5548219a794e3,
            0xeb17bea7003d5a8f,
            0xc6b5548219a794e3,
            0xf22ec0e04cdb4357,
            0xc6b5548219a794e3,
            0x84a4f9c0ace6ed73,
            0x98dce8742000715c,
            0xfde40a17c211eead,
            0xc6b5548219a794e3,
            0xc6b5548219a794e3,
        ],
    ),
    (
        "pagerank_stateful",
        [
            0xfadbeb257d06b3cb,
            0xbc3ca637d40a81dc,
            0xfab2789f2ff9c45a,
            0x28414a1d816a9784,
            0xfadbeb257d06b3cb,
            0xe8ee22c1a627c09e,
            0x98605bc5843e5c8e,
            0x7f990a7564bf48cc,
            0xa3dc9040d5beb3cb,
            0xfadbeb257d06b3cb,
        ],
    ),
];

#[test]
fn compiled_output_is_pinned_per_program_and_flag_set() {
    let mut mismatches = Vec::new();
    for ((name, program, base), (pinned_name, pinned)) in programs().iter().zip(PINNED) {
        assert_eq!(*name, pinned_name);
        for ((set, flags), want) in flag_sets(*base).iter().zip(pinned) {
            let got = output_hash(program, flags);
            if got != want {
                mismatches.push(format!("{name} {set}: {got:#018x}, pinned {want:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
