//! Connected Components (paper, Listing 7).
//!
//! The quoted dataflow variant iterates label propagation to a fixpoint:
//! each round, every vertex proposes its current component id to its
//! neighbors, the minimum proposal per vertex wins (fold-group fusion →
//! `aggBy`), and the loop stops when a round changes nothing — the
//! termination test `newComps.minus(comps).count() == 0` is the semi-naive
//! "delta is empty" condition of Listing 7 expressed with plain bag
//! operators.
//!
//! [`local_cc_stateful`] is Listing 7 verbatim against the typed
//! `StatefulBag` layer (max-convention, as in the paper) and serves as
//! ground truth in tests.

use emma_compiler::bag_expr::{BagExpr, BagLambda};
use emma_compiler::expr::{FoldOp, Lambda, ScalarExpr};
use emma_compiler::interp::Catalog;
use emma_compiler::program::{Program, Stmt};
use emma_core::{DataBag, Keyed, StatefulBag};
use emma_datagen::graph::{self, GraphSpec};

/// The sink the final component assignment is written to.
pub const SINK: &str = "components";

/// Builds the quoted Connected Components program over catalog datasets
/// `"vertices"` (adjacency form) and `"edges"` (undirected edge pairs).
pub fn program() -> Program {
    // candidates = (for (e <- edges; c <- comps; if e.src == c.id)
    //               yield (e.dst, c.component)).plus(comps)
    let candidates = BagExpr::var("edges")
        .flat_map(BagLambda::new(
            "e",
            BagExpr::var("comps")
                .filter(Lambda::new(
                    ["c"],
                    ScalarExpr::var("e").get(0).eq(ScalarExpr::var("c").get(0)),
                ))
                .map(Lambda::new(
                    ["c"],
                    ScalarExpr::Tuple(vec![
                        ScalarExpr::var("e").get(1),
                        ScalarExpr::var("c").get(1),
                    ]),
                )),
        ))
        .plus(BagExpr::var("comps"));
    // newComps = for (g <- candidates.groupBy(_.0)) yield (g.key, min(g.values))
    let new_comps = candidates
        .group_by(Lambda::new(["t"], ScalarExpr::var("t").get(0)))
        .map(Lambda::new(
            ["g"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::var("g").get(0),
                BagExpr::of_value(ScalarExpr::var("g").get(1))
                    .map(Lambda::new(["t"], ScalarExpr::var("t").get(1)))
                    .fold(FoldOp::min()),
            ]),
        ));

    Program::new(vec![
        Stmt::val("edges", BagExpr::read("edges")),
        Stmt::var(
            "comps",
            BagExpr::read("vertices").map(Lambda::new(
                ["v"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("v").get(0),
                    ScalarExpr::var("v").get(0),
                ]),
            )),
        ),
        Stmt::var("changed", ScalarExpr::lit(1i64)),
        Stmt::while_loop(
            ScalarExpr::var("changed").gt(ScalarExpr::lit(0i64)),
            vec![
                Stmt::val("newComps", new_comps),
                Stmt::assign(
                    "changed",
                    BagExpr::var("newComps")
                        .minus(BagExpr::var("comps"))
                        .count(),
                ),
                Stmt::assign("comps", BagExpr::var("newComps")),
            ],
        ),
        Stmt::write(SINK, BagExpr::var("comps")),
    ])
}

/// Builds the catalog: adjacency rows plus a symmetrized edge list (label
/// propagation needs undirected connectivity).
pub fn catalog(spec: &GraphSpec) -> Catalog {
    let adjacency = graph::adjacency(spec);
    let mut edges = graph::edges(&adjacency);
    let reversed: Vec<_> = edges
        .iter()
        .map(|e| {
            emma_compiler::value::Value::tuple([
                e.field(1).expect("dst").clone(),
                e.field(0).expect("src").clone(),
            ])
        })
        .collect();
    edges.extend(reversed);
    Catalog::new()
        .with("vertices", adjacency)
        .with("edges", edges)
}

/// Listing 7 *verbatim in the quoted language*: semi-naive label
/// propagation over a stateful bag of `(id, neighbors, component)` triples,
/// driven by the changed delta (`while (not delta.empty())`). Uses the
/// paper's max-label convention.
pub fn stateful_program() -> Program {
    // msgs = for (s <- delta; n <- s.neighborIDs) yield Message(n, s.component)
    let msgs = BagExpr::var("delta").flat_map(BagLambda::new(
        "s",
        BagExpr::of_value(ScalarExpr::var("s").get(1)).map(Lambda::new(
            ["n"],
            ScalarExpr::Tuple(vec![ScalarExpr::var("n"), ScalarExpr::var("s").get(2)]),
        )),
    ));
    // updates = for (g <- msgs.groupBy(_.receiver))
    //           yield Updt(g.key, g.values.map(_.component).max())
    let updates = msgs
        .group_by(Lambda::new(["m"], ScalarExpr::var("m").get(0)))
        .map(Lambda::new(
            ["g"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::var("g").get(0),
                BagExpr::of_value(ScalarExpr::var("g").get(1))
                    .map(Lambda::new(["m"], ScalarExpr::var("m").get(1)))
                    .fold(FoldOp::max()),
            ]),
        ));

    Program::new(vec![
        // delta = for (v <- vertices) yield State(v.id, v.neighborIDs, v.id)
        Stmt::val(
            "init",
            BagExpr::read("vertices").map(Lambda::new(
                ["v"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("v").get(0),
                    ScalarExpr::var("v").get(1),
                    ScalarExpr::var("v").get(0),
                ]),
            )),
        ),
        Stmt::stateful(
            "state",
            BagExpr::var("init"),
            Lambda::new(["s"], ScalarExpr::var("s").get(0)),
        ),
        Stmt::var("delta", BagExpr::var("init")),
        Stmt::while_loop(
            ScalarExpr::Fold(
                Box::new(BagExpr::var("delta")),
                Box::new(FoldOp::is_empty()),
            )
            .not(),
            vec![
                Stmt::val("updates", updates),
                // delta = state.update(updates)((s, u) =>
                //   if (u.component > s.component)
                //     Some(s.copy(component = u.component)) else None)
                Stmt::stateful_update(
                    "state",
                    "delta",
                    BagExpr::var("updates"),
                    Lambda::new(["u"], ScalarExpr::var("u").get(0)),
                    Lambda::new(
                        ["s", "u"],
                        ScalarExpr::If(
                            Box::new(ScalarExpr::var("u").get(1).gt(ScalarExpr::var("s").get(2))),
                            Box::new(ScalarExpr::Tuple(vec![
                                ScalarExpr::var("s").get(0),
                                ScalarExpr::var("s").get(1),
                                ScalarExpr::var("u").get(1),
                            ])),
                            Box::new(ScalarExpr::Lit(emma_compiler::value::Value::Null)),
                        ),
                    ),
                ),
            ],
        ),
        Stmt::write(
            SINK,
            BagExpr::var("state").map(Lambda::new(
                ["s"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("s").get(0),
                    ScalarExpr::var("s").get(2),
                ]),
            )),
        ),
    ])
}

/// Per-vertex state for the typed Listing 7 variant.
#[derive(Clone, Debug, PartialEq)]
pub struct CcState {
    /// Vertex id.
    pub id: i64,
    /// Undirected neighbor ids.
    pub neighbors: Vec<i64>,
    /// Current component label.
    pub component: i64,
}

impl Keyed for CcState {
    type Key = i64;
    fn key(&self) -> i64 {
        self.id
    }
}

/// A label-propagation message.
#[derive(Clone, Debug)]
pub struct CcMessage {
    /// Receiver vertex id.
    pub receiver: i64,
    /// Proposed component label.
    pub component: i64,
}

impl Keyed for CcMessage {
    type Key = i64;
    fn key(&self) -> i64 {
        self.receiver
    }
}

/// Listing 7 verbatim against the typed layer: semi-naive iteration driven
/// by the changed delta of a `StatefulBag` (max-label convention, like the
/// paper). Returns `(id, component)`.
pub fn local_cc_stateful(adjacency: &[(i64, Vec<i64>)]) -> Vec<(i64, i64)> {
    let initial = DataBag::from_seq(adjacency.iter().map(|(id, nbrs)| CcState {
        id: *id,
        neighbors: nbrs.clone(),
        component: *id,
    }));
    let mut state = StatefulBag::new(initial.clone());
    let mut delta = initial;
    while !delta.is_empty() {
        let msgs: DataBag<CcMessage> = delta.flat_map(|s| {
            DataBag::from_seq(s.neighbors.iter().map(|n| CcMessage {
                receiver: *n,
                component: s.component,
            }))
        });
        let updates: DataBag<CcMessage> = msgs.group_by(|m| m.receiver).map(|g| CcMessage {
            receiver: g.key,
            component: g
                .values
                .max_by(|m| m.component)
                .expect("non-empty group")
                .component,
        });
        delta = state.update_with_messages(updates, |s, u| {
            if u.component > s.component {
                Some(CcState {
                    component: u.component,
                    ..s.clone()
                })
            } else {
                None
            }
        });
    }
    state.bag().map(|s| (s.id, s.component)).fetch()
}
