//! Combinator lowering: from normalized comprehensions to dataflow plans
//! (paper, Section 4.3 and Figures 2/3a).
//!
//! The rewrite works on a worklist of generators and guards and repeatedly
//! applies the first matching rule, in the priority order of the Figure 3a
//! state machine:
//!
//! 1. **Filter** — a guard over a single generator is pushed down onto that
//!    generator's dataflow;
//! 2. **EqJoin** — a guard `k₁(x) == k₂(y)` over two distinct generators
//!    joins their dataflows; existentially marked generators lower to
//!    semi-/anti-joins, and co-referencing non-equi guards ride along as the
//!    join's residual predicate;
//! 3. **Dependent merge** — a generator whose source ranges over a previous
//!    generator's element (e.g. `n ← v.neighbors`) merges via `flatMap`;
//! 4. **Cross** — remaining independent generators combine with a cartesian
//!    product.
//!
//! This priority pushes filters as far down as possible, prefers equi-joins
//! over cross products, and terminates with exactly one generator, which the
//! monad then finalizes (bag → `map`, flatten → `flatMap`, fold → a terminal
//! `Fold` node).

use std::collections::HashSet;

use crate::bag_expr::BagExpr;
use crate::comprehension::{
    desugar, normalize, resugar, resugar_fold, Comprehension, GenSource, Monad, NormalizeOpts,
    Qual, SemiKind,
};
use crate::expr::{BinOp, FoldOp, Lambda, ScalarExpr, TermMut};
use crate::freshen::NameGen;
use crate::fusion::fuse_fold_group;
use crate::pipeline::{OptimizationReport, OptimizerFlags};
use crate::plan::{JoinKind, JoinStrategy, Plan};

/// Compiles a bag expression through the full logical pipeline:
/// resugar → normalize → fold-group fusion → combinator lowering.
pub(crate) fn lower_bag(
    e: &BagExpr,
    flags: &OptimizerFlags,
    gen: &mut NameGen,
    report: &mut OptimizationReport,
) -> Plan {
    let comp = resugar(e, gen);
    lower_prepared(comp, flags, gen, report)
}

/// Compiles a terminal fold over a bag expression to a scalar-producing plan.
pub(crate) fn lower_fold(
    bag: &BagExpr,
    op: &FoldOp,
    flags: &OptimizerFlags,
    gen: &mut NameGen,
    report: &mut OptimizationReport,
) -> Plan {
    let comp = resugar_fold(bag, op, gen);
    lower_prepared(comp, flags, gen, report)
}

fn lower_prepared(
    comp: Comprehension,
    flags: &OptimizerFlags,
    gen: &mut NameGen,
    report: &mut OptimizationReport,
) -> Plan {
    let opts = NormalizeOpts {
        fusion: flags.normalization,
        unnest_exists: flags.unnest_exists,
    };
    let (mut comp, stats) = normalize(comp, opts, gen);
    report.comprehension_fusions += stats.fusions;
    report.exists_unnested += stats.exists_unnested;
    if flags.fold_group_fusion {
        report.fold_group_fused += fuse_fold_group(&mut comp, gen);
    }
    lower_comp(comp, flags, gen, report)
}

/// One generator's lowering state.
enum GState {
    /// Source independent of other generators; already a dataflow.
    Indep {
        var: String,
        plan: Plan,
        semi: Option<SemiKind>,
    },
    /// Source ranges over other generators' variables; merged via flatMap.
    Dep { var: String, src: BagExpr },
}

impl GState {
    fn var(&self) -> &str {
        match self {
            GState::Indep { var, .. } | GState::Dep { var, .. } => var,
        }
    }
}

/// Lowers a normalized comprehension to a dataflow plan.
pub(crate) fn lower_comp(
    c: Comprehension,
    flags: &OptimizerFlags,
    gen: &mut NameGen,
    report: &mut OptimizationReport,
) -> Plan {
    let mut head = c.head;
    let mut guards: Vec<ScalarExpr> = Vec::new();
    let mut gens: Vec<GState> = Vec::new();
    let mut bound: HashSet<String> = HashSet::new();

    for q in c.quals {
        match q {
            Qual::Guard(g) => guards.push(g),
            Qual::Gen(g) => {
                let deps: HashSet<String> = match &g.source {
                    GenSource::Atom(b) => b.free_vars().intersection(&bound).cloned().collect(),
                    GenSource::Comp(inner) => comp_free_vars(inner)
                        .intersection(&bound)
                        .cloned()
                        .collect(),
                };
                bound.insert(g.var.clone());
                if deps.is_empty() {
                    let plan = match g.source {
                        GenSource::Atom(b) => lower_atom(&b, flags, gen, report),
                        GenSource::Comp(inner) => lower_comp(*inner, flags, gen, report),
                    };
                    gens.push(GState::Indep {
                        var: g.var,
                        plan,
                        semi: g.semi,
                    });
                } else {
                    assert!(
                        g.semi.is_none(),
                        "existential generators are independent by construction"
                    );
                    let src = match g.source {
                        GenSource::Atom(b) => b,
                        GenSource::Comp(inner) => desugar(&inner, gen),
                    };
                    gens.push(GState::Dep { var: g.var, src });
                }
            }
        }
    }

    // --------------------------------------------------- the state machine
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        assert!(rounds < 10_000, "combinator lowering diverged");
        let gen_vars: HashSet<String> = gens.iter().map(|g| g.var().to_string()).collect();

        // Rule 1: Filter — single-generator guard pushed onto its dataflow.
        if apply_filter_rule(&mut gens, &mut guards, &gen_vars) {
            continue;
        }
        // Rule 2: EqJoin (inner / semi / anti, with residuals).
        if apply_join_rule(&mut gens, &mut guards, &mut head, &gen_vars, gen) {
            continue;
        }
        // Rule 2b: degenerate semi-join for non-equi existentials.
        if apply_degenerate_semi_rule(&mut gens, &mut guards, &gen_vars) {
            continue;
        }
        // Rule 3: dependent generator merges via flatMap.
        if apply_dependent_rule(&mut gens, &mut guards, &mut head, &gen_vars, gen) {
            continue;
        }
        // Rule 4: Cross.
        if apply_cross_rule(&mut gens, &mut guards, &mut head, gen) {
            continue;
        }
        break;
    }

    assert_eq!(
        gens.len(),
        1,
        "lowering must terminate with a single generator (guards left: {guards:?})"
    );
    let (var, mut plan) = match gens.pop().expect("one generator") {
        GState::Indep { var, plan, .. } => (var, plan),
        GState::Dep { .. } => unreachable!("a sole generator cannot be dependent"),
    };

    // Residual guards all reference only the last variable (or nothing).
    if !guards.is_empty() {
        let pred = guards
            .into_iter()
            .reduce(|a, b| a.and(b))
            .expect("non-empty guards");
        plan = Plan::Filter {
            input: Box::new(plan),
            p: Lambda {
                params: vec![var.clone()],
                body: pred,
            },
        };
    }

    // Finalize per monad.
    match c.monad {
        Monad::Bag => {
            if head == ScalarExpr::var(var.clone()) {
                plan
            } else {
                Plan::Map {
                    input: Box::new(plan),
                    f: Lambda {
                        params: vec![var],
                        body: head,
                    },
                }
            }
        }
        Monad::FlattenBag => {
            let body = match head {
                ScalarExpr::BagOf(b) => *b,
                other => BagExpr::OfValue(Box::new(other)),
            };
            Plan::FlatMap {
                input: Box::new(plan),
                param: var,
                body,
            }
        }
        Monad::Fold(op) => {
            let input = if head == ScalarExpr::var(var.clone()) {
                plan
            } else {
                Plan::Map {
                    input: Box::new(plan),
                    f: Lambda {
                        params: vec![var],
                        body: head,
                    },
                }
            };
            Plan::Fold {
                input: Box::new(input),
                fold: op,
            }
        }
    }
}

/// Free variables of a (possibly nested) comprehension.
fn comp_free_vars(c: &Comprehension) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut bound = HashSet::new();
    for q in &c.quals {
        match q {
            Qual::Guard(g) => {
                out.extend(g.free_vars().difference(&bound).cloned());
            }
            Qual::Gen(g) => {
                let fv = match &g.source {
                    GenSource::Atom(b) => b.free_vars(),
                    GenSource::Comp(inner) => comp_free_vars(inner),
                };
                out.extend(fv.difference(&bound).cloned());
                bound.insert(g.var.clone());
            }
        }
    }
    out.extend(c.head.free_vars().difference(&bound).cloned());
    out
}

fn gen_vars_of(e: &ScalarExpr, gen_vars: &HashSet<String>) -> HashSet<String> {
    e.free_vars().intersection(gen_vars).cloned().collect()
}

fn find_indep(gens: &[GState], var: &str) -> Option<usize> {
    gens.iter()
        .position(|g| matches!(g, GState::Indep { var: v, .. } if v == var))
}

fn apply_filter_rule(
    gens: &mut [GState],
    guards: &mut Vec<ScalarExpr>,
    gen_vars: &HashSet<String>,
) -> bool {
    for gi in 0..guards.len() {
        let gv = gen_vars_of(&guards[gi], gen_vars);
        if gv.len() != 1 {
            continue;
        }
        let var = gv.iter().next().expect("singleton").clone();
        let Some(idx) = find_indep(gens, &var) else {
            continue;
        };
        // A guard referencing only an existential variable filters that
        // side's input before the semi-join — safe and desirable (it is
        // exactly the Q4 `commitDate < receiptDate` push-down).
        let guard = guards.remove(gi);
        if let GState::Indep { plan, .. } = &mut gens[idx] {
            let input = std::mem::replace(plan, Plan::Literal { rows: vec![] });
            *plan = Plan::Filter {
                input: Box::new(input),
                p: Lambda {
                    params: vec![var],
                    body: guard,
                },
            };
        }
        return true;
    }
    false
}

/// Decomposes `Eq(a, b)` guards into join keys for a pair of generators.
fn as_join_keys(
    guard: &ScalarExpr,
    gen_vars: &HashSet<String>,
) -> Option<(String, ScalarExpr, String, ScalarExpr)> {
    let ScalarExpr::BinOp(BinOp::Eq, a, b) = guard else {
        return None;
    };
    let gva = gen_vars_of(a, gen_vars);
    let gvb = gen_vars_of(b, gen_vars);
    if gva.len() == 1 && gvb.len() == 1 {
        let x = gva.into_iter().next().expect("singleton");
        let y = gvb.into_iter().next().expect("singleton");
        if x != y {
            return Some((x, (**a).clone(), y, (**b).clone()));
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn apply_join_rule(
    gens: &mut Vec<GState>,
    guards: &mut Vec<ScalarExpr>,
    head: &mut ScalarExpr,
    gen_vars: &HashSet<String>,
    namegen: &mut NameGen,
) -> bool {
    for gi in 0..guards.len() {
        let Some((x, mut kx, y, mut ky)) = as_join_keys(&guards[gi], gen_vars) else {
            continue;
        };
        let (Some(xi), Some(yi)) = (find_indep(gens, &x), find_indep(gens, &y)) else {
            continue;
        };
        let x_semi = match &gens[xi] {
            GState::Indep { semi, .. } => *semi,
            GState::Dep { .. } => unreachable!(),
        };
        let y_semi = match &gens[yi] {
            GState::Indep { semi, .. } => *semi,
            GState::Dep { .. } => unreachable!(),
        };
        // Orient so that an existential generator sits on the right.
        let (mut x, mut y, mut xi, mut yi) = (x, y, xi, yi);
        if x_semi.is_some() && y_semi.is_none() {
            std::mem::swap(&mut x, &mut y);
            std::mem::swap(&mut xi, &mut yi);
            std::mem::swap(&mut kx, &mut ky);
        }
        let semi = match &gens[yi] {
            GState::Indep { semi, .. } => *semi,
            GState::Dep { .. } => unreachable!(),
        };
        let left_semi = match &gens[xi] {
            GState::Indep { semi, .. } => *semi,
            GState::Dep { .. } => unreachable!(),
        };
        if semi.is_some() && left_semi.is_some() {
            // Two existentials joined with each other: postpone until one is
            // resolved against a regular generator.
            continue;
        }

        guards.remove(gi);

        // Collect residual guards referencing exactly this pair.
        let mut residuals = Vec::new();
        let mut rest = Vec::new();
        for g in guards.drain(..) {
            let gv = gen_vars_of(&g, gen_vars);
            let pair_only = gv.iter().all(|v| v == &x || v == &y);
            let touches_both = gv.contains(&x) && gv.contains(&y);
            // For semi-joins, any guard still touching y must ride along;
            // for inner joins only two-sided guards need to (single-sided
            // ones were consumed by the filter rule already).
            if pair_only && (touches_both || (semi.is_some() && gv.contains(&y))) {
                residuals.push(g);
            } else {
                rest.push(g);
            }
        }
        *guards = rest;

        let (lplan, rplan) = take_two_plans(gens, xi, yi);
        let lkey = Lambda {
            params: vec![x.clone()],
            body: kx,
        };
        let rkey = Lambda {
            params: vec![y.clone()],
            body: ky,
        };
        let residual = residuals
            .into_iter()
            .reduce(|a, b| a.and(b))
            .map(|body| Lambda {
                params: vec![x.clone(), y.clone()],
                body,
            });

        match semi {
            Some(kind) => {
                let jkind = match kind {
                    SemiKind::Exists => JoinKind::LeftSemi,
                    SemiKind::NotExists => JoinKind::LeftAnti,
                };
                let plan = Plan::Join {
                    left: Box::new(lplan),
                    right: Box::new(rplan),
                    lkey,
                    rkey,
                    residual,
                    kind: jkind,
                    strategy: JoinStrategy::Auto,
                };
                // The left variable survives with its original element type.
                gens.push(GState::Indep {
                    var: x,
                    plan,
                    semi: left_semi,
                });
            }
            None => {
                let v = namegen.fresh("j");
                let plan = Plan::Join {
                    left: Box::new(lplan),
                    right: Box::new(rplan),
                    lkey,
                    rkey,
                    residual,
                    kind: JoinKind::Inner,
                    strategy: JoinStrategy::Auto,
                };
                substitute_everywhere(gens, guards, head, &x, &ScalarExpr::var(v.clone()).get(0));
                substitute_everywhere(gens, guards, head, &y, &ScalarExpr::var(v.clone()).get(1));
                gens.push(GState::Indep {
                    var: v,
                    plan,
                    semi: None,
                });
            }
        }
        return true;
    }
    false
}

/// A semi generator with no equi-guard left: fall back to a nested-loop
/// semi-join on a constant key with the remaining predicates as residual.
#[allow(clippy::ptr_arg)]
fn apply_degenerate_semi_rule(
    gens: &mut Vec<GState>,
    guards: &mut Vec<ScalarExpr>,
    gen_vars: &HashSet<String>,
) -> bool {
    let Some(yi) = gens
        .iter()
        .position(|g| matches!(g, GState::Indep { semi: Some(_), .. }))
    else {
        return false;
    };
    if gens.len() < 2 {
        return false;
    }
    let y = gens[yi].var().to_string();
    // Find a partner x such that all guards touching y only touch {x, y}.
    let touching: Vec<usize> = (0..guards.len())
        .filter(|i| gen_vars_of(&guards[*i], gen_vars).contains(&y))
        .collect();
    let mut partner: Option<String> = None;
    for i in &touching {
        for v in gen_vars_of(&guards[*i], gen_vars) {
            if v != y {
                match &partner {
                    None => partner = Some(v),
                    Some(p) if *p == v => {}
                    Some(_) => return false, // three-way guard: wait.
                }
            }
        }
    }
    let Some(x) = partner else {
        // No guard links the existential — `exists(_ => p)` degenerates to a
        // constant emptiness test; pair it with the first regular generator.
        let Some(xi) = gens
            .iter()
            .position(|g| matches!(g, GState::Indep { semi: None, .. }))
        else {
            return false;
        };
        let x = gens[xi].var().to_string();
        return build_degenerate(gens, guards, &x, &y, vec![]);
    };
    let Some(_xi) = find_indep(gens, &x) else {
        return false;
    };
    let residuals: Vec<ScalarExpr> = {
        let mut res = Vec::new();
        let mut rest = Vec::new();
        for (i, g) in guards.drain(..).enumerate() {
            if touching.contains(&i) {
                res.push(g);
            } else {
                rest.push(g);
            }
        }
        *guards = rest;
        res
    };
    build_degenerate(gens, guards, &x, &y, residuals)
}

fn build_degenerate(
    gens: &mut Vec<GState>,
    _guards: &mut [ScalarExpr],
    x: &str,
    y: &str,
    residuals: Vec<ScalarExpr>,
) -> bool {
    let xi = find_indep(gens, x).expect("partner exists");
    let yi = find_indep(gens, y).expect("semi gen exists");
    let semi = match &gens[yi] {
        GState::Indep { semi, .. } => semi.expect("semi generator"),
        GState::Dep { .. } => unreachable!(),
    };
    let left_semi = match &gens[xi] {
        GState::Indep { semi, .. } => *semi,
        GState::Dep { .. } => unreachable!(),
    };
    let (lplan, rplan) = take_two_plans(gens, xi, yi);
    let residual = residuals
        .into_iter()
        .reduce(|a, b| a.and(b))
        .map(|body| Lambda {
            params: vec![x.to_string(), y.to_string()],
            body,
        });
    let kind = match semi {
        SemiKind::Exists => JoinKind::LeftSemi,
        SemiKind::NotExists => JoinKind::LeftAnti,
    };
    let plan = Plan::Join {
        left: Box::new(lplan),
        right: Box::new(rplan),
        lkey: Lambda::new(["_k"], ScalarExpr::lit(0i64)),
        rkey: Lambda::new(["_k"], ScalarExpr::lit(0i64)),
        residual,
        kind,
        strategy: JoinStrategy::Auto,
    };
    gens.push(GState::Indep {
        var: x.to_string(),
        plan,
        semi: left_semi,
    });
    true
}

fn apply_dependent_rule(
    gens: &mut Vec<GState>,
    guards: &mut [ScalarExpr],
    head: &mut ScalarExpr,
    gen_vars: &HashSet<String>,
    namegen: &mut NameGen,
) -> bool {
    for yi in 0..gens.len() {
        let GState::Dep { var: y, src } = &gens[yi] else {
            continue;
        };
        let deps: HashSet<String> = src.free_vars().intersection(gen_vars).cloned().collect();
        if deps.len() != 1 {
            continue;
        }
        let x = deps.into_iter().next().expect("singleton");
        let Some(xi) = find_indep(gens, &x) else {
            continue;
        };
        // Semi-joins must consume x before a dependent merge retags it; the
        // machine's priority order already guarantees joins run first.
        let y = y.clone();
        let src = src.clone();
        let v = namegen.fresh("w");
        let (xplan, _) = take_one_plan(gens, xi, yi);
        let body = src.map(Lambda {
            params: vec![y.clone()],
            body: ScalarExpr::Tuple(vec![ScalarExpr::var(x.clone()), ScalarExpr::var(y.clone())]),
        });
        let plan = Plan::FlatMap {
            input: Box::new(xplan),
            param: x.clone(),
            body,
        };
        substitute_everywhere(gens, guards, head, &x, &ScalarExpr::var(v.clone()).get(0));
        substitute_everywhere(gens, guards, head, &y, &ScalarExpr::var(v.clone()).get(1));
        gens.push(GState::Indep {
            var: v,
            plan,
            semi: None,
        });
        return true;
    }
    false
}

fn apply_cross_rule(
    gens: &mut Vec<GState>,
    guards: &mut [ScalarExpr],
    head: &mut ScalarExpr,
    namegen: &mut NameGen,
) -> bool {
    let indep: Vec<usize> = gens
        .iter()
        .enumerate()
        .filter_map(|(i, g)| match g {
            GState::Indep { semi: None, .. } => Some(i),
            _ => None,
        })
        .collect();
    if indep.len() < 2 {
        return false;
    }
    let (xi, yi) = (indep[0], indep[1]);
    let x = gens[xi].var().to_string();
    let y = gens[yi].var().to_string();
    let (lplan, rplan) = take_two_plans(gens, xi, yi);
    let v = namegen.fresh("c");
    let plan = Plan::Cross {
        left: Box::new(lplan),
        right: Box::new(rplan),
    };
    substitute_everywhere(gens, guards, head, &x, &ScalarExpr::var(v.clone()).get(0));
    substitute_everywhere(gens, guards, head, &y, &ScalarExpr::var(v.clone()).get(1));
    gens.push(GState::Indep {
        var: v,
        plan,
        semi: None,
    });
    true
}

/// Removes two generators by index and returns their plans (left, right).
fn take_two_plans(gens: &mut Vec<GState>, xi: usize, yi: usize) -> (Plan, Plan) {
    assert_ne!(xi, yi);
    let (first, second) = if xi < yi { (yi, xi) } else { (xi, yi) };
    let g1 = gens.remove(first);
    let g2 = gens.remove(second);
    let (gx, gy) = if xi < yi { (g2, g1) } else { (g1, g2) };
    let px = match gx {
        GState::Indep { plan, .. } => plan,
        GState::Dep { .. } => unreachable!("join/cross operands are independent"),
    };
    let py = match gy {
        GState::Indep { plan, .. } => plan,
        GState::Dep { .. } => unreachable!("join/cross operands are independent"),
    };
    (px, py)
}

/// Removes the generators at `xi` (independent) and `yi` (dependent),
/// returning the independent plan.
fn take_one_plan(gens: &mut Vec<GState>, xi: usize, yi: usize) -> (Plan, ()) {
    assert_ne!(xi, yi);
    let (first, second) = if xi < yi { (yi, xi) } else { (xi, yi) };
    let g1 = gens.remove(first);
    let g2 = gens.remove(second);
    let gx = if xi < yi { g2 } else { g1 };
    match gx {
        GState::Indep { plan, .. } => (plan, ()),
        GState::Dep { .. } => unreachable!("flatMap input is independent"),
    }
}

fn substitute_everywhere(
    gens: &mut [GState],
    guards: &mut [ScalarExpr],
    head: &mut ScalarExpr,
    var: &str,
    replacement: &ScalarExpr,
) {
    TermMut::Scalar(head).substitute(var, replacement);
    for g in guards.iter_mut() {
        TermMut::Scalar(g).substitute(var, replacement);
    }
    for g in gens.iter_mut() {
        if let GState::Dep { src, .. } = g {
            TermMut::Bag(src).substitute(var, replacement);
        }
    }
}

/// Lowers an atomic (non-comprehended) bag term.
fn lower_atom(
    b: &BagExpr,
    flags: &OptimizerFlags,
    gen: &mut NameGen,
    report: &mut OptimizationReport,
) -> Plan {
    match b {
        BagExpr::Read { source } => Plan::Source {
            name: source.clone(),
        },
        BagExpr::Values(rows) => Plan::Literal { rows: rows.clone() },
        BagExpr::Ref { name } => Plan::RefBag { name: name.clone() },
        BagExpr::OfValue(e) => Plan::OfScalar {
            expr: (**e).clone(),
        },
        BagExpr::GroupBy { input, key } => Plan::GroupBy {
            input: Box::new(lower_bag(input, flags, gen, report)),
            key: key.clone(),
        },
        BagExpr::AggBy { input, key, fold } => Plan::AggBy {
            input: Box::new(lower_bag(input, flags, gen, report)),
            key: key.clone(),
            fold: fold.clone(),
        },
        BagExpr::Plus(l, r) => Plan::Plus {
            left: Box::new(lower_bag(l, flags, gen, report)),
            right: Box::new(lower_bag(r, flags, gen, report)),
        },
        BagExpr::Minus(l, r) => Plan::Minus {
            left: Box::new(lower_bag(l, flags, gen, report)),
            right: Box::new(lower_bag(r, flags, gen, report)),
        },
        BagExpr::Distinct(e) => Plan::Distinct {
            input: Box::new(lower_bag(e, flags, gen, report)),
        },
        BagExpr::Map { .. } | BagExpr::Filter { .. } | BagExpr::FlatMap { .. } => {
            // Comprehended terms reach here only when normalization was
            // disabled and a generator source stayed a chain; compile it as
            // its own (unfused) sub-pipeline.
            lower_bag(b, flags, gen, report)
        }
    }
}
