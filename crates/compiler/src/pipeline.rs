//! The `parallelize` pipeline (paper, Figure 1).
//!
//! [`parallelize`] is the Rust counterpart of the paper's `parallelize`
//! macro: it takes a quoted driver [`Program`], (i) recovers comprehension
//! views over all maximal `DataBag` expressions, (ii) rewrites them logically
//! (normalization, exists-unnesting, fold-group fusion), and (iii) lowers
//! them to abstract dataflow [`Plan`]s embedded back into the driver
//! control-flow skeleton, applying the physical optimizations (caching,
//! partition pulling) across control-flow barriers.
//!
//! Every optimization can be toggled individually through
//! [`OptimizerFlags`] — the paper's experiments (Figure 4, Figure 5,
//! Section 5.2) are ablations over exactly these flags — and the rewrites
//! that fired are recorded in an [`OptimizationReport`], which reproduces the
//! paper's Table 1.

use std::fmt;

use crate::bag_expr::BagExpr;
use crate::expr::{ScalarExpr, Term, TermMut};
use crate::freshen::{freshen_program, NameGen};
use crate::lower::{lower_bag, lower_fold};
use crate::physical;
use crate::plan::Plan;
use crate::program::{Program, RValue, Stmt};

/// Individual toggles for every optimization in the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimizerFlags {
    /// Inline single-use bag `val` definitions (Section 4.1, "Inlining").
    pub inlining: bool,
    /// Comprehension normalization: head unnesting and generator fusion.
    pub normalization: bool,
    /// Exists-unnesting of nested existential predicates (Section 4.2.1).
    pub unnest_exists: bool,
    /// Fold-group fusion (Section 4.2.2).
    pub fold_group_fusion: bool,
    /// Cache bags referenced more than once / across loop iterations
    /// (Section 4.4, "Caching").
    pub caching: bool,
    /// Pull enforced partitionings behind control-flow barriers
    /// (Section 4.4, "Partition Pulling").
    pub partition_pulling: bool,
    /// Fuse maximal chains of narrow operators (map/filter/flatMap) into
    /// single per-partition [`Plan::Pipeline`] passes with no intermediate
    /// materialization.
    pub pipeline_fusion: bool,
    /// Evaluate UDF lambdas through the engine's compiled stack — typed
    /// columnar kernels ([`crate::vectorized`]) wherever a site specializes,
    /// slot-compiled evaluators ([`crate::compiled`]) as their abort-replay
    /// and refusal path — instead of the reference tree-walking interpreter.
    /// This is an engine *evaluation tier*, not one of the paper's plan
    /// optimizations: it changes no plan, no rows, and no deterministic
    /// cost-model counter, so it stays on even in [`OptimizerFlags::none`]
    /// and exists purely as an escape hatch (`false` = run every UDF through
    /// the spec).
    pub compiled_eval: bool,
}

impl OptimizerFlags {
    /// Everything on — the default production configuration.
    pub fn all() -> Self {
        OptimizerFlags {
            inlining: true,
            normalization: true,
            unnest_exists: true,
            fold_group_fusion: true,
            caching: true,
            partition_pulling: true,
            pipeline_fusion: true,
            compiled_eval: true,
        }
    }

    /// Everything off — the naive baseline used by the paper's figures.
    /// (Comprehension recovery still runs; nothing is rewritten.)
    pub fn none() -> Self {
        OptimizerFlags {
            inlining: false,
            normalization: false,
            unnest_exists: false,
            fold_group_fusion: false,
            caching: false,
            partition_pulling: false,
            pipeline_fusion: false,
            // Not a plan optimization — execution-tier toggle, see above.
            compiled_eval: true,
        }
    }

    /// Logical optimizations only (no caching / partition pulling / fusion).
    pub fn logical_only() -> Self {
        OptimizerFlags {
            caching: false,
            partition_pulling: false,
            pipeline_fusion: false,
            ..Self::all()
        }
    }

    /// Builder-style toggle.
    pub fn with_caching(mut self, on: bool) -> Self {
        self.caching = on;
        self
    }

    /// Builder-style toggle.
    pub fn with_partition_pulling(mut self, on: bool) -> Self {
        self.partition_pulling = on;
        self
    }

    /// Builder-style toggle.
    pub fn with_unnest_exists(mut self, on: bool) -> Self {
        self.unnest_exists = on;
        self
    }

    /// Builder-style toggle.
    pub fn with_fold_group_fusion(mut self, on: bool) -> Self {
        self.fold_group_fusion = on;
        self
    }

    /// Builder-style toggle.
    pub fn with_inlining(mut self, on: bool) -> Self {
        self.inlining = on;
        self
    }

    /// Builder-style toggle.
    pub fn with_normalization(mut self, on: bool) -> Self {
        self.normalization = on;
        self
    }

    /// Builder-style toggle.
    pub fn with_pipeline_fusion(mut self, on: bool) -> Self {
        self.pipeline_fusion = on;
        self
    }

    /// Builder-style toggle for the compiled-evaluator escape hatch.
    pub fn with_compiled_eval(mut self, on: bool) -> Self {
        self.compiled_eval = on;
        self
    }
}

impl Default for OptimizerFlags {
    fn default() -> Self {
        Self::all()
    }
}

/// Record of which rewrites fired during compilation — the per-program
/// optimization applicability that the paper summarizes in Table 1.
#[derive(Clone, Debug, Default)]
pub struct OptimizationReport {
    /// Generator/head unnesting (fusion) rule applications.
    pub comprehension_fusions: usize,
    /// Nested existential guards rewritten into semi-/anti-join generators.
    pub exists_unnested: usize,
    /// groupBy → aggBy rewrites performed.
    pub fold_group_fused: usize,
    /// Bag `val`s inlined into their single use.
    pub inlined: Vec<String>,
    /// Bags wrapped in a `Cache` node.
    pub cached: Vec<String>,
    /// Bags that received an enforced partitioning (`name` per pull).
    pub partitions_pulled: Vec<String>,
    /// Narrow-operator chains collapsed into `Plan::Pipeline` nodes.
    pub pipelines_fused: usize,
    /// Total narrow operators absorbed into those pipelines.
    pub pipeline_stages_fused: usize,
}

impl OptimizationReport {
    /// The Table 1 row for this program: which optimization categories
    /// applied (`Unnesting`, `Group Fusion`, `Cache`, `Partition Pulling`).
    pub fn table1_row(&self) -> [bool; 4] {
        [
            self.exists_unnested > 0,
            self.fold_group_fused > 0,
            !self.cached.is_empty(),
            !self.partitions_pulled.is_empty(),
        ]
    }
}

impl fmt::Display for OptimizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [u, g, c, p] = self.table1_row();
        let mark = |b: bool| if b { "X" } else { "-" };
        writeln!(
            f,
            "unnesting: {} ({})  group-fusion: {} ({})  cache: {} ({:?})  partition: {} ({:?})",
            mark(u),
            self.exists_unnested,
            mark(g),
            self.fold_group_fused,
            mark(c),
            self.cached,
            mark(p),
            self.partitions_pulled,
        )
    }
}

/// An auxiliary dataflow definition extracted from a driver scalar
/// expression: `name` is bound to the (scalar or collected-bag) result of
/// `plan` before the surrounding expression evaluates. These are the
/// paper's *thunks* — the handles connecting dataflows back into driver code
/// (Fig. 3b, "Driver to Dataflows").
#[derive(Clone, Debug, PartialEq)]
pub struct AuxDef {
    /// Fresh driver name the result is bound to.
    pub name: String,
    /// The dataflow producing it (a `Fold` plan for scalars; any plan for
    /// collected bags).
    pub plan: Plan,
}

/// The compiled right-hand side of a binding.
#[derive(Clone, Debug, PartialEq)]
pub enum CRValue {
    /// A bag-valued dataflow.
    Bag(Plan),
    /// A scalar driver expression with its extracted dataflow thunks.
    Scalar {
        /// Dataflows to force before evaluating `expr`.
        pre: Vec<AuxDef>,
        /// The residual driver expression.
        expr: ScalarExpr,
    },
}

/// Binding flavor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BindKind {
    /// `val` — immutable.
    Val,
    /// `var` — mutable definition.
    Var,
    /// Assignment to an existing `var`.
    Assign,
}

/// A compiled driver statement.
#[derive(Clone, Debug, PartialEq)]
pub enum CStmt {
    /// Binding / assignment.
    Bind {
        /// Name bound.
        name: String,
        /// Val / var / assign.
        kind: BindKind,
        /// The compiled right-hand side.
        value: CRValue,
    },
    /// `while` loop; `pre` thunks re-evaluate before each condition check.
    While {
        /// Dataflows feeding the condition.
        pre: Vec<AuxDef>,
        /// Loop condition.
        cond: ScalarExpr,
        /// Loop body.
        body: Vec<CStmt>,
    },
    /// Driver-side iteration.
    ForEach {
        /// Loop variable.
        var: String,
        /// Dataflows feeding the sequence expression.
        pre: Vec<AuxDef>,
        /// The sequence expression.
        seq: ScalarExpr,
        /// Loop body.
        body: Vec<CStmt>,
    },
    /// Conditional; `pre` thunks evaluate before the condition.
    If {
        /// Dataflows feeding the condition.
        pre: Vec<AuxDef>,
        /// Branch condition.
        cond: ScalarExpr,
        /// Then-branch.
        then_branch: Vec<CStmt>,
        /// Else-branch.
        else_branch: Vec<CStmt>,
    },
    /// Sink write.
    Write {
        /// Sink name.
        sink: String,
        /// The dataflow to materialize.
        plan: Plan,
    },
    /// Stateful-bag creation: the state is hash-partitioned by its key and
    /// held in place (the paper's point-wise-updatable keyed state).
    StatefulCreate {
        /// Stateful binding name.
        name: String,
        /// Dataflow producing the initial contents.
        plan: Plan,
        /// Element key extractor.
        key: crate::expr::Lambda,
    },
    /// Point-wise stateful update; the changed delta binds as a bag.
    StatefulUpdate {
        /// Stateful binding to update.
        state: String,
        /// Name of the delta binding.
        delta: String,
        /// Dataflow producing the update messages.
        messages: Plan,
        /// Message key extractor (routing).
        message_key: crate::expr::Lambda,
        /// `(element, message) ⟼ new element | null`.
        update: crate::expr::Lambda,
    },
}

/// One term a compiled statement holds (see [`CStmt::for_each_term`]).
#[derive(Clone, Copy, Debug)]
pub enum CTerm<'a> {
    /// An embedded dataflow: a bound bag, a thunk, a sink's or a state's
    /// input.
    Plan(&'a Plan),
    /// A driver expression or a stateful statement's lambda.
    Term(Term<'a>),
}

/// The `&mut` twin of [`CTerm`].
#[derive(Debug)]
pub enum CTermMut<'a> {
    /// An embedded dataflow.
    Plan(&'a mut Plan),
    /// A driver expression or a stateful statement's lambda.
    Term(TermMut<'a>),
}

impl CStmt {
    /// The terms this statement holds itself, in execution order: thunks
    /// before the expression that reads them, a stateful statement's plan
    /// before its lambdas. Nested blocks are [`CStmt::blocks`].
    pub fn for_each_term<'a>(&'a self, mut visit: impl FnMut(CTerm<'a>)) {
        match self {
            CStmt::Bind {
                value: CRValue::Bag(plan),
                ..
            }
            | CStmt::Write { plan, .. } => visit(CTerm::Plan(plan)),
            CStmt::Bind {
                value: CRValue::Scalar { pre, expr },
                ..
            }
            | CStmt::While {
                pre, cond: expr, ..
            }
            | CStmt::ForEach { pre, seq: expr, .. }
            | CStmt::If {
                pre, cond: expr, ..
            } => {
                pre.iter().for_each(|a| visit(CTerm::Plan(&a.plan)));
                visit(CTerm::Term(Term::Scalar(expr)));
            }
            CStmt::StatefulCreate { plan, key, .. } => {
                visit(CTerm::Plan(plan));
                visit(CTerm::Term(Term::Lambda(key)));
            }
            CStmt::StatefulUpdate {
                messages,
                message_key,
                update,
                ..
            } => {
                visit(CTerm::Plan(messages));
                visit(CTerm::Term(Term::Lambda(message_key)));
                visit(CTerm::Term(Term::Lambda(update)));
            }
        }
    }

    /// The `&mut` twin of [`CStmt::for_each_term`].
    pub fn for_each_term_mut(&mut self, mut visit: impl FnMut(CTermMut<'_>)) {
        match self {
            CStmt::Bind {
                value: CRValue::Bag(plan),
                ..
            }
            | CStmt::Write { plan, .. } => visit(CTermMut::Plan(plan)),
            CStmt::Bind {
                value: CRValue::Scalar { pre, expr },
                ..
            }
            | CStmt::While {
                pre, cond: expr, ..
            }
            | CStmt::ForEach { pre, seq: expr, .. }
            | CStmt::If {
                pre, cond: expr, ..
            } => {
                pre.iter_mut()
                    .for_each(|a| visit(CTermMut::Plan(&mut a.plan)));
                visit(CTermMut::Term(TermMut::Scalar(expr)));
            }
            CStmt::StatefulCreate { plan, key, .. } => {
                visit(CTermMut::Plan(plan));
                visit(CTermMut::Term(TermMut::Lambda(key)));
            }
            CStmt::StatefulUpdate {
                messages,
                message_key,
                update,
                ..
            } => {
                visit(CTermMut::Plan(messages));
                visit(CTermMut::Term(TermMut::Lambda(message_key)));
                visit(CTermMut::Term(TermMut::Lambda(update)));
            }
        }
    }

    /// The nested statement blocks: a loop's body, a conditional's branches.
    pub fn blocks(&self) -> impl Iterator<Item = &Vec<CStmt>> {
        let (first, second) = match self {
            CStmt::While { body, .. } | CStmt::ForEach { body, .. } => (Some(body), None),
            CStmt::If {
                then_branch,
                else_branch,
                ..
            } => (Some(then_branch), Some(else_branch)),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// The `&mut` twin of [`CStmt::blocks`].
    pub fn blocks_mut(&mut self) -> impl Iterator<Item = &mut Vec<CStmt>> {
        let (first, second) = match self {
            CStmt::While { body, .. } | CStmt::ForEach { body, .. } => (Some(body), None),
            CStmt::If {
                then_branch,
                else_branch,
                ..
            } => (Some(then_branch), Some(else_branch)),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// A compiled program: driver control flow with embedded dataflow plans.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// Compiled statements.
    pub body: Vec<CStmt>,
    /// Which optimizations fired.
    pub report: OptimizationReport,
    /// Whether engines should evaluate UDFs through the compiled stack
    /// rather than the interpreter (see [`OptimizerFlags::compiled_eval`]).
    pub compiled_eval: bool,
}

/// Compiles a program — the `parallelize { … }` entry point.
pub fn parallelize(p: &Program, flags: &OptimizerFlags) -> CompiledProgram {
    let mut gen = NameGen::new();
    let mut prog = freshen_program(p, &mut gen);
    let mut report = OptimizationReport::default();

    if flags.inlining {
        inline_single_use(&mut prog.body, &mut report);
    }

    let mut body = compile_stmts(&prog.body, flags, &mut gen, &mut report);

    if flags.caching {
        physical::apply_caching(&mut body, &mut report);
    }
    if flags.partition_pulling {
        physical::apply_partition_pulling(&mut body, &mut report);
    }
    if flags.pipeline_fusion {
        crate::physical_pipeline::apply_pipeline_fusion(&mut body, &mut report);
    }

    CompiledProgram {
        body,
        report,
        compiled_eval: flags.compiled_eval,
    }
}

// ------------------------------------------------------------- compilation

fn compile_stmts(
    stmts: &[Stmt],
    flags: &OptimizerFlags,
    gen: &mut NameGen,
    report: &mut OptimizationReport,
) -> Vec<CStmt> {
    stmts
        .iter()
        .map(|s| compile_stmt(s, flags, gen, report))
        .collect()
}

fn compile_stmt(
    s: &Stmt,
    flags: &OptimizerFlags,
    gen: &mut NameGen,
    report: &mut OptimizationReport,
) -> CStmt {
    match s {
        Stmt::ValDef { name, value } => CStmt::Bind {
            name: name.clone(),
            kind: BindKind::Val,
            value: compile_rvalue(value, flags, gen, report),
        },
        Stmt::VarDef { name, value } => CStmt::Bind {
            name: name.clone(),
            kind: BindKind::Var,
            value: compile_rvalue(value, flags, gen, report),
        },
        Stmt::Assign { name, value } => CStmt::Bind {
            name: name.clone(),
            kind: BindKind::Assign,
            value: compile_rvalue(value, flags, gen, report),
        },
        Stmt::While { cond, body } => {
            let (pre, cond) = extract_dataflows(cond, flags, gen, report);
            CStmt::While {
                pre,
                cond,
                body: compile_stmts(body, flags, gen, report),
            }
        }
        Stmt::ForEach { var, seq, body } => {
            let (pre, seq) = extract_dataflows(seq, flags, gen, report);
            CStmt::ForEach {
                var: var.clone(),
                pre,
                seq,
                body: compile_stmts(body, flags, gen, report),
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let (pre, cond) = extract_dataflows(cond, flags, gen, report);
            CStmt::If {
                pre,
                cond,
                then_branch: compile_stmts(then_branch, flags, gen, report),
                else_branch: compile_stmts(else_branch, flags, gen, report),
            }
        }
        Stmt::Write { sink, bag } => CStmt::Write {
            sink: sink.clone(),
            plan: lower_bag(bag, flags, gen, report),
        },
        Stmt::StatefulCreate { name, init, key } => CStmt::StatefulCreate {
            name: name.clone(),
            plan: lower_bag(init, flags, gen, report),
            key: key.clone(),
        },
        Stmt::StatefulUpdate {
            state,
            delta,
            messages,
            message_key,
            update,
        } => CStmt::StatefulUpdate {
            state: state.clone(),
            delta: delta.clone(),
            messages: lower_bag(messages, flags, gen, report),
            message_key: message_key.clone(),
            update: update.clone(),
        },
    }
}

fn compile_rvalue(
    v: &RValue,
    flags: &OptimizerFlags,
    gen: &mut NameGen,
    report: &mut OptimizationReport,
) -> CRValue {
    match v {
        RValue::Bag(b) => CRValue::Bag(lower_bag(b, flags, gen, report)),
        RValue::Scalar(e) => {
            let (pre, expr) = extract_dataflows(e, flags, gen, report);
            CRValue::Scalar { pre, expr }
        }
    }
}

/// Replaces each maximal dataflow term in a *driver-position* scalar
/// expression (terminal folds and collected bags) with a fresh variable
/// bound to the corresponding plan — the thunk-insertion step of Fig. 3b.
fn extract_dataflows(
    e: &ScalarExpr,
    flags: &OptimizerFlags,
    gen: &mut NameGen,
    report: &mut OptimizationReport,
) -> (Vec<AuxDef>, ScalarExpr) {
    let mut pre = Vec::new();
    let mut expr = e.clone();
    extract_rec(&mut expr, flags, gen, report, &mut pre);
    (pre, expr)
}

fn extract_rec(
    e: &mut ScalarExpr,
    flags: &OptimizerFlags,
    gen: &mut NameGen,
    report: &mut OptimizationReport,
    pre: &mut Vec<AuxDef>,
) {
    let (name, plan) = match e {
        ScalarExpr::Fold(bag, op) => {
            let name = gen.fresh("agg");
            (name, lower_fold(bag, op, flags, gen, report))
        }
        ScalarExpr::BagOf(bag) => {
            let name = gen.fresh("bag");
            (name, lower_bag(bag, flags, gen, report))
        }
        // Every other node's children are scalars.
        _ => {
            return e.for_each_child_mut(|c| {
                if let TermMut::Scalar(c) = c {
                    extract_rec(c, flags, gen, report, pre)
                }
            })
        }
    };
    pre.push(AuxDef {
        name: name.clone(),
        plan,
    });
    *e = ScalarExpr::var(name);
}

// ---------------------------------------------------------------- inlining

/// Inlines bag `val` definitions referenced exactly once, outside loops,
/// within the same statement list (Section 4.1, "Inlining"). Bigger
/// comprehensions mean more fusion and unnesting opportunities downstream.
fn inline_single_use(stmts: &mut Vec<Stmt>, report: &mut OptimizationReport) {
    let mut i = 0;
    while i < stmts.len() {
        let candidate = match &stmts[i] {
            Stmt::ValDef {
                name,
                value: RValue::Bag(e),
            } => Some((name.clone(), e.clone())),
            _ => None,
        };
        if let Some((name, def)) = candidate {
            let mut outside = 0usize;
            let mut inside = 0usize;
            for s in &stmts[i + 1..] {
                let (o, l) = count_refs_in_stmt(s, &name);
                outside += o;
                inside += l;
            }
            if outside == 1 && inside == 0 {
                for s in stmts[i + 1..].iter_mut() {
                    substitute_ref_in_stmt(s, &name, &def);
                }
                report.inlined.push(name);
                stmts.remove(i);
                continue;
            }
        }
        i += 1;
    }
    // Recurse into nested scopes.
    for s in stmts.iter_mut() {
        s.blocks_mut().for_each(|b| inline_single_use(b, report));
    }
}

/// Counts references to bag `name` in a statement:
/// (direct occurrences, occurrences inside nested loops).
fn count_refs_in_stmt(s: &Stmt, name: &str) -> (usize, usize) {
    let mut own = 0;
    s.for_each_term(|t| t.for_each_bag_ref(|r| own += usize::from(r == name)));
    let (mut outside, mut inside) = (0, 0);
    for s in s.blocks().flatten() {
        let (o, l) = count_refs_in_stmt(s, name);
        outside += o;
        inside += l;
    }
    match s {
        // A while condition is re-evaluated on every iteration.
        Stmt::While { .. } => (0, own + outside + inside),
        Stmt::ForEach { .. } => (own, outside + inside),
        _ => (own + outside, inside),
    }
}

fn substitute_ref_in_stmt(s: &mut Stmt, name: &str, def: &BagExpr) {
    s.for_each_term_mut(|t| t.substitute_ref(name, def));
    for s in s.blocks_mut().flatten() {
        substitute_ref_in_stmt(s, name, def);
    }
}
