//! One-time lambda compilation: the slot programs the typed kernels
//! specialize from.
//!
//! The deep embedding (PAPER.md §3) keeps every UDF as a quoted AST, which
//! the engine evaluates per row through the reference interpreter
//! ([`crate::interp`]). Where a site's UDFs type over columns, the engine
//! runs them as typed kernels instead ([`crate::vectorized`]). This module
//! gives the kernels their input: each [`Lambda`] is *compiled once per
//! distinct UDF* into a [`CompiledEval`], a postfix opcode array with no
//! name left in it:
//!
//! - **Slot resolution.** Every variable reference is classified at compile
//!   time: references to lambda parameters and fold binders become indices
//!   into a flat local-slot array (`Op::Local`), and free variables —
//!   broadcast bags and driver scalars — become indices into a capture
//!   array bound once per operator from the broadcast base scope
//!   (`Op::Capture`, [`CompiledEval::bind`]).
//! - **Constant folding.** Closed scalar subtrees (no variables, no folds)
//!   are evaluated at compile time by the reference interpreter; a subtree
//!   that evaluates to an error compiles to an `Op::Fail`.
//! - **Flat control flow.** `If` becomes a conditional jump over the
//!   then-branch and a jump over the else-branch, which specialization
//!   recovers into structured branches over selection vectors.
//! - **Folds and bags by shape only.** The one fold the kernels compute is
//!   a nested bag's `count`, recognized from the compiled `zero` / `sng` /
//!   `uni` code, never from the label [`FoldOp::kind`]. `Op::Fold` carries
//!   that bag's code and nothing otherwise; `Op::MkBag` carries nothing,
//!   because the kernels refuse bag construction.
//!
//! Nothing here evaluates a program: a batch the kernels abort, and a site
//! they refuse, run on the interpreter — the executable specification.

use std::collections::HashMap;

use crate::bag_expr::BagExpr;
use crate::expr::{BinOp, BuiltinFn, FoldOp, Lambda, ScalarExpr, Term, UnOp};
use crate::interp::{self, Catalog, Env};
use crate::value::{Value, ValueError};

// ------------------------------------------------------------------ opcodes

/// A postfix instruction over a value stack.
///
/// `pub(crate)` so the vectorized tier ([`crate::vectorized`]) can classify
/// and specialize the slot programs without re-lowering the AST.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// Push a (folded) constant.
    Const(Value),
    /// A closed subtree whose evaluation errors — e.g. a literal division
    /// by zero. The kernels refuse it; the interpreter raises the error.
    Fail,
    /// Push local slot `n` (lambda parameter or fold binder).
    Local(usize),
    /// Push capture slot `n` (pre-bound broadcast/driver value); unbound if
    /// the name was missing at bind time.
    Capture(usize),
    /// Pop a tuple, push field `i`.
    Field(usize),
    /// Pop right then left operand, push the binop result.
    Bin(BinOp),
    /// Pop the operand, push the unop result.
    Un(UnOp),
    /// Pop `n` arguments, push the builtin call result.
    Call(BuiltinFn, usize),
    /// Pop `n` values, push a tuple of them.
    Tuple(usize),
    /// Pop a bool; jump to `target` when false.
    JumpIfFalse(usize),
    /// Unconditional jump (end of a taken `If` branch).
    Jump(usize),
    /// A nested fold: the code of the bag it counts when it is a nested
    /// bag's `count` ([`Compiler::counted_bag`]), `None` otherwise.
    Fold(Option<Code>),
    /// A nested bag expression.
    MkBag,
}

/// A compiled scalar expression: a flat opcode array that leaves exactly one
/// value on the stack.
#[derive(Clone, Debug)]
pub(crate) struct Code {
    pub(crate) ops: Vec<Op>,
}

// ---------------------------------------------------------- compiled units

/// A lambda lowered to slot-based form. Compile once per UDF with
/// [`compile_lambda`] and bind its captures once per operator execution
/// with [`CompiledEval::bind`]; the kernels specialize from the pair.
#[derive(Clone, Debug)]
pub struct CompiledEval {
    pub(crate) arity: usize,
    captures: Vec<String>,
    pub(crate) code: Code,
}

impl CompiledEval {
    /// Resolves the capture slots against a broadcast base scope. Names
    /// missing from `base` bind to `None`; the kernels refuse a program that
    /// reads one, and the interpreter raises its `UnboundVariable`.
    pub fn bind(&self, base: &HashMap<String, Value>) -> Vec<Option<Value>> {
        self.captures.iter().map(|n| base.get(n).cloned()).collect()
    }
}

/// Compiles a lambda to slot-based form.
pub fn compile_lambda(lam: &Lambda) -> CompiledEval {
    let mut c = Compiler::default();
    for p in &lam.params {
        c.bind(p);
    }
    let code = c.compile_code(&lam.body);
    CompiledEval {
        arity: lam.params.len(),
        captures: c.captures,
        code,
    }
}

// ------------------------------------------------------- name collection

/// Every variable and bag-reference name at or below `t` (including names
/// bound within it), pre-order, borrowed from the term. Used by the engine
/// to [`Env::prefetch`] base-scope bindings for the interpreter;
/// prefetching bound names is harmless because later binder pushes shadow
/// them.
pub fn var_names(t: Term<'_>) -> Vec<&str> {
    let mut out = Vec::new();
    t.walk(&mut |t| {
        if let Term::Scalar(ScalarExpr::Var(n)) | Term::Bag(BagExpr::Ref { name: n }) = t {
            out.push(n.as_str());
        }
    });
    out
}

// ---------------------------------------------------------------- compiler

/// Compile-time scope tracking: a stack of binder names whose index is the
/// binder's local slot, plus the capture table for free variables.
#[derive(Default)]
struct Compiler<'e> {
    scopes: Vec<&'e str>,
    captures: Vec<String>,
}

impl<'e> Compiler<'e> {
    fn bind(&mut self, name: &'e str) -> usize {
        self.scopes.push(name);
        self.scopes.len() - 1
    }

    fn unbind(&mut self, n: usize) {
        self.scopes.truncate(self.scopes.len() - n);
    }

    /// Innermost local slot for `name`, if bound.
    fn local(&self, name: &str) -> Option<usize> {
        self.scopes.iter().rposition(|n| *n == name)
    }

    /// Capture slot for `name`, deduplicated by first appearance.
    fn capture(&mut self, name: &str) -> usize {
        match self.captures.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.captures.push(name.to_string());
                self.captures.len() - 1
            }
        }
    }

    fn compile_code(&mut self, e: &'e ScalarExpr) -> Code {
        let mut ops = Vec::new();
        self.compile_expr(e, &mut ops);
        Code { ops }
    }

    fn compile_expr(&mut self, e: &'e ScalarExpr, ops: &mut Vec<Op>) {
        // Constant folding: a closed subtree evaluates the same way every
        // row — do it once now, with the interpreter's result exactly (an
        // error becomes an `Op::Fail`).
        if is_closed(e) {
            match const_eval(e) {
                Ok(v) => ops.push(Op::Const(v)),
                Err(_) => ops.push(Op::Fail),
            }
            return;
        }
        match e {
            ScalarExpr::Lit(v) => ops.push(Op::Const(v.clone())),
            ScalarExpr::Var(n) => match self.local(n) {
                Some(slot) => ops.push(Op::Local(slot)),
                None => {
                    let c = self.capture(n);
                    ops.push(Op::Capture(c));
                }
            },
            ScalarExpr::Field(inner, i) => {
                self.compile_expr(inner, ops);
                ops.push(Op::Field(*i));
            }
            ScalarExpr::BinOp(op, l, r) => {
                self.compile_expr(l, ops);
                self.compile_expr(r, ops);
                ops.push(Op::Bin(*op));
            }
            ScalarExpr::UnOp(op, inner) => {
                self.compile_expr(inner, ops);
                ops.push(Op::Un(*op));
            }
            ScalarExpr::Call(f, args) => {
                for a in args {
                    self.compile_expr(a, ops);
                }
                ops.push(Op::Call(*f, args.len()));
            }
            ScalarExpr::Tuple(args) => {
                for a in args {
                    self.compile_expr(a, ops);
                }
                ops.push(Op::Tuple(args.len()));
            }
            ScalarExpr::If(c, t, el) => {
                self.compile_expr(c, ops);
                let jf = ops.len();
                ops.push(Op::JumpIfFalse(0));
                self.compile_expr(t, ops);
                let j = ops.len();
                ops.push(Op::Jump(0));
                let else_at = ops.len();
                ops[jf] = Op::JumpIfFalse(else_at);
                self.compile_expr(el, ops);
                let end = ops.len();
                ops[j] = Op::Jump(end);
            }
            ScalarExpr::Fold(bag, fold) => {
                let counted = self.counted_bag(bag, fold);
                ops.push(Op::Fold(counted));
            }
            ScalarExpr::BagOf(_) => ops.push(Op::MkBag),
        }
    }

    /// The code of the nested bag a fold counts: its `OfValue` source's,
    /// when the compiled `zero`, `sng` and `uni` have the count shape
    /// `fold(0, _ ⟼ 1, (a, b) ⟼ a + b)`. The shape is read off the compiled
    /// code, never off the label [`FoldOp::kind`] — a fold is free to carry
    /// any tag over any lambdas.
    fn counted_bag(&mut self, bag: &'e BagExpr, fold: &'e FoldOp) -> Option<Code> {
        let BagExpr::OfValue(src) = bag else {
            return None;
        };
        let src = self.compile_code(src);
        let zero = self.compile_code(&fold.zero);
        let (sng_slots, sng) = self.compile_lam(&fold.sng);
        let (uni_slots, uni) = self.compile_lam(&fold.uni);
        let counts = matches!(zero.ops.as_slice(), [Op::Const(Value::Int(0))])
            && matches!(sng.ops.as_slice(), [Op::Const(Value::Int(1))])
            && sng_slots.len() == 1
            && matches!(uni.ops.as_slice(),
                [Op::Local(a), Op::Local(b), Op::Bin(BinOp::Add)] if uni_slots == [*a, *b]);
        counts.then_some(src)
    }

    /// A nested lambda's parameter slots and body.
    fn compile_lam(&mut self, lam: &'e Lambda) -> (Vec<usize>, Code) {
        let slots: Vec<usize> = lam.params.iter().map(|p| self.bind(p)).collect();
        let code = self.compile_code(&lam.body);
        self.unbind(lam.params.len());
        (slots, code)
    }
}

/// True when the subtree references no variables and contains no bag
/// computation — i.e. it evaluates to the same result in any environment.
fn is_closed(e: &ScalarExpr) -> bool {
    if matches!(
        e,
        ScalarExpr::Var(_) | ScalarExpr::Fold(..) | ScalarExpr::BagOf(_)
    ) {
        return false;
    }
    let mut closed = true;
    e.for_each_child(|c| closed = closed && matches!(c, Term::Scalar(c) if is_closed(c)));
    closed
}

/// Evaluates a closed subtree with the reference interpreter, so folding
/// reproduces interpreter semantics (including errors) exactly.
fn const_eval(e: &ScalarExpr) -> Result<Value, ValueError> {
    interp::eval_scalar(e, &mut Env::new(&HashMap::new()), &Catalog::new())
}
