//! One-time lambda compilation: slot-based evaluators for UDFs.
//!
//! The deep embedding (PAPER.md §3) keeps every UDF as a quoted AST, which
//! the engines evaluate per row through [`crate::interp`] — a recursive
//! tree-walk with name-based environment lookups on the hottest path of
//! every fused pipeline. This module removes that interpretive overhead the
//! way DryadLINQ-style systems do: each [`Lambda`] (and each `BagExpr` body
//! a FlatMap evaluates per row) is *compiled once per operator* into a
//! [`CompiledEval`] and then executed per row with no name resolution at
//! all:
//!
//! - **Slot resolution.** Every variable reference is classified at compile
//!   time: references to lambda parameters and fold binders become indices
//!   into a flat local-slot array (`Op::Local`), and free variables —
//!   broadcast bags and driver scalars — become indices into a capture
//!   array bound once per operator from the broadcast base scope
//!   (`Op::Capture`). No per-row string comparison or `HashMap` probe
//!   survives.
//! - **Constant folding.** Closed scalar subtrees (no variables, no folds)
//!   are evaluated at compile time by the reference interpreter; a subtree
//!   that evaluates to an error compiles to an `Op::Fail` that reproduces
//!   the identical error at the identical point in evaluation order.
//! - **Flat dispatch.** Expression trees are lowered to a postfix opcode
//!   array executed over a value stack ([`Machine`]); `If` becomes
//!   conditional jumps so only the taken branch is evaluated, exactly as in
//!   the interpreter.
//! - **Nested data by reference.** A `Var.f.g.h` chain walks references from
//!   its slot and clones only the leaf ([`walk_fields`]); a nested bag that
//!   is a fold's, `map`'s, `filter`'s or FlatMap body's source is iterated
//!   through its own `Arc` ([`Rows`]), never copied per evaluation; and a
//!   fold whose compiled `sng` is the identity or a constant, or whose `uni`
//!   is one operator over its parameters, skips those slot programs — the
//!   count shape is the source's length ([`CFold::new`]).
//!
//! The reference interpreter stays untouched as the executable
//! specification: compiled evaluation reuses [`interp::eval_binop`] and
//! [`interp::eval_builtin`] for primitive semantics, and the differential
//! suite in `tests/` proves `CompiledEval` agrees with `interp` on
//! arbitrary expression trees — values *and* errors.

use std::collections::HashMap;
use std::sync::Arc;

use emma_core::ops::{self, InsertionMap};

use crate::bag_expr::BagExpr;
use crate::expr::{BinOp, BuiltinFn, FoldOp, Lambda, ScalarExpr, Term, UnOp};
use crate::interp::{self, Catalog, Env};
use crate::value::{Value, ValueError};

// ------------------------------------------------------------------ opcodes

/// A postfix instruction over the value stack.
///
/// `pub(crate)` so the vectorized tier ([`crate::vectorized`]) can classify
/// and re-specialize the same slot programs without re-lowering the AST.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// Push a (folded) constant.
    Const(Value),
    /// Fail with a compile-time-determined error (a closed subtree whose
    /// evaluation errors — e.g. a literal division by zero).
    Fail(ValueError),
    /// Push a clone of local slot `n` (lambda parameter or fold binder).
    Local(usize),
    /// Push a clone of capture slot `n` (pre-bound broadcast/driver value);
    /// errors with `UnboundVariable` if the name was missing at bind time.
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
    /// Run a nested fold, push its result.
    Fold(Box<CFold>),
    /// Evaluate a nested bag expression, push it as a `Value::Bag`.
    MkBag(Box<CBagNode>),
}

/// A compiled scalar expression: a flat opcode array that leaves exactly one
/// value on the stack.
#[derive(Clone, Debug)]
pub(crate) struct Code {
    pub(crate) ops: Vec<Op>,
}

/// A compiled lambda nested inside an expression (fold `sng`/`uni`, bag
/// `Map`/`Filter`/`GroupBy`/`AggBy` functions): parameter slots plus a body.
#[derive(Clone, Debug)]
pub(crate) struct CLam {
    slots: Vec<usize>,
    code: Code,
}

/// A compiled reified fold (`ScalarExpr::Fold`), with the shape of its step
/// read once off the compiled `zero`/`sng`/`uni` code (see [`CFold::new`]).
#[derive(Clone, Debug)]
pub(crate) struct CFold {
    bag: CBagNode,
    zero: Code,
    sng: CLam,
    uni: CLam,
    sng_shape: SngShape,
    /// `Some(op)` when `uni` is `op` applied to its two parameters in order.
    uni_bin: Option<BinOp>,
    /// `fold(0, _ ⟼ 1, +)`: the result is the source's length.
    counts: bool,
}

/// What a fold's `sng` does with its element, when that is readable from
/// its code: only `Run` needs the slot program executed per element.
#[derive(Clone, Debug)]
enum SngShape {
    Identity,
    Const(Value),
    Run,
}

impl CFold {
    /// Classifies the step from the *compiled code*, never from the label
    /// [`FoldOp::kind`] — a fold is free to carry any tag over any lambdas.
    fn new(bag: CBagNode, zero: Code, sng: CLam, uni: CLam) -> Self {
        let sng_shape = match sng.code.ops.as_slice() {
            [Op::Local(s)] if sng.slots == [*s] => SngShape::Identity,
            [Op::Const(v)] if sng.slots.len() == 1 => SngShape::Const(v.clone()),
            _ => SngShape::Run,
        };
        let uni_bin = match uni.code.ops.as_slice() {
            [Op::Local(a), Op::Local(b), Op::Bin(op)] if uni.slots == [*a, *b] => Some(*op),
            _ => None,
        };
        let counts = matches!(zero.ops.as_slice(), [Op::Const(Value::Int(0))])
            && matches!(sng_shape, SngShape::Const(Value::Int(1)))
            && uni_bin == Some(BinOp::Add);
        CFold {
            bag,
            zero,
            sng,
            uni,
            sng_shape,
            uni_bin,
            counts,
        }
    }

    /// The code of the nested bag a `count` reads, when this fold counts
    /// the elements of an `OfValue`: its result is that bag's length.
    pub(crate) fn counted_bag(&self) -> Option<&Code> {
        match &self.bag {
            CBagNode::OfValue(code) if self.counts => Some(code),
            _ => None,
        }
    }
}

/// A compiled bag expression, mirroring [`BagExpr`] with pre-resolved
/// variable references and compiled element functions.
#[derive(Clone, Debug)]
pub(crate) enum CBagNode {
    Read(String),
    Values(Vec<Value>),
    RefLocal(usize),
    RefCapture(usize),
    OfValue(Code),
    Map {
        input: Box<CBagNode>,
        f: CLam,
    },
    Filter {
        input: Box<CBagNode>,
        p: CLam,
    },
    FlatMap {
        input: Box<CBagNode>,
        slot: usize,
        body: Box<CBagNode>,
    },
    GroupBy {
        input: Box<CBagNode>,
        key: CLam,
    },
    AggBy {
        input: Box<CBagNode>,
        key: CLam,
        zero: Code,
        sng: CLam,
        uni: CLam,
    },
    Plus(Box<CBagNode>, Box<CBagNode>),
    Minus(Box<CBagNode>, Box<CBagNode>),
    Distinct(Box<CBagNode>),
}

// ----------------------------------------------------------------- machine

/// Mutable per-worker evaluation state: the local-slot array and the value
/// stack. One `Machine` is reused across all rows a worker evaluates (the
/// compiled analogue of reusing one [`Env`] per partition).
#[derive(Clone, Debug, Default)]
pub struct Machine {
    locals: Vec<Value>,
    stack: Vec<Value>,
}

impl Machine {
    /// An empty machine; slot storage grows on first use.
    pub fn new() -> Self {
        Machine::default()
    }

    fn ensure_locals(&mut self, n: usize) {
        if self.locals.len() < n {
            self.locals.resize(n, Value::Null);
        }
    }
}

// ---------------------------------------------------------- compiled units

/// A lambda lowered to slot-based form. Compile once per operator with
/// [`compile_lambda`], bind captures once per operator execution with
/// [`CompiledEval::bind`], then evaluate per row with
/// [`CompiledEval::eval`].
#[derive(Clone, Debug)]
pub struct CompiledEval {
    pub(crate) arity: usize,
    n_locals: usize,
    captures: Vec<String>,
    pub(crate) code: Code,
}

/// A FlatMap body (`param` bound per row, body a bag expression) lowered to
/// slot-based form; see [`compile_bag_body`].
#[derive(Clone, Debug)]
pub struct CompiledBag {
    n_locals: usize,
    captures: Vec<String>,
    body: CBagNode,
}

impl CompiledEval {
    /// Free-variable names in capture-slot order.
    pub fn captures(&self) -> &[String] {
        &self.captures
    }

    /// Resolves the capture slots against a broadcast base scope. Names
    /// missing from `base` bind to `None` and reproduce the interpreter's
    /// `UnboundVariable` error if (and only if) the slot is actually read.
    pub fn bind(&self, base: &HashMap<String, Value>) -> Vec<Option<Value>> {
        bind_captures(&self.captures, base)
    }

    /// Applies the compiled lambda to argument values.
    pub fn eval(
        &self,
        args: &[Value],
        caps: &[Option<Value>],
        m: &mut Machine,
        catalog: &Catalog,
    ) -> Result<Value, ValueError> {
        assert_eq!(self.arity, args.len(), "lambda arity mismatch");
        m.ensure_locals(self.n_locals);
        m.stack.clear();
        for (slot, a) in args.iter().enumerate() {
            m.locals[slot] = a.clone();
        }
        let rt = Rt {
            captures: &self.captures,
            caps,
            catalog,
        };
        rt.run(&self.code, m)
    }

    /// Applies the compiled lambda to argument values the caller owns.
    ///
    /// [`eval`](Self::eval) clones every argument into its local slot, which
    /// on `Arc`-backed values (tuples, bags, strings) is a refcount
    /// round-trip per row. Callers that own the row — fused pipelines
    /// threading a register-resident value through the stage chain, fold
    /// combiners consuming their accumulator — move the arguments in
    /// instead.
    pub fn eval_owned<const N: usize>(
        &self,
        args: [Value; N],
        caps: &[Option<Value>],
        m: &mut Machine,
        catalog: &Catalog,
    ) -> Result<Value, ValueError> {
        assert_eq!(self.arity, N, "lambda arity mismatch");
        m.ensure_locals(self.n_locals);
        m.stack.clear();
        for (slot, a) in args.into_iter().enumerate() {
            m.locals[slot] = a;
        }
        let rt = Rt {
            captures: &self.captures,
            caps,
            catalog,
        };
        rt.run(&self.code, m)
    }
}

impl CompiledBag {
    /// Free-variable names in capture-slot order.
    pub fn captures(&self) -> &[String] {
        &self.captures
    }

    /// Resolves the capture slots against a broadcast base scope (see
    /// [`CompiledEval::bind`]).
    pub fn bind(&self, base: &HashMap<String, Value>) -> Vec<Option<Value>> {
        bind_captures(&self.captures, base)
    }

    /// Evaluates the compiled bag body with the element parameter bound to
    /// `arg` and then hands each produced row to `sink`, in order. The body
    /// is evaluated whole before the first row is handed over, so an error
    /// in it precedes any error of `sink`; a body that is a nested bag of
    /// the row is read in place.
    pub fn eval(
        &self,
        arg: Value,
        caps: &[Option<Value>],
        m: &mut Machine,
        catalog: &Catalog,
        mut sink: impl FnMut(Value) -> Result<(), ValueError>,
    ) -> Result<(), ValueError> {
        m.ensure_locals(self.n_locals);
        m.stack.clear();
        m.locals[0] = arg;
        let rt = Rt {
            captures: &self.captures,
            caps,
            catalog,
        };
        rt.rows(&self.body, m)?.try_fold((), |(), row| sink(row))
    }
}

fn bind_captures(names: &[String], base: &HashMap<String, Value>) -> Vec<Option<Value>> {
    names.iter().map(|n| base.get(n).cloned()).collect()
}

/// Compiles a lambda to slot-based form.
pub fn compile_lambda(lam: &Lambda) -> CompiledEval {
    let mut c = Compiler::default();
    for p in &lam.params {
        c.bind(p);
    }
    let code = c.compile_code(&lam.body);
    c.unbind(lam.params.len());
    CompiledEval {
        arity: lam.params.len(),
        n_locals: c.n_locals,
        captures: c.captures,
        code,
    }
}

/// Compiles a FlatMap body (`param` bound to the current row) to slot-based
/// form. The parameter occupies local slot 0.
pub fn compile_bag_body(param: &str, body: &BagExpr) -> CompiledBag {
    let mut c = Compiler::default();
    c.bind(param);
    let node = c.compile_bag(body);
    c.unbind(1);
    CompiledBag {
        n_locals: c.n_locals,
        captures: c.captures,
        body: node,
    }
}

// ------------------------------------------------------- name collection

/// Every variable and bag-reference name at or below `t` (including names
/// bound within it), pre-order, borrowed from the term. Used by the engine
/// to [`Env::prefetch`] base-scope bindings on the interpreted path;
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
    n_locals: usize,
}

impl<'e> Compiler<'e> {
    fn bind(&mut self, name: &'e str) -> usize {
        let slot = self.scopes.len();
        self.scopes.push(name);
        self.n_locals = self.n_locals.max(self.scopes.len());
        slot
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
        // row — do it once now, preserving the interpreter's result exactly
        // (including errors, which stay at their position in left-to-right
        // evaluation order as an `Op::Fail`).
        if is_closed(e) {
            match const_eval(e) {
                Ok(v) => ops.push(Op::Const(v)),
                Err(err) => ops.push(Op::Fail(err)),
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
                let f = self.compile_fold(bag, fold);
                ops.push(Op::Fold(Box::new(f)));
            }
            ScalarExpr::BagOf(bag) => {
                let node = self.compile_bag(bag);
                ops.push(Op::MkBag(Box::new(node)));
            }
        }
    }

    fn compile_fold(&mut self, bag: &'e BagExpr, fold: &'e FoldOp) -> CFold {
        CFold::new(
            self.compile_bag(bag),
            self.compile_code(&fold.zero),
            self.compile_lam(&fold.sng),
            self.compile_lam(&fold.uni),
        )
    }

    fn compile_lam(&mut self, lam: &'e Lambda) -> CLam {
        let slots: Vec<usize> = lam.params.iter().map(|p| self.bind(p)).collect();
        let code = self.compile_code(&lam.body);
        self.unbind(lam.params.len());
        CLam { slots, code }
    }

    fn compile_bag(&mut self, b: &'e BagExpr) -> CBagNode {
        match b {
            BagExpr::Read { source } => CBagNode::Read(source.clone()),
            BagExpr::Values(vs) => CBagNode::Values(vs.clone()),
            BagExpr::Ref { name } => match self.local(name) {
                Some(slot) => CBagNode::RefLocal(slot),
                None => {
                    let c = self.capture(name);
                    CBagNode::RefCapture(c)
                }
            },
            BagExpr::OfValue(e) => CBagNode::OfValue(self.compile_code(e)),
            BagExpr::Map { input, f } => CBagNode::Map {
                input: Box::new(self.compile_bag(input)),
                f: self.compile_lam(f),
            },
            BagExpr::Filter { input, p } => CBagNode::Filter {
                input: Box::new(self.compile_bag(input)),
                p: self.compile_lam(p),
            },
            BagExpr::FlatMap { input, f } => {
                let input = Box::new(self.compile_bag(input));
                let slot = self.bind(&f.param);
                let body = Box::new(self.compile_bag(&f.body));
                self.unbind(1);
                CBagNode::FlatMap { input, slot, body }
            }
            BagExpr::GroupBy { input, key } => CBagNode::GroupBy {
                input: Box::new(self.compile_bag(input)),
                key: self.compile_lam(key),
            },
            BagExpr::AggBy { input, key, fold } => CBagNode::AggBy {
                input: Box::new(self.compile_bag(input)),
                key: self.compile_lam(key),
                zero: self.compile_code(&fold.zero),
                sng: self.compile_lam(&fold.sng),
                uni: self.compile_lam(&fold.uni),
            },
            BagExpr::Plus(l, r) => {
                CBagNode::Plus(Box::new(self.compile_bag(l)), Box::new(self.compile_bag(r)))
            }
            BagExpr::Minus(l, r) => {
                CBagNode::Minus(Box::new(self.compile_bag(l)), Box::new(self.compile_bag(r)))
            }
            BagExpr::Distinct(e) => CBagNode::Distinct(Box::new(self.compile_bag(e))),
        }
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

// --------------------------------------------------------------- evaluator

/// Follows the `Field` ops after `pc` from `v` by reference, leaving `pc` on
/// the last one taken: a `Var.f.g.h` chain clones only its leaf. Whatever
/// precedes them in straight-line code reaches those ops next anyway, so a
/// chain that is also a jump target (an `If` join) reads the same.
fn walk_fields<'v>(mut v: &'v Value, ops: &[Op], pc: &mut usize) -> Result<&'v Value, ValueError> {
    while let Some(Op::Field(i)) = ops.get(*pc + 1) {
        v = v.field(*i)?;
        *pc += 1;
    }
    Ok(v)
}

/// The rows a bag node evaluated to: computed for this evaluation, or a
/// nested bag still inside the value that carries it.
enum Rows {
    Owned(Vec<Value>),
    Shared(Arc<Vec<Value>>),
}

impl Rows {
    fn len(&self) -> usize {
        match self {
            Rows::Owned(v) => v.len(),
            Rows::Shared(a) => a.len(),
        }
    }

    fn into_vec(self) -> Vec<Value> {
        match self {
            Rows::Owned(v) => v,
            Rows::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| a.to_vec()),
        }
    }

    /// Folds the rows in order — computed rows by move, shared ones by a
    /// clone of just that row — stopping at the first error.
    fn try_fold<A>(
        self,
        init: A,
        f: impl FnMut(A, Value) -> Result<A, ValueError>,
    ) -> Result<A, ValueError> {
        match self {
            Rows::Owned(v) => v.into_iter().try_fold(init, f),
            Rows::Shared(a) => a.iter().cloned().try_fold(init, f),
        }
    }
}

/// Per-evaluation context threaded through opcode execution.
struct Rt<'r> {
    captures: &'r [String],
    caps: &'r [Option<Value>],
    catalog: &'r Catalog,
}

impl Rt<'_> {
    fn run(&self, code: &Code, m: &mut Machine) -> Result<Value, ValueError> {
        let ops = &code.ops;
        let mut pc = 0usize;
        while let Some(op) = ops.get(pc) {
            match op {
                Op::Const(v) => m.stack.push(v.clone()),
                Op::Fail(e) => return Err(e.clone()),
                Op::Local(slot) => {
                    let v = walk_fields(&m.locals[*slot], ops, &mut pc)?.clone();
                    m.stack.push(v);
                }
                Op::Capture(c) => {
                    let v = walk_fields(self.capture(*c)?, ops, &mut pc)?.clone();
                    m.stack.push(v);
                }
                Op::Field(i) => {
                    let v = m.stack.pop().expect("operand on stack");
                    m.stack.push(v.field(*i)?.clone());
                }
                Op::Bin(op) => {
                    let r = m.stack.pop().expect("operand on stack");
                    let l = m.stack.pop().expect("operand on stack");
                    m.stack.push(interp::eval_binop(*op, l, r)?);
                }
                Op::Un(op) => {
                    let v = m.stack.pop().expect("operand on stack");
                    let out = match op {
                        UnOp::Not => Value::Bool(!v.as_bool()?),
                        UnOp::Neg => match v {
                            Value::Int(i) => Value::Int(-i),
                            Value::Float(f) => Value::Float(-f),
                            other => return Err(ValueError::type_mismatch("number", &other)),
                        },
                    };
                    m.stack.push(out);
                }
                Op::Call(f, n) => {
                    let at = m.stack.len() - n;
                    let out = interp::eval_builtin(*f, &m.stack[at..])?;
                    m.stack.truncate(at);
                    m.stack.push(out);
                }
                Op::Tuple(n) => {
                    let at = m.stack.len() - n;
                    let vs: Arc<[Value]> = m.stack.drain(at..).collect();
                    m.stack.push(Value::Tuple(vs));
                }
                Op::JumpIfFalse(target) => {
                    let c = m.stack.pop().expect("operand on stack").as_bool()?;
                    if !c {
                        pc = *target;
                        continue;
                    }
                }
                Op::Jump(target) => {
                    pc = *target;
                    continue;
                }
                Op::Fold(f) => {
                    let v = self.fold(f, m)?;
                    m.stack.push(v);
                }
                Op::MkBag(b) => {
                    let rows = self.bag(b, m)?;
                    m.stack.push(Value::bag(rows));
                }
            }
            pc += 1;
        }
        Ok(m.stack.pop().expect("code leaves one value"))
    }

    fn apply1(&self, lam: &CLam, a: Value, m: &mut Machine) -> Result<Value, ValueError> {
        assert_eq!(lam.slots.len(), 1, "lambda arity mismatch");
        m.locals[lam.slots[0]] = a;
        self.run(&lam.code, m)
    }

    fn apply2(&self, lam: &CLam, a: Value, b: Value, m: &mut Machine) -> Result<Value, ValueError> {
        assert_eq!(lam.slots.len(), 2, "lambda arity mismatch");
        m.locals[lam.slots[0]] = a;
        m.locals[lam.slots[1]] = b;
        self.run(&lam.code, m)
    }

    fn capture(&self, c: usize) -> Result<&Value, ValueError> {
        self.caps[c]
            .as_ref()
            .ok_or_else(|| ValueError::UnboundVariable(self.captures[c].clone()))
    }

    fn fold(&self, f: &CFold, m: &mut Machine) -> Result<Value, ValueError> {
        let elems = self.rows(&f.bag, m)?;
        if f.counts {
            return Ok(Value::Int(elems.len() as i64));
        }
        let zero = self.run(&f.zero, m)?;
        elems.try_fold(zero, |acc, x| {
            let part = match &f.sng_shape {
                SngShape::Identity => x,
                SngShape::Const(v) => v.clone(),
                SngShape::Run => self.apply1(&f.sng, x, m)?,
            };
            match f.uni_bin {
                Some(op) => interp::eval_binop(op, acc, part),
                None => self.apply2(&f.uni, acc, part, m),
            }
        })
    }

    /// The rows of a bag node without copying a nested bag: a bag-valued
    /// local, capture or scalar result is read through its own `Arc`.
    fn rows(&self, b: &CBagNode, m: &mut Machine) -> Result<Rows, ValueError> {
        let v = match b {
            CBagNode::RefLocal(slot) => m.locals[*slot].clone(),
            CBagNode::RefCapture(c) => self.capture(*c)?.clone(),
            CBagNode::OfValue(code) => self.run(code, m)?,
            _ => return Ok(Rows::Owned(self.bag(b, m)?)),
        };
        match v {
            Value::Bag(rows) => Ok(Rows::Shared(rows)),
            other => Err(ValueError::type_mismatch("Bag", &other)),
        }
    }

    fn bag(&self, b: &CBagNode, m: &mut Machine) -> Result<Vec<Value>, ValueError> {
        match b {
            CBagNode::Read(source) => self.catalog.get(source).cloned(),
            CBagNode::Values(vs) => Ok(vs.clone()),
            CBagNode::RefLocal(_) | CBagNode::RefCapture(_) | CBagNode::OfValue(_) => {
                Ok(self.rows(b, m)?.into_vec())
            }
            CBagNode::Map { input, f } => {
                let xs = self.rows(input, m)?;
                let out = Vec::with_capacity(xs.len());
                xs.try_fold(out, |mut out, x| {
                    out.push(self.apply1(f, x, m)?);
                    Ok(out)
                })
            }
            CBagNode::Filter { input, p } => {
                self.rows(input, m)?.try_fold(Vec::new(), |mut out, x| {
                    if self.apply1(p, x.clone(), m)?.as_bool()? {
                        out.push(x);
                    }
                    Ok(out)
                })
            }
            CBagNode::FlatMap { input, slot, body } => {
                self.rows(input, m)?.try_fold(Vec::new(), |out, x| {
                    m.locals[*slot] = x;
                    self.rows(body, m)?.try_fold(out, |mut out, y| {
                        out.push(y);
                        Ok(out)
                    })
                })
            }
            CBagNode::GroupBy { input, key } => {
                let xs = self.bag(input, m)?;
                let keyed =
                    |m: &mut Machine, x: &Value| self.apply1(key, x.clone(), m).map(ops::hashed);
                Ok(interp::group_rows(ops::group(xs, m, keyed)?))
            }
            CBagNode::AggBy {
                input,
                key,
                zero,
                sng,
                uni,
            } => {
                let xs = self.bag(input, m)?;
                let zero = self.run(zero, m)?;
                let mut accs = InsertionMap::new();
                ops::agg(
                    &mut accs,
                    xs,
                    m,
                    |m, x| self.apply1(key, x.clone(), m).map(ops::hashed),
                    &zero,
                    |m, x| self.apply1(sng, x, m),
                    |m, a, b| self.apply2(uni, a, b, m),
                )?;
                Ok(interp::agg_rows(accs))
            }
            CBagNode::Plus(l, r) => {
                let mut xs = self.bag(l, m)?;
                xs.extend(self.bag(r, m)?);
                Ok(xs)
            }
            CBagNode::Minus(l, r) => {
                let xs = self.bag(l, m)?;
                let ys = self.bag(r, m)?;
                Ok(ops::minus(xs, ys).collect())
            }
            CBagNode::Distinct(e) => Ok(ops::distinct(self.bag(e, m)?.iter()).cloned().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag_expr::BagLambda;
    use crate::expr::FoldOp;

    fn eval_both(
        lam: &Lambda,
        args: &[Value],
        base: &HashMap<String, Value>,
        catalog: &Catalog,
    ) -> (Result<Value, ValueError>, Result<Value, ValueError>) {
        let mut env = Env::new(base);
        let want = interp::eval_lambda(lam, args, &mut env, catalog);
        let compiled = compile_lambda(lam);
        let caps = compiled.bind(base);
        let mut m = Machine::new();
        let got = compiled.eval(args, &caps, &mut m, catalog);
        (want, got)
    }

    fn check(lam: &Lambda, args: &[Value], base: &HashMap<String, Value>, catalog: &Catalog) {
        let (want, got) = eval_both(lam, args, base, catalog);
        assert_eq!(want, got, "lambda {lam:?} on {args:?}");
    }

    #[test]
    fn params_resolve_to_slots() {
        let lam = Lambda::new(
            ["x", "y"],
            ScalarExpr::var("x")
                .add(ScalarExpr::var("y"))
                .mul(ScalarExpr::lit(2i64)),
        );
        check(
            &lam,
            &[Value::Int(3), Value::Int(4)],
            &HashMap::new(),
            &Catalog::new(),
        );
    }

    #[test]
    fn captures_bind_from_base() {
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::var("x").add(ScalarExpr::var("threshold")),
        );
        let mut base = HashMap::new();
        base.insert("threshold".to_string(), Value::Int(10));
        check(&lam, &[Value::Int(5)], &base, &Catalog::new());
    }

    #[test]
    fn unbound_capture_matches_interpreter_error() {
        let lam = Lambda::new(["x"], ScalarExpr::var("missing"));
        check(&lam, &[Value::Int(1)], &HashMap::new(), &Catalog::new());
        let (want, got) = eval_both(&lam, &[Value::Int(1)], &HashMap::new(), &Catalog::new());
        assert!(matches!(want, Err(ValueError::UnboundVariable(_))));
        assert_eq!(want, got);
    }

    #[test]
    fn unbound_capture_in_untaken_branch_is_not_an_error() {
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::If(
                Box::new(ScalarExpr::lit(true)),
                Box::new(ScalarExpr::var("x")),
                Box::new(ScalarExpr::var("missing")),
            ),
        );
        let (want, got) = eval_both(&lam, &[Value::Int(7)], &HashMap::new(), &Catalog::new());
        assert_eq!(want, Ok(Value::Int(7)));
        assert_eq!(want, got);
    }

    #[test]
    fn closed_subtrees_fold_including_errors() {
        // (1 + 2) is folded; (1 / 0) folds to the interpreter's error.
        let ok = Lambda::new(["x"], ScalarExpr::lit(1i64).add(ScalarExpr::lit(2i64)));
        let compiled = compile_lambda(&ok);
        assert!(matches!(compiled.code.ops.as_slice(), [Op::Const(_)]));
        check(&ok, &[Value::Int(0)], &HashMap::new(), &Catalog::new());

        let err = Lambda::new(
            ["x"],
            ScalarExpr::var("x").add(ScalarExpr::lit(1i64).div(ScalarExpr::lit(0i64))),
        );
        check(&err, &[Value::Int(0)], &HashMap::new(), &Catalog::new());
    }

    #[test]
    fn folds_and_nested_bags_agree() {
        let catalog = Catalog::new().with("xs", (0..10).map(Value::Int).collect::<Vec<_>>());
        let mut base = HashMap::new();
        base.insert(
            "bs".to_string(),
            Value::bag((0..4).map(Value::Int).collect::<Vec<_>>()),
        );
        // λx. bs.filter(b => b < x).count() — a nested fold over a broadcast
        // bag with a capture inside the element lambda.
        let lam = Lambda::new(
            ["x"],
            BagExpr::Ref { name: "bs".into() }
                .filter(Lambda::new(
                    ["b"],
                    ScalarExpr::var("b").lt(ScalarExpr::var("x")),
                ))
                .fold(FoldOp::count()),
        );
        check(&lam, &[Value::Int(2)], &base, &catalog);
        check(&lam, &[Value::Int(9)], &base, &catalog);
    }

    #[test]
    fn shadowing_matches_interpreter() {
        // The fold binder shadows both the parameter and a base binding.
        let mut base = HashMap::new();
        base.insert("x".to_string(), Value::Int(100));
        let lam = Lambda::new(
            ["x"],
            BagExpr::values(vec![Value::Int(1), Value::Int(2)])
                .map(Lambda::new(
                    ["x"],
                    ScalarExpr::var("x").mul(ScalarExpr::lit(10i64)),
                ))
                .fold(FoldOp::sum())
                .add(ScalarExpr::var("x")),
        );
        check(&lam, &[Value::Int(5)], &base, &Catalog::new());
    }

    #[test]
    fn compiled_bag_body_matches_interpreter() {
        let catalog = Catalog::new();
        let base: HashMap<String, Value> = HashMap::new();
        let body = BagExpr::values(vec![Value::Int(0), Value::Int(1), Value::Int(2)])
            .map(Lambda::new(
                ["d"],
                ScalarExpr::var("x").add(ScalarExpr::var("d")),
            ))
            .filter(Lambda::new(
                ["y"],
                ScalarExpr::var("y").gt(ScalarExpr::lit(3i64)),
            ));
        let row = Value::Int(3);
        let mut env = Env::new(&base);
        let want = interp::eval_bag_with_binding(&body, "x", row.clone(), &mut env, &catalog);
        let compiled = compile_bag_body("x", &body);
        let caps = compiled.bind(&base);
        let mut m = Machine::new();
        let mut got = Vec::new();
        let res = compiled.eval(row, &caps, &mut m, &catalog, |v| {
            got.push(v);
            Ok(())
        });
        assert_eq!(want, res.map(|()| got));
    }

    #[test]
    fn flat_map_group_by_agg_by_agree() {
        let catalog = Catalog::new();
        let rows: Vec<Value> = (0..12)
            .map(|i| Value::tuple(vec![Value::Int(i % 3), Value::Int(i)]))
            .collect();
        let grouped =
            BagExpr::values(rows.clone()).group_by(Lambda::new(["t"], ScalarExpr::var("t").get(0)));
        let agged = BagExpr::AggBy {
            input: Box::new(BagExpr::values(rows)),
            key: Lambda::new(["t"], ScalarExpr::var("t").get(0)),
            fold: FoldOp::custom(
                ScalarExpr::lit(0i64),
                Lambda::new(["t"], ScalarExpr::var("t").get(1)),
                Lambda::new(["a", "b"], ScalarExpr::var("a").add(ScalarExpr::var("b"))),
            ),
        };
        let fm = BagExpr::FlatMap {
            input: Box::new(BagExpr::values(vec![Value::Int(0), Value::Int(1)])),
            f: Box::new(BagLambda::new(
                "d",
                BagExpr::values(vec![Value::Int(10)]).map(Lambda::new(
                    ["v"],
                    ScalarExpr::var("v").add(ScalarExpr::var("d")),
                )),
            )),
        };
        for bag in [grouped, agged, fm] {
            let lam = Lambda::new(["u"], ScalarExpr::BagOf(Box::new(bag)));
            check(&lam, &[Value::Int(0)], &HashMap::new(), &catalog);
        }
    }

    #[test]
    fn eval_owned_matches_eval() {
        let lam = Lambda::new(
            ["a", "b"],
            ScalarExpr::var("a")
                .get(0)
                .add(ScalarExpr::var("b"))
                .mul(ScalarExpr::lit(3i64)),
        );
        let compiled = compile_lambda(&lam);
        let caps = compiled.bind(&HashMap::new());
        let catalog = Catalog::new();
        let mut m = Machine::new();
        for i in 0..5i64 {
            let a = Value::tuple(vec![Value::Int(i), Value::Int(-i)]);
            let b = Value::Int(i * 7);
            let want = compiled.eval(&[a.clone(), b.clone()], &caps, &mut m, &catalog);
            let got = compiled.eval_owned([a, b], &caps, &mut m, &catalog);
            assert_eq!(want, got);
        }
        // Errors come through identically too.
        let bad = Lambda::new(["x"], ScalarExpr::var("x").div(ScalarExpr::var("x")));
        let compiled = compile_lambda(&bad);
        let caps = compiled.bind(&HashMap::new());
        let want = compiled.eval(&[Value::Int(0)], &caps, &mut m, &catalog);
        let got = compiled.eval_owned([Value::Int(0)], &caps, &mut m, &catalog);
        assert!(want.is_err());
        assert_eq!(want, got);
    }

    #[test]
    fn machine_reuse_across_rows_is_clean() {
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::If(
                Box::new(ScalarExpr::var("x").gt(ScalarExpr::lit(0i64))),
                Box::new(ScalarExpr::var("x")),
                Box::new(ScalarExpr::var("x").mul(ScalarExpr::lit(-1i64))),
            ),
        );
        let compiled = compile_lambda(&lam);
        let caps = compiled.bind(&HashMap::new());
        let catalog = Catalog::new();
        let mut m = Machine::new();
        for i in [-5i64, 3, 0, 7, -1] {
            let got = compiled
                .eval(&[Value::Int(i)], &caps, &mut m, &catalog)
                .unwrap();
            assert_eq!(got, Value::Int(i.abs()));
        }
    }
}
