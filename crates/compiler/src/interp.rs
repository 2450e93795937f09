//! Reference interpreter: *host-language execution* of quoted programs.
//!
//! The paper stresses that `DataBag` operators are not abstract — they have
//! direct sequential semantics, so programs can be developed and debugged
//! locally before being `parallelize`d. This module is that semantics for the
//! quoted form: it evaluates [`ScalarExpr`]/[`BagExpr`]/[`Program`] directly,
//! with no optimization and no parallelism.
//!
//! It serves three roles:
//!
//! 1. the executable *specification* the distributed engines must match
//!    (differential tests compare engine output against this interpreter);
//! 2. the evaluator the engines themselves reuse for UDF lambdas (including
//!    nested folds over broadcast bags); and
//! 3. the driver-side evaluator for scalar control-flow expressions.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use emma_core::ops::{self, InsertionMap};

use crate::bag_expr::BagExpr;
use crate::expr::{BinOp, BuiltinFn, FoldOp, Lambda, ScalarExpr, Term, UnOp};
use crate::program::{Program, RValue, Stmt};
use crate::value::{Value, ValueError};

/// Named input datasets (the storage layer the program `read`s from).
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    datasets: HashMap<String, Dataset>,
}

/// What a reader built from a dataset's rows, by its type and the partition
/// count it asked for.
type Derived = HashMap<(TypeId, usize), Arc<dyn Any + Send + Sync>>;

/// One dataset: its rows and what readers derived from them
/// ([`Catalog::derived`]). Both go when the name is registered again.
struct Dataset {
    rows: Vec<Value>,
    derived: Mutex<Derived>,
}

impl Dataset {
    fn derived(&self) -> MutexGuard<'_, Derived> {
        // Entries are inserted whole, so the map is valid whatever panicked.
        self.derived.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for Dataset {
    /// Equal rows: what was derived from them stays shared.
    fn clone(&self) -> Self {
        Dataset {
            rows: self.rows.clone(),
            derived: Mutex::new(self.derived().clone()),
        }
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.rows.fmt(f)
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a dataset under `name` (replacing any previous one).
    pub fn insert(&mut self, name: impl Into<String>, rows: Vec<Value>) -> &mut Self {
        let derived = Mutex::default();
        self.datasets.insert(name.into(), Dataset { rows, derived });
        self
    }

    /// Builder-style registration.
    pub fn with(mut self, name: impl Into<String>, rows: Vec<Value>) -> Self {
        self.insert(name, rows);
        self
    }

    /// Looks up a dataset.
    pub fn get(&self, name: &str) -> Result<&Vec<Value>, ValueError> {
        self.dataset(name).map(|d| &d.rows)
    }

    fn dataset(&self, name: &str) -> Result<&Dataset, ValueError> {
        self.datasets
            .get(name)
            .ok_or_else(|| ValueError::Unknown(format!("dataset `{name}`")))
    }

    /// What a reader derives from dataset `name` for `parts` partitions — an
    /// engine's physical layout of it, say: built from the rows by the first
    /// caller that asks for this `T` and `parts`, shared by every later one,
    /// and dropped when [`insert`](Self::insert) replaces the name. Callers
    /// asking at once wait for the one that builds.
    pub fn derived<T: Any + Send + Sync>(
        &self,
        name: &str,
        parts: usize,
        build: impl FnOnce(&[Value]) -> T,
    ) -> Result<Arc<T>, ValueError> {
        let dataset = self.dataset(name)?;
        let entry = Arc::clone(
            dataset
                .derived()
                .entry((TypeId::of::<T>(), parts))
                .or_insert_with(|| Arc::new(build(&dataset.rows))),
        );
        Ok(entry.downcast().expect("keyed by the type it holds"))
    }

    /// Names of all registered datasets.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.datasets.keys().map(String::as_str)
    }
}

/// A lexical environment: a base scope (driver variables / broadcasts) plus a
/// stack of lambda-local bindings.
///
/// Local binding names are borrowed from the expressions being evaluated
/// (lambda parameter lists live at least as long as any evaluation over
/// them), so pushing a binding is allocation-free — this sits on the
/// per-row, per-operator hot path of both the reference interpreter and the
/// engine's fused pipelines.
pub struct Env<'a> {
    base: &'a HashMap<String, Value>,
    locals: Vec<(&'a str, Value)>,
}

impl<'a> Env<'a> {
    /// Creates an environment over a base scope.
    pub fn new(base: &'a HashMap<String, Value>) -> Self {
        Env {
            base,
            locals: Vec::new(),
        }
    }

    /// Looks up a variable, innermost binding first.
    pub(crate) fn lookup(&self, name: &str) -> Result<&Value, ValueError> {
        self.locals
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .or_else(|| self.base.get(name))
            .ok_or_else(|| ValueError::UnboundVariable(name.to_string()))
    }

    /// Pre-resolves base-scope bindings as outermost locals, so later
    /// [`lookup`](Env::lookup)s of those names hit the linear local scan
    /// instead of probing the base `HashMap` on every row.
    ///
    /// Names absent from the base scope are skipped (an actually-unbound
    /// variable still errors at lookup time), and bindings pushed later —
    /// lambda parameters, fold binders — shadow prefetched entries exactly
    /// as they shadow base entries, so this is a pure lookup-cost
    /// optimization with no semantic change.
    pub fn prefetch(&mut self, names: impl IntoIterator<Item = &'a str>) {
        for name in names {
            if self.locals.iter().all(|(n, _)| *n != name) {
                if let Some(v) = self.base.get(name) {
                    self.locals.push((name, v.clone()));
                }
            }
        }
    }

    fn push(&mut self, name: &'a str, value: Value) {
        self.locals.push((name, value));
    }

    fn pop(&mut self, n: usize) {
        self.locals.truncate(self.locals.len() - n);
    }
}

/// Every variable and bag-reference name at or below `t` (including names
/// bound within it), pre-order, borrowed from the term: the names to
/// [`Env::prefetch`] for a UDF. Prefetching a bound name is harmless,
/// because later binder pushes shadow it.
pub fn var_names(t: Term<'_>) -> Vec<&str> {
    let mut out = Vec::new();
    t.walk(&mut |t| {
        if let Term::Scalar(ScalarExpr::Var(n)) | Term::Bag(BagExpr::Ref { name: n }) = t {
            out.push(n.as_str());
        }
    });
    out
}

/// Evaluates a scalar expression.
pub fn eval_scalar<'a>(
    e: &'a ScalarExpr,
    env: &mut Env<'a>,
    catalog: &Catalog,
) -> Result<Value, ValueError> {
    match e {
        ScalarExpr::Lit(v) => Ok(v.clone()),
        ScalarExpr::Var(n) => env.lookup(n).cloned(),
        ScalarExpr::Field(inner, i) => {
            let v = eval_scalar(inner, env, catalog)?;
            v.field(*i).cloned()
        }
        ScalarExpr::BinOp(op, l, r) => {
            let lv = eval_scalar(l, env, catalog)?;
            let rv = eval_scalar(r, env, catalog)?;
            eval_binop(*op, lv, rv)
        }
        ScalarExpr::UnOp(op, inner) => {
            let v = eval_scalar(inner, env, catalog)?;
            match op {
                UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
                UnOp::Neg => match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(ValueError::type_mismatch("number", &other)),
                },
            }
        }
        ScalarExpr::Call(f, args) => {
            let mut vs = Vec::with_capacity(args.len());
            for a in args {
                vs.push(eval_scalar(a, env, catalog)?);
            }
            eval_builtin(*f, &vs)
        }
        ScalarExpr::Tuple(args) => {
            // One block, filled in place: collecting the fallible field
            // evaluations would go through a `Vec` and copy it.
            let mut vs: Arc<[Value]> = std::iter::repeat_n(Value::Null, args.len()).collect();
            let fields = Arc::get_mut(&mut vs).expect("a fresh tuple is unshared");
            for (field, a) in fields.iter_mut().zip(args) {
                *field = eval_scalar(a, env, catalog)?;
            }
            Ok(Value::Tuple(vs))
        }
        ScalarExpr::If(c, t, el) => {
            if eval_scalar(c, env, catalog)?.as_bool()? {
                eval_scalar(t, env, catalog)
            } else {
                eval_scalar(el, env, catalog)
            }
        }
        ScalarExpr::Fold(bag, fold) => {
            let elems = eval_bag(bag, env, catalog)?;
            eval_fold(fold, &elems, env, catalog)
        }
        ScalarExpr::BagOf(bag) => Ok(Value::bag(eval_bag(bag, env, catalog)?)),
    }
}

/// Applies a reified fold to a slice of elements.
pub(crate) fn eval_fold<'a>(
    fold: &'a FoldOp,
    elems: &[Value],
    env: &mut Env<'a>,
    catalog: &Catalog,
) -> Result<Value, ValueError> {
    let mut acc = eval_scalar(&fold.zero, env, catalog)?;
    for x in elems {
        let part = eval_lambda(&fold.sng, std::slice::from_ref(x), env, catalog)?;
        acc = eval_lambda(&fold.uni, &[acc, part], env, catalog)?;
    }
    Ok(acc)
}

/// Applies a lambda to argument values.
pub fn eval_lambda<'a>(
    lam: &'a Lambda,
    args: &[Value],
    env: &mut Env<'a>,
    catalog: &Catalog,
) -> Result<Value, ValueError> {
    assert_eq!(lam.params.len(), args.len(), "lambda arity mismatch");
    for (p, a) in lam.params.iter().zip(args) {
        env.push(p, a.clone());
    }
    let out = eval_scalar(&lam.body, env, catalog);
    env.pop(lam.params.len());
    out
}

/// Evaluates a bag expression with one element binding in scope — the
/// engine's flatMap bodies (`param` bound to the current row). Equivalent
/// to wrapping the body in a one-parameter lambda, without constructing
/// that lambda per row.
pub fn eval_bag_with_binding<'a>(
    body: &'a BagExpr,
    param: &'a str,
    arg: Value,
    env: &mut Env<'a>,
    catalog: &Catalog,
) -> Result<Vec<Value>, ValueError> {
    env.push(param, arg);
    let out = eval_bag(body, env, catalog);
    env.pop(1);
    out
}

/// Evaluates a bag expression to its elements.
pub(crate) fn eval_bag<'a>(
    b: &'a BagExpr,
    env: &mut Env<'a>,
    catalog: &Catalog,
) -> Result<Vec<Value>, ValueError> {
    match b {
        BagExpr::Read { source } => catalog.get(source).cloned(),
        BagExpr::Values(vs) => Ok(vs.clone()),
        BagExpr::Ref { name } => Ok(env.lookup(name)?.as_bag()?.to_vec()),
        BagExpr::OfValue(e) => Ok(eval_scalar(e, env, catalog)?.as_bag()?.to_vec()),
        BagExpr::Map { input, f } => {
            let xs = eval_bag(input, env, catalog)?;
            xs.into_iter()
                .map(|x| eval_lambda(f, &[x], env, catalog))
                .collect()
        }
        BagExpr::Filter { input, p } => {
            let xs = eval_bag(input, env, catalog)?;
            let mut out = Vec::new();
            for x in xs {
                if eval_lambda(p, std::slice::from_ref(&x), env, catalog)?.as_bool()? {
                    out.push(x);
                }
            }
            Ok(out)
        }
        BagExpr::FlatMap { input, f } => {
            let mut out = Vec::new();
            for x in eval_bag(input, env, catalog)? {
                out.extend(eval_bag_with_binding(&f.body, &f.param, x, env, catalog)?);
            }
            Ok(out)
        }
        BagExpr::GroupBy { input, key } => {
            let xs = eval_bag(input, env, catalog)?;
            let groups = ops::group(xs, env, |env, x| {
                eval_lambda(key, std::slice::from_ref(x), env, catalog).map(ops::hashed)
            })?;
            Ok(group_rows(groups))
        }
        BagExpr::AggBy { input, key, fold } => {
            let xs = eval_bag(input, env, catalog)?;
            let zero = eval_scalar(&fold.zero, env, catalog)?;
            let mut accs = InsertionMap::new();
            ops::agg(
                &mut accs,
                xs,
                env,
                |env, x| eval_lambda(key, std::slice::from_ref(x), env, catalog).map(ops::hashed),
                &zero,
                |env, x| eval_lambda(&fold.sng, &[x], env, catalog),
                |env, a, b| eval_lambda(&fold.uni, &[a, b], env, catalog),
            )?;
            Ok(agg_rows(accs))
        }
        BagExpr::Plus(l, r) => {
            let mut xs = eval_bag(l, env, catalog)?;
            xs.extend(eval_bag(r, env, catalog)?);
            Ok(xs)
        }
        BagExpr::Minus(l, r) => {
            let xs = eval_bag(l, env, catalog)?;
            let ys = eval_bag(r, env, catalog)?;
            Ok(ops::minus(xs, ys).collect())
        }
        BagExpr::Distinct(e) => Ok(ops::distinct(eval_bag(e, env, catalog)?.iter())
            .cloned()
            .collect()),
    }
}

/// The `(key, {{values}})` rows of `groupBy`'s groups, in first-seen order.
pub fn group_rows(groups: InsertionMap<Value, Vec<Value>>) -> Vec<Value> {
    let row = |g: ops::Entry<Value, Vec<Value>>| Value::tuple([g.key, Value::bag(g.value)]);
    groups.into_iter().map(row).collect()
}

/// The `(key, acc)` rows of `aggBy`'s accumulators, in first-seen order.
pub fn agg_rows(accs: InsertionMap<Value, Value>) -> Vec<Value> {
    let row = |a: ops::Entry<Value, Value>| Value::tuple([a.key, a.value]);
    accs.into_iter().map(row).collect()
}

/// Evaluates a binary operator on values.
pub(crate) fn eval_binop(op: BinOp, l: Value, r: Value) -> Result<Value, ValueError> {
    use BinOp::*;
    match op {
        Add => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
            (Value::Vector(a), Value::Vector(b)) => {
                if a.len() != b.len() {
                    return Err(ValueError::Arithmetic(format!(
                        "vector length mismatch: {} vs {}",
                        a.len(),
                        b.len()
                    )));
                }
                Ok(Value::Vector(
                    a.iter().zip(b.iter()).map(|(x, y)| x + y).collect(),
                ))
            }
            _ => Ok(Value::Float(l.as_float()? + r.as_float()?)),
        },
        Sub => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
            _ => Ok(Value::Float(l.as_float()? - r.as_float()?)),
        },
        Mul => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
            (Value::Vector(a), _) => {
                let s = r.as_float()?;
                Ok(Value::Vector(a.iter().map(|x| x * s).collect()))
            }
            (_, Value::Vector(b)) => {
                let s = l.as_float()?;
                Ok(Value::Vector(b.iter().map(|x| x * s).collect()))
            }
            _ => Ok(Value::Float(l.as_float()? * r.as_float()?)),
        },
        Div => match (&l, &r) {
            (Value::Vector(a), _) => {
                let s = r.as_float()?;
                if s == 0.0 {
                    return Err(ValueError::Arithmetic("vector division by zero".into()));
                }
                Ok(Value::Vector(a.iter().map(|x| x / s).collect()))
            }
            _ => {
                let d = r.as_float()?;
                if d == 0.0 {
                    return Err(ValueError::Arithmetic("division by zero".into()));
                }
                Ok(Value::Float(l.as_float()? / d))
            }
        },
        Mod => {
            let a = l.as_int()?;
            let b = r.as_int()?;
            if b == 0 {
                return Err(ValueError::Arithmetic("modulo by zero".into()));
            }
            Ok(Value::Int(a.rem_euclid(b)))
        }
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        Lt => Ok(Value::Bool(l < r)),
        Le => Ok(Value::Bool(l <= r)),
        Gt => Ok(Value::Bool(l > r)),
        Ge => Ok(Value::Bool(l >= r)),
        And => Ok(Value::Bool(l.as_bool()? && r.as_bool()?)),
        Or => Ok(Value::Bool(l.as_bool()? || r.as_bool()?)),
    }
}

/// Evaluates a builtin function on values.
pub(crate) fn eval_builtin(f: BuiltinFn, args: &[Value]) -> Result<Value, ValueError> {
    match f {
        BuiltinFn::Sqrt => Ok(Value::Float(args[0].as_float()?.sqrt())),
        BuiltinFn::Abs => match &args[0] {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            other => Ok(Value::Float(other.as_float()?.abs())),
        },
        BuiltinFn::Dist => {
            let a = args[0].as_vector()?;
            let b = args[1].as_vector()?;
            if a.len() != b.len() {
                return Err(ValueError::Arithmetic(format!(
                    "dist: vector length mismatch: {} vs {}",
                    a.len(),
                    b.len()
                )));
            }
            let d2: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
            Ok(Value::Float(d2.sqrt()))
        }
        BuiltinFn::VecAdd => eval_binop(BinOp::Add, args[0].clone(), args[1].clone()),
        BuiltinFn::VecDiv => eval_binop(BinOp::Div, args[0].clone(), args[1].clone()),
        BuiltinFn::VecScale => eval_binop(BinOp::Mul, args[0].clone(), args[1].clone()),
        BuiltinFn::MinOf => {
            // Null acts as the unit, so MinOf works as a fold combiner.
            match (&args[0], &args[1]) {
                (Value::Null, b) => Ok(b.clone()),
                (a, Value::Null) => Ok(a.clone()),
                (a, b) => Ok(if a <= b { a.clone() } else { b.clone() }),
            }
        }
        BuiltinFn::MaxOf => match (&args[0], &args[1]) {
            (Value::Null, b) => Ok(b.clone()),
            (a, Value::Null) => Ok(a.clone()),
            (a, b) => Ok(if a >= b { a.clone() } else { b.clone() }),
        },
        BuiltinFn::StrContains => Ok(Value::Bool(args[0].as_str()?.contains(args[1].as_str()?))),
        BuiltinFn::StrLen => Ok(Value::Int(args[0].as_str()?.len() as i64)),
        BuiltinFn::HashOf => Ok(Value::Int(
            (ops::hash_of(&args[0]) & 0x7fff_ffff_ffff_ffff) as i64,
        )),
    }
}

/// The observable result of running a program.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// Bags written via `Stmt::Write`, keyed by sink name.
    pub writes: HashMap<String, Vec<Value>>,
    /// Final driver-variable bindings.
    pub env: HashMap<String, Value>,
    /// Each stateful bag's current element per key, keys in first-insertion
    /// order.
    pub stateful: HashMap<String, InsertionMap<Value, Value>>,
}

/// The reference interpreter.
pub struct Interp<'a> {
    catalog: &'a Catalog,
    /// Safety cap on `while` iterations (a debugging aid, not a semantics).
    pub max_loop_iters: usize,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter over a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Interp {
            catalog,
            max_loop_iters: 100_000,
        }
    }

    /// Runs a program to completion.
    pub fn run(&self, p: &Program) -> Result<RunOutput, ValueError> {
        let mut out = RunOutput::default();
        self.exec_stmts(&p.body, &mut out)?;
        Ok(out)
    }

    fn exec_stmts(&self, stmts: &[Stmt], out: &mut RunOutput) -> Result<(), ValueError> {
        for s in stmts {
            self.exec_stmt(s, out)?;
        }
        Ok(())
    }

    /// Evaluates a driver-level scalar expression over the driver bindings.
    fn scalar(&self, e: &ScalarExpr, out: &RunOutput) -> Result<Value, ValueError> {
        eval_scalar(e, &mut Env::new(&out.env), self.catalog)
    }

    /// Evaluates a driver-level bag expression over the driver bindings.
    fn bag(&self, b: &BagExpr, out: &RunOutput) -> Result<Vec<Value>, ValueError> {
        eval_bag(b, &mut Env::new(&out.env), self.catalog)
    }

    fn exec_stmt(&self, s: &Stmt, out: &mut RunOutput) -> Result<(), ValueError> {
        match s {
            Stmt::ValDef { name, value }
            | Stmt::VarDef { name, value }
            | Stmt::Assign { name, value } => {
                let v = match value {
                    RValue::Bag(b) => Value::bag(self.bag(b, out)?),
                    RValue::Scalar(e) => self.scalar(e, out)?,
                };
                out.env.insert(name.clone(), v);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let mut iters = 0usize;
                loop {
                    if !self.scalar(cond, out)?.as_bool()? {
                        return Ok(());
                    }
                    iters += 1;
                    if iters > self.max_loop_iters {
                        return Err(ValueError::Unknown(format!(
                            "while loop exceeded {} iterations",
                            self.max_loop_iters
                        )));
                    }
                    self.exec_stmts(body, out)?;
                }
            }
            Stmt::ForEach { var, seq, body } => {
                for item in self.scalar(seq, out)?.as_bag()?.to_vec() {
                    out.env.insert(var.clone(), item);
                    self.exec_stmts(body, out)?;
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.scalar(cond, out)?.as_bool()? {
                    self.exec_stmts(then_branch, out)
                } else {
                    self.exec_stmts(else_branch, out)
                }
            }
            Stmt::Write { sink, bag } => {
                let rows = self.bag(bag, out)?;
                out.writes.insert(sink.clone(), rows);
                Ok(())
            }
            Stmt::StatefulCreate { name, init, key } => {
                let mut env = Env::new(&out.env);
                let rows = eval_bag(init, &mut env, self.catalog)?;
                let state = ops::create(rows, &mut env, |env, row| {
                    eval_lambda(key, std::slice::from_ref(row), env, self.catalog).map(ops::hashed)
                })?;
                let snapshot: Vec<Value> = state.values().cloned().collect();
                out.env.insert(name.clone(), Value::bag(snapshot));
                out.stateful.insert(name.clone(), state);
                Ok(())
            }
            Stmt::StatefulUpdate {
                state,
                delta,
                messages,
                message_key,
                update,
            } => {
                let mut env = Env::new(&out.env);
                let msgs = eval_bag(messages, &mut env, self.catalog)?;
                let st = (out.stateful.get_mut(state))
                    .ok_or_else(|| ValueError::UnboundVariable(state.clone()))?;
                let changed = ops::update(
                    std::slice::from_mut(st),
                    |_| 0,
                    msgs,
                    &mut env,
                    |env, msg| {
                        eval_lambda(message_key, std::slice::from_ref(msg), env, self.catalog)
                            .map(ops::hashed)
                    },
                    |env, current, msg| {
                        let new = eval_lambda(update, &[current.clone(), msg], env, self.catalog)?;
                        Ok((!new.is_null()).then_some(new))
                    },
                )?;
                let snapshot: Vec<Value> = st.values().cloned().collect();
                out.env.insert(state.clone(), Value::bag(snapshot));
                let changed: Vec<Value> = changed.into_iter().map(|e| e.value).collect();
                out.env.insert(delta.clone(), Value::bag(changed));
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Lambda;

    fn ints(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|i| Value::Int(*i)).collect()
    }

    fn catalog() -> Catalog {
        Catalog::new().with("xs", ints(&[1, 2, 3, 4, 5]))
    }

    fn eval_b(b: &BagExpr, c: &Catalog) -> Vec<Value> {
        let base = HashMap::new();
        let mut env = Env::new(&base);
        eval_bag(b, &mut env, c).unwrap()
    }

    fn eval_s(e: &ScalarExpr, c: &Catalog) -> Value {
        let base = HashMap::new();
        let mut env = Env::new(&base);
        eval_scalar(e, &mut env, c).unwrap()
    }

    #[test]
    fn map_filter_chain() {
        let c = catalog();
        let e = BagExpr::read("xs")
            .filter(Lambda::new(
                ["x"],
                ScalarExpr::var("x")
                    .rem(ScalarExpr::lit(2i64))
                    .eq(ScalarExpr::lit(1i64)),
            ))
            .map(Lambda::new(
                ["x"],
                ScalarExpr::var("x").mul(ScalarExpr::lit(10i64)),
            ));
        assert_eq!(eval_b(&e, &c), ints(&[10, 30, 50]));
    }

    #[test]
    fn flat_map_expands() {
        let c = catalog();
        let e = BagExpr::values(ints(&[1, 2])).flat_map(crate::bag_expr::BagLambda::new(
            "x",
            BagExpr::OfValue(Box::new(ScalarExpr::BagOf(Box::new(BagExpr::values(
                vec![],
            ))))),
        ));
        // flatMap over empty inner bags yields empty.
        assert!(eval_b(&e, &c).is_empty());
    }

    #[test]
    fn group_by_then_fold_in_head() {
        let c = Catalog::new().with(
            "kv",
            vec![
                Value::tuple(vec![Value::Int(1), Value::Int(10)]),
                Value::tuple(vec![Value::Int(2), Value::Int(20)]),
                Value::tuple(vec![Value::Int(1), Value::Int(30)]),
            ],
        );
        // for (g <- kv.groupBy(_.0)) yield (g.key, g.values.map(_.1).sum)
        let grouped = BagExpr::read("kv").group_by(Lambda::new(["x"], ScalarExpr::var("x").get(0)));
        let e = grouped.map(Lambda::new(
            ["g"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::var("g").get(0),
                BagExpr::of_value(ScalarExpr::var("g").get(1))
                    .map(Lambda::new(["v"], ScalarExpr::var("v").get(1)))
                    .sum(),
            ]),
        ));
        let got = eval_b(&e, &c);
        assert_eq!(got.len(), 2);
        assert!(got.contains(&Value::tuple(vec![Value::Int(1), Value::Float(40.0)])));
        assert!(got.contains(&Value::tuple(vec![Value::Int(2), Value::Float(20.0)])));
    }

    #[test]
    fn agg_by_matches_group_by_plus_fold() {
        let c = Catalog::new().with(
            "kv",
            (0..50)
                .map(|i| Value::tuple(vec![Value::Int(i % 7), Value::Int(i)]))
                .collect(),
        );
        let fold = FoldOp::custom(
            ScalarExpr::lit(0i64),
            Lambda::new(["x"], ScalarExpr::var("x").get(1)),
            Lambda::new(["a", "b"], ScalarExpr::var("a").add(ScalarExpr::var("b"))),
        );
        let fused = BagExpr::read("kv").map(Lambda::new(["x"], ScalarExpr::var("x")));
        let fused = BagExpr::AggBy {
            input: Box::new(fused),
            key: Lambda::new(["x"], ScalarExpr::var("x").get(0)),
            fold,
        };
        let unfused = BagExpr::read("kv")
            .group_by(Lambda::new(["x"], ScalarExpr::var("x").get(0)))
            .map(Lambda::new(
                ["g"],
                ScalarExpr::Tuple(vec![
                    ScalarExpr::var("g").get(0),
                    BagExpr::of_value(ScalarExpr::var("g").get(1)).fold(FoldOp::custom(
                        ScalarExpr::lit(0i64),
                        Lambda::new(["x"], ScalarExpr::var("x").get(1)),
                        Lambda::new(["a", "b"], ScalarExpr::var("a").add(ScalarExpr::var("b"))),
                    )),
                ]),
            ));
        let a = eval_b(&fused, &c);
        let b = eval_b(&unfused, &c);
        assert_eq!(Value::bag(a), Value::bag(b));
    }

    #[test]
    fn exists_fold_inside_predicate() {
        let c = Catalog::new()
            .with("xs", ints(&[1, 2, 3]))
            .with("bl", ints(&[2, 9]));
        let e = BagExpr::read("xs").filter(Lambda::new(
            ["x"],
            BagExpr::read("bl").exists(Lambda::new(
                ["b"],
                ScalarExpr::var("b").eq(ScalarExpr::var("x")),
            )),
        ));
        assert_eq!(eval_b(&e, &c), ints(&[2]));
    }

    #[test]
    fn min_by_fold() {
        let c = Catalog::new().with(
            "pts",
            vec![
                Value::tuple(vec![Value::Int(1), Value::Float(5.0)]),
                Value::tuple(vec![Value::Int(2), Value::Float(1.0)]),
                Value::tuple(vec![Value::Int(3), Value::Float(3.0)]),
            ],
        );
        let e = BagExpr::read("pts").min_by(Lambda::new(["p"], ScalarExpr::var("p").get(1)));
        assert_eq!(
            eval_s(&e, &c),
            Value::tuple(vec![Value::Int(2), Value::Float(1.0)])
        );
    }

    #[test]
    fn vector_arithmetic() {
        let c = Catalog::new();
        let v = ScalarExpr::lit(Value::vector(vec![1.0, 2.0]))
            .add(ScalarExpr::lit(Value::vector(vec![3.0, 4.0])))
            .div(ScalarExpr::lit(2.0f64));
        assert_eq!(eval_s(&v, &c), Value::vector(vec![2.0, 3.0]));
        let d = ScalarExpr::call(
            BuiltinFn::Dist,
            vec![
                ScalarExpr::lit(Value::vector(vec![0.0, 0.0])),
                ScalarExpr::lit(Value::vector(vec![3.0, 4.0])),
            ],
        );
        assert_eq!(eval_s(&d, &c), Value::Float(5.0));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let c = Catalog::new();
        let base = HashMap::new();
        let mut env = Env::new(&base);
        let e = ScalarExpr::lit(1i64).div(ScalarExpr::lit(0i64));
        assert!(matches!(
            eval_scalar(&e, &mut env, &c),
            Err(ValueError::Arithmetic(_))
        ));
    }

    #[test]
    fn program_with_while_loop() {
        let c = catalog();
        let p = Program::new(vec![
            Stmt::var("i", ScalarExpr::lit(0i64)),
            Stmt::var("total", ScalarExpr::lit(0i64)),
            Stmt::while_loop(
                ScalarExpr::var("i").lt(ScalarExpr::lit(3i64)),
                vec![
                    Stmt::assign(
                        "total",
                        ScalarExpr::var("total").add(BagExpr::read("xs").count()),
                    ),
                    Stmt::assign("i", ScalarExpr::var("i").add(ScalarExpr::lit(1i64))),
                ],
            ),
        ]);
        let out = Interp::new(&c).run(&p).unwrap();
        assert_eq!(out.env["total"], Value::Int(15));
    }

    #[test]
    fn program_foreach_and_if() {
        let c = Catalog::new();
        let p = Program::new(vec![
            Stmt::var("best", ScalarExpr::lit(-1i64)),
            Stmt::for_each(
                "c",
                ScalarExpr::lit(Value::bag(ints(&[3, 1, 2]))),
                vec![Stmt::if_else(
                    ScalarExpr::var("c").gt(ScalarExpr::var("best")),
                    vec![Stmt::assign("best", ScalarExpr::var("c"))],
                    vec![],
                )],
            ),
        ]);
        let out = Interp::new(&c).run(&p).unwrap();
        assert_eq!(out.env["best"], Value::Int(3));
    }

    #[test]
    fn writes_are_recorded() {
        let c = catalog();
        let p = Program::new(vec![Stmt::write(
            "out",
            BagExpr::read("xs").filter(Lambda::new(
                ["x"],
                ScalarExpr::var("x").gt(ScalarExpr::lit(3i64)),
            )),
        )]);
        let out = Interp::new(&c).run(&p).unwrap();
        assert_eq!(out.writes["out"], ints(&[4, 5]));
    }

    #[test]
    fn runaway_loop_is_detected() {
        let c = Catalog::new();
        let p = Program::new(vec![Stmt::while_loop(
            ScalarExpr::lit(true),
            vec![Stmt::val("x", ScalarExpr::lit(1i64))],
        )]);
        let mut interp = Interp::new(&c);
        interp.max_loop_iters = 10;
        assert!(interp.run(&p).is_err());
    }
}
