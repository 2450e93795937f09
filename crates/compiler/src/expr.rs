//! The analyzable scalar-expression language.
//!
//! In the paper, UDFs are ordinary Scala lambdas whose ASTs the macro can
//! inspect. The Rust substitute is this small expression language: lambdas
//! are [`Lambda`]s over [`ScalarExpr`] bodies, which the compiler can
//! traverse, substitute into, and rewrite. Crucially, scalar expressions can
//! *nest bag computations* — [`ScalarExpr::Fold`] embeds an aggregate over a
//! [`BagExpr`](crate::bag_expr::BagExpr) (e.g. `blacklist.exists(...)` inside
//! a filter predicate, or `ctrds.min_by(...)` inside a map UDF). This nesting
//! is exactly what the unnesting and broadcast-insertion optimizations
//! operate on.

use std::collections::HashSet;
use std::fmt;

use crate::bag_expr::BagExpr;
use crate::value::Value;

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (ints, floats, vectors element-wise).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (vector / scalar supported).
    Div,
    /// Remainder.
    Mod,
    /// Equality (total, per `Value::eq`).
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical conjunction (strict).
    And,
    /// Logical disjunction (strict).
    Or,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Builtin functions available to UDFs.
///
/// These stand in for library calls the Scala embedding would see as opaque
/// method calls; keeping them enumerated preserves analyzability.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BuiltinFn {
    /// Square root of a float.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Euclidean distance between two vectors.
    Dist,
    /// Element-wise vector addition.
    VecAdd,
    /// Vector divided by a scalar.
    VecDiv,
    /// Vector scaled by a scalar.
    VecScale,
    /// Binary minimum.
    MinOf,
    /// Binary maximum.
    MaxOf,
    /// Substring containment test on strings.
    StrContains,
    /// String length.
    StrLen,
    /// Stable integer hash of any value (used by synthetic feature UDFs).
    HashOf,
}

impl BuiltinFn {
    /// The function's arity.
    pub fn arity(&self) -> usize {
        match self {
            BuiltinFn::Sqrt | BuiltinFn::Abs | BuiltinFn::StrLen | BuiltinFn::HashOf => 1,
            _ => 2,
        }
    }

    /// Relative CPU weight of one call, in units of "one arithmetic op".
    ///
    /// Most builtins are cheap; a few stand in for heavy UDF work the paper's
    /// workloads contain: `HashOf` models a trained feature extractor /
    /// classifier scoring a ~100 KB email body, `Dist` a vector distance.
    /// The engine's cost model multiplies per-record CPU by the static
    /// weight of the operator's lambdas.
    pub fn cpu_weight(&self) -> f64 {
        match self {
            // Stands in for a trained feature extractor / classifier scoring
            // a ~100 KB email body: ~10 ms of real work per record.
            BuiltinFn::HashOf => 300_000.0,
            BuiltinFn::Dist => 40.0,
            BuiltinFn::VecAdd | BuiltinFn::VecDiv | BuiltinFn::VecScale => 8.0,
            // Flat call overhead only — the length-proportional scan is
            // charged separately via [`byte_weight`](Self::byte_weight).
            BuiltinFn::StrContains => 4.0,
            _ => 1.0,
        }
    }

    /// Relative CPU weight of one call **per input byte**, for builtins whose
    /// work scales with operand length rather than being O(1) per call.
    /// `StrContains` scans its haystack; everything else is length-free (or,
    /// like `HashOf`, already modeled as a flat stand-in for fixed-size
    /// work). The engine charges this against the operator's input bytes on
    /// the driver, so the charge is identical whichever evaluation tier —
    /// interpreter, compiled, or vectorized — actually ran the rows.
    pub fn byte_weight(&self) -> f64 {
        match self {
            BuiltinFn::StrContains => 0.125,
            _ => 0.0,
        }
    }

    /// The surface name (for pretty printing).
    pub fn name(&self) -> &'static str {
        match self {
            BuiltinFn::Sqrt => "sqrt",
            BuiltinFn::Abs => "abs",
            BuiltinFn::Dist => "dist",
            BuiltinFn::VecAdd => "vec_add",
            BuiltinFn::VecDiv => "vec_div",
            BuiltinFn::VecScale => "vec_scale",
            BuiltinFn::MinOf => "min_of",
            BuiltinFn::MaxOf => "max_of",
            BuiltinFn::StrContains => "str_contains",
            BuiltinFn::StrLen => "str_len",
            BuiltinFn::HashOf => "hash_of",
        }
    }
}

/// The distinguishing tag of a reified fold. It matters only for pretty
/// printing and reports: every rewrite reads a fold's lambdas instead.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FoldKind {
    /// Numeric sum.
    Sum,
    /// Element count.
    Count,
    /// Minimum element.
    Min,
    /// Maximum element.
    Max,
    /// Existential quantifier over a predicate.
    Exists,
    /// Universal quantifier over a predicate.
    Forall,
    /// Emptiness test.
    IsEmpty,
    /// Element minimizing a key.
    MinBy,
    /// Element maximizing a key.
    MaxBy,
    /// A fused composite produced by banana split.
    BananaSplit,
    /// User-provided fold.
    Custom,
}

/// A reified fold: `(zero, sng, uni)` in expression form, so the compiler can
/// combine folds (banana split) and fuse them into groupings.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FoldOp {
    /// Recognizable shape of the fold.
    pub kind: FoldKind,
    /// Closed expression for the `emp` substitute.
    pub zero: Box<ScalarExpr>,
    /// Unary lambda for the `sng` substitute.
    pub sng: Lambda,
    /// Binary lambda for the `uni` substitute (associative + commutative).
    pub uni: Lambda,
}

impl FoldOp {
    /// `sum`: fold(0.0, id, +).
    pub fn sum() -> FoldOp {
        FoldOp {
            kind: FoldKind::Sum,
            zero: Box::new(ScalarExpr::Lit(Value::Float(0.0))),
            sng: Lambda::new(["x"], ScalarExpr::var("x")),
            uni: Lambda::new(["a", "b"], ScalarExpr::var("a").add(ScalarExpr::var("b"))),
        }
    }

    /// Vector sum with a given zero vector.
    pub fn vec_sum(dim: usize) -> FoldOp {
        FoldOp {
            kind: FoldKind::Sum,
            zero: Box::new(ScalarExpr::Lit(Value::vector(vec![0.0; dim]))),
            sng: Lambda::new(["x"], ScalarExpr::var("x")),
            uni: Lambda::new(
                ["a", "b"],
                ScalarExpr::call(
                    BuiltinFn::VecAdd,
                    vec![ScalarExpr::var("a"), ScalarExpr::var("b")],
                ),
            ),
        }
    }

    /// `count`: fold(0, _ ⟼ 1, +).
    pub fn count() -> FoldOp {
        FoldOp {
            kind: FoldKind::Count,
            zero: Box::new(ScalarExpr::Lit(Value::Int(0))),
            sng: Lambda::new(["x"], ScalarExpr::Lit(Value::Int(1))),
            uni: Lambda::new(["a", "b"], ScalarExpr::var("a").add(ScalarExpr::var("b"))),
        }
    }

    /// `min`: fold(null, id, min-combining with null as unit).
    pub fn min() -> FoldOp {
        FoldOp {
            kind: FoldKind::Min,
            zero: Box::new(ScalarExpr::Lit(Value::Null)),
            sng: Lambda::new(["x"], ScalarExpr::var("x")),
            uni: Lambda::new(
                ["a", "b"],
                ScalarExpr::call(
                    BuiltinFn::MinOf,
                    vec![ScalarExpr::var("a"), ScalarExpr::var("b")],
                ),
            ),
        }
    }

    /// `max`: fold(null, id, max-combining with null as unit).
    pub fn max() -> FoldOp {
        FoldOp {
            kind: FoldKind::Max,
            zero: Box::new(ScalarExpr::Lit(Value::Null)),
            sng: Lambda::new(["x"], ScalarExpr::var("x")),
            uni: Lambda::new(
                ["a", "b"],
                ScalarExpr::call(
                    BuiltinFn::MaxOf,
                    vec![ScalarExpr::var("a"), ScalarExpr::var("b")],
                ),
            ),
        }
    }

    /// `exists p`: fold(false, p, ∨). The predicate is the `sng` lambda.
    pub fn exists(p: Lambda) -> FoldOp {
        FoldOp {
            kind: FoldKind::Exists,
            zero: Box::new(ScalarExpr::Lit(Value::Bool(false))),
            sng: p,
            uni: Lambda::new(["a", "b"], ScalarExpr::var("a").or(ScalarExpr::var("b"))),
        }
    }

    /// `forall p`: fold(true, p, ∧).
    pub fn forall(p: Lambda) -> FoldOp {
        FoldOp {
            kind: FoldKind::Forall,
            zero: Box::new(ScalarExpr::Lit(Value::Bool(true))),
            sng: p,
            uni: Lambda::new(["a", "b"], ScalarExpr::var("a").and(ScalarExpr::var("b"))),
        }
    }

    /// `is_empty`: fold(true, _ ⟼ false, ∧).
    pub fn is_empty() -> FoldOp {
        FoldOp {
            kind: FoldKind::IsEmpty,
            zero: Box::new(ScalarExpr::Lit(Value::Bool(true))),
            sng: Lambda::new(["x"], ScalarExpr::Lit(Value::Bool(false))),
            uni: Lambda::new(["a", "b"], ScalarExpr::var("a").and(ScalarExpr::var("b"))),
        }
    }

    /// `min_by key`: keeps the element minimizing `key` (null = absent).
    pub fn min_by(key: Lambda) -> FoldOp {
        Self::extreme_by(key, FoldKind::MinBy)
    }

    /// `max_by key`: keeps the element maximizing `key`.
    pub fn max_by(key: Lambda) -> FoldOp {
        Self::extreme_by(key, FoldKind::MaxBy)
    }

    fn extreme_by(key: Lambda, kind: FoldKind) -> FoldOp {
        assert_eq!(key.params.len(), 1, "min_by/max_by key must be unary");
        let ka = key.apply(&[ScalarExpr::var("a")]);
        let kb = key.apply(&[ScalarExpr::var("b")]);
        let keep_a = if kind == FoldKind::MinBy {
            ka.le(kb)
        } else {
            ka.ge(kb)
        };
        FoldOp {
            kind,
            zero: Box::new(ScalarExpr::Lit(Value::Null)),
            sng: Lambda::new(["x"], ScalarExpr::var("x")),
            uni: Lambda::new(
                ["a", "b"],
                // null acts as the unit of the combining function.
                ScalarExpr::If(
                    Box::new(ScalarExpr::var("a").eq_null()),
                    Box::new(ScalarExpr::var("b")),
                    Box::new(ScalarExpr::If(
                        Box::new(ScalarExpr::var("b").eq_null()),
                        Box::new(ScalarExpr::var("a")),
                        Box::new(ScalarExpr::If(
                            Box::new(keep_a),
                            Box::new(ScalarExpr::var("a")),
                            Box::new(ScalarExpr::var("b")),
                        )),
                    )),
                ),
            ),
        }
    }

    /// A custom fold from explicit components.
    pub fn custom(zero: ScalarExpr, sng: Lambda, uni: Lambda) -> FoldOp {
        FoldOp {
            kind: FoldKind::Custom,
            zero: Box::new(zero),
            sng,
            uni,
        }
    }

    /// **Banana split** over the expression language: combines `folds` into a
    /// single fold over tuples, one slot per input fold
    /// (paper, Section 4.2.2).
    pub fn banana_split(folds: &[FoldOp]) -> FoldOp {
        assert!(!folds.is_empty(), "banana split needs at least one fold");
        let zero = ScalarExpr::Tuple(folds.iter().map(|f| (*f.zero).clone()).collect());
        let sng = Lambda::new(
            ["x"],
            ScalarExpr::Tuple(
                folds
                    .iter()
                    .map(|f| f.sng.apply(&[ScalarExpr::var("x")]))
                    .collect(),
            ),
        );
        let uni = Lambda::new(
            ["a", "b"],
            ScalarExpr::Tuple(
                folds
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        f.uni
                            .apply(&[ScalarExpr::var("a").get(i), ScalarExpr::var("b").get(i)])
                    })
                    .collect(),
            ),
        );
        FoldOp {
            kind: FoldKind::BananaSplit,
            zero: Box::new(zero),
            sng,
            uni,
        }
    }

    /// The fold's terms in order: `zero`, `sng`, `uni`.
    pub fn terms(&self) -> [Term<'_>; 3] {
        [
            Term::Scalar(&self.zero),
            Term::Lambda(&self.sng),
            Term::Lambda(&self.uni),
        ]
    }

    /// The `&mut` twin of [`FoldOp::terms`].
    pub fn terms_mut(&mut self) -> [TermMut<'_>; 3] {
        [
            TermMut::Scalar(&mut self.zero),
            TermMut::Lambda(&mut self.sng),
            TermMut::Lambda(&mut self.uni),
        ]
    }
}

/// A lambda: named parameters over a scalar body.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Lambda {
    /// Parameter names bound in `body`.
    pub params: Vec<String>,
    /// The body expression.
    pub body: ScalarExpr,
}

impl Lambda {
    /// Creates a lambda.
    pub fn new<const N: usize>(params: [&str; N], body: ScalarExpr) -> Lambda {
        Lambda {
            params: params.iter().map(|s| s.to_string()).collect(),
            body,
        }
    }

    /// Beta-reduction: substitutes `args` for the parameters in the body,
    /// one parameter after the other, in one copy of the body.
    ///
    /// Assumes globally fresh binder names (see [`crate::freshen`]), so no
    /// capture checks are needed at the call sites inside the compiler.
    pub fn apply(&self, args: &[ScalarExpr]) -> ScalarExpr {
        assert_eq!(
            args.len(),
            self.params.len(),
            "lambda arity mismatch: expected {}, got {}",
            self.params.len(),
            args.len()
        );
        let mut body = self.body.clone();
        for (p, a) in self.params.iter().zip(args) {
            TermMut::Scalar(&mut body).substitute(p, a);
        }
        body
    }

    /// Free variables of the lambda (body free vars minus parameters).
    pub fn free_vars(&self) -> HashSet<String> {
        Term::Lambda(self).free_vars()
    }

    /// Static CPU cost of one application of this lambda (see
    /// [`ScalarExpr::static_cost`]).
    pub fn static_cost(&self) -> f64 {
        self.body.static_cost()
    }

    /// Static per-input-byte CPU cost of one application (see
    /// [`ScalarExpr::static_byte_cost`]).
    pub fn static_byte_cost(&self) -> f64 {
        self.body.static_byte_cost()
    }

    /// Alpha-equivalence: structural equality modulo parameter names.
    ///
    /// Used to compare partitioning keys (e.g. "is this input already hash
    /// partitioned by the join key?") without being confused by freshened
    /// binder names.
    pub fn alpha_eq(&self, other: &Lambda) -> bool {
        if self.params.len() != other.params.len() {
            return false;
        }
        let canon = |lam: &Lambda| {
            let args: Vec<ScalarExpr> = (0..lam.params.len())
                .map(|i| ScalarExpr::var(format!("§{i}")))
                .collect();
            lam.apply(&args)
        };
        canon(self) == canon(other)
    }
}

/// A scalar expression — the body language of UDFs and comprehension heads.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ScalarExpr {
    /// A literal value.
    Lit(Value),
    /// A variable reference (lambda parameter, comprehension generator
    /// variable, or driver-program variable).
    Var(String),
    /// Positional field access `e.i`.
    Field(Box<ScalarExpr>, usize),
    /// Binary operation.
    BinOp(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Unary operation.
    UnOp(UnOp, Box<ScalarExpr>),
    /// Builtin function application.
    Call(BuiltinFn, Vec<ScalarExpr>),
    /// Tuple construction.
    Tuple(Vec<ScalarExpr>),
    /// Conditional.
    If(Box<ScalarExpr>, Box<ScalarExpr>, Box<ScalarExpr>),
    /// A fold over a bag expression — the bridge from bag computations back
    /// to scalars (`xs.sum()`, `bl.exists(p)`, `ctrds.min_by(k)` …).
    Fold(Box<BagExpr>, Box<FoldOp>),
    /// A bag expression as a first-class value (group values in heads,
    /// flatMap bodies, driver-side sequences).
    BagOf(Box<BagExpr>),
}

impl ScalarExpr {
    /// Variable reference.
    pub fn var(name: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Var(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Lit(v.into())
    }

    /// Builtin call.
    pub fn call(f: BuiltinFn, args: Vec<ScalarExpr>) -> ScalarExpr {
        assert_eq!(
            args.len(),
            f.arity(),
            "{} expects {} args",
            f.name(),
            f.arity()
        );
        ScalarExpr::Call(f, args)
    }

    /// Positional field access.
    pub fn get(self, i: usize) -> ScalarExpr {
        ScalarExpr::Field(Box::new(self), i)
    }

    fn bin(op: BinOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::BinOp(op, Box::new(l), Box::new(r))
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::Add, self, rhs)
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::Sub, self, rhs)
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::Mul, self, rhs)
    }

    /// `self / rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::Div, self, rhs)
    }

    /// `self % rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::Mod, self, rhs)
    }

    /// `self == rhs`.
    pub fn eq(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::Eq, self, rhs)
    }

    /// `self != rhs`.
    pub fn ne(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::Ne, self, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::Lt, self, rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::Le, self, rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::Gt, self, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::Ge, self, rhs)
    }

    /// `self && rhs`.
    pub fn and(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::And, self, rhs)
    }

    /// `self || rhs`.
    pub fn or(self, rhs: ScalarExpr) -> ScalarExpr {
        Self::bin(BinOp::Or, self, rhs)
    }

    /// `!self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> ScalarExpr {
        ScalarExpr::UnOp(UnOp::Not, Box::new(self))
    }

    /// `self == null`.
    pub fn eq_null(self) -> ScalarExpr {
        self.eq(ScalarExpr::Lit(Value::Null))
    }

    /// Static per-evaluation CPU cost estimate: the number of expression
    /// nodes, with builtins weighted by [`BuiltinFn::cpu_weight`]. Nested
    /// folds count their component lambdas once (the engine separately
    /// accounts for broadcast-bag sizes they iterate over).
    pub fn static_cost(&self) -> f64 {
        match self {
            ScalarExpr::Lit(_) | ScalarExpr::Var(_) => 1.0,
            ScalarExpr::Field(inner, _) => 1.0 + inner.static_cost(),
            ScalarExpr::UnOp(_, inner) => 1.0 + inner.static_cost(),
            ScalarExpr::BinOp(_, l, r) => 1.0 + l.static_cost() + r.static_cost(),
            ScalarExpr::Call(f, args) => {
                f.cpu_weight() + args.iter().map(ScalarExpr::static_cost).sum::<f64>()
            }
            ScalarExpr::Tuple(args) => 1.0 + args.iter().map(ScalarExpr::static_cost).sum::<f64>(),
            ScalarExpr::If(c, t, e) => 1.0 + c.static_cost() + t.static_cost().max(e.static_cost()),
            ScalarExpr::Fold(_, fold) => {
                4.0 + fold.zero.static_cost() + fold.sng.static_cost() + fold.uni.static_cost()
            }
            ScalarExpr::BagOf(_) => 4.0,
        }
    }

    /// Static per-input-byte CPU cost: the sum of [`BuiltinFn::byte_weight`]
    /// over every call site, mirroring the [`static_cost`](Self::static_cost)
    /// traversal. Non-zero only for bodies containing length-proportional
    /// builtins (today: `StrContains`); `If` takes the worse branch, like
    /// `static_cost`.
    pub fn static_byte_cost(&self) -> f64 {
        match self {
            ScalarExpr::Lit(_) | ScalarExpr::Var(_) => 0.0,
            ScalarExpr::Field(inner, _) | ScalarExpr::UnOp(_, inner) => inner.static_byte_cost(),
            ScalarExpr::BinOp(_, l, r) => l.static_byte_cost() + r.static_byte_cost(),
            ScalarExpr::Call(f, args) => {
                f.byte_weight() + args.iter().map(ScalarExpr::static_byte_cost).sum::<f64>()
            }
            ScalarExpr::Tuple(args) => args.iter().map(ScalarExpr::static_byte_cost).sum::<f64>(),
            ScalarExpr::If(c, t, e) => {
                c.static_byte_cost() + t.static_byte_cost().max(e.static_byte_cost())
            }
            ScalarExpr::Fold(_, fold) => {
                fold.zero.static_byte_cost()
                    + fold.sng.static_byte_cost()
                    + fold.uni.static_byte_cost()
            }
            ScalarExpr::BagOf(_) => 0.0,
        }
    }

    /// Free variables of this expression, including those of nested bag
    /// expressions. Driver variables referenced inside dataflow UDFs show up
    /// here — the seed of broadcast insertion (paper Fig. 3b).
    pub fn free_vars(&self) -> HashSet<String> {
        Term::Scalar(self).free_vars()
    }

    /// Substitutes `replacement` for free occurrences of `name`.
    ///
    /// Binders are assumed globally fresh (see [`crate::freshen`]); the
    /// substitution still respects shadowing binders for robustness.
    pub fn substitute(&self, name: &str, replacement: &ScalarExpr) -> ScalarExpr {
        let mut e = self.clone();
        TermMut::Scalar(&mut e).substitute(name, replacement);
        e
    }

    /// Whether this is the variable `name`.
    pub fn is_var(&self, name: &str) -> bool {
        matches!(self, ScalarExpr::Var(n) if n == name)
    }

    /// True when the subtree references no variables and contains no bag
    /// computation — i.e. it evaluates to the same result in any
    /// environment.
    pub fn is_closed(&self) -> bool {
        if matches!(
            self,
            ScalarExpr::Var(_) | ScalarExpr::Fold(..) | ScalarExpr::BagOf(_)
        ) {
            return false;
        }
        let mut closed = true;
        self.for_each_child(|c| closed = closed && matches!(c, Term::Scalar(c) if c.is_closed()));
        closed
    }

    /// The direct sub-terms in evaluation order (see [`Term`]).
    pub fn for_each_child<'a>(&'a self, mut visit: impl FnMut(Term<'a>)) {
        match self {
            ScalarExpr::Lit(_) | ScalarExpr::Var(_) => {}
            ScalarExpr::Field(e, _) | ScalarExpr::UnOp(_, e) => visit(Term::Scalar(e)),
            ScalarExpr::BinOp(_, l, r) => [l, r].into_iter().for_each(|e| visit(Term::Scalar(e))),
            ScalarExpr::Call(_, args) | ScalarExpr::Tuple(args) => {
                args.iter().for_each(|e| visit(Term::Scalar(e)))
            }
            ScalarExpr::If(c, t, e) => [c, t, e].into_iter().for_each(|e| visit(Term::Scalar(e))),
            ScalarExpr::Fold(bag, fold) => {
                visit(Term::Bag(bag));
                fold.terms().into_iter().for_each(visit)
            }
            ScalarExpr::BagOf(bag) => visit(Term::Bag(bag)),
        }
    }

    /// The `&mut` twin of [`ScalarExpr::for_each_child`].
    pub fn for_each_child_mut<'a>(&'a mut self, mut visit: impl FnMut(TermMut<'a>)) {
        match self {
            ScalarExpr::Lit(_) | ScalarExpr::Var(_) => {}
            ScalarExpr::Field(e, _) | ScalarExpr::UnOp(_, e) => visit(TermMut::Scalar(e)),
            ScalarExpr::BinOp(_, l, r) => {
                [l, r].into_iter().for_each(|e| visit(TermMut::Scalar(e)))
            }
            ScalarExpr::Call(_, args) | ScalarExpr::Tuple(args) => {
                args.iter_mut().for_each(|e| visit(TermMut::Scalar(e)))
            }
            ScalarExpr::If(c, t, e) => [c, t, e]
                .into_iter()
                .for_each(|e| visit(TermMut::Scalar(e))),
            ScalarExpr::Fold(bag, fold) => {
                visit(TermMut::Bag(bag));
                fold.terms_mut().into_iter().for_each(visit)
            }
            ScalarExpr::BagOf(bag) => visit(TermMut::Bag(bag)),
        }
    }
}

/// One node of the quoted IR, as its parent holds it.
///
/// Every structural walker of the compiler and the engine — free variables,
/// substitution, freshening, bag references, catalog reads — is written once
/// over this type: [`ScalarExpr::for_each_child`] and
/// [`BagExpr::for_each_child`] are the only places that spell out which
/// sub-terms a node has. The order is evaluation order (`Fold`: bag, zero,
/// `sng`, `uni`; `AggBy`: input, key, zero, `sng`, `uni`; `FlatMap`: input,
/// then its binder), which is also the order fresh names are handed out in.
///
/// Lambdas are terms of their own, so a binder-aware walker sees their
/// parameters ([`Term::binders`]) before it enters the body, and a
/// binder-blind one simply recurses into the body.
#[derive(Clone, Copy, Debug)]
pub enum Term<'a> {
    /// A scalar expression.
    Scalar(&'a ScalarExpr),
    /// A bag expression.
    Bag(&'a BagExpr),
    /// A lambda; its child is its body.
    Lambda(&'a Lambda),
    /// A `flatMap` binder — the element variable and the bag-valued body.
    BagLambda(&'a String, &'a BagExpr),
}

/// The `&mut` twin of [`Term`], for in-place rewrites.
#[derive(Debug)]
pub enum TermMut<'a> {
    /// A scalar expression.
    Scalar(&'a mut ScalarExpr),
    /// A bag expression.
    Bag(&'a mut BagExpr),
    /// A lambda; its child is its body.
    Lambda(&'a mut Lambda),
    /// A `flatMap` binder — the element variable and the bag-valued body.
    BagLambda(&'a mut String, &'a mut BagExpr),
}

impl<'a> Term<'a> {
    /// The direct sub-terms, in evaluation order.
    pub(crate) fn for_each_child(self, mut visit: impl FnMut(Term<'a>)) {
        match self {
            Term::Scalar(e) => e.for_each_child(visit),
            Term::Bag(b) => b.for_each_child(visit),
            Term::Lambda(lam) => visit(Term::Scalar(&lam.body)),
            Term::BagLambda(_, body) => visit(Term::Bag(body)),
        }
    }

    /// Visits this term and every term below it, pre-order. Binder-blind:
    /// a lambda is visited, then its body.
    pub fn walk(self, visit: &mut impl FnMut(Term<'a>)) {
        visit(self);
        self.for_each_child(|c| c.walk(visit));
    }

    /// The names this term binds in its children.
    pub(crate) fn binders(self) -> &'a [String] {
        match self {
            Term::Lambda(lam) => &lam.params,
            Term::BagLambda(param, _) => std::slice::from_ref(param),
            Term::Scalar(_) | Term::Bag(_) => &[],
        }
    }

    /// Free variables: scalar `Var`s and bag `Ref`s not bound inside this
    /// term.
    pub fn free_vars(self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.collect_free_vars(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free_vars(self, bound: &mut Vec<&'a str>, out: &mut HashSet<String>) {
        if let Term::Scalar(ScalarExpr::Var(name)) | Term::Bag(BagExpr::Ref { name }) = self {
            if !bound.contains(&name.as_str()) {
                out.insert(name.clone());
            }
            return;
        }
        let depth = bound.len();
        bound.extend(self.binders().iter().map(String::as_str));
        self.for_each_child(|c| c.collect_free_vars(bound, out));
        bound.truncate(depth);
    }

    /// Every bag `Ref` name at or below this term, pre-order (binder-blind).
    pub(crate) fn for_each_bag_ref(self, mut visit: impl FnMut(&'a str)) {
        self.walk(&mut |t| {
            if let Term::Bag(BagExpr::Ref { name }) = t {
                visit(name)
            }
        });
    }
}

impl<'a> TermMut<'a> {
    /// The direct sub-terms, in evaluation order.
    pub(crate) fn for_each_child(self, mut visit: impl FnMut(TermMut<'a>)) {
        match self {
            TermMut::Scalar(e) => e.for_each_child_mut(visit),
            TermMut::Bag(b) => b.for_each_child_mut(visit),
            TermMut::Lambda(lam) => visit(TermMut::Scalar(&mut lam.body)),
            TermMut::BagLambda(_, body) => visit(TermMut::Bag(body)),
        }
    }

    /// The names this term binds in its children.
    pub(crate) fn binders(&mut self) -> &mut [String] {
        match self {
            TermMut::Lambda(lam) => &mut lam.params,
            TermMut::BagLambda(param, _) => std::slice::from_mut(&mut **param),
            TermMut::Scalar(_) | TermMut::Bag(_) => &mut [],
        }
    }

    /// Replaces free occurrences of the scalar variable `name` with
    /// `replacement`, in place. A binder of `name` shadows it.
    pub(crate) fn substitute(mut self, name: &str, replacement: &ScalarExpr) {
        if let TermMut::Scalar(e) = &mut self {
            if matches!(&**e, ScalarExpr::Var(n) if n == name) {
                **e = replacement.clone();
                return;
            }
        }
        if !self.binders().iter().any(|p| p == name) {
            self.for_each_child(|c| c.substitute(name, replacement));
        }
    }

    /// Replaces every bag `Ref { name }` with `replacement`, in place — the
    /// inlining of Section 4.1. Binder-blind: driver bag names are never
    /// rebound inside a term.
    pub(crate) fn substitute_ref(self, name: &str, replacement: &BagExpr) {
        match self {
            TermMut::Bag(b) if matches!(&*b, BagExpr::Ref { name: n } if n == name) => {
                *b = replacement.clone()
            }
            t => t.for_each_child(|c| c.substitute_ref(name, replacement)),
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Lit(v) => write!(f, "{v}"),
            ScalarExpr::Var(n) => write!(f, "{n}"),
            ScalarExpr::Field(e, i) => write!(f, "{e}.{i}"),
            ScalarExpr::BinOp(op, l, r) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Mod => "%",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "&&",
                    BinOp::Or => "||",
                };
                write!(f, "({l} {sym} {r})")
            }
            ScalarExpr::UnOp(UnOp::Not, e) => write!(f, "!({e})"),
            ScalarExpr::UnOp(UnOp::Neg, e) => write!(f, "-({e})"),
            ScalarExpr::Call(func, args) => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::Tuple(args) => {
                write!(f, "(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::If(c, t, e) => write!(f, "if ({c}) {t} else {e}"),
            ScalarExpr::Fold(bag, fold) => write!(f, "fold[{:?}]({bag})", fold.kind),
            ScalarExpr::BagOf(bag) => write!(f, "bag({bag})"),
        }
    }
}

impl fmt::Display for Lambda {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ{}. {}", self.params.join(","), self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_apply_substitutes_params() {
        let lam = Lambda::new(["x"], ScalarExpr::var("x").add(ScalarExpr::lit(1i64)));
        let applied = lam.apply(&[ScalarExpr::lit(41i64)]);
        assert_eq!(applied, ScalarExpr::lit(41i64).add(ScalarExpr::lit(1i64)));
    }

    #[test]
    fn free_vars_exclude_bound_params() {
        let lam = Lambda::new(["x"], ScalarExpr::var("x").add(ScalarExpr::var("y")));
        let fv = lam.free_vars();
        assert!(fv.contains("y"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn substitution_respects_shadowing_in_folds() {
        // fold sng = λx. x + y ; substituting for x must not touch the bound x.
        let fold = FoldOp::custom(
            ScalarExpr::lit(0i64),
            Lambda::new(["x"], ScalarExpr::var("x").add(ScalarExpr::var("y"))),
            Lambda::new(["a", "b"], ScalarExpr::var("a").add(ScalarExpr::var("b"))),
        );
        let e = ScalarExpr::Fold(
            Box::new(crate::bag_expr::BagExpr::Read {
                source: "xs".into(),
            }),
            Box::new(fold),
        );
        let subst = e.substitute("x", &ScalarExpr::lit(9i64));
        // The λx binder shadows: body unchanged.
        assert_eq!(subst, e);
        let subst_y = e.substitute("y", &ScalarExpr::lit(9i64));
        assert_ne!(subst_y, e);
    }

    #[test]
    fn banana_split_tuples_components() {
        let split = FoldOp::banana_split(&[FoldOp::sum(), FoldOp::count()]);
        assert_eq!(split.kind, FoldKind::BananaSplit);
        match &*split.zero {
            ScalarExpr::Tuple(zs) => assert_eq!(zs.len(), 2),
            other => panic!("expected tuple zero, got {other:?}"),
        }
        match &split.sng.body {
            ScalarExpr::Tuple(ss) => assert_eq!(ss.len(), 2),
            other => panic!("expected tuple sng, got {other:?}"),
        }
    }

    #[test]
    fn fold_free_vars_see_through_fold_lambdas() {
        // exists(λl. l.0 == e.0) over Ref("bl") — free vars are {bl is in bag, e}.
        let pred = Lambda::new(
            ["l"],
            ScalarExpr::var("l").get(0).eq(ScalarExpr::var("e").get(0)),
        );
        let e = ScalarExpr::Fold(
            Box::new(crate::bag_expr::BagExpr::Ref { name: "bl".into() }),
            Box::new(FoldOp::exists(pred)),
        );
        let fv = e.free_vars();
        assert!(fv.contains("e"));
        assert!(fv.contains("bl"));
        assert!(!fv.contains("l"));
    }
}
