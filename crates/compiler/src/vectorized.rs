//! Vectorized batch evaluation: typed columnar kernels lowered from the
//! quoted UDF tree.
//!
//! The reference interpreter ([`crate::interp`]) evaluates a UDF one row at
//! a time through the `Value` enum: each node pays enum dispatch, a name
//! lookup and — for `Arc`-backed rows — refcount traffic. This module is
//! the engine's other tier: a **static type-inference pass** over a UDF's
//! [`Lambda`] tree, or a fused chain of them, classifies every node as
//! specializable over typed `i64`/`f64`/`bool`/string columns or not, and
//! fully-specializable programs are lowered into a flat array of **column
//! kernels** executed over reusable scratch buffers in batches of
//! [`BatchConfig::batch_rows`] rows.
//!
//! Design points:
//!
//! - **A column's type is a value.** Every column is a [`Col`]: a type tag
//!   ([`Ty`], one per register file of the scratch) plus a register. The
//!   instruction set ([`VInstr`]) is keyed by operation, and [`step`]
//!   dispatches `(op, operand type)` once per batch to generic lane helpers
//!   that own the selected-lane loop; a kernel's per-lane code is one
//!   closure. A new column type is one `Ty`, its load and its
//!   materialization; a new kernel is one builder rule and one closure.
//! - **Specialization is all-or-nothing per program.** [`specialize_sampled`]
//!   returns `None` the moment any node resists typing (vector ops, folds
//!   other than a nested bag's `count`, bag construction, an unbound name,
//!   a raising constant, a static type the reference semantics errors on
//!   every row for); the interpreter runs that operator and reports it
//!   (`ExecStats::vector_fallbacks`) — no silent slow paths.
//! - **String columns are offset+bytes arenas** ([`StrCol`]): one shared
//!   byte buffer plus per-lane `(start, len)` ranges, over which `str_len`,
//!   `str_contains`, string equality/comparison and `hash_of` run as
//!   byte-slice kernels. A low-cardinality sample dictionary-encodes the
//!   column, so hash/contains run once per distinct value; a batch whose
//!   strings outgrow the `u32` offsets aborts like any non-conforming one.
//!   An output row copies no string it forwards ([`MatNode`]): a forwarded
//!   string, opaque value or sub-tuple, or a constant, is cloned as the
//!   interpreter clones it; computed columns, `If` merges and forwarded
//!   numbers are built from lanes.
//! - **Branch-free `If` via selection vectors.** An `If` splits the
//!   selection by its condition and each branch runs only over its lanes,
//!   so an error (or debug overflow panic) in a branch a lane does not take
//!   never fires for it: taken-branch-only evaluation, batched.
//! - **Fused filters narrow the selection.** A pipeline's `Filter` stages
//!   shrink the selection downstream kernels and the row materialization
//!   iterate over; the per-stage entry counts — cost-model inputs — are the
//!   selection sizes at each stage boundary, as in the scalar pass.
//! - **Error semantics are preserved exactly, by replay.** Column-at-a-time
//!   execution reorders errors across rows, so kernels never report which
//!   lane failed: a failing lane (division/modulo by zero on a selected
//!   lane) or a row that does not conform to the specialized shape aborts
//!   the batch, [`VectorPipeline::run_batch`] returns `false` with its
//!   outputs untouched, and the caller replays the batch row-at-a-time
//!   through the interpreter, raising the first error in evaluation order.
//!
//! The interpreter stays the executable specification: the differential
//! suite in `tests/` holds the kernels to it on values and errors.

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::bag_expr::BagExpr;
use crate::expr::{BinOp, BuiltinFn, FoldOp, Lambda, ScalarExpr, UnOp};
use crate::interp::{self, Catalog, Env};
use crate::value::{float_key, Value, ValueError};

// ------------------------------------------------------------------- config

/// Knobs for the vectorized batch-evaluation tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Rows per batch: the unit over which kernel dispatch is amortized and
    /// the granularity of scalar error replay.
    pub batch_rows: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { batch_rows: 1024 }
    }
}

impl BatchConfig {
    /// A config with the given batch size (clamped to at least 1).
    pub fn new(batch_rows: usize) -> Self {
        BatchConfig {
            batch_rows: batch_rows.max(1),
        }
    }
}

// ------------------------------------------------------------- column types

/// The type tag of a column: which of the scratch's register files it lives
/// in. Everything that depends on a column's type — its load, the kernels
/// defined on it, its merge, its materialization — dispatches on this value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ty {
    I,
    F,
    B,
    /// A string: an offset+bytes arena column ([`StrCol`]).
    S,
    /// A type the kernels cannot compute on (Null, Vector, Bag): an opaque
    /// pass-through `Value` column, usable only in output tuples.
    V,
}

/// Number of [`Ty`] tags (register files).
const N_TYS: usize = 5;

/// The column type of a non-tuple value.
fn leaf_ty(v: &Value) -> Ty {
    match v {
        Value::Int(_) => Ty::I,
        Value::Float(_) => Ty::F,
        Value::Bool(_) => Ty::B,
        Value::Str(_) => Ty::S,
        _ => Ty::V,
    }
}

type Reg = usize;
type SelId = usize;

/// A typed column: register `reg` of file `ty`. The one column reference —
/// on the abstract stack ([`VVal`]), in kernels ([`VInstr`]), in output
/// recipes ([`MatNode`]) and in accumulator slots ([`Slot`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Col {
    ty: Ty,
    reg: Reg,
}

/// The statically inferred layout of one input-row component.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Shape {
    Leaf(Ty),
    Tuple(Vec<Shape>),
}

fn shape_of(v: &Value) -> Shape {
    match v {
        Value::Tuple(fs) => Shape::Tuple(fs.iter().map(shape_of).collect()),
        leaf => Shape::Leaf(leaf_ty(leaf)),
    }
}

/// Navigates a field path into a row.
fn path_get<'v>(row: &'v Value, path: &[usize]) -> Option<&'v Value> {
    let mut cur = row;
    for &i in path {
        cur = match cur {
            Value::Tuple(fs) => fs.get(i)?,
            _ => return None,
        };
    }
    Some(cur)
}

// ------------------------------------------------------------ kernel program

/// The unary compute kernels. The builder decides which operand types each
/// is emitted on; [`step`] holds one closure per `(op, operand type)`.
#[derive(Clone, Copy, Debug)]
enum Op1 {
    /// The `as_float` Int→Float coercion.
    Cast,
    /// Plain (non-wrapping) negation, matching the interpreter.
    Neg,
    Not,
    Abs,
    Sqrt,
    /// `HashOf` over a typed column — hashes the equivalent `Value`, so the
    /// result is bit-identical to the interpreter's. Dictionary-encoded
    /// string columns hash once per distinct value.
    Hash,
    /// `str_len`: the byte length, exactly the interpreter's `len() as i64`.
    StrLen,
    /// A nested bag's `count`: its length; a lane with no bag aborts.
    Len,
}

/// The binary compute kernels; both operands have the same type (the
/// builder coerces mixed Int/Float operands through [`Op1::Cast`]).
///
/// `Bin` carries the scalar operator: wrapping integer Add/Sub/Mul (the
/// interpreter's `wrapping_*`); float Div, where a selected lane with
/// divisor `0.0` aborts the batch; the Euclidean remainder Mod, where a
/// selected lane with modulus 0 aborts the batch; strict And/Or over bool
/// columns; and the six comparisons — floats compare Eq/Ne via `Value`'s
/// `float_key` equality (NaNs equal, ±0 equal) and order via `total_cmp`,
/// strings by content (bytewise `str::cmp`, `Value::Str`'s order).
#[derive(Clone, Copy, Debug)]
enum Op2 {
    Bin(BinOp),
    /// `min_of`; floats via `total_cmp`, matching `Value`'s total order.
    Min,
    /// `max_of`; floats via `total_cmp`.
    Max,
    /// `str_contains(a, b)`: byte-level substring search, equivalent to
    /// `str::contains` on valid UTF-8. A dictionary-encoded haystack with a
    /// uniform needle searches once per distinct value.
    Contains,
}

/// One column kernel. Loads and splats cover the whole batch (loads double
/// as the per-batch shape check); compute kernels touch only the lanes of
/// their selection vector, so errors and debug-overflow panics fire exactly
/// for the lanes the scalar semantics would evaluate.
#[derive(Clone, Debug)]
enum VInstr {
    /// Loads the row component at `path` into a column of `dst`'s type.
    /// `dict` (string columns only) additionally dictionary-encodes it —
    /// decided at specialization time from the driver-side sample, so the
    /// decision replays across runs.
    Load {
        dst: Col,
        path: Vec<usize>,
        dict: bool,
    },
    /// Broadcasts a constant into every lane (for a string: one arena entry
    /// that is also the column's single dictionary entry).
    Splat { dst: Col, v: Value },
    Un {
        sel: SelId,
        op: Op1,
        dst: Col,
        a: Col,
    },
    Bin {
        sel: SelId,
        op: Op2,
        dst: Col,
        a: Col,
        b: Col,
    },
    /// Structured `If`: split the parent selection by a condition column
    /// into the lanes taking each branch.
    SelSplit {
        parent: SelId,
        cond: Reg,
        then_sel: SelId,
        else_sel: SelId,
    },
    /// Merge the two branch results of an `If` (columns of `dst`'s type)
    /// back into one column.
    Merge {
        dst: Col,
        ts: SelId,
        t: Reg,
        es: SelId,
        e: Reg,
    },
    /// End of a fused `Filter` stage: keep the lanes whose predicate holds.
    FilterApply {
        parent: SelId,
        pred: Reg,
        dst: SelId,
    },
}

/// A value on the abstract stack during specialization.
#[derive(Clone, Debug)]
enum VVal {
    Col(Col),
    Tup(Vec<VVal>),
    /// A not-yet-loaded input component; loads are emitted lazily on first
    /// use (and memoized), so untouched fields cost nothing per batch.
    Arg {
        path: Vec<usize>,
        shape: Shape,
    },
}

/// Recipe for materializing a value per lane: a column is built from its
/// lanes, while a forwarded part of the input row or a constant is shared
/// with the value it came from, as the interpreter shares it.
#[derive(Clone, Debug)]
enum MatNode {
    Col(Col),
    Tup(Vec<MatNode>),
    /// The component at this path of the lane's input row, cloned.
    Pass(Vec<usize>),
    /// A constant, cloned.
    Const(Value),
}

/// A UDF and the base scope its free names resolve in.
type Udf<'a> = (&'a Lambda, &'a HashMap<String, Value>);

/// One stage of a vectorizable chain, borrowed from the engine's operators:
/// the UDF and the base scope its free names resolve in.
pub enum VecStageSpec<'a> {
    /// A Map-like stage (also a fold's per-element `sng` function).
    Map(&'a Lambda, &'a HashMap<String, Value>),
    /// A Filter stage; its body must statically produce `Bool`.
    Filter(&'a Lambda, &'a HashMap<String, Value>),
}

/// A batch-local string column: one shared byte arena plus per-lane
/// `(start, len)` ranges — the offset+bytes layout of columnar engines.
///
/// When the load was dictionary-encoded (low sample cardinality), `dict`
/// holds each distinct string's arena range in first-appearance order and
/// `codes` maps lanes to dictionary entries, letting per-distinct kernels
/// (hash, contains-with-uniform-needle) compute once per distinct value.
/// The per-lane ranges stay valid either way, so every kernel can always
/// take the generic per-lane path.
#[derive(Clone, Debug, Default)]
struct StrCol {
    bytes: Vec<u8>,
    starts: Vec<u32>,
    lens: Vec<u32>,
    /// Per-lane dictionary codes; empty when the column is not encoded.
    codes: Vec<u32>,
    /// Per-code `(start, len)` into `bytes`; empty when not encoded.
    dict: Vec<(u32, u32)>,
}

impl StrCol {
    fn clear(&mut self) {
        self.bytes.clear();
        self.starts.clear();
        self.lens.clear();
        self.codes.clear();
        self.dict.clear();
    }

    /// The byte slice of lane `l`.
    fn lane(&self, l: usize) -> &[u8] {
        let s = self.starts[l] as usize;
        &self.bytes[s..s + self.lens[l] as usize]
    }

    /// The byte slice of dictionary entry `c`.
    fn dict_entry(&self, c: usize) -> &[u8] {
        let (s, len) = self.dict[c];
        &self.bytes[s as usize..(s + len) as usize]
    }

    /// `f` of every dictionary entry, by code: the once-per-distinct-value
    /// half of a dictionary fast path (lanes then gather through `codes`).
    fn per_entry<D>(&self, f: impl Fn(&[u8]) -> D) -> Vec<D> {
        (0..self.dict.len())
            .map(|c| f(self.dict_entry(c)))
            .collect()
    }

    /// Appends `b` to the arena, returning its range — `None` when the
    /// arena would outgrow the `u32` offset width (the caller aborts the
    /// batch and the interpreter replays it).
    fn push_bytes(&mut self, b: &[u8]) -> Option<(u32, u32)> {
        let start = self.bytes.len();
        if start + b.len() > u32::MAX as usize {
            return None;
        }
        self.bytes.extend_from_slice(b);
        Some((start as u32, b.len() as u32))
    }
}

/// A lowered kernel sequence plus the register-file sizes it needs: the
/// executable core shared by row-producing chains ([`VectorPipeline`]) and
/// aggregation kernels ([`AggKernel`]), whose results stay in registers.
#[derive(Clone, Debug)]
struct Kernels {
    instrs: Vec<VInstr>,
    /// Registers per file, indexed by [`Ty`].
    n_regs: [usize; N_TYS],
    n_sels: usize,
}

/// A lowered Map/Filter chain's selections, at each stage's entry and then
/// at its output: their sizes are the per-stage row counts ([`count`]).
type Chain = Vec<SelId>;

/// Adds each selection of `chain` in the batch `s` last evaluated to its
/// row count in `counts`.
fn count(chain: &Chain, s: &VectorScratch, counts: &mut [u64]) {
    for (c, &sel) in counts.iter_mut().zip(chain) {
        *c += s.sels[sel].len() as u64;
    }
}

/// The selection a chain's rows leave by.
fn out(chain: &Chain) -> SelId {
    chain[chain.len() - 1]
}

/// A fully-specialized columnar program for one operator (or one fused
/// Map/Filter chain). Immutable and shareable across worker threads; each
/// task evaluates it with its own [`VectorScratch`].
#[derive(Clone, Debug)]
pub struct VectorPipeline {
    kernels: Kernels,
    chain: Chain,
    out: MatNode,
}

/// Reusable per-task columnar scratch: typed register files plus selection
/// vectors, grown once and reused across every batch a task evaluates.
#[derive(Debug, Default)]
pub struct VectorScratch {
    i: Vec<Vec<i64>>,
    f: Vec<Vec<f64>>,
    b: Vec<Vec<bool>>,
    s: Vec<StrCol>,
    v: Vec<Vec<Value>>,
    sels: Vec<Vec<u32>>,
}

impl VectorScratch {
    fn new(n_regs: &[usize; N_TYS], n_sels: usize) -> Self {
        VectorScratch {
            i: vec![Vec::new(); n_regs[Ty::I as usize]],
            f: vec![Vec::new(); n_regs[Ty::F as usize]],
            b: vec![Vec::new(); n_regs[Ty::B as usize]],
            s: vec![StrCol::default(); n_regs[Ty::S as usize]],
            v: vec![Vec::new(); n_regs[Ty::V as usize]],
            sels: vec![Vec::new(); n_sels],
        }
    }
}

// ----------------------------------------------------------- type inference

/// Statically types a chain of UDFs against a driver-side sample — its first
/// row fixes the input shape, and all of them decide which `Str` slots load
/// dictionary-encoded ([`StrCol`]: at least [`DICT_MIN_SAMPLE`] conforming
/// samples, at most half of them distinct) — lowering every node to column
/// kernels. `None` as soon as a node is not specializable: the interpreter
/// (always correct) then runs the chain, reported as a fallback. A pure
/// function of the UDFs, their base scopes and the sample, so decisions
/// replay across runs, thread counts and dispatch modes.
pub fn specialize_sampled(
    stages: &[VecStageSpec<'_>],
    samples: &[Value],
) -> Option<VectorPipeline> {
    let mut b = Builder::new(samples);
    let (cur, chain) = b.chain(stages)?;
    // A filter-only chain's output is its surviving input rows, shared.
    let out = if stages.iter().any(|s| matches!(s, VecStageSpec::Map(..))) {
        b.mat_node(cur, true)?
    } else {
        MatNode::Pass(Vec::new())
    };
    Some(VectorPipeline {
        kernels: b.finish(),
        chain,
        out,
    })
}

/// Minimum conforming sample rows before the dictionary heuristic may
/// fire — a dictionary decided from a couple of rows is noise.
pub(crate) const DICT_MIN_SAMPLE: usize = 8;

struct Builder<'s> {
    /// The driver-side sample rows (shape from the first, encoding
    /// decisions from all of them).
    samples: &'s [Value],
    instrs: Vec<VInstr>,
    /// Registers allocated so far in each file, indexed by [`Ty`].
    n_regs: [usize; N_TYS],
    n_sels: usize,
    /// Selection the currently-lowered expression evaluates under (branch
    /// bodies narrow it); every compute kernel is tagged with it.
    cur_sel: SelId,
    /// Loads memoized by field path, so a component is loaded (and shape-
    /// checked) once per batch however often the programs reference it.
    loads: HashMap<Vec<usize>, Col>,
}

impl<'s> Builder<'s> {
    fn new(samples: &'s [Value]) -> Self {
        Builder {
            samples,
            instrs: Vec::new(),
            n_regs: [0; N_TYS],
            n_sels: 1, // sel 0 = the full batch
            cur_sel: 0,
            loads: HashMap::new(),
        }
    }

    /// Low-cardinality check for a `Str` slot: dictionary-encode when at
    /// least [`DICT_MIN_SAMPLE`] sampled rows conform and at most half of
    /// them are distinct. Non-conforming sample rows are simply skipped —
    /// conformance is enforced per batch by the load itself.
    fn dict_for_path(&self, path: &[usize]) -> bool {
        let strs: Vec<&Value> = (self.samples.iter())
            .filter_map(|row| path_get(row, path).filter(|v| matches!(v, Value::Str(_))))
            .collect();
        let distinct = (0..strs.len()).filter(|&i| !strs[..i].contains(&strs[i]));
        strs.len() >= DICT_MIN_SAMPLE && distinct.count() * 2 <= strs.len()
    }

    /// A fresh register of file `ty`. Registers are single-assignment: each
    /// is the `dst` of exactly one kernel.
    fn new_reg(&mut self, ty: Ty) -> Col {
        let reg = self.n_regs[ty as usize];
        self.n_regs[ty as usize] += 1;
        Col { ty, reg }
    }

    fn new_sel(&mut self) -> SelId {
        self.n_sels += 1;
        self.n_sels - 1
    }

    /// Emits `dst = op(a)` under the current selection into a fresh `ty`
    /// register.
    fn emit_un(&mut self, op: Op1, ty: Ty, a: Col) -> Col {
        let dst = self.new_reg(ty);
        let sel = self.cur_sel;
        self.instrs.push(VInstr::Un { sel, op, dst, a });
        dst
    }

    /// Emits `dst = op(a, b)` under the current selection into a fresh `ty`
    /// register.
    fn emit_bin(&mut self, op: Op2, ty: Ty, a: Col, b: Col) -> Col {
        let dst = self.new_reg(ty);
        let sel = self.cur_sel;
        self.instrs.push(VInstr::Bin { sel, op, dst, a, b });
        dst
    }

    /// Lowers a Map/Filter chain over the sample's input row: its output
    /// value and its selections, each `Filter` narrowing the next stage's.
    fn chain(&mut self, stages: &[VecStageSpec<'_>]) -> Option<(VVal, Chain)> {
        let mut cur = VVal::Arg {
            path: Vec::new(),
            shape: shape_of(self.samples.first()?),
        };
        let mut chain = vec![0];
        for spec in stages {
            let (VecStageSpec::Map(lam, base) | VecStageSpec::Filter(lam, base)) = spec;
            let sel = out(&chain);
            let v = self.eval_udf((lam, base), &cur, sel)?;
            if let VecStageSpec::Map(..) = spec {
                cur = v;
                chain.push(sel);
                continue;
            }
            // The scalar filter applies `as_bool` to the result; a non-Bool
            // static type errors on every row — let the interpreter produce
            // that error.
            let pred = self.resolve_bool(v)?;
            let (parent, dst) = (sel, self.new_sel());
            self.instrs.push(VInstr::FilterApply { parent, pred, dst });
            chain.push(dst);
        }
        Some((cur, chain))
    }

    /// Abstractly evaluates a one-parameter UDF over `input` under the
    /// selection `sel`; `None` = not specializable.
    fn eval_udf(&mut self, (lam, base): Udf, input: &VVal, sel: SelId) -> Option<VVal> {
        let [param] = lam.params.as_slice() else {
            return None;
        };
        self.cur_sel = sel;
        self.eval_expr(&lam.body, &Scope { param, input, base })
    }

    /// Lowers `e` under the current selection, left to right: the
    /// interpreter's evaluation order.
    fn eval_expr(&mut self, e: &ScalarExpr, sc: &Scope) -> Option<VVal> {
        // A closed subtree is the same on every row: evaluate it once and
        // splat it. One that raises does so on every row; fall back.
        if e.is_closed() {
            return const_eval(e).ok().map(|v| self.splat(&v));
        }
        Some(match e {
            ScalarExpr::Lit(v) => self.splat(v),
            ScalarExpr::Var(n) if *n == sc.param => sc.input.clone(),
            // An unbound name errors whenever read; fall back.
            ScalarExpr::Var(n) => self.splat(sc.base.get(n)?),
            ScalarExpr::Field(inner, i) => {
                let v = self.eval_expr(inner, sc)?;
                self.field(v, *i)?
            }
            ScalarExpr::BinOp(op, l, r) => {
                let (l, r) = (self.eval_expr(l, sc)?, self.eval_expr(r, sc)?);
                VVal::Col(self.bin(*op, l, r)?)
            }
            ScalarExpr::UnOp(op, a) => {
                let a = self.eval_expr(a, sc)?;
                VVal::Col(self.un(*op, a)?)
            }
            ScalarExpr::Call(f, args) => {
                let args: Option<_> = args.iter().map(|a| self.eval_expr(a, sc)).collect();
                VVal::Col(self.call(*f, args?)?)
            }
            ScalarExpr::Tuple(fs) => {
                let fs: Option<_> = fs.iter().map(|f| self.eval_expr(f, sc)).collect();
                VVal::Tup(fs?)
            }
            ScalarExpr::If(c, t, el) => {
                // Non-Bool condition: `as_bool` errors per row.
                let cond = self.eval_expr(c, sc).and_then(|c| self.resolve_bool(c))?;
                let (parent, then_sel, else_sel) = (self.cur_sel, self.new_sel(), self.new_sel());
                self.instrs.push(VInstr::SelSplit {
                    parent,
                    cond,
                    then_sel,
                    else_sel,
                });
                // Each branch's kernels run only over its own lanes, so an
                // error in the untaken branch of a lane cannot fire.
                self.cur_sel = then_sel;
                let t = self.eval_expr(t, sc)?;
                self.cur_sel = else_sel;
                let e = self.eval_expr(el, sc)?;
                self.cur_sel = parent;
                self.merge(t, e, then_sel, else_sel)?
            }
            // A nested bag's `count` is its length; other folds stay scalar.
            ScalarExpr::Fold(bag, fold) => {
                let (BagExpr::OfValue(src), true) = (&**bag, counts(fold)) else {
                    return None;
                };
                let bag = self.eval_expr(src, sc)?;
                let bag = self.resolve(bag).filter(|c| c.ty == Ty::V)?;
                VVal::Col(self.emit_un(Op1::Len, Ty::I, bag))
            }
            // Bag construction stays scalar.
            ScalarExpr::BagOf(_) => return None,
        })
    }

    /// Broadcasts a constant (a folded subtree or a base binding) into columns.
    /// A non-scalar, non-tuple constant (Null, Vector, Bag) becomes an
    /// opaque pass-through column: usable only in output tuples, never as a
    /// kernel operand.
    fn splat(&mut self, v: &Value) -> VVal {
        if let Value::Tuple(fs) = v {
            return VVal::Tup(fs.iter().map(|f| self.splat(f)).collect());
        }
        let dst = self.new_reg(leaf_ty(v));
        self.instrs.push(VInstr::Splat { dst, v: v.clone() });
        VVal::Col(dst)
    }

    fn field(&mut self, v: VVal, i: usize) -> Option<VVal> {
        match v {
            // Out of range errors per row; the interpreter reproduces it.
            VVal::Tup(mut fs) => (i < fs.len()).then(|| fs.swap_remove(i)),
            VVal::Arg { path, shape } => match shape {
                Shape::Tuple(mut fs) if i < fs.len() => {
                    let mut p = path;
                    p.push(i);
                    Some(VVal::Arg {
                        path: p,
                        shape: fs.swap_remove(i),
                    })
                }
                _ => None,
            },
            // Field access on a non-tuple errors per row.
            VVal::Col(_) => None,
        }
    }

    /// Resolves an abstract value to a concrete column, emitting a
    /// (memoized) load for input components. Whole-tuple values have no
    /// single register — callers that need one reject instead.
    fn resolve(&mut self, v: VVal) -> Option<Col> {
        match v {
            VVal::Col(c) => Some(c),
            VVal::Arg {
                path,
                shape: Shape::Leaf(ty),
            } => {
                if let Some(c) = self.loads.get(&path) {
                    return Some(*c);
                }
                let dst = self.new_reg(ty);
                let dict = ty == Ty::S && self.dict_for_path(&path);
                self.instrs.push(VInstr::Load {
                    dst,
                    path: path.clone(),
                    dict,
                });
                self.loads.insert(path, dst);
                Some(dst)
            }
            VVal::Tup(_) | VVal::Arg { .. } => None,
        }
    }

    /// Resolves to a `Bool` column's register; `None` for any other type.
    fn resolve_bool(&mut self, v: VVal) -> Option<Reg> {
        self.resolve(v).filter(|c| c.ty == Ty::B).map(|c| c.reg)
    }

    /// A float column holding `c`, coercing Int→Float where the scalar
    /// semantics would (`as_float`); `None` for non-numeric columns.
    fn float_of(&mut self, c: Col) -> Option<Col> {
        match c.ty {
            Ty::F => Some(c),
            Ty::I => Some(self.emit_un(Op1::Cast, Ty::F, c)),
            _ => None,
        }
    }

    fn bin(&mut self, op: BinOp, l: VVal, r: VVal) -> Option<Col> {
        use {BinOp::*, Ty::*};
        let (a, b) = (self.resolve(l)?, self.resolve(r)?);
        let cmp = matches!(op, Eq | Ne | Lt | Le | Gt | Ge);
        // The operand type the kernel runs on.
        let on = match (op, a.ty, b.ty) {
            // `Mod` is strict on Int (`as_int`): anything else errors.
            (Add | Sub | Mul | Mod, I, I) => I,
            // Mixed Int/Float arithmetic coerces through f64 and division
            // is always float; vector arithmetic, strings, etc. stay scalar.
            (Add | Sub | Mul | Div, I | F, I | F) => F,
            (_, I, I) | (_, B, B) | (_, S, S) if cmp => a.ty,
            // Mixed Int/Float comparison coerces through f64, matching
            // `Value`'s cross-type order; cross-rank comparisons (and tuple
            // equality) stay scalar.
            (_, I | F, I | F) if cmp => F,
            (And | Or, B, B) => B,
            _ => return None,
        };
        let (a, b) = match on {
            F => (self.float_of(a)?, self.float_of(b)?),
            _ => (a, b),
        };
        Some(self.emit_bin(Op2::Bin(op), if cmp { B } else { on }, a, b))
    }

    fn un(&mut self, op: UnOp, a: VVal) -> Option<Col> {
        let a = self.resolve(a)?;
        match (op, a.ty) {
            (UnOp::Not, Ty::B) => Some(self.emit_un(Op1::Not, Ty::B, a)),
            (UnOp::Neg, Ty::I | Ty::F) => Some(self.emit_un(Op1::Neg, a.ty, a)),
            _ => None,
        }
    }

    fn call(&mut self, f: BuiltinFn, mut args: Vec<VVal>) -> Option<Col> {
        use Ty::*;
        let b = args.pop().and_then(|v| self.resolve(v))?;
        match (f, b.ty) {
            (BuiltinFn::Sqrt, I | F) => {
                let a = self.float_of(b)?;
                Some(self.emit_un(Op1::Sqrt, F, a))
            }
            (BuiltinFn::Abs, I | F) => Some(self.emit_un(Op1::Abs, b.ty, b)),
            (BuiltinFn::HashOf, I | F | B | S) => Some(self.emit_un(Op1::Hash, I, b)),
            // `str_len` on a non-string errors per row (`as_str`).
            (BuiltinFn::StrLen, S) => Some(self.emit_un(Op1::StrLen, I, b)),
            (BuiltinFn::MinOf | BuiltinFn::MaxOf, I | F) => {
                let a = args.pop().and_then(|v| self.resolve(v))?;
                let op = match f {
                    BuiltinFn::MinOf => Op2::Min,
                    _ => Op2::Max,
                };
                // Mixed Int/Float min/max picks one operand verbatim — a
                // mixed-type output column; Null-as-unit likewise.
                (a.ty == b.ty).then(|| self.emit_bin(op, a.ty, a, b))
            }
            (BuiltinFn::StrContains, S) => {
                let hay = args.pop().and_then(|v| self.resolve(v))?;
                // Non-string operands error per row (`as_str`).
                (hay.ty == S).then(|| self.emit_bin(Op2::Contains, B, hay, b))
            }
            // Vector builtins stay scalar.
            _ => None,
        }
    }

    /// Merges two branch results into one column per leaf.
    fn merge(&mut self, t: VVal, e: VVal, ts: SelId, es: SelId) -> Option<VVal> {
        match (t, e) {
            (VVal::Tup(tf), VVal::Tup(ef)) if tf.len() == ef.len() => {
                let fs = tf
                    .into_iter()
                    .zip(ef)
                    .map(|(a, b)| self.merge(a, b, ts, es));
                fs.collect::<Option<_>>().map(VVal::Tup)
            }
            (t, e) => {
                let (t, e) = (self.resolve(t)?, self.resolve(e)?);
                if t == e {
                    // Both branches yield the same column (e.g. the same
                    // input field): no merge needed.
                    return Some(VVal::Col(t));
                }
                if t.ty != e.ty {
                    // Branches of different static types would produce a
                    // mixed-type column.
                    return None;
                }
                let dst = self.new_reg(t.ty);
                self.instrs.push(VInstr::Merge {
                    dst,
                    ts,
                    t: t.reg,
                    es,
                    e: e.reg,
                });
                Some(VVal::Col(dst))
            }
        }
    }

    /// The lowered program: every kernel emitted so far plus the register
    /// counts to size a scratch for it.
    fn finish(self) -> Kernels {
        Kernels {
            instrs: self.instrs,
            n_regs: self.n_regs,
            n_sels: self.n_sels,
        }
    }

    /// Materialization recipe for the final abstract value. When `share`d,
    /// what the kernels did not compute is shared from its source: an input
    /// component (a string or opaque leaf, or a whole sub-tuple with a leaf)
    /// by its path, a constant by itself. Every input leaf still loads: the
    /// loads are the batch's conformance check. No load checks a tuple's
    /// arity, so a forwarded input tuple is shared whole or refused.
    fn mat_node(&mut self, v: VVal, share: bool) -> Option<MatNode> {
        match v {
            VVal::Tup(fs) => {
                let fs = fs.into_iter().map(|f| self.mat_node(f, share));
                fs.collect::<Option<_>>().map(MatNode::Tup)
            }
            VVal::Arg {
                path,
                shape: Shape::Tuple(fs),
            } => {
                let fs = fs.into_iter().enumerate().map(|(i, shape)| {
                    let path = path.iter().copied().chain([i]).collect();
                    self.mat_node(VVal::Arg { path, shape }, share)
                });
                fs.collect::<Option<Vec<_>>>()?;
                // A loaded leaf below `path` proves every row has `path`.
                let below = |p: &Vec<usize>| p.len() > path.len() && p.starts_with(&path);
                (share && self.loads.keys().any(below)).then_some(MatNode::Pass(path))
            }
            v => {
                let c = self.resolve(v)?;
                let passes = share && matches!(c.ty, Ty::S | Ty::V);
                let src = self.instrs.iter().find_map(|i| match i {
                    VInstr::Load { dst, path: p, .. } if *dst == c && passes => {
                        Some(MatNode::Pass(p.clone()))
                    }
                    VInstr::Splat { dst, v } if *dst == c && share => {
                        Some(MatNode::Const(v.clone()))
                    }
                    _ => None,
                });
                Some(src.unwrap_or(MatNode::Col(c)))
            }
        }
    }
}

/// What a UDF body's names read: its parameter the input, others the base.
struct Scope<'a> {
    param: &'a str,
    input: &'a VVal,
    base: &'a HashMap<String, Value>,
}

/// A closed subtree's value, exactly the reference interpreter's.
fn const_eval(e: &ScalarExpr) -> Result<Value, ValueError> {
    interp::eval_scalar(e, &mut Env::new(&HashMap::new()), &Catalog::new())
}

/// Whether a fold is a count, `fold(0, _ ⟼ 1, (a, b) ⟼ a + b)`, read off its
/// lambdas — never off the label [`FoldOp::kind`] — with closed constants
/// that are `Int`s by variant (`Value` equality says `Int(0) == Float(0.0)`).
fn counts(fold: &FoldOp) -> bool {
    let int = |e: &ScalarExpr, want: i64| {
        e.is_closed() && matches!(const_eval(e), Ok(Value::Int(n)) if n == want)
    };
    int(&fold.zero, 0)
        && fold.sng.params.len() == 1
        && int(&fold.sng.body, 1)
        && slot_ops(&fold.uni) == Some((vec![SlotOp::Add], false))
}

// ---------------------------------------------------------------- execution

fn hash_value(v: &Value) -> i64 {
    (emma_core::ops::hash_of(v) & 0x7fff_ffff_ffff_ffff) as i64
}

/// `HashOf` over a string's bytes without materializing a `Value`: replays
/// `Value::Str`'s `Hash` impl byte-for-byte (the `3u8` discriminant, then
/// `str::hash` = the bytes plus a `0xff` terminator), so results are
/// bit-identical to the interpreter's. Pinned against [`hash_value`] by
/// `string_hash_kernel_matches_value_hash`.
fn hash_str_bytes(bytes: &[u8]) -> i64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write_u8(3);
    h.write(bytes);
    h.write_u8(0xff);
    (h.finish() & 0x7fff_ffff_ffff_ffff) as i64
}

/// Byte-level substring search, equivalent to `str::contains` for valid
/// UTF-8 (a byte-level match cannot straddle a char boundary in
/// well-formed input).
fn contains_bytes(hay: &[u8], needle: &[u8]) -> bool {
    let Some(&first) = needle.first() else {
        return true;
    };
    hay.windows(needle.len())
        .any(|w| w[0] == first && w == needle)
}

fn cmp_holds(op: BinOp, o: Ordering) -> bool {
    match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::Ne => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::Le => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::Ge => o != Ordering::Less,
        _ => unreachable!("comparison kernels carry comparison ops"),
    }
}

/// `min_of(a, b)` on floats: `if a <= b { a } else { b }` under `Value`'s
/// total order (`total_cmp`).
fn min_total(a: f64, b: f64) -> f64 {
    std::cmp::min_by(a, b, f64::total_cmp)
}

/// `max_of(a, b)` on floats: `if a >= b { a } else { b }` under `total_cmp`
/// (whose ties are bit-identical, so which one it picks is moot).
fn max_total(a: f64, b: f64) -> f64 {
    std::cmp::max_by(a, b, f64::total_cmp)
}

impl Kernels {
    /// Runs every kernel over one batch, leaving the results in `s`'s
    /// registers. `false` = the batch aborted (shape mismatch or a runtime
    /// error on a selected lane); register contents are then unspecified.
    fn run(&self, rows: &[Value], s: &mut VectorScratch) -> bool {
        let n = rows.len();
        debug_assert!(n <= u32::MAX as usize, "batch exceeds lane index width");
        s.sels[0].clear();
        s.sels[0].extend(0..n as u32);
        self.instrs.iter().all(|instr| step(instr, rows, s, n))
    }
}

impl VectorPipeline {
    /// Number of fused stages this program covers.
    pub fn n_stages(&self) -> usize {
        self.chain.len() - 1
    }

    /// Fresh per-task scratch buffers for this program.
    pub fn new_scratch(&self) -> VectorScratch {
        VectorScratch::new(&self.kernels.n_regs, self.kernels.n_sels)
    }

    /// The lanes of the last batch [`run_batch`](Self::run_batch) evaluated
    /// with `s` that reached the output, ascending: one per output row.
    pub fn out_lanes<'s>(&self, s: &'s VectorScratch) -> &'s [u32] {
        &s.sels[out(&self.chain)]
    }

    /// Evaluates one batch of input rows through every fused stage.
    ///
    /// On success: appends output rows to `out`, adds each stage's entry
    /// row count plus the output count to `counts` (length
    /// `n_stages() + 1`), and returns `true`.
    ///
    /// Returns `false` — with `counts` and `out` untouched — when the batch
    /// cannot be evaluated columnar-exactly: a row does not conform to the
    /// specialized input shape, or a selected lane hits a runtime error
    /// (division/modulo by zero). The caller must then evaluate the same
    /// batch row-at-a-time through the interpreter, which reproduces values
    /// and the first error in evaluation order bit-identically.
    pub fn run_batch(
        &self,
        rows: &[Value],
        s: &mut VectorScratch,
        counts: &mut [u64],
        out: &mut Vec<Value>,
    ) -> bool {
        debug_assert_eq!(counts.len(), self.n_stages() + 1);
        if !self.kernels.run(rows, s) {
            return false;
        }
        count(&self.chain, s, counts);
        let lanes = self.out_lanes(s).iter();
        out.extend(lanes.map(|&l| mat_value(&self.out, s, rows, l as usize)));
        true
    }
}

/// Lane `l` of `m` as one `Value` — a column type's materialization, or a
/// clone of the part of `rows[l]` or the constant it shares.
fn mat_value(m: &MatNode, s: &VectorScratch, rows: &[Value], l: usize) -> Value {
    match m {
        MatNode::Col(c) => match c.ty {
            Ty::I => Value::Int(s.i[c.reg][l]),
            Ty::F => Value::Float(s.f[c.reg][l]),
            Ty::B => Value::Bool(s.b[c.reg][l]),
            Ty::S => Value::str(
                std::str::from_utf8(s.s[c.reg].lane(l))
                    .expect("string arena holds whole UTF-8 strings"),
            ),
            Ty::V => s.v[c.reg][l].clone(),
        },
        MatNode::Tup(fs) => Value::Tuple(fs.iter().map(|f| mat_value(f, s, rows, l)).collect()),
        MatNode::Pass(path) => path_get(&rows[l], path).expect("a loaded path").clone(),
        MatNode::Const(v) => v.clone(),
    }
}

/// A lane type with a `Vec`-per-register file in the scratch: the three
/// scalars the kernels compute on, and the opaque pass-through `Value`.
/// (Strings live in [`StrCol`] arenas and have their own load, splat and
/// merge.)
trait Lane: Clone + 'static {
    /// What the never-read lanes of a freshly grown column hold.
    const FILL: Self;
    fn file(s: &VectorScratch) -> &[Vec<Self>];
    fn file_mut(s: &mut VectorScratch) -> &mut Vec<Vec<Self>>;
    /// The lane a row component of this type loads as; `None` when the
    /// component does not conform.
    fn load(v: &Value) -> Option<Self>;
}

macro_rules! lane {
    ($t:ty, $file:ident, $fill:expr, $pat:pat => $lane:expr) => {
        impl Lane for $t {
            const FILL: Self = $fill;
            fn file(s: &VectorScratch) -> &[Vec<Self>] {
                &s.$file
            }
            fn file_mut(s: &mut VectorScratch) -> &mut Vec<Vec<Self>> {
                &mut s.$file
            }
            #[allow(unreachable_patterns)]
            fn load(v: &Value) -> Option<Self> {
                match v {
                    $pat => Some($lane),
                    _ => None,
                }
            }
        }
    };
}
lane!(i64, i, 0, Value::Int(x) => *x);
lane!(f64, f, 0.0, Value::Float(x) => *x);
lane!(bool, b, false, Value::Bool(x) => *x);
lane!(Value, v, Value::Null, x => x.clone());

/// Loads the component at `path` of every row into register `dst` — the
/// whole batch, whatever the selection — and doubles as the per-batch shape
/// check: `false` when some row's component is not a `T`.
fn load<T: Lane>(s: &mut VectorScratch, dst: Reg, rows: &[Value], path: &[usize]) -> bool {
    let d = &mut T::file_mut(s)[dst];
    d.clear();
    d.reserve(rows.len());
    rows.iter()
        .all(|row| match path_get(row, path).and_then(T::load) {
            Some(v) => {
                d.push(v);
                true
            }
            None => false,
        })
}

/// Broadcasts the constant `v` into every lane of register `dst`.
fn splat<T: Lane>(s: &mut VectorScratch, n: usize, dst: Reg, v: &Value) -> bool {
    let d = &mut T::file_mut(s)[dst];
    d.clear();
    d.resize(n, T::load(v).expect(SPLAT_TYPING));
    true
}

const SPLAT_TYPING: &str = "a splat's register is typed by its constant";

/// [`splat`] for a string: one arena entry every lane points at, which is
/// also the column's single dictionary entry.
fn splat_str(d: &mut StrCol, n: usize, v: &Value) -> bool {
    d.clear();
    let Some((start, len)) = d.push_bytes(v.as_str().expect(SPLAT_TYPING).as_bytes()) else {
        return false; // single string wider than the arena
    };
    d.starts.resize(n, start);
    d.lens.resize(n, len);
    d.codes.resize(n, 0);
    d.dict.push((start, len));
    true
}

/// Where a compute kernel runs: the batch size, the selection, the
/// destination register and the operand registers (`b == a` for a unary
/// kernel). Which files the registers index is the helper's type
/// parameters.
#[derive(Clone, Copy)]
struct At {
    n: usize,
    sel: SelId,
    dst: Reg,
    a: Reg,
    b: Reg,
}

/// Hands `body` register `dst`, grown to `n` lanes, next to the rest of the
/// scratch. A kernel whose destination shares a register file with its
/// operands needs the destination column moved out while it runs — the
/// builder is single-assignment, so `dst` never aliases an operand.
fn write<D: Lane>(
    s: &mut VectorScratch,
    n: usize,
    dst: Reg,
    body: impl FnOnce(&VectorScratch, &mut [D]) -> bool,
) -> bool {
    let mut d = std::mem::take(&mut D::file_mut(s)[dst]);
    if d.len() < n {
        d.resize(n, D::FILL);
    }
    let ok = body(s, &mut d);
    D::file_mut(s)[dst] = d;
    ok
}

/// `dst[l] = f(a[l], b[l])` over the selected lanes; the first lane where
/// `f` is `None` aborts the batch (`false`).
fn try_binary<A: Lane + Copy, D: Lane>(
    s: &mut VectorScratch,
    at: At,
    f: impl Fn(A, A) -> Option<D>,
) -> bool {
    write(s, at.n, at.dst, |s, d| {
        let (a, b) = (&A::file(s)[at.a], &A::file(s)[at.b]);
        s.sels[at.sel].iter().all(|&l| {
            let l = l as usize;
            f(a[l], b[l]).map(|v| d[l] = v).is_some()
        })
    })
}

/// `dst[l] = f(a[l], b[l])` over the selected lanes.
fn binary<A: Lane + Copy, D: Lane>(s: &mut VectorScratch, at: At, f: impl Fn(A, A) -> D) -> bool {
    try_binary(s, at, |x, y| Some(f(x, y)))
}

/// `dst[l] = f(a[l])` over the selected lanes.
fn unary<A: Lane + Copy, D: Lane>(s: &mut VectorScratch, at: At, f: impl Fn(A) -> D) -> bool {
    write(s, at.n, at.dst, |s, d| {
        let a = &A::file(s)[at.a];
        for &l in &s.sels[at.sel] {
            d[l as usize] = f(a[l as usize]);
        }
        true
    })
}

/// `dst[l] = f(a, b, l)` over the selected lanes: the form of the string
/// kernels, which read their operand columns' arena ranges and dictionary
/// codes rather than one `Lane` per lane.
fn str_lanes<D: Lane>(
    s: &mut VectorScratch,
    at: At,
    f: impl Fn(&StrCol, &StrCol, usize) -> D,
) -> bool {
    write(s, at.n, at.dst, |s, d| {
        let (a, b) = (&s.s[at.a], &s.s[at.b]);
        for &l in &s.sels[at.sel] {
            d[l as usize] = f(a, b, l as usize);
        }
        true
    })
}

/// Merges the two branch results of an `If` — `(selection, register)` per
/// arm — back into register `dst`.
fn merge<T: Lane>(s: &mut VectorScratch, n: usize, dst: Reg, arms: [(SelId, Reg); 2]) -> bool {
    write(s, n, dst, |s, d: &mut [T]| {
        for (sel, src) in arms {
            let src = &T::file(s)[src];
            for &l in &s.sels[sel] {
                d[l as usize] = src[l as usize].clone();
            }
        }
        true
    })
}

/// [`merge`] for string columns: each taken lane's bytes are copied into
/// `dst`'s own arena; `false` when that arena would outgrow `u32` offsets.
fn merge_str(s: &mut VectorScratch, n: usize, dst: Reg, arms: [(SelId, Reg); 2]) -> bool {
    let mut d = std::mem::take(&mut s.s[dst]);
    d.clear();
    d.starts.resize(n, 0);
    d.lens.resize(n, 0);
    let ok = arms.iter().all(|&(sel, src)| {
        let src = &s.s[src];
        s.sels[sel].iter().all(|&l| {
            let l = l as usize;
            let range = d.push_bytes(src.lane(l));
            range
                .map(|(start, len)| (d.starts[l], d.lens[l]) = (start, len))
                .is_some()
        })
    });
    s.s[dst] = d;
    ok
}

/// Executes one kernel; `false` aborts the batch (shape mismatch or a
/// runtime error on a selected lane). The `(op, operand type)` dispatch
/// happens here, once per batch: each arm hands its per-lane closure to a
/// lane helper, which owns the loop.
fn step(instr: &VInstr, rows: &[Value], s: &mut VectorScratch, n: usize) -> bool {
    use {BinOp::*, Ty::*};
    const TYPING: &str = "the builder emits a kernel only on the operand types it is defined on";
    match instr {
        VInstr::Load { dst, path, dict } => match dst.ty {
            I => load::<i64>(s, dst.reg, rows, path),
            F => load::<f64>(s, dst.reg, rows, path),
            B => load::<bool>(s, dst.reg, rows, path),
            V => load::<Value>(s, dst.reg, rows, path),
            S => {
                let d = &mut s.s[dst.reg];
                d.clear();
                d.starts.reserve(n);
                d.lens.reserve(n);
                if *dict {
                    load_str_dict(d, rows, path)
                } else {
                    load_str_plain(d, rows, path)
                }
            }
        },
        VInstr::Splat { dst, v } => match dst.ty {
            I => splat::<i64>(s, n, dst.reg, v),
            F => splat::<f64>(s, n, dst.reg, v),
            B => splat::<bool>(s, n, dst.reg, v),
            V => splat::<Value>(s, n, dst.reg, v),
            S => splat_str(&mut s.s[dst.reg], n, v),
        },
        VInstr::Un { sel, op, dst, a } => {
            let at = At {
                n,
                sel: *sel,
                dst: dst.reg,
                a: a.reg,
                b: a.reg,
            };
            match (op, a.ty) {
                (Op1::Cast, I) => unary(s, at, |x: i64| x as f64),
                (Op1::Neg, I) => unary(s, at, |x: i64| -x),
                (Op1::Neg, F) => unary(s, at, |x: f64| -x),
                (Op1::Not, B) => unary(s, at, |x: bool| !x),
                (Op1::Abs, I) => unary(s, at, i64::abs),
                (Op1::Abs, F) => unary(s, at, f64::abs),
                (Op1::Sqrt, F) => unary(s, at, f64::sqrt),
                (Op1::Hash, I) => unary(s, at, |x: i64| hash_value(&Value::Int(x))),
                (Op1::Hash, F) => unary(s, at, |x: f64| hash_value(&Value::Float(x))),
                (Op1::Hash, B) => unary(s, at, |x: bool| hash_value(&Value::Bool(x))),
                (Op1::Hash, S) if s.s[at.a].dict.is_empty() => {
                    str_lanes(s, at, |a, _, l| hash_str_bytes(a.lane(l)))
                }
                (Op1::Hash, S) => {
                    let per = s.s[at.a].per_entry(hash_str_bytes);
                    str_lanes(s, at, |a, _, l| per[a.codes[l] as usize])
                }
                (Op1::StrLen, S) => str_lanes(s, at, |a, _, l| a.lens[l] as i64),
                (Op1::Len, V) => write(s, n, at.dst, |s, d: &mut [i64]| {
                    s.sels[at.sel].iter().all(|&l| {
                        let len = s.v[at.a][l as usize].as_bag().map(|xs| xs.len() as i64);
                        len.map(|len| d[l as usize] = len).is_ok()
                    })
                }),
                _ => unreachable!("{TYPING}"),
            }
        }
        VInstr::Bin { sel, op, dst, a, b } => {
            let at = At {
                n,
                sel: *sel,
                dst: dst.reg,
                a: a.reg,
                b: b.reg,
            };
            match (*op, a.ty) {
                (Op2::Bin(Add), I) => binary(s, at, i64::wrapping_add),
                (Op2::Bin(Sub), I) => binary(s, at, i64::wrapping_sub),
                (Op2::Bin(Mul), I) => binary(s, at, i64::wrapping_mul),
                (Op2::Bin(Mod), I) => {
                    try_binary(s, at, |x: i64, y: i64| (y != 0).then(|| x.rem_euclid(y)))
                }
                (Op2::Bin(Add), F) => binary(s, at, |x: f64, y: f64| x + y),
                (Op2::Bin(Sub), F) => binary(s, at, |x: f64, y: f64| x - y),
                (Op2::Bin(Mul), F) => binary(s, at, |x: f64, y: f64| x * y),
                (Op2::Bin(Div), F) => try_binary(s, at, |x: f64, y: f64| (y != 0.0).then(|| x / y)),
                (Op2::Min, I) => binary(s, at, i64::min),
                (Op2::Max, I) => binary(s, at, i64::max),
                (Op2::Min, F) => binary(s, at, min_total),
                (Op2::Max, F) => binary(s, at, max_total),
                (Op2::Bin(And), B) => binary(s, at, |x: bool, y: bool| x && y),
                (Op2::Bin(Or), B) => binary(s, at, |x: bool, y: bool| x || y),
                // Value equality on floats goes through `float_key` (all
                // NaNs equal, ±0 equal) — not `total_cmp`.
                (Op2::Bin(Eq), F) => binary(s, at, |x: f64, y: f64| float_key(x) == float_key(y)),
                (Op2::Bin(Ne), F) => binary(s, at, |x: f64, y: f64| float_key(x) != float_key(y)),
                // What is left of `Bin` are the comparisons.
                (Op2::Bin(op), I) => binary(s, at, |x: i64, y: i64| cmp_holds(op, x.cmp(&y))),
                (Op2::Bin(op), F) => binary(s, at, |x: f64, y: f64| cmp_holds(op, x.total_cmp(&y))),
                (Op2::Bin(op), B) => binary(s, at, |x: bool, y: bool| cmp_holds(op, x.cmp(&y))),
                // `Value::Str` equality is content equality and its order
                // is bytewise, so one byte-slice `cmp` covers every
                // comparison operator.
                (Op2::Bin(op), S) => {
                    str_lanes(s, at, |a, b, l| cmp_holds(op, a.lane(l).cmp(b.lane(l))))
                }
                // Uniform needle over a dictionary-encoded haystack: search
                // once per distinct value, gather through codes.
                (Op2::Contains, S) if !s.s[at.a].dict.is_empty() && s.s[at.b].dict.len() == 1 => {
                    let needle = s.s[at.b].dict_entry(0);
                    let per = s.s[at.a].per_entry(|hay| contains_bytes(hay, needle));
                    str_lanes(s, at, |a, _, l| per[a.codes[l] as usize])
                }
                (Op2::Contains, S) => {
                    str_lanes(s, at, |a, b, l| contains_bytes(a.lane(l), b.lane(l)))
                }
                _ => unreachable!("{TYPING}"),
            }
        }
        VInstr::SelSplit {
            parent,
            cond,
            then_sel,
            else_sel,
        } => {
            let mut ts = std::mem::take(&mut s.sels[*then_sel]);
            let mut es = std::mem::take(&mut s.sels[*else_sel]);
            ts.clear();
            es.clear();
            let cond = &s.b[*cond];
            for &l in &s.sels[*parent] {
                (if cond[l as usize] { &mut ts } else { &mut es }).push(l);
            }
            s.sels[*then_sel] = ts;
            s.sels[*else_sel] = es;
            true
        }
        VInstr::Merge { dst, ts, t, es, e } => {
            let arms = [(*ts, *t), (*es, *e)];
            match dst.ty {
                I => merge::<i64>(s, n, dst.reg, arms),
                F => merge::<f64>(s, n, dst.reg, arms),
                B => merge::<bool>(s, n, dst.reg, arms),
                V => merge::<Value>(s, n, dst.reg, arms),
                S => merge_str(s, n, dst.reg, arms),
            }
        }
        VInstr::FilterApply { parent, pred, dst } => {
            let mut d = std::mem::take(&mut s.sels[*dst]);
            d.clear();
            let pred = &s.b[*pred];
            d.extend(s.sels[*parent].iter().filter(|&&l| pred[l as usize]));
            s.sels[*dst] = d;
            true
        }
    }
}

/// A string [`VInstr::Load`] without dictionary encoding: every lane's
/// bytes go into the arena back-to-back.
fn load_str_plain(d: &mut StrCol, rows: &[Value], path: &[usize]) -> bool {
    rows.iter().all(|row| {
        let Some(Value::Str(st)) = path_get(row, path) else {
            return false; // shape mismatch
        };
        // `None` when the arena would outgrow `u32` offsets.
        let range = d.push_bytes(st.as_bytes());
        range
            .map(|(start, len)| (d.starts.push(start), d.lens.push(len)))
            .is_some()
    })
}

/// A string [`VInstr::Load`] with dictionary encoding: each distinct string
/// is stored once (first-appearance order); lanes carry codes plus ranges
/// shared with their dictionary entry.
fn load_str_dict(d: &mut StrCol, rows: &[Value], path: &[usize]) -> bool {
    // Codes are the table's dense first-seen ids; collisions compare bytes.
    let mut table = GroupTable::new();
    d.codes.reserve(rows.len());
    for row in rows {
        let Some(Value::Str(st)) = path_get(row, path) else {
            return false;
        };
        let b = st.as_bytes();
        let (code, created) =
            table.find_or_insert(bytes_hash(0, b), |c| d.dict_entry(c as usize) == b);
        if created {
            let Some(range) = d.push_bytes(b) else {
                return false;
            };
            d.dict.push(range);
        }
        let (start, len) = d.dict[code as usize];
        d.codes.push(code);
        d.starts.push(start);
        d.lens.push(len);
    }
    true
}

// ------------------------------------------------------ aggregation kernels

/// The combining operator of one accumulator slot — the `uni` shapes
/// [`crate::expr::FoldOp`]'s sum/count/min/max/exists/forall emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotOp {
    Add,
    Mul,
    Min,
    Max,
    And,
    Or,
}

/// One typed accumulator slot: `acc = op(acc, val)` per row of the group,
/// where `acc` is a column of `val`'s type in [`AggState::accs`],
/// indexed by group id. `zero: Some(z)` (a constant of `val`'s type) starts
/// a group from `op(z, first value)` (the scalar `uni(zero, s)`); `None`
/// starts it from the first value itself — the `Null`-unit min/max, and
/// every slot of the merge phase, where the first partial of a group is
/// taken as is.
#[derive(Clone, Debug)]
struct Slot {
    op: SlotOp,
    val: Col,
    acc: Col,
    zero: Option<Value>,
}

/// Recognizes a slot-wise `uni`: the tuple
/// `(op_0(a.0, b.0), …, op_n(a.n, b.n))` that
/// [`crate::expr::FoldOp::banana_split`] emits (second component `true`), or
/// the bare `op(a, b)` of an unsplit fold (`false`), over two distinct
/// parameters `a` and `b`. Operand order is part of the shape: the
/// accumulator is always the left operand.
fn slot_ops(uni: &Lambda) -> Option<(Vec<SlotOp>, bool)> {
    let [a, b] = uni.params.as_slice() else {
        return None;
    };
    // `op(l, r)` with `l` reading `a` and `r` reading `b` — whole, or field
    // `i` of each.
    let comb = |e: &ScalarExpr, i: Option<usize>| {
        let reads = |e: &ScalarExpr, p: &str| match (e, i) {
            (ScalarExpr::Field(e, j), Some(i)) => *j == i && e.is_var(p),
            (e, None) => e.is_var(p),
            _ => false,
        };
        let (op, l, r) = match e {
            ScalarExpr::BinOp(BinOp::Add, l, r) => (SlotOp::Add, &**l, &**r),
            ScalarExpr::BinOp(BinOp::Mul, l, r) => (SlotOp::Mul, &**l, &**r),
            ScalarExpr::BinOp(BinOp::And, l, r) => (SlotOp::And, &**l, &**r),
            ScalarExpr::BinOp(BinOp::Or, l, r) => (SlotOp::Or, &**l, &**r),
            ScalarExpr::Call(f, args) => match (f, args.as_slice()) {
                (BuiltinFn::MinOf, [l, r]) => (SlotOp::Min, l, r),
                (BuiltinFn::MaxOf, [l, r]) => (SlotOp::Max, l, r),
                _ => return None,
            },
            _ => return None,
        };
        (a != b && reads(l, a) && reads(r, b)).then_some(op)
    };
    match &uni.body {
        ScalarExpr::Tuple(fs) if !fs.is_empty() => {
            let ops = fs.iter().enumerate().map(|(i, f)| comb(f, Some(i)));
            Some((ops.collect::<Option<_>>()?, true))
        }
        e => Some((vec![comb(e, None)?], false)),
    }
}

impl Builder<'_> {
    /// Types one accumulator slot from its per-row value and (combiner phase)
    /// its `zero` component, as the slot's value column and typed zero;
    /// `None` when `uni` over these types would error on every row or
    /// produce a mixed-type accumulator column.
    fn slot(&mut self, op: SlotOp, v: VVal, zero: Option<&Value>) -> Option<(Col, Option<Value>)> {
        use {SlotOp::*, Ty::*};
        let val = self.resolve(v)?;
        let logical = matches!(op, And | Or);
        // `Null` is min/max's unit: `uni(Null, s)` is `s` itself.
        let zero = zero.filter(|z| !(matches!(op, Min | Max) && matches!(z, Value::Null)));
        Some(match (val.ty, zero) {
            (I | F, None) if !logical => (val, None),
            (B, None) if logical => (val, None),
            (I, Some(z @ Value::Int(_))) if !logical => (val, Some(z.clone())),
            // Mixed Int/Float sums and products coerce through `as_float`,
            // so the accumulator is Float from `uni(zero, s)` on.
            (I | F, Some(z @ (Value::Int(_) | Value::Float(_)))) if matches!(op, Add | Mul) => {
                (self.float_of(val)?, Some(Value::Float(z.as_float().ok()?)))
            }
            (F, Some(z @ Value::Float(_))) if !logical => (val, Some(z.clone())),
            (B, Some(z @ Value::Bool(_))) if logical => (val, Some(z.clone())),
            // Anything else errors on every row (`Null + s`) or picks
            // operands of different types verbatim (mixed min/max).
            _ => return None,
        })
    }
}

/// Whether a group key is built from typed leaves only — opaque
/// pass-through columns (`Null`, vectors, bags) have no kernel equality.
fn key_is_typed(m: &MatNode) -> bool {
    match m {
        MatNode::Col(c) => c.ty != Ty::V,
        MatNode::Tup(fs) => fs.iter().all(key_is_typed),
        MatNode::Pass(_) | MatNode::Const(_) => false,
    }
}

/// What an [`AggKernel`] folds.
pub enum AggInput<'a> {
    /// The combiner phase over input rows: the Map/Filter chain `stages`
    /// runs first, then `key(row)` names the group of each row it leaves,
    /// `sng(row)` feeds the slots, and a group starts from `uni(zero, ·)`.
    Rows {
        /// The narrow chain the `aggBy` reads, empty for none.
        stages: &'a [VecStageSpec<'a>],
        /// The grouping key UDF.
        key: Udf<'a>,
        /// The fold's element function.
        sng: Udf<'a>,
        /// The fold's (already evaluated) `zero`.
        zero: &'a Value,
    },
    /// The merge phase over the combiners' accumulators: a row is one
    /// partial's accumulator and feeds the slots, the key carried beside it
    /// names its group ([`AggKernel::absorb_partials`]), and a group starts
    /// from its first partial.
    Partials,
}

/// A whole fused `aggBy` — `key`, `sng` and `uni` together, after the chain
/// it reads — specialized into one columnar program: the chain, `key` and
/// `sng` run as batch kernels that leave their results in typed registers,
/// and `uni`, recognized as slot-wise ([`slot_ops`]), folds the lanes the
/// chain's filters select into per-group typed accumulator columns indexed
/// by a dense first-seen group id. Immutable and shareable across worker
/// threads; each task folds with its own [`AggState`].
#[derive(Clone, Debug)]
pub struct AggKernel {
    kernels: Kernels,
    chain: Chain,
    /// Recipe for a group's key `Value` (typed leaves only); `None` in the
    /// merge phase, whose keys arrive built.
    key: Option<MatNode>,
    /// The key's leaf registers when every leaf is a string column — the
    /// candidates for group assignment by dictionary code; empty otherwise.
    key_strs: Vec<Reg>,
    slots: Vec<Slot>,
    /// Recipe for a group's accumulator `Value` from the slots' columns in
    /// [`AggState::accs`]: their tuple (banana split) or the single slot's
    /// bare value.
    acc: MatNode,
    /// Accumulator registers per file, indexed by [`Ty`].
    n_accs: [usize; N_TYS],
}

/// Specializes a fused `aggBy` phase against a driver-side sample (see
/// [`specialize_sampled`]). `None` — the caller counts a fallback and runs
/// the scalar loop — when `key`/`sng` resist typing, the key has an opaque
/// leaf or forwards an input tuple, `uni` is not slot-wise, or a slot's
/// operator does not fit its zero/value types.
pub fn specialize_agg(input: &AggInput<'_>, uni: &Lambda, samples: &[Value]) -> Option<AggKernel> {
    let (ops, tuple_acc) = slot_ops(uni)?;
    let mut b = Builder::new(samples);
    let (row, chain) = b.chain(match input {
        AggInput::Rows { stages, .. } => stages,
        AggInput::Partials => &[],
    })?;
    let (key_v, val_v, zero) = match input {
        AggInput::Rows { key, sng, zero, .. } => {
            let k = b.eval_udf(*key, &row, out(&chain))?;
            let v = b.eval_udf(*sng, &row, out(&chain))?;
            (Some(k), v, Some(*zero))
        }
        AggInput::Partials => (None, row, None),
    };
    let key = match key_v {
        Some(k) => Some(b.mat_node(k, false).filter(key_is_typed)?),
        None => None,
    };
    let mut slots = Vec::with_capacity(ops.len());
    let mut n_accs = [0; N_TYS];
    for (i, op) in ops.into_iter().enumerate() {
        let (val, zero) = if tuple_acc {
            let z = zero.map(|z| z.field(i)).transpose().ok()?;
            let v = b.field(val_v.clone(), i)?;
            b.slot(op, v, z)?
        } else {
            b.slot(op, val_v.clone(), zero)?
        };
        let acc = Col {
            ty: val.ty,
            reg: n_accs[val.ty as usize],
        };
        n_accs[val.ty as usize] += 1;
        slots.push(Slot { op, val, acc, zero });
    }
    let mut accs = slots.iter().map(|s| MatNode::Col(s.acc));
    let acc = if tuple_acc {
        MatNode::Tup(accs.collect())
    } else {
        accs.next()?
    };
    let leaves = match &key {
        Some(MatNode::Tup(fs)) => fs.as_slice(),
        Some(leaf) => std::slice::from_ref(leaf),
        None => &[],
    };
    let key_strs: Option<Vec<Reg>> = leaves
        .iter()
        .map(|f| match f {
            MatNode::Col(Col { ty: Ty::S, reg }) => Some(*reg),
            _ => None,
        })
        .collect();
    Some(AggKernel {
        kernels: b.finish(),
        chain,
        key,
        key_strs: key_strs.unwrap_or_default(),
        slots,
        acc,
        n_accs,
    })
}

const NO_GROUP: u32 = u32::MAX;

impl AggState {
    /// The group of each row the last absorbed batch folded, in row order.
    pub fn batch_groups(&self) -> impl Iterator<Item = usize> + '_ {
        self.gids
            .iter()
            .filter_map(|&g| (g != NO_GROUP).then_some(g as usize))
    }
}

/// Largest per-batch dictionary-code table the code fast path will build
/// (the product of the key columns' dictionary sizes).
const DICT_GROUPS_MAX: usize = 4096;

/// Open-addressing index from a key's probe hash to its dense group id: in
/// the combiner phase a hash private to the kernel (cheap, consistent with
/// `Value` equality on typed leaves), in the merge phase the engine's own
/// hash, carried with each partial.
#[derive(Debug)]
struct GroupTable {
    /// Group id per bucket, [`NO_GROUP`] when free; a power-of-two length.
    buckets: Vec<u32>,
    /// Each group's probe hash, by id.
    hashes: Vec<u64>,
}

impl GroupTable {
    fn new() -> Self {
        GroupTable {
            buckets: vec![NO_GROUP; 16],
            hashes: Vec::new(),
        }
    }

    /// A hash's first bucket. [`mix`] leaves its entropy in the high bits
    /// (round floats have all-zero low mantissa bits, and a multiply never
    /// moves bits down), so the index comes from the upper half.
    fn home(h: u64, mask: usize) -> usize {
        (h >> 32) as usize & mask
    }

    /// The id of the group with probe hash `h` for which `same_key` holds,
    /// or the next free id (second component `true`) when there is none.
    fn find_or_insert(&mut self, h: u64, same_key: impl Fn(u32) -> bool) -> (u32, bool) {
        let mask = self.buckets.len() - 1;
        let mut i = Self::home(h, mask);
        loop {
            let g = self.buckets[i];
            if g == NO_GROUP {
                break;
            }
            if self.hashes[g as usize] == h && same_key(g) {
                return (g, false);
            }
            i = (i + 1) & mask;
        }
        let g = self.hashes.len() as u32;
        assert!(g < NO_GROUP, "group ids exhausted");
        self.hashes.push(h);
        self.buckets[i] = g;
        if self.hashes.len() * 2 > self.buckets.len() {
            let mask = self.buckets.len() * 2 - 1;
            self.buckets.clear();
            self.buckets.resize(mask + 1, NO_GROUP);
            for (g, &h) in self.hashes.iter().enumerate() {
                let mut i = Self::home(h, mask);
                while self.buckets[i] != NO_GROUP {
                    i = (i + 1) & mask;
                }
                self.buckets[i] = g as u32;
            }
        }
        (g, true)
    }
}

/// Per-task state of one [`AggKernel`] fold: the kernel scratch plus the
/// groups seen so far — keys in first-seen order, their lookup table, and
/// one typed accumulator column per slot.
#[derive(Debug)]
pub struct AggState {
    scratch: VectorScratch,
    keys: Vec<Value>,
    table: GroupTable,
    /// The slots' accumulator columns, indexed by group id — register files
    /// like the scratch's, so a slot names its column by a [`Col`] and a
    /// group's accumulator materializes like an output row.
    accs: VectorScratch,
    /// Per-lane group ids of the current batch.
    gids: Vec<u32>,
    /// Per-batch memo from combined dictionary code to group id.
    dict_gids: Vec<u32>,
}

fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// [`mix`] over a string's length, then its bytes as little-endian words.
fn bytes_hash(h: u64, bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(mix(h, bytes.len() as u64), |h, c| {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        mix(h, u64::from_le_bytes(w))
    })
}

/// Probe hash of lane `l`'s key. Equal keys (under `Value` equality: floats
/// by canonical NaN and signed zero) hash equally; nothing else is promised.
fn lane_hash(m: &MatNode, s: &VectorScratch, l: usize, h: u64) -> u64 {
    match m {
        MatNode::Col(c) => match c.ty {
            Ty::I => mix(h, s.i[c.reg][l] as u64),
            Ty::F => mix(h, float_key(s.f[c.reg][l])),
            Ty::B => mix(h, s.b[c.reg][l] as u64),
            Ty::S => bytes_hash(h, s.s[c.reg].lane(l)),
            Ty::V => unreachable!("group keys have typed leaves only"),
        },
        MatNode::Tup(fs) => fs.iter().fold(h, |h, f| lane_hash(f, s, l, h)),
        MatNode::Pass(_) | MatNode::Const(_) => unreachable!("group keys are columns"),
    }
}

/// Whether lane `l`'s key equals the stored group key `v` (built from the
/// same recipe, so shapes always line up) under `Value` equality.
fn lane_eq_value(m: &MatNode, s: &VectorScratch, l: usize, v: &Value) -> bool {
    match (m, v) {
        (MatNode::Col(c), v) => match (c.ty, v) {
            (Ty::I, Value::Int(x)) => s.i[c.reg][l] == *x,
            (Ty::F, Value::Float(x)) => float_key(s.f[c.reg][l]) == float_key(*x),
            (Ty::B, Value::Bool(x)) => s.b[c.reg][l] == *x,
            (Ty::S, Value::Str(x)) => s.s[c.reg].lane(l) == x.as_bytes(),
            _ => false,
        },
        (MatNode::Tup(ms), Value::Tuple(vs)) => {
            let mut fields = ms.iter().zip(vs.iter());
            ms.len() == vs.len() && fields.all(|(m, v)| lane_eq_value(m, s, l, v))
        }
        _ => false,
    }
}

/// Folds one slot's value column into its accumulator column, in row order
/// — so each group accumulates in the order the scalar loop would. Group
/// ids are dense in first-seen order, so the lane whose id is one past the
/// column is the lane that opened that group: it starts the accumulator
/// from `uni(zero, value)` (or the bare value); a lane the chain's filters
/// dropped has no group ([`NO_GROUP`]); every other lane folds
/// `acc[gid[l]] = f(acc[gid[l]], v[l])`.
fn fold_slot<T: Lane + Copy>(
    accs: &mut VectorScratch,
    (s, reg, off): (&VectorScratch, Reg, usize),
    slot: &Slot,
    gids: &[u32],
    f: impl Fn(T, T) -> T,
) {
    let zero = slot
        .zero
        .as_ref()
        .map(|z| T::load(z).expect("`Builder::slot` types the zero"));
    let acc = &mut T::file_mut(accs)[slot.acc.reg];
    let v = &T::file(s)[reg][off..];
    // The loop's shape matters: a reshaped one let a release build order a
    // float add's operands apart from the interpreter's, and return another NaN.
    for (l, &g) in gids.iter().enumerate() {
        let g = g as usize;
        if g == acc.len() {
            acc.push(zero.map_or(v[l], |z| f(z, v[l])));
        } else if g != NO_GROUP as usize {
            acc[g] = f(acc[g], v[l]);
        }
    }
}

impl AggKernel {
    /// Fresh per-task fold state.
    pub fn new_state(&self) -> AggState {
        AggState {
            scratch: VectorScratch::new(&self.kernels.n_regs, self.kernels.n_sels),
            keys: Vec::new(),
            table: GroupTable::new(),
            accs: VectorScratch::new(&self.n_accs, 0),
            gids: Vec::new(),
            dict_gids: Vec::new(),
        }
    }

    /// Folds the rows of one batch that the chain leaves into `st`'s groups.
    ///
    /// Returns `false` — with every group and accumulator untouched — when
    /// the batch cannot be evaluated columnar-exactly (a row does not
    /// conform to the specialized shape, or the chain, `key` or `sng` hit a
    /// runtime error on some lane): everything fallible runs before the
    /// first accumulator is written. The caller must then fold this batch
    /// and the rest of the partition row-at-a-time through the interpreter,
    /// seeded with [`finish`](Self::finish)'s groups — reproducing values
    /// and the first error in evaluation order bit-identically.
    pub fn absorb(&self, rows: &[Value], st: &mut AggState) -> bool {
        let ran = self.kernels.run(rows, &mut st.scratch);
        if ran {
            self.assign_groups(rows.len(), st);
            self.fold(st, None);
        }
        ran
    }

    /// Whether a run of partitions folded into one state merges to the bits
    /// their own partials do: every slot is an integer `+` from `0` or `*`
    /// from `1` (or from no zero), or an idempotent min / max / `&&` / `||`.
    pub fn pre_combines(&self) -> bool {
        use {SlotOp::*, Ty::*};
        self.slots.iter().all(|s| match (s.op, s.val.ty, &s.zero) {
            (Add, I, None | Some(Value::Int(0))) | (Mul, I, None | Some(Value::Int(1))) => true,
            (op, ..) => !matches!(op, Add | Mul),
        })
    }

    /// Adds each chain stage's entry row count in the batch `st` last
    /// absorbed, then the number of rows it folded, to `counts`.
    pub fn count(&self, st: &AggState, counts: &mut [u64]) {
        count(&self.chain, &st.scratch, counts);
    }

    /// [`absorb`](Self::absorb) for the merge phase, over partials that are
    /// accumulators and the `(hash, key)` pairs carried beside them: a
    /// partial joins the group whose key has its hash and is `Value`-equal
    /// to its own, as in the scalar merge, or opens one. Landed columns are
    /// this kernel's slots by construction, so only values can abort.
    pub fn absorb_partials(&self, accs: Partials, ks: &[(u64, Value)], st: &mut AggState) -> bool {
        let cols = match accs {
            Partials::Values(rows) if !self.kernels.run(rows, &mut st.scratch) => return false,
            Partials::Values(_) => None,
            Partials::Columns(cols, from) => Some((cols, from)),
        };
        st.gids.clear();
        for (h, k) in ks {
            let (g, created) = st.table.find_or_insert(*h, |g| st.keys[g as usize] == *k);
            if created {
                st.keys.push(k.clone());
            }
            st.gids.push(g);
        }
        self.fold(st, cols);
        true
    }

    /// Folds each slot's values — the batch's registers, or the landed
    /// columns `cols` from a partial on — into the groups of `st.gids`.
    fn fold(&self, st: &mut AggState, cols: Option<(&AccCols, usize)>) {
        use {SlotOp::*, Ty::*};
        let (accs, gids) = (&mut st.accs, &st.gids);
        for slot in &self.slots {
            let s = match cols {
                Some((c, from)) => (&c.0, slot.acc.reg, from),
                None => (&st.scratch, slot.val.reg, 0),
            };
            match (slot.op, slot.val.ty) {
                // Wrapping, like the interpreter's integer `+` and `*`.
                (Add, I) => fold_slot(accs, s, slot, gids, i64::wrapping_add),
                (Mul, I) => fold_slot(accs, s, slot, gids, i64::wrapping_mul),
                (Min, I) => fold_slot(accs, s, slot, gids, i64::min),
                (Max, I) => fold_slot(accs, s, slot, gids, i64::max),
                (Add, F) => fold_slot(accs, s, slot, gids, |a: f64, b: f64| a + b),
                (Mul, F) => fold_slot(accs, s, slot, gids, |a: f64, b: f64| a * b),
                (Min, F) => fold_slot(accs, s, slot, gids, min_total),
                (Max, F) => fold_slot(accs, s, slot, gids, max_total),
                (And, B) => fold_slot(accs, s, slot, gids, |a: bool, b: bool| a && b),
                (Or, B) => fold_slot(accs, s, slot, gids, |a: bool, b: bool| a || b),
                _ => unreachable!("`Builder::slot` pairs each operator with the types it folds"),
            }
        }
    }

    /// Size of the combined dictionary-code space of the key columns, when
    /// every key leaf is a string column that was dictionary-encoded for
    /// this `n`-lane batch and the space is small enough to memoize.
    fn code_space(&self, s: &VectorScratch, n: usize) -> Option<usize> {
        let mut cols = self.key_strs.iter().map(|&r| &s.s[r]).peekable();
        cols.peek()?;
        cols.try_fold(1usize, |w, col| {
            let w = w.checked_mul(col.dict.len());
            w.filter(|&w| w <= DICT_GROUPS_MAX && col.codes.len() == n)
        })
    }

    /// Assigns every lane the chain leaves in an evaluated batch its group
    /// id, in row order (so ids are dense in first-seen order), and every
    /// other lane [`NO_GROUP`]; a lane that opens a group also writes the
    /// group's key. When every key leaf is a
    /// dictionary-encoded string column the probe runs once per distinct
    /// code combination per batch.
    fn assign_groups(&self, n: usize, st: &mut AggState) {
        let Some(key) = &self.key else {
            unreachable!("the combiner phase builds its keys")
        };
        let AggState {
            scratch: s,
            keys,
            table,
            gids,
            dict_gids,
            ..
        } = st;
        gids.clear();
        gids.resize(n, NO_GROUP);
        let by_code = match self.code_space(s, n) {
            Some(w) => {
                dict_gids.clear();
                dict_gids.resize(w, NO_GROUP);
                true
            }
            None => false,
        };
        for &l in &s.sels[out(&self.chain)] {
            let l = l as usize;
            let code = by_code.then(|| {
                self.key_strs.iter().fold(0usize, |c, &r| {
                    c * s.s[r].dict.len() + s.s[r].codes[l] as usize
                })
            });
            if let Some(c) = code {
                if dict_gids[c] != NO_GROUP {
                    gids[l] = dict_gids[c];
                    continue;
                }
            }
            let h = lane_hash(key, s, l, 0);
            let (g, created) =
                table.find_or_insert(h, |g| lane_eq_value(key, s, l, &keys[g as usize]));
            if let Some(c) = code {
                dict_gids[c] = g;
            }
            gids[l] = g;
            if created {
                keys.push(mat_value(key, s, &[], l));
            }
        }
    }

    /// The folded groups as `(key, accumulator)` values in first-seen order.
    pub fn finish(&self, st: AggState) -> Vec<(Value, Value)> {
        let (keys, accs) = self.finish_columns(st);
        let accs = (0..).map(|g| self.acc_value(&accs, g));
        keys.into_iter().zip(accs).collect()
    }

    /// The folded groups' keys in first-seen order, and their accumulators
    /// as the typed columns they were folded in.
    pub fn finish_columns(&self, st: AggState) -> (Vec<Value>, AccCols) {
        (st.keys, AccCols(st.accs))
    }

    /// Partial `l`'s accumulator in `accs` as a `Value` — the one place an
    /// accumulator becomes one.
    pub fn acc_value(&self, accs: &AccCols, l: usize) -> Value {
        mat_value(&self.acc, &accs.0, &[], l)
    }

    /// The serialized width every accumulator of this kernel has
    /// ([`Value::approx_bytes`] of [`acc_value`](Self::acc_value)): 8 per
    /// `i64` / `f64` slot, 1 per `bool` one, 8 more for a tuple.
    pub fn acc_width(&self) -> u64 {
        let slots = self.slots.iter().map(|s| [8, 8, 1][s.val.ty as usize]);
        slots.sum::<u64>() + 8 * matches!(self.acc, MatNode::Tup(_)) as u64
    }
}

/// An `aggBy` combiner's accumulators as typed columns, indexed by partial:
/// its [`AggState::accs`] register files, which cross the shuffle as they
/// are ([`AggKernel::finish_columns`], [`AggKernel::absorb_partials`]).
#[derive(Debug, Default)]
pub struct AccCols(VectorScratch);

/// A merge batch's accumulators ([`AggKernel::absorb_partials`]).
pub enum Partials<'a> {
    /// One accumulator value per partial.
    Values(&'a [Value]),
    /// Columns and the index of the batch's first partial in them.
    Columns(&'a AccCols, usize),
}

impl AccCols {
    /// Moves partial `l` to the end of the columns `cols` gives of
    /// `into[dest[l]]`: columns of these types, whose registers a
    /// destination begins when its first partial arrives. One pass over the
    /// partials, so a destination that receives nothing costs nothing.
    pub fn scatter<D>(self, dest: &[u32], into: &mut [D], cols: impl Fn(&mut D) -> &mut AccCols) {
        fn push<T: Copy>(to: &mut Vec<Vec<T>>, from: &[Vec<T>], l: usize) {
            to.resize_with(from.len(), Vec::new);
            to.iter_mut().zip(from).for_each(|(t, f)| t.push(f[l]));
        }
        let from = &self.0;
        for (l, &d) in dest.iter().enumerate() {
            let to = &mut cols(&mut into[d as usize]).0;
            push(&mut to.i, &from.i, l);
            push(&mut to.f, &from.f, l);
            push(&mut to.b, &from.b, l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Lambda, ScalarExpr};
    use crate::interp::{self, Catalog, Env};
    use crate::value::ValueError;

    /// The interpreter's result for `lam` on `args` over an empty base
    /// scope: the kernels' reference.
    fn interpret(lam: &Lambda, args: &[Value]) -> Result<Value, ValueError> {
        let base = HashMap::new();
        interp::eval_lambda(lam, args, &mut Env::new(&base), &Catalog::new())
    }

    fn se_bin(op: BinOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::BinOp(op, Box::new(l), Box::new(r))
    }

    fn se_field(e: ScalarExpr, i: usize) -> ScalarExpr {
        ScalarExpr::Field(Box::new(e), i)
    }

    fn x0() -> ScalarExpr {
        se_field(ScalarExpr::var("x"), 0)
    }

    fn x1() -> ScalarExpr {
        se_field(ScalarExpr::var("x"), 1)
    }

    /// Runs one specialized Map over `rows` and compares every output
    /// against the interpreter.
    fn check_map(lam: &Lambda, rows: &[Value]) {
        let base = HashMap::new();
        let vp = specialize_sampled(
            &[VecStageSpec::Map(lam, &base)],
            std::slice::from_ref(&rows[0]),
        )
        .expect("expected specializable program");
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(vp.run_batch(rows, &mut scratch, &mut counts, &mut out));
        assert_eq!(counts, vec![rows.len() as u64; 2]);
        for (row, got) in rows.iter().zip(&out) {
            let want = interpret(lam, std::slice::from_ref(row))
                .expect("interpreter errored where vector tier succeeded");
            assert_eq!(&want, got, "row {row:?}");
        }
    }

    fn int_pair_rows(n: i64) -> Vec<Value> {
        (0..n)
            .map(|i| Value::tuple(vec![Value::Int(i), Value::Int(i * 3 - 7)]))
            .collect()
    }

    #[test]
    fn arithmetic_map_matches_scalar() {
        // (x.0 * 2 + x.1 % 7, hash_of(x.0), min_of(x.0, x.1))
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::Tuple(vec![
                se_bin(
                    BinOp::Add,
                    se_bin(BinOp::Mul, x0(), ScalarExpr::lit(Value::Int(2))),
                    se_bin(BinOp::Mod, x1(), ScalarExpr::lit(Value::Int(7))),
                ),
                ScalarExpr::call(BuiltinFn::HashOf, vec![x0()]),
                ScalarExpr::call(BuiltinFn::MinOf, vec![x0(), x1()]),
            ]),
        );
        check_map(&lam, &int_pair_rows(100));
    }

    #[test]
    fn float_kernels_match_scalar() {
        // sqrt(abs(x.0 - x.1)) / (x.0 * x.0 + 1.5)  over float pairs
        let lam = Lambda::new(
            ["x"],
            se_bin(
                BinOp::Div,
                ScalarExpr::call(
                    BuiltinFn::Sqrt,
                    vec![ScalarExpr::call(
                        BuiltinFn::Abs,
                        vec![se_bin(BinOp::Sub, x0(), x1())],
                    )],
                ),
                se_bin(
                    BinOp::Add,
                    se_bin(BinOp::Mul, x0(), x0()),
                    ScalarExpr::lit(Value::Float(1.5)),
                ),
            ),
        );
        let rows: Vec<Value> = (0..64)
            .map(|i| {
                Value::tuple(vec![
                    Value::Float(i as f64 * 0.25 - 3.0),
                    Value::Float(10.0 - i as f64),
                ])
            })
            .collect();
        check_map(&lam, &rows);
    }

    #[test]
    fn wrapping_overflow_matches_scalar() {
        let lam = Lambda::new(["x"], se_bin(BinOp::Mul, x0(), x0()));
        let rows = vec![
            Value::tuple(vec![Value::Int(i64::MAX), Value::Int(0)]),
            Value::tuple(vec![Value::Int(i64::MIN / 3), Value::Int(0)]),
        ];
        check_map(&lam, &rows);
    }

    #[test]
    fn mixed_int_float_comparison_matches_scalar() {
        // if x.0 < x.1 { x.0 * 2 } else { -x.0 }  with Int x.0, Float x.1
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::If(
                Box::new(se_bin(BinOp::Lt, x0(), x1())),
                Box::new(se_bin(BinOp::Mul, x0(), ScalarExpr::lit(Value::Int(2)))),
                Box::new(ScalarExpr::UnOp(UnOp::Neg, Box::new(x0()))),
            ),
        );
        let rows: Vec<Value> = (0..50)
            .map(|i| Value::tuple(vec![Value::Int(i - 25), Value::Float(0.5 * i as f64 - 9.0)]))
            .collect();
        check_map(&lam, &rows);
    }

    #[test]
    fn if_selection_masks_untaken_branch_errors() {
        // if x.1 == 0.0 { 0.0 } else { x.0 / x.1 } — rows with x.1 == 0.0
        // must NOT abort the batch: the division kernel runs only over the
        // else-branch lanes.
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::If(
                Box::new(se_bin(BinOp::Eq, x1(), ScalarExpr::lit(Value::Float(0.0)))),
                Box::new(ScalarExpr::lit(Value::Float(0.0))),
                Box::new(se_bin(BinOp::Div, x0(), x1())),
            ),
        );
        let rows: Vec<Value> = (0..40)
            .map(|i| {
                Value::tuple(vec![
                    Value::Float(i as f64),
                    Value::Float(if i % 5 == 0 { 0.0 } else { i as f64 - 20.0 }),
                ])
            })
            .collect();
        check_map(&lam, &rows);
    }

    #[test]
    fn division_error_aborts_batch_untouched() {
        let lam = Lambda::new(["x"], se_bin(BinOp::Div, x0(), x1()));
        let base = HashMap::new();
        let vp = specialize_sampled(
            &[VecStageSpec::Map(&lam, &base)],
            &[Value::tuple(vec![Value::Float(1.0), Value::Float(1.0)])],
        )
        .unwrap();
        let rows = vec![
            Value::tuple(vec![Value::Float(1.0), Value::Float(2.0)]),
            Value::tuple(vec![Value::Float(1.0), Value::Float(0.0)]),
        ];
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(!vp.run_batch(&rows, &mut scratch, &mut counts, &mut out));
        assert_eq!(counts, vec![0, 0], "counts untouched on abort");
        assert!(out.is_empty(), "output untouched on abort");
        // The same scratch still works on a clean batch afterwards.
        let clean = vec![Value::tuple(vec![Value::Float(9.0), Value::Float(3.0)])];
        assert!(vp.run_batch(&clean, &mut scratch, &mut counts, &mut out));
        assert_eq!(out, vec![Value::Float(3.0)]);
    }

    #[test]
    fn shape_mismatch_aborts_batch() {
        let lam = Lambda::new(
            ["x"],
            se_bin(BinOp::Add, x0(), ScalarExpr::lit(Value::Int(1))),
        );
        let base = HashMap::new();
        let vp = specialize_sampled(
            &[VecStageSpec::Map(&lam, &base)],
            &[Value::tuple(vec![Value::Int(0), Value::Int(0)])],
        )
        .unwrap();
        let rows = vec![
            Value::tuple(vec![Value::Int(1), Value::Int(2)]),
            Value::tuple(vec![Value::Float(1.0), Value::Int(2)]), // wrong shape
        ];
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(!vp.run_batch(&rows, &mut scratch, &mut counts, &mut out));
        assert_eq!(counts, vec![0, 0]);
        assert!(out.is_empty());
    }

    #[test]
    fn filter_chain_narrows_selection_and_passes_rows_through() {
        // filter (x.0 % 2 == 0) — PassThrough output, counts reflect the
        // narrowed selection.
        let lam = Lambda::new(
            ["x"],
            se_bin(
                BinOp::Eq,
                se_bin(BinOp::Mod, x0(), ScalarExpr::lit(Value::Int(2))),
                ScalarExpr::lit(Value::Int(0)),
            ),
        );
        let base = HashMap::new();
        let rows = int_pair_rows(31);
        let vp = specialize_sampled(
            &[VecStageSpec::Filter(&lam, &base)],
            std::slice::from_ref(&rows[0]),
        )
        .unwrap();
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(vp.run_batch(&rows, &mut scratch, &mut counts, &mut out));
        let want: Vec<Value> = rows
            .iter()
            .filter(|r| match r {
                Value::Tuple(fs) => matches!(fs[0], Value::Int(i) if i % 2 == 0),
                _ => unreachable!(),
            })
            .cloned()
            .collect();
        assert_eq!(out, want);
        assert_eq!(counts, vec![31, 16]);
    }

    #[test]
    fn fused_map_filter_map_matches_scalar_loop() {
        let m1 = Lambda::new(
            ["x"],
            ScalarExpr::Tuple(vec![
                se_bin(BinOp::Add, x0(), x1()),
                se_bin(BinOp::Sub, x0(), x1()),
            ]),
        );
        let f = Lambda::new(["y"], {
            let y0 = se_field(ScalarExpr::var("y"), 0);
            se_bin(BinOp::Gt, y0, ScalarExpr::lit(Value::Int(10)))
        });
        let m2 = Lambda::new(["z"], {
            let z0 = se_field(ScalarExpr::var("z"), 0);
            let z1 = se_field(ScalarExpr::var("z"), 1);
            se_bin(BinOp::Mul, z0, z1)
        });
        let base = HashMap::new();
        let rows = int_pair_rows(200);
        let vp = specialize_sampled(
            &[
                VecStageSpec::Map(&m1, &base),
                VecStageSpec::Filter(&f, &base),
                VecStageSpec::Map(&m2, &base),
            ],
            std::slice::from_ref(&rows[0]),
        )
        .unwrap();
        assert_eq!(vp.n_stages(), 3);
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 4];
        let mut out = Vec::new();
        assert!(vp.run_batch(&rows, &mut scratch, &mut counts, &mut out));
        // Interpreter reference: the same chain row-at-a-time.
        let mut want = Vec::new();
        let mut want_counts = vec![0u64; 4];
        for row in &rows {
            want_counts[0] += 1;
            let v1 = interpret(&m1, std::slice::from_ref(row)).unwrap();
            want_counts[1] += 1;
            let keep = interpret(&f, std::slice::from_ref(&v1)).unwrap();
            if !matches!(keep, Value::Bool(true)) {
                continue;
            }
            want_counts[2] += 1;
            want.push(interpret(&m2, std::slice::from_ref(&v1)).unwrap());
            want_counts[3] += 1;
        }
        assert_eq!(out, want);
        assert_eq!(counts, want_counts);
    }

    #[test]
    fn captures_are_splatted() {
        let lam = Lambda::new(["x"], se_bin(BinOp::Mul, x0(), ScalarExpr::var("scale")));
        let mut base = HashMap::new();
        base.insert("scale".to_string(), Value::Int(17));
        let rows = int_pair_rows(10);
        let vp = specialize_sampled(
            &[VecStageSpec::Map(&lam, &base)],
            std::slice::from_ref(&rows[0]),
        )
        .unwrap();
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(vp.run_batch(&rows, &mut scratch, &mut counts, &mut out));
        assert_eq!(out[3], Value::Int(51));
        // A parameter named like a base entry reads the row, not the entry.
        let shadow = Lambda::new(
            ["scale"],
            se_bin(
                BinOp::Mul,
                se_field(ScalarExpr::var("scale"), 0),
                ScalarExpr::lit(Value::Int(3)),
            ),
        );
        let vp = specialize_sampled(
            &[VecStageSpec::Map(&shadow, &base)],
            std::slice::from_ref(&rows[0]),
        )
        .unwrap();
        let (mut counts, mut out) = (vec![0u64; 2], Vec::new());
        assert!(vp.run_batch(&rows, &mut vp.new_scratch(), &mut counts, &mut out));
        assert_eq!(out[3], Value::Int(9));
    }

    #[test]
    fn non_specializable_programs_are_rejected() {
        let sample = Value::tuple(vec![Value::Int(0), Value::Int(0)]);
        let base = HashMap::new();
        // String builtin over a non-string slot: `as_str` errors per row.
        let s = Lambda::new(["x"], ScalarExpr::call(BuiltinFn::StrLen, vec![x0()]));
        assert!(specialize_sampled(
            &[VecStageSpec::Map(&s, &base)],
            std::slice::from_ref(&sample)
        )
        .is_none());
        // Vector builtin.
        let d = Lambda::new(["x"], ScalarExpr::call(BuiltinFn::Dist, vec![x0(), x1()]));
        assert!(specialize_sampled(
            &[VecStageSpec::Map(&d, &base)],
            std::slice::from_ref(&sample)
        )
        .is_none());
        // Unbound capture.
        let u = Lambda::new(["x"], ScalarExpr::var("missing"));
        assert!(specialize_sampled(
            &[VecStageSpec::Map(&u, &base)],
            std::slice::from_ref(&sample)
        )
        .is_none());
        // Two-parameter lambda (fold `uni`): not a single-input stage.
        let two = Lambda::new(
            ["a", "b"],
            se_bin(BinOp::Add, ScalarExpr::var("a"), ScalarExpr::var("b")),
        );
        assert!(specialize_sampled(
            &[VecStageSpec::Map(&two, &base)],
            std::slice::from_ref(&sample)
        )
        .is_none());
        // Non-Bool filter result.
        let nb = Lambda::new(["x"], x0());
        assert!(specialize_sampled(
            &[VecStageSpec::Filter(&nb, &base)],
            std::slice::from_ref(&sample)
        )
        .is_none());
        // Non-tuple sample shape for a field access.
        let fa = Lambda::new(["x"], x0());
        assert!(specialize_sampled(&[VecStageSpec::Map(&fa, &base)], &[Value::Int(3)]).is_none());
    }

    #[test]
    fn float_eq_uses_value_equality_not_total_order() {
        // -0.0 == 0.0 under Value equality (float_key), and NaN == NaN.
        let lam = Lambda::new(["x"], se_bin(BinOp::Eq, x0(), x1()));
        let rows = vec![
            Value::tuple(vec![Value::Float(-0.0), Value::Float(0.0)]),
            Value::tuple(vec![Value::Float(f64::NAN), Value::Float(f64::NAN)]),
            Value::tuple(vec![Value::Float(1.0), Value::Float(2.0)]),
        ];
        check_map(&lam, &rows);
    }

    // ------------------------------------------------------ string kernels

    /// `(Int, Str, Str)` rows mixing short, empty, repeated, and multi-byte
    /// UTF-8 strings.
    fn str_rows() -> Vec<Value> {
        let words = ["hello", "", "héllo wörld", "spam@x.test", "hell", "zz"];
        (0..48i64)
            .map(|i| {
                Value::tuple(vec![
                    Value::Int(i),
                    Value::str(words[i as usize % words.len()]),
                    Value::str(format!("w{}", i % 7)),
                ])
            })
            .collect()
    }

    /// Like [`check_map`] but specializes from an explicit multi-row
    /// sample (exercising the dictionary-encoding heuristic).
    fn check_map_sampled(lam: &Lambda, samples: &[Value], rows: &[Value]) -> VectorPipeline {
        let base = HashMap::new();
        let vp = specialize_sampled(&[VecStageSpec::Map(lam, &base)], samples)
            .expect("expected specializable program");
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(vp.run_batch(rows, &mut scratch, &mut counts, &mut out));
        for (row, got) in rows.iter().zip(&out) {
            let want = interpret(lam, std::slice::from_ref(row))
                .expect("interpreter errored where vector tier succeeded");
            assert_eq!(&want, got, "row {row:?}");
        }
        vp
    }

    #[test]
    fn string_kernels_match_scalar() {
        // (str_len(x.1), str_contains(x.1, "ell"), hash_of(x.2),
        //  x.1 == x.2, x.1 < x.2, x.1)
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::call(BuiltinFn::StrLen, vec![x1()]),
                ScalarExpr::call(
                    BuiltinFn::StrContains,
                    vec![x1(), ScalarExpr::lit(Value::str("ell"))],
                ),
                ScalarExpr::call(BuiltinFn::HashOf, vec![se_field(ScalarExpr::var("x"), 2)]),
                se_bin(BinOp::Eq, x1(), se_field(ScalarExpr::var("x"), 2)),
                se_bin(BinOp::Lt, x1(), se_field(ScalarExpr::var("x"), 2)),
                x1(),
            ]),
        );
        check_map(&lam, &str_rows());
    }

    #[test]
    fn string_hash_kernel_matches_value_hash() {
        for s in ["", "a", "hello", "héllo wörld", &"long".repeat(100)] {
            assert_eq!(
                hash_str_bytes(s.as_bytes()),
                hash_value(&Value::str(s)),
                "hash_str_bytes must replay Value::Str's Hash impl for {s:?}"
            );
        }
    }

    #[test]
    fn string_filter_narrows_selection_and_passes_rows_through() {
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::call(
                BuiltinFn::StrContains,
                vec![x1(), ScalarExpr::lit(Value::str("l"))],
            ),
        );
        let base = HashMap::new();
        let rows = str_rows();
        let vp = specialize_sampled(
            &[VecStageSpec::Filter(&lam, &base)],
            std::slice::from_ref(&rows[0]),
        )
        .unwrap();
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(vp.run_batch(&rows, &mut scratch, &mut counts, &mut out));
        let want: Vec<Value> = rows
            .iter()
            .filter(|r| match r {
                Value::Tuple(fs) => matches!(&fs[1], Value::Str(s) if s.contains('l')),
                _ => unreachable!(),
            })
            .cloned()
            .collect();
        assert_eq!(counts[0], rows.len() as u64);
        assert_eq!(counts[1], want.len() as u64);
        assert_eq!(out, want);
    }

    #[test]
    fn if_over_strings_merges_branch_results() {
        // if x.0 % 2 == 0 { x.1 } else { x.2 } — a string-typed If needs
        // MergeS to stitch the two branch columns back together.
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::If(
                Box::new(se_bin(
                    BinOp::Eq,
                    se_bin(BinOp::Mod, x0(), ScalarExpr::lit(Value::Int(2))),
                    ScalarExpr::lit(Value::Int(0)),
                )),
                Box::new(x1()),
                Box::new(se_field(ScalarExpr::var("x"), 2)),
            ),
        );
        check_map(&lam, &str_rows());
    }

    #[test]
    fn string_capture_is_splatted() {
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::call(BuiltinFn::StrContains, vec![x1(), ScalarExpr::var("pat")]),
        );
        let mut base = HashMap::new();
        base.insert("pat".to_string(), Value::str("héllo"));
        let rows = str_rows();
        let vp = specialize_sampled(
            &[VecStageSpec::Map(&lam, &base)],
            std::slice::from_ref(&rows[0]),
        )
        .unwrap();
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(vp.run_batch(&rows, &mut scratch, &mut counts, &mut out));
        for (row, got) in rows.iter().zip(&out) {
            let want = match row {
                Value::Tuple(fs) => matches!(&fs[1], Value::Str(s) if s.contains("héllo")),
                _ => unreachable!(),
            };
            assert_eq!(got, &Value::Bool(want));
        }
    }

    #[test]
    fn dictionary_encoding_from_low_cardinality_sample() {
        // x.2 cycles through 7 values over 48 rows: well under half
        // distinct, so a 48-row sample dictionary-encodes the load.
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::call(BuiltinFn::HashOf, vec![se_field(ScalarExpr::var("x"), 2)]),
                ScalarExpr::call(
                    BuiltinFn::StrContains,
                    vec![
                        se_field(ScalarExpr::var("x"), 2),
                        ScalarExpr::lit(Value::str("3")),
                    ],
                ),
            ]),
        );
        let rows = str_rows();
        let vp = check_map_sampled(&lam, &rows, &rows);
        assert!(
            vp.kernels
                .instrs
                .iter()
                .any(|i| matches!(i, VInstr::Load { dict: true, .. })),
            "low-cardinality sample must dictionary-encode the load"
        );
        // A single-row sample can never clear DICT_MIN_SAMPLE.
        let vp1 = check_map_sampled(&lam, &rows[..1], &rows);
        assert!(
            vp1.kernels
                .instrs
                .iter()
                .all(|i| !matches!(i, VInstr::Load { dict: true, .. })),
            "tiny samples must not trigger dictionary encoding"
        );
    }

    #[test]
    fn dictionary_with_one_distinct_value() {
        let rows: Vec<Value> = (0..32i64)
            .map(|i| Value::tuple(vec![Value::Int(i), Value::str("only"), Value::str("only")]))
            .collect();
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::call(BuiltinFn::HashOf, vec![x1()]),
                ScalarExpr::call(
                    BuiltinFn::StrContains,
                    vec![x1(), ScalarExpr::lit(Value::str("nl"))],
                ),
                ScalarExpr::call(BuiltinFn::StrLen, vec![x1()]),
            ]),
        );
        let vp = check_map_sampled(&lam, &rows, &rows);
        assert!(vp
            .kernels
            .instrs
            .iter()
            .any(|i| matches!(i, VInstr::Load { dict: true, .. })));
    }

    #[test]
    fn empty_strings_and_empty_batches() {
        // All-empty column: zero-length slices at every arena offset.
        let rows: Vec<Value> = (0..16i64)
            .map(|i| Value::tuple(vec![Value::Int(i), Value::str(""), Value::str("")]))
            .collect();
        let lam = Lambda::new(
            ["x"],
            ScalarExpr::Tuple(vec![
                ScalarExpr::call(BuiltinFn::StrLen, vec![x1()]),
                ScalarExpr::call(
                    BuiltinFn::StrContains,
                    vec![x1(), ScalarExpr::lit(Value::str(""))],
                ),
                se_bin(BinOp::Eq, x1(), se_field(ScalarExpr::var("x"), 2)),
                ScalarExpr::call(BuiltinFn::HashOf, vec![x1()]),
            ]),
        );
        check_map(&lam, &rows);
        // Empty batch: no lanes, no output, counts all zero.
        let base = HashMap::new();
        let vp = specialize_sampled(
            &[VecStageSpec::Map(&lam, &base)],
            std::slice::from_ref(&rows[0]),
        )
        .unwrap();
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(vp.run_batch(&[], &mut scratch, &mut counts, &mut out));
        assert_eq!(counts, vec![0, 0]);
        assert!(out.is_empty());
    }

    #[test]
    fn string_shape_mismatch_aborts_batch() {
        let lam = Lambda::new(["x"], ScalarExpr::call(BuiltinFn::StrLen, vec![x1()]));
        let rows = str_rows();
        let base = HashMap::new();
        let vp = specialize_sampled(
            &[VecStageSpec::Map(&lam, &base)],
            std::slice::from_ref(&rows[0]),
        )
        .unwrap();
        let bad = vec![
            rows[0].clone(),
            Value::tuple(vec![Value::Int(1), Value::Int(2), Value::str("x")]),
        ];
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(!vp.run_batch(&bad, &mut scratch, &mut counts, &mut out));
        assert_eq!(counts, vec![0, 0]);
        assert!(out.is_empty());
        // The same scratch still works on a conforming batch afterwards.
        assert!(vp.run_batch(&rows, &mut scratch, &mut counts, &mut out));
        assert_eq!(out.len(), rows.len());
    }

    // -------------------------------------------------- aggregation kernels

    use crate::expr::FoldOp;
    use emma_core::ops::hash_of;

    fn is_even() -> Lambda {
        Lambda::new(
            ["x"],
            se_bin(
                BinOp::Eq,
                se_bin(BinOp::Mod, x1(), ScalarExpr::lit(Value::Int(2))),
                ScalarExpr::lit(Value::Int(0)),
            ),
        )
    }

    /// `sum(x.1)`, `count`, `min(x.1)` and `exists(x.1 even)` banana-split
    /// into one fold — a Float sum over an Int column, an Int count, a
    /// `Null`-unit minimum and a Bool slot.
    fn four_folds() -> FoldOp {
        let project = |f: FoldOp| FoldOp {
            sng: Lambda::new(["x"], f.sng.apply(&[x1()])),
            ..f
        };
        FoldOp::banana_split(&[
            project(FoldOp::sum()),
            FoldOp::count(),
            project(FoldOp::min()),
            FoldOp::exists(is_even()),
        ])
    }

    #[test]
    fn slot_wise_uni_is_recognized_structurally() {
        use SlotOp::*;
        let ops = slot_ops;
        assert_eq!(
            ops(&four_folds().uni),
            Some((vec![Add, Add, Min, Or], true))
        );
        assert_eq!(ops(&FoldOp::max().uni), Some((vec![Max], false)));
        assert_eq!(
            ops(&FoldOp::forall(is_even()).uni),
            Some((vec![And], false))
        );
        let (a, b) = (|| ScalarExpr::var("a"), || ScalarExpr::var("b"));
        // Slots reading a neighbour, a commuted operand order, a
        // non-combiner operator, `min_by`'s conditional and the vector sum
        // are all refused.
        let crossed = ScalarExpr::Tuple(vec![
            se_bin(BinOp::Add, se_field(a(), 0), se_field(b(), 1)),
            se_bin(BinOp::Add, se_field(a(), 1), se_field(b(), 0)),
        ]);
        assert_eq!(ops(&Lambda::new(["a", "b"], crossed)), None);
        assert_eq!(
            ops(&Lambda::new(["a", "b"], se_bin(BinOp::Add, b(), a()))),
            None
        );
        assert_eq!(
            ops(&Lambda::new(["a", "b"], se_bin(BinOp::Sub, a(), b()))),
            None
        );
        let by_key = Lambda::new(["x"], ScalarExpr::var("x"));
        assert_eq!(ops(&FoldOp::min_by(by_key).uni), None);
        assert_eq!(ops(&FoldOp::vec_sum(2).uni), None);
        // One parameter read twice, and a `min_of` short of an operand.
        assert_eq!(
            ops(&Lambda::new(["a", "a"], se_bin(BinOp::Add, a(), a()))),
            None
        );
        let short = ScalarExpr::Call(BuiltinFn::MinOf, vec![a()]);
        assert_eq!(ops(&Lambda::new(["a", "b"], short)), None);
    }

    fn zero_of(fold: &FoldOp) -> Value {
        let base = HashMap::new();
        crate::interp::eval_scalar(
            &fold.zero,
            &mut crate::interp::Env::new(&base),
            &Catalog::new(),
        )
        .expect("closed zero")
    }

    /// The interpreter reference: `InsertionMap`-style first-seen groups
    /// folded row at a time through `key`/`sng`/`uni`.
    fn scalar_groups(key: &Lambda, fold: &FoldOp, rows: &[Value]) -> Vec<(Value, Value)> {
        let zero = zero_of(fold);
        let mut groups: Vec<(Value, Value)> = Vec::new();
        for row in rows {
            let k = interpret(key, std::slice::from_ref(row)).unwrap();
            let s = interpret(&fold.sng, std::slice::from_ref(row)).unwrap();
            match groups.iter_mut().find(|(gk, _)| *gk == k) {
                Some((_, acc)) => *acc = interpret(&fold.uni, &[acc.clone(), s]).unwrap(),
                None => {
                    let first = interpret(&fold.uni, &[zero.clone(), s]).unwrap();
                    groups.push((k, first));
                }
            }
        }
        groups
    }

    fn combiner_kernel(key: &Lambda, fold: &FoldOp, samples: &[Value]) -> Option<AggKernel> {
        let (base, zero) = (HashMap::new(), zero_of(fold));
        specialize_agg(
            &AggInput::Rows {
                stages: &[],
                key: (key, &base),
                sng: (&fold.sng, &base),
                zero: &zero,
            },
            &fold.uni,
            samples,
        )
    }

    #[test]
    fn only_exact_slots_pre_combine() {
        // Integer `+` from 0 and `*` from 1 and the idempotent min / max /
        // `||` / `&&` regroup to the same bits; a float sum, an integer
        // fold from any other zero, and a banana split holding one, do not.
        let key = Lambda::new(["x"], x0());
        let rows = int_pair_rows(20);
        let on_x1 = |f: FoldOp| FoldOp {
            sng: Lambda::new(["x"], f.sng.apply(&[x1()])),
            ..f
        };
        let int_fold = |zero: i64, op: BinOp| {
            let (a, b) = (ScalarExpr::var("a"), ScalarExpr::var("b"));
            FoldOp::custom(
                ScalarExpr::lit(Value::Int(zero)),
                Lambda::new(["x"], x1()),
                Lambda::new(["a", "b"], se_bin(op, a, b)),
            )
        };
        let exact = [
            FoldOp::count(),
            int_fold(0, BinOp::Add),
            int_fold(1, BinOp::Mul),
            on_x1(FoldOp::min()),
            on_x1(FoldOp::max()),
            FoldOp::exists(is_even()),
            FoldOp::forall(is_even()),
        ];
        let inexact = [
            on_x1(FoldOp::sum()),
            int_fold(5, BinOp::Add),
            int_fold(0, BinOp::Mul),
            four_folds(),
        ];
        let folds = (exact.iter().map(|f| (f, true))).chain(inexact.iter().map(|f| (f, false)));
        for (fold, want) in folds {
            let kernel = combiner_kernel(&key, fold, &rows).expect("specializable fold");
            assert_eq!(kernel.pre_combines(), want, "{fold:?}");
        }
        let split = combiner_kernel(&key, &FoldOp::banana_split(&exact), &rows);
        assert!(split.expect("specializable fold").pre_combines());
    }

    #[test]
    fn agg_kernel_matches_the_scalar_fold_and_aborts_untouched() {
        // `x.0 % x.1`: no row of `int_pair_rows` has a zero in slot 1.
        let key = Lambda::new(["x"], se_bin(BinOp::Mod, x0(), x1()));
        let fold = four_folds();
        let rows = int_pair_rows(50);
        let kernel = combiner_kernel(&key, &fold, &rows).expect("specializable fold");
        let mut st = kernel.new_state();
        assert!(kernel.absorb(&rows[..20], &mut st));
        // A non-conforming lane (Float where the Int column was typed) and an
        // erroring one (modulo by zero) both abort before any accumulator is
        // written.
        for bad_row in [
            Value::tuple(vec![Value::Int(1), Value::Float(2.0)]),
            Value::tuple(vec![Value::Int(1), Value::Int(0)]),
        ] {
            let mut bad = rows[20..30].to_vec();
            bad[7] = bad_row;
            assert!(!kernel.absorb(&bad, &mut st));
        }
        assert!(kernel.absorb(&rows[20..], &mut st));
        assert_eq!(kernel.finish(st), scalar_groups(&key, &fold, &rows));
        // Same through the merge phase: the partials of two halves, each an
        // accumulator beside its carried `(hash, key)`, merged unboxed.
        let (keys, accs): (Vec<(u64, Value)>, Vec<Value>) = [&rows[..25], &rows[25..]]
            .iter()
            .flat_map(|half| scalar_groups(&key, &fold, half))
            .map(|(k, acc)| ((hash_of(&k), k), acc))
            .unzip();
        let merge = specialize_agg(&AggInput::Partials, &fold.uni, &accs).expect("merge kernel");
        assert!(merge.key.is_none());
        let mut st = merge.new_state();
        assert!(merge.absorb_partials(Partials::Values(&accs[..30]), &keys[..30], &mut st));
        // A non-conforming accumulator (an Int where the Float sum was
        // typed) aborts before the partial ahead of it opens its group.
        let mut bad = accs[30..40].to_vec();
        let mut bad_keys = keys[30..40].to_vec();
        bad_keys[2] = (hash_of(&Value::str("unseen")), Value::str("unseen"));
        if let Value::Tuple(fs) = &bad[5] {
            let mut fs = fs.to_vec();
            fs[0] = Value::Int(1);
            bad[5] = Value::tuple(fs);
        }
        assert!(!merge.absorb_partials(Partials::Values(&bad), &bad_keys, &mut st));
        assert!(merge.absorb_partials(Partials::Values(&accs[30..]), &keys[30..], &mut st));
        let merged = merge.finish(st);
        assert_eq!(merged, scalar_merge(&fold.uni, &keys, &accs));
        let want = scalar_groups(&key, &fold, &rows);
        assert_eq!(merged.len(), want.len());
        for (k, acc) in &want {
            assert!(merged.contains(&(k.clone(), acc.clone())), "{k:?}");
        }
    }

    /// The scalar merge: partials folded in order into first-seen groups
    /// under `Value` equality, each group starting from its first partial.
    fn scalar_merge(uni: &Lambda, keys: &[(u64, Value)], accs: &[Value]) -> Vec<(Value, Value)> {
        let mut groups: Vec<(Value, Value)> = Vec::new();
        for ((_, k), a) in keys.iter().zip(accs) {
            match groups.iter_mut().find(|(g, _)| g == k) {
                Some((_, acc)) => *acc = interpret(uni, &[acc.clone(), a.clone()]).unwrap(),
                None => groups.push((k.clone(), a.clone())),
            }
        }
        groups
    }

    #[test]
    fn the_merge_kernel_groups_carried_keys_as_the_scalar_merge_does() {
        // Keys no typed column could hold together: signed zeros and NaNs
        // (one class each), an Int beside the Float it equals, strings and
        // tuples — in an order that revisits every class.
        let classes = [
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Int(1),
            Value::Float(1.0),
            Value::str("a"),
            Value::str("b"),
            Value::tuple([Value::Int(1), Value::str("a")]),
            Value::tuple([Value::Float(1.0), Value::str("a")]),
            Value::tuple([Value::Int(2), Value::str("a")]),
        ];
        let keys: Vec<(u64, Value)> = (0..60)
            .map(|i| classes[(i * 7 + i / 11) % classes.len()].clone())
            .map(|k| (hash_of(&k), k))
            .collect();
        let accs: Vec<Value> = (0..60)
            .map(|i| Value::Float(i as f64 * 0.3 - 5.0))
            .collect();
        let uni = FoldOp::sum().uni;
        let merge = specialize_agg(&AggInput::Partials, &uni, &accs).expect("merge kernel");
        let mut st = merge.new_state();
        for (ks, xs) in keys.chunks(16).zip(accs.chunks(16)) {
            assert!(merge.absorb_partials(Partials::Values(xs), ks, &mut st));
        }
        let merged = merge.finish(st);
        let want = scalar_merge(&uni, &keys, &accs);
        assert_eq!(want.len(), 7, "the classes merge: {want:?}");
        // Bit for bit: the representative of each class and every sum.
        assert_eq!(format!("{merged:?}"), format!("{want:?}"));
        // A batch whose accumulators do not conform aborts untouched.
        let mut st = merge.new_state();
        let ints: Vec<Value> = (0..16).map(Value::Int).collect();
        assert!(!merge.absorb_partials(Partials::Values(&ints), &keys[..16], &mut st));
        assert!(merge.finish(st).is_empty());
    }

    /// Every slot type the exchange carries: `four_folds`' `i64`, `f64`,
    /// `bool` and `Null`-unit min slots; a ten-slot banana split; the
    /// one-field tuple of a fused `groupBy`; and bare `i64`, `Null`-unit
    /// max and `bool` accumulators.
    fn exchanged_folds() -> Vec<FoldOp> {
        let project = |f: FoldOp| FoldOp {
            sng: Lambda::new(["x"], f.sng.apply(&[x1()])),
            ..f
        };
        let ten = FoldOp::banana_split(&[
            project(FoldOp::sum()),
            FoldOp::count(),
            project(FoldOp::min()),
            FoldOp::exists(is_even()),
            project(FoldOp::max()),
            FoldOp::forall(is_even()),
            project(FoldOp::sum()),
            FoldOp::count(),
            project(FoldOp::max()),
            FoldOp::exists(is_even()),
        ]);
        vec![
            four_folds(),
            ten,
            FoldOp::banana_split(&[project(FoldOp::min())]),
            FoldOp::count(),
            project(FoldOp::max()),
            FoldOp::exists(is_even()),
        ]
    }

    #[test]
    fn accumulator_columns_cross_and_merge_as_their_values_do() {
        let key = Lambda::new(
            ["x"],
            se_bin(BinOp::Mod, x0(), ScalarExpr::lit(Value::Int(11))),
        );
        let rows = int_pair_rows(200);
        for fold in exchanged_folds() {
            let kernel = combiner_kernel(&key, &fold, &rows).expect("specializable fold");
            // Four combiner partitions, each folded twice: once finished as
            // columns, once as values.
            let route = |k: &Value| (hash_of(k) % 2) as u32;
            let mut cols = [AccCols::default(), AccCols::default()];
            let mut vals: [Vec<Value>; 2] = Default::default();
            let mut keys: [Vec<(u64, Value)>; 2] = Default::default();
            for part in rows.chunks(50) {
                let (mut a, mut b) = (kernel.new_state(), kernel.new_state());
                for batch in part.chunks(16) {
                    assert!(kernel.absorb(batch, &mut a) && kernel.absorb(batch, &mut b));
                }
                let (ks, acc_cols) = kernel.finish_columns(a);
                let groups = kernel.finish(b);
                assert_eq!(ks.len(), groups.len());
                for (l, (k, acc)) in groups.into_iter().enumerate() {
                    assert_eq!(&ks[l], &k);
                    assert_eq!(kernel.acc_width(), acc.approx_bytes(), "{acc:?}");
                    assert_eq!(
                        format!("{:?}", kernel.acc_value(&acc_cols, l)),
                        format!("{acc:?}")
                    );
                    let d = route(&k) as usize;
                    vals[d].push(acc);
                    keys[d].push((hash_of(&k), k));
                }
                // The hand-off: one scatter of the columns by destination.
                let dest: Vec<u32> = ks.iter().map(route).collect();
                acc_cols.scatter(&dest, &mut cols, |c| c);
            }
            let merge =
                specialize_agg(&AggInput::Partials, &fold.uni, &vals[0]).expect("merge kernel");
            for d in 0..2 {
                let (mut by_cols, mut by_vals) = (merge.new_state(), merge.new_state());
                for from in (0..keys[d].len()).step_by(16) {
                    let to = keys[d].len().min(from + 16);
                    let cols = Partials::Columns(&cols[d], from);
                    assert!(merge.absorb_partials(cols, &keys[d][from..to], &mut by_cols));
                    assert!(merge.absorb_partials(
                        Partials::Values(&vals[d][from..to]),
                        &keys[d][from..to],
                        &mut by_vals
                    ));
                }
                let merged = merge.finish(by_cols);
                assert_eq!(
                    format!("{merged:?}"),
                    format!("{:?}", merge.finish(by_vals))
                );
                let want = scalar_merge(&fold.uni, &keys[d], &vals[d]);
                assert_eq!(format!("{merged:?}"), format!("{want:?}"));
            }
        }
    }

    #[test]
    fn dictionary_codes_assign_first_seen_group_ids() {
        // `(x.1, x.2)` over low-cardinality strings: the sample dictionary-
        // encodes both loads, so group ids come from code combinations —
        // batch-local codes, partition-wide first-seen ids.
        let key = Lambda::new(
            ["x"],
            ScalarExpr::Tuple(vec![x1(), se_field(ScalarExpr::var("x"), 2)]),
        );
        let fold = FoldOp {
            sng: Lambda::new(["x"], x0()),
            ..FoldOp::custom(
                ScalarExpr::lit(Value::Int(0)),
                Lambda::new(["x"], ScalarExpr::var("x")),
                FoldOp::count().uni,
            )
        };
        let rows = str_rows();
        let kernel = combiner_kernel(&key, &fold, &rows).expect("specializable fold");
        assert_eq!(kernel.key_strs.len(), 2);
        let mut st = kernel.new_state();
        // Later batches meet the strings in another order than the first.
        for batch in [&rows[30..], &rows[..30]] {
            assert!(kernel.absorb(batch, &mut st));
        }
        let reordered: Vec<Value> = rows[30..].iter().chain(&rows[..30]).cloned().collect();
        assert_eq!(kernel.finish(st), scalar_groups(&key, &fold, &reordered));
    }

    #[test]
    fn folds_whose_slots_do_not_type_are_refused() {
        let key = Lambda::new(["x"], x0());
        let rows = int_pair_rows(4);
        let with_sng = |f: FoldOp, sng: ScalarExpr| FoldOp {
            sng: Lambda::new(["x"], sng),
            ..f
        };
        // `Null + s` errors on every row; the interpreter must produce it.
        let null_sum = FoldOp::custom(
            ScalarExpr::lit(Value::Null),
            Lambda::new(["x"], x1()),
            FoldOp::sum().uni,
        );
        assert!(combiner_kernel(&key, &null_sum, &rows).is_none());
        // `min` of a Float zero over an Int column picks operands verbatim.
        let mixed_min = FoldOp::custom(
            ScalarExpr::lit(Value::Float(0.0)),
            Lambda::new(["x"], x1()),
            FoldOp::min().uni,
        );
        assert!(combiner_kernel(&key, &mixed_min, &rows).is_none());
        // A whole-row `min` has no single typed register.
        assert!(combiner_kernel(&key, &FoldOp::min(), &rows).is_none());
        // An opaque key leaf has no kernel equality.
        let null_key = Lambda::new(["x"], ScalarExpr::lit(Value::Null));
        assert!(combiner_kernel(&null_key, &with_sng(FoldOp::sum(), x1()), &rows).is_none());
        assert!(combiner_kernel(&key, &with_sng(FoldOp::sum(), x1()), &rows).is_some());
    }
}
