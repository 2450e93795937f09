//! Vectorized batch evaluation: typed columnar kernels for compiled slot
//! programs.
//!
//! The scalar compiled tier ([`crate::compiled`]) removed name resolution
//! from the per-row hot path, but every row still flows through the `Value`
//! enum one at a time: each opcode pays enum dispatch, a stack push/pop, and
//! — for `Arc`-backed rows — refcount traffic. This module adds the third
//! tier: a **static type-inference pass** over a compiled slot program (or a
//! fused chain of them) classifies every opcode as specializable over typed
//! `i64`/`f64`/`bool`/string columns or not, and fully-specializable programs
//! are re-lowered into a flat array of **column kernels** executed over
//! reusable scratch buffers in batches of [`BatchConfig::batch_rows`] rows.
//!
//! Design points:
//!
//! - **Specialization is all-or-nothing per program.** [`specialize`]
//!   returns `None` the moment any opcode resists typing (vector ops,
//!   nested folds, bag construction, an unbound capture, a static type
//!   that would make the reference semantics error on every row); the
//!   caller falls back to the scalar `Machine` for that operator and
//!   reports it (`ExecStats::vector_fallbacks`) — no silent slow paths.
//! - **String columns are offset+bytes arenas.** A `Str`-typed slot loads
//!   into one shared byte buffer plus per-lane `(start, len)` ranges
//!   ([`StrCol`]); `str_len`, `str_contains`, string equality/comparison,
//!   and string `hash_of` run as byte-slice kernels over those ranges.
//!   When the driver-side sample shows low cardinality
//!   ([`specialize_sampled`]) the load additionally dictionary-encodes the
//!   column so hash/contains kernels compute once per *distinct* value. A
//!   batch whose strings would outgrow the arena's `u32` offsets aborts to
//!   the scalar tier like any other non-conforming batch.
//! - **Branch-free `If` via selection vectors.** `JumpIfFalse`/`Jump` pairs
//!   are recovered into structured branches; each branch's kernels execute
//!   only over the lanes selected for it, so an error (or a debug-mode
//!   overflow panic) in a branch a lane does not take can never fire for
//!   that lane — exactly the reference interpreter's taken-branch-only
//!   evaluation, batched.
//! - **Fused filters narrow the selection.** A pipeline's `Filter` stages
//!   never materialize intermediates; they shrink the active selection that
//!   all downstream kernels (and the final row materialization) iterate
//!   over. Per-stage entry counts — the engine's cost-model inputs — are
//!   the selection sizes at each stage boundary, bit-identical to the
//!   scalar pass.
//! - **Error semantics are preserved exactly, by replay.** Column-at-a-time
//!   execution evaluates op `k` for every row before op `k+1` for any row,
//!   which reorders *errors across rows*. So kernels never report which
//!   lane failed: any failing lane (division/modulo by zero on a selected
//!   lane) aborts the batch, [`VectorPipeline::run_batch`] returns `false`
//!   without touching its outputs, and the caller re-runs that batch
//!   row-at-a-time through the scalar tier — reproducing the *first* error
//!   in evaluation order bit-identically. A batch whose rows do not all
//!   conform to the specialized input shape takes the same path.
//!
//! The scalar compiled tier and the reference interpreter stay the
//! executable specification; the differential suite in `tests/` proves the
//! three tiers agree on arbitrary expression trees — values *and* errors.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::compiled::{CompiledEval, Op};
use crate::expr::{BinOp, BuiltinFn, UnOp};
use crate::value::{float_key, Value};

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

// ------------------------------------------------------------------- shapes

/// The statically inferred layout of one input-row component.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Shape {
    I64,
    F64,
    Bool,
    /// A string slot: loads into an offset+bytes arena column.
    Str,
    /// A type the kernels cannot compute on (Null, Vector, Bag): loadable
    /// only as an opaque pass-through `Value` column.
    Other,
    Tuple(Vec<Shape>),
}

fn shape_of(v: &Value) -> Shape {
    match v {
        Value::Int(_) => Shape::I64,
        Value::Float(_) => Shape::F64,
        Value::Bool(_) => Shape::Bool,
        Value::Str(_) => Shape::Str,
        Value::Tuple(fs) => Shape::Tuple(fs.iter().map(shape_of).collect()),
        _ => Shape::Other,
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

type Reg = usize;
type SelId = usize;

/// One column kernel. Loads and splats cover the whole batch (loads double
/// as the per-batch shape check); compute kernels touch only the lanes of
/// their selection vector, so errors and debug-overflow panics fire exactly
/// for the lanes the scalar semantics would evaluate.
#[derive(Clone, Debug)]
enum VInstr {
    LoadI {
        dst: Reg,
        path: Vec<usize>,
    },
    LoadF {
        dst: Reg,
        path: Vec<usize>,
    },
    LoadB {
        dst: Reg,
        path: Vec<usize>,
    },
    LoadV {
        dst: Reg,
        path: Vec<usize>,
    },
    SplatI {
        dst: Reg,
        v: i64,
    },
    SplatF {
        dst: Reg,
        v: f64,
    },
    SplatB {
        dst: Reg,
        v: bool,
    },
    SplatV {
        dst: Reg,
        v: Value,
    },
    /// Wrapping integer Add/Sub/Mul (the interpreter's `wrapping_*`).
    ArithI {
        sel: SelId,
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    ArithF {
        sel: SelId,
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Float division; a selected lane with divisor `0.0` aborts the batch.
    DivF {
        sel: SelId,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Euclidean remainder; a selected lane with modulus 0 aborts the batch.
    ModI {
        sel: SelId,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// The `as_float` Int→Float coercion.
    CastF {
        sel: SelId,
        dst: Reg,
        a: Reg,
    },
    NegI {
        sel: SelId,
        dst: Reg,
        a: Reg,
    },
    NegF {
        sel: SelId,
        dst: Reg,
        a: Reg,
    },
    NotB {
        sel: SelId,
        dst: Reg,
        a: Reg,
    },
    AbsI {
        sel: SelId,
        dst: Reg,
        a: Reg,
    },
    AbsF {
        sel: SelId,
        dst: Reg,
        a: Reg,
    },
    SqrtF {
        sel: SelId,
        dst: Reg,
        a: Reg,
    },
    MinMaxI {
        sel: SelId,
        min: bool,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Float min/max via `total_cmp`, matching `Value`'s total order.
    MinMaxF {
        sel: SelId,
        min: bool,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `HashOf` over a typed column — hashes the equivalent `Value`, so the
    /// result is bit-identical to the interpreter's.
    HashI {
        sel: SelId,
        dst: Reg,
        a: Reg,
    },
    HashF {
        sel: SelId,
        dst: Reg,
        a: Reg,
    },
    HashB {
        sel: SelId,
        dst: Reg,
        a: Reg,
    },
    CmpI {
        sel: SelId,
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Float comparison: Eq/Ne via `Value`'s `float_key` equality (NaNs
    /// equal, ±0 equal), ordering via `total_cmp`.
    CmpF {
        sel: SelId,
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    CmpB {
        sel: SelId,
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Strict And (`and: true`) / Or over bool columns.
    BoolB {
        sel: SelId,
        and: bool,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Structured `If`: split the parent selection by a condition column
    /// into the lanes taking each branch.
    SelSplit {
        parent: SelId,
        cond: Reg,
        then_sel: SelId,
        else_sel: SelId,
    },
    /// Merge the two branch results of an `If` back into one column.
    MergeI {
        dst: Reg,
        ts: SelId,
        t: Reg,
        es: SelId,
        e: Reg,
    },
    MergeF {
        dst: Reg,
        ts: SelId,
        t: Reg,
        es: SelId,
        e: Reg,
    },
    MergeB {
        dst: Reg,
        ts: SelId,
        t: Reg,
        es: SelId,
        e: Reg,
    },
    MergeV {
        dst: Reg,
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
    /// Loads a `Str` component into an offset+bytes arena column. `dict`
    /// additionally dictionary-encodes it — decided at specialization time
    /// from the driver-side sample, so the decision replays across runs.
    LoadS {
        dst: Reg,
        path: Vec<usize>,
        dict: bool,
    },
    /// Broadcasts one string into every lane (single dictionary entry).
    SplatS {
        dst: Reg,
        v: Arc<str>,
    },
    /// `str_len`: the byte length, exactly the interpreter's `len() as i64`.
    StrLenS {
        sel: SelId,
        dst: Reg,
        a: Reg,
    },
    /// `str_contains(a, b)`: byte-level substring search, equivalent to
    /// `str::contains` on valid UTF-8. A dictionary-encoded haystack with a
    /// uniform needle searches once per distinct value.
    StrContainsS {
        sel: SelId,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// String comparison: `Value::Str` equality is content equality and its
    /// order is bytewise `str::cmp`, so both are byte-slice comparisons.
    CmpS {
        sel: SelId,
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `HashOf` over a string column, bit-identical to hashing the
    /// equivalent `Value::Str`; dictionary-encoded columns hash once per
    /// distinct value.
    HashS {
        sel: SelId,
        dst: Reg,
        a: Reg,
    },
    MergeS {
        dst: Reg,
        ts: SelId,
        t: Reg,
        es: SelId,
        e: Reg,
    },
}

/// A typed column reference on the abstract stack during specialization.
#[derive(Clone, Debug)]
enum VVal {
    I(Reg),
    F(Reg),
    B(Reg),
    S(Reg),
    V(Reg),
    Tup(Vec<VVal>),
    /// A not-yet-loaded input component; loads are emitted lazily on first
    /// use (and memoized), so untouched fields cost nothing per batch.
    Arg {
        path: Vec<usize>,
        shape: Shape,
    },
}

/// A resolved (register-backed) column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TR {
    I(Reg),
    F(Reg),
    B(Reg),
    S(Reg),
    V(Reg),
}

fn tr_val(tr: TR) -> VVal {
    match tr {
        TR::I(r) => VVal::I(r),
        TR::F(r) => VVal::F(r),
        TR::B(r) => VVal::B(r),
        TR::S(r) => VVal::S(r),
        TR::V(r) => VVal::V(r),
    }
}

/// Recipe for materializing output rows from columns.
#[derive(Clone, Debug)]
enum MatNode {
    I(Reg),
    F(Reg),
    B(Reg),
    S(Reg),
    V(Reg),
    Tup(Vec<MatNode>),
}

#[derive(Clone, Debug)]
enum OutSpec {
    /// Build each output row from columns (the chain contains a Map).
    Rows(MatNode),
    /// Filter-only chain: output is the surviving input rows, cloned —
    /// exactly what the scalar filter pushes (`Arc` sharing preserved).
    PassThrough,
}

/// One stage of a vectorizable chain, borrowed from the engine's prepared
/// operators: the compiled slot program plus its bound capture slots.
pub enum VecStageSpec<'a> {
    /// A Map-like stage (also a fold's per-element `sng` function).
    Map(&'a CompiledEval, &'a [Option<Value>]),
    /// A Filter stage; its program must statically produce `Bool`.
    Filter(&'a CompiledEval, &'a [Option<Value>]),
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

    /// Appends `b` to the arena, returning its range — `None` when the
    /// arena would outgrow the `u32` offset width (the caller aborts the
    /// batch and the scalar tier replays it).
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
    n_i: usize,
    n_f: usize,
    n_b: usize,
    n_s: usize,
    n_v: usize,
    n_sels: usize,
}

/// A fully-specialized columnar program for one operator (or one fused
/// Map/Filter chain). Immutable and shareable across worker threads; each
/// task evaluates it with its own [`VectorScratch`].
#[derive(Clone, Debug)]
pub struct VectorPipeline {
    kernels: Kernels,
    /// Selection active at each stage's entry (drives the engine's
    /// per-stage row counts).
    stage_sels: Vec<SelId>,
    out_sel: SelId,
    out: OutSpec,
}

/// Reusable per-task columnar scratch: typed register files plus selection
/// vectors, grown once and reused across every batch a task evaluates.
#[derive(Debug)]
pub struct VectorScratch {
    i: Vec<Vec<i64>>,
    f: Vec<Vec<f64>>,
    b: Vec<Vec<bool>>,
    s: Vec<StrCol>,
    v: Vec<Vec<Value>>,
    sels: Vec<Vec<u32>>,
}

// ----------------------------------------------------------- type inference

/// Statically types a chain of compiled slot programs against a sample
/// input row, lowering every opcode to column kernels. Returns `None` as
/// soon as any opcode is not specializable; the chain is then evaluated by
/// the scalar tier (which is always correct) and reported as a fallback.
///
/// Purely a function of the programs, their bound captures, and the sample
/// row's *shape* — so given deterministic data, specialization decisions
/// replay identically across runs, thread counts, and dispatch modes.
pub fn specialize(stages: &[VecStageSpec<'_>], sample: &Value) -> Option<VectorPipeline> {
    specialize_sampled(stages, std::slice::from_ref(sample))
}

/// [`specialize`] with a multi-row driver-side sample. The first row
/// defines the input shape exactly as before; the remaining rows only
/// inform *encoding* decisions — a `Str` slot whose sampled values are
/// low-cardinality ([`StrCol`]'s dictionary heuristic: at least
/// [`DICT_MIN_SAMPLE`] conforming samples with at most half as many
/// distinct values) loads dictionary-encoded. Still a pure function of the
/// programs, captures, and sample, so decisions replay deterministically.
pub fn specialize_sampled(
    stages: &[VecStageSpec<'_>],
    samples: &[Value],
) -> Option<VectorPipeline> {
    let sample = samples.first()?;
    let mut b = Builder::new(samples);
    let mut cur = VVal::Arg {
        path: Vec::new(),
        shape: shape_of(sample),
    };
    let mut sel: SelId = 0;
    let mut stage_sels = Vec::with_capacity(stages.len());
    let mut any_map = false;
    for spec in stages {
        stage_sels.push(sel);
        match spec {
            VecStageSpec::Map(code, caps) => {
                if code.arity != 1 {
                    return None;
                }
                cur = b.eval_code(&code.code.ops, caps, &cur, sel)?;
                any_map = true;
            }
            VecStageSpec::Filter(code, caps) => {
                if code.arity != 1 {
                    return None;
                }
                let p = b.eval_code(&code.code.ops, caps, &cur, sel)?;
                // The scalar filter applies `as_bool` to the result; a
                // non-Bool static type errors on every row — let the
                // scalar tier produce that error.
                let pred = match b.resolve(p)? {
                    TR::B(r) => r,
                    _ => return None,
                };
                let dst = b.new_sel();
                b.instrs.push(VInstr::FilterApply {
                    parent: sel,
                    pred,
                    dst,
                });
                sel = dst;
            }
        }
    }
    let out = if any_map {
        OutSpec::Rows(b.mat_node(cur)?)
    } else {
        OutSpec::PassThrough
    };
    Some(VectorPipeline {
        kernels: b.finish(),
        stage_sels,
        out_sel: sel,
        out,
    })
}

/// Minimum conforming sample rows before the dictionary heuristic may
/// fire — a dictionary decided from a couple of rows is noise.
pub const DICT_MIN_SAMPLE: usize = 8;

struct Builder<'s> {
    /// The driver-side sample rows (shape from the first, encoding
    /// decisions from all of them).
    samples: &'s [Value],
    instrs: Vec<VInstr>,
    n_i: usize,
    n_f: usize,
    n_b: usize,
    n_s: usize,
    n_v: usize,
    n_sels: usize,
    /// Selection the currently-lowered expression evaluates under (branch
    /// bodies narrow it); every compute kernel is tagged with it.
    cur_sel: SelId,
    /// Loads memoized by field path, so a component is loaded (and shape-
    /// checked) once per batch however often the programs reference it.
    loads: HashMap<Vec<usize>, TR>,
}

impl<'s> Builder<'s> {
    fn new(samples: &'s [Value]) -> Self {
        Builder {
            samples,
            instrs: Vec::new(),
            n_i: 0,
            n_f: 0,
            n_b: 0,
            n_s: 0,
            n_v: 0,
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
        let mut seen: Vec<&str> = Vec::new();
        let mut total = 0usize;
        for row in self.samples {
            if let Some(Value::Str(st)) = path_get(row, path) {
                total += 1;
                let st: &str = st;
                if !seen.contains(&st) {
                    seen.push(st);
                }
            }
        }
        total >= DICT_MIN_SAMPLE && seen.len() * 2 <= total
    }

    fn new_i(&mut self) -> Reg {
        self.n_i += 1;
        self.n_i - 1
    }
    fn new_f(&mut self) -> Reg {
        self.n_f += 1;
        self.n_f - 1
    }
    fn new_b(&mut self) -> Reg {
        self.n_b += 1;
        self.n_b - 1
    }
    fn new_s(&mut self) -> Reg {
        self.n_s += 1;
        self.n_s - 1
    }
    fn new_v(&mut self) -> Reg {
        self.n_v += 1;
        self.n_v - 1
    }
    fn new_sel(&mut self) -> SelId {
        self.n_sels += 1;
        self.n_sels - 1
    }

    /// Abstractly evaluates a compiled program; `None` = not specializable.
    fn eval_code(
        &mut self,
        ops: &[Op],
        caps: &[Option<Value>],
        input: &VVal,
        sel: SelId,
    ) -> Option<VVal> {
        self.eval_range(ops, 0..ops.len(), caps, input, sel)
    }

    fn eval_range(
        &mut self,
        ops: &[Op],
        range: Range<usize>,
        caps: &[Option<Value>],
        input: &VVal,
        sel: SelId,
    ) -> Option<VVal> {
        self.cur_sel = sel;
        let mut stack: Vec<VVal> = Vec::new();
        let mut pc = range.start;
        while pc < range.end {
            match &ops[pc] {
                Op::Const(v) => stack.push(self.splat(v)?),
                // A statically failing program errors on every row it
                // evaluates — the scalar fallback reproduces it per row.
                Op::Fail(_) => return None,
                Op::Local(slot) => {
                    if *slot != 0 {
                        return None;
                    }
                    stack.push(input.clone());
                }
                Op::Capture(c) => match &caps[*c] {
                    Some(v) => stack.push(self.splat(v)?),
                    // An unbound capture errors whenever read; fall back.
                    None => return None,
                },
                Op::Field(i) => {
                    let v = stack.pop()?;
                    stack.push(self.field(v, *i)?);
                }
                Op::Bin(op) => {
                    let r = stack.pop()?;
                    let l = stack.pop()?;
                    stack.push(self.bin(*op, l, r)?);
                }
                Op::Un(op) => {
                    let a = stack.pop()?;
                    stack.push(self.un(*op, a)?);
                }
                Op::Call(f, n) => {
                    let at = stack.len().checked_sub(*n)?;
                    let args: Vec<VVal> = stack.drain(at..).collect();
                    stack.push(self.call(*f, args)?);
                }
                Op::Tuple(n) => {
                    let at = stack.len().checked_sub(*n)?;
                    let fs: Vec<VVal> = stack.drain(at..).collect();
                    stack.push(VVal::Tup(fs));
                }
                Op::JumpIfFalse(else_at) => {
                    // Recover the structured `If` the compiler emitted:
                    // [cond] JumpIfFalse(e) [then] Jump(end) [else@e..end].
                    let else_at = *else_at;
                    if else_at < pc + 2 || else_at > range.end {
                        return None;
                    }
                    let end = match &ops[else_at - 1] {
                        Op::Jump(end) if *end >= else_at && *end <= range.end => *end,
                        _ => return None,
                    };
                    let cond = match self.resolve(stack.pop()?)? {
                        TR::B(r) => r,
                        // Non-Bool condition: `as_bool` errors per row.
                        _ => return None,
                    };
                    let then_sel = self.new_sel();
                    let else_sel = self.new_sel();
                    self.instrs.push(VInstr::SelSplit {
                        parent: sel,
                        cond,
                        then_sel,
                        else_sel,
                    });
                    // Each branch's kernels run only over its own lanes, so
                    // an error in the untaken branch of a lane cannot fire.
                    let t = self.eval_range(ops, pc + 1..else_at - 1, caps, input, then_sel)?;
                    let e = self.eval_range(ops, else_at..end, caps, input, else_sel)?;
                    self.cur_sel = sel;
                    stack.push(self.merge(t, e, then_sel, else_sel)?);
                    pc = end;
                    continue;
                }
                // Bare jumps only occur inside an `If` (consumed above).
                Op::Jump(_) => return None,
                // Nested folds and bag construction stay scalar.
                Op::Fold(_) | Op::MkBag(_) => return None,
            }
            pc += 1;
        }
        if stack.len() == 1 {
            stack.pop()
        } else {
            None
        }
    }

    /// Broadcasts a constant (folded literal or bound capture) into columns.
    fn splat(&mut self, v: &Value) -> Option<VVal> {
        Some(match v {
            Value::Int(i) => {
                let dst = self.new_i();
                self.instrs.push(VInstr::SplatI { dst, v: *i });
                VVal::I(dst)
            }
            Value::Float(f) => {
                let dst = self.new_f();
                self.instrs.push(VInstr::SplatF { dst, v: *f });
                VVal::F(dst)
            }
            Value::Bool(b) => {
                let dst = self.new_b();
                self.instrs.push(VInstr::SplatB { dst, v: *b });
                VVal::B(dst)
            }
            Value::Str(st) => {
                let dst = self.new_s();
                self.instrs.push(VInstr::SplatS { dst, v: st.clone() });
                VVal::S(dst)
            }
            Value::Tuple(fs) => {
                let mut parts = Vec::with_capacity(fs.len());
                for f in fs.iter() {
                    parts.push(self.splat(f)?);
                }
                VVal::Tup(parts)
            }
            // Opaque pass-through (Null, Vector, Bag): usable only in
            // output tuples, never as a kernel operand.
            other => {
                let dst = self.new_v();
                self.instrs.push(VInstr::SplatV {
                    dst,
                    v: other.clone(),
                });
                VVal::V(dst)
            }
        })
    }

    fn field(&mut self, v: VVal, i: usize) -> Option<VVal> {
        match v {
            VVal::Tup(mut fs) => {
                if i < fs.len() {
                    Some(fs.swap_remove(i))
                } else {
                    None // out of range: errors per row; scalar reproduces
                }
            }
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
            _ => None,
        }
    }

    /// Resolves an abstract value to a concrete column register, emitting a
    /// (memoized) load for input components. Whole-tuple values have no
    /// single register — callers that need one reject instead.
    fn resolve(&mut self, v: VVal) -> Option<TR> {
        match v {
            VVal::I(r) => Some(TR::I(r)),
            VVal::F(r) => Some(TR::F(r)),
            VVal::B(r) => Some(TR::B(r)),
            VVal::S(r) => Some(TR::S(r)),
            VVal::V(r) => Some(TR::V(r)),
            VVal::Tup(_) => None,
            VVal::Arg { path, shape } => {
                if let Some(tr) = self.loads.get(&path) {
                    return Some(*tr);
                }
                let tr = match shape {
                    Shape::I64 => {
                        let dst = self.new_i();
                        self.instrs.push(VInstr::LoadI {
                            dst,
                            path: path.clone(),
                        });
                        TR::I(dst)
                    }
                    Shape::F64 => {
                        let dst = self.new_f();
                        self.instrs.push(VInstr::LoadF {
                            dst,
                            path: path.clone(),
                        });
                        TR::F(dst)
                    }
                    Shape::Bool => {
                        let dst = self.new_b();
                        self.instrs.push(VInstr::LoadB {
                            dst,
                            path: path.clone(),
                        });
                        TR::B(dst)
                    }
                    Shape::Str => {
                        let dict = self.dict_for_path(&path);
                        let dst = self.new_s();
                        self.instrs.push(VInstr::LoadS {
                            dst,
                            path: path.clone(),
                            dict,
                        });
                        TR::S(dst)
                    }
                    Shape::Other => {
                        let dst = self.new_v();
                        self.instrs.push(VInstr::LoadV {
                            dst,
                            path: path.clone(),
                        });
                        TR::V(dst)
                    }
                    Shape::Tuple(_) => return None,
                };
                self.loads.insert(path, tr);
                Some(tr)
            }
        }
    }

    /// Resolves to a float column, coercing Int→Float where the scalar
    /// semantics would (`as_float`).
    fn resolve_f(&mut self, v: VVal) -> Option<Reg> {
        match self.resolve(v)? {
            TR::F(r) => Some(r),
            TR::I(r) => {
                let dst = self.new_f();
                self.instrs.push(VInstr::CastF {
                    sel: self.cur_sel,
                    dst,
                    a: r,
                });
                Some(dst)
            }
            _ => None,
        }
    }

    fn bin(&mut self, op: BinOp, l: VVal, r: VVal) -> Option<VVal> {
        use BinOp::*;
        let sel = self.cur_sel;
        match op {
            Add | Sub | Mul => {
                let (lt, rt) = (self.resolve(l)?, self.resolve(r)?);
                match (lt, rt) {
                    (TR::I(a), TR::I(b)) => {
                        let dst = self.new_i();
                        self.instrs.push(VInstr::ArithI { sel, op, dst, a, b });
                        Some(VVal::I(dst))
                    }
                    (TR::I(_) | TR::F(_), TR::I(_) | TR::F(_)) => {
                        let a = self.resolve_f(tr_val(lt))?;
                        let b = self.resolve_f(tr_val(rt))?;
                        let dst = self.new_f();
                        self.instrs.push(VInstr::ArithF { sel, op, dst, a, b });
                        Some(VVal::F(dst))
                    }
                    // Vector arithmetic, strings, etc. stay scalar.
                    _ => None,
                }
            }
            Div => {
                // Vector/scalar division stays scalar: resolve_f rejects
                // non-numeric columns.
                let a = self.resolve_f(l)?;
                let b = self.resolve_f(r)?;
                let dst = self.new_f();
                self.instrs.push(VInstr::DivF { sel, dst, a, b });
                Some(VVal::F(dst))
            }
            Mod => match (self.resolve(l)?, self.resolve(r)?) {
                (TR::I(a), TR::I(b)) => {
                    let dst = self.new_i();
                    self.instrs.push(VInstr::ModI { sel, dst, a, b });
                    Some(VVal::I(dst))
                }
                // `Mod` is strict on Int (`as_int`): anything else errors.
                _ => None,
            },
            Eq | Ne | Lt | Le | Gt | Ge => {
                let (lt, rt) = (self.resolve(l)?, self.resolve(r)?);
                match (lt, rt) {
                    (TR::I(a), TR::I(b)) => {
                        let dst = self.new_b();
                        self.instrs.push(VInstr::CmpI { sel, op, dst, a, b });
                        Some(VVal::B(dst))
                    }
                    (TR::I(_) | TR::F(_), TR::I(_) | TR::F(_)) => {
                        // Mixed Int/Float comparison coerces through f64,
                        // matching `Value`'s cross-type order.
                        let a = self.resolve_f(tr_val(lt))?;
                        let b = self.resolve_f(tr_val(rt))?;
                        let dst = self.new_b();
                        self.instrs.push(VInstr::CmpF { sel, op, dst, a, b });
                        Some(VVal::B(dst))
                    }
                    (TR::B(a), TR::B(b)) => {
                        let dst = self.new_b();
                        self.instrs.push(VInstr::CmpB { sel, op, dst, a, b });
                        Some(VVal::B(dst))
                    }
                    (TR::S(a), TR::S(b)) => {
                        let dst = self.new_b();
                        self.instrs.push(VInstr::CmpS { sel, op, dst, a, b });
                        Some(VVal::B(dst))
                    }
                    // Cross-rank comparisons (and tuple equality) stay
                    // scalar.
                    _ => None,
                }
            }
            And | Or => match (self.resolve(l)?, self.resolve(r)?) {
                (TR::B(a), TR::B(b)) => {
                    let dst = self.new_b();
                    self.instrs.push(VInstr::BoolB {
                        sel,
                        and: matches!(op, And),
                        dst,
                        a,
                        b,
                    });
                    Some(VVal::B(dst))
                }
                _ => None,
            },
        }
    }

    fn un(&mut self, op: UnOp, a: VVal) -> Option<VVal> {
        let sel = self.cur_sel;
        match (op, self.resolve(a)?) {
            (UnOp::Not, TR::B(a)) => {
                let dst = self.new_b();
                self.instrs.push(VInstr::NotB { sel, dst, a });
                Some(VVal::B(dst))
            }
            (UnOp::Neg, TR::I(a)) => {
                let dst = self.new_i();
                self.instrs.push(VInstr::NegI { sel, dst, a });
                Some(VVal::I(dst))
            }
            (UnOp::Neg, TR::F(a)) => {
                let dst = self.new_f();
                self.instrs.push(VInstr::NegF { sel, dst, a });
                Some(VVal::F(dst))
            }
            _ => None,
        }
    }

    fn call(&mut self, f: BuiltinFn, mut args: Vec<VVal>) -> Option<VVal> {
        let sel = self.cur_sel;
        match f {
            BuiltinFn::Sqrt => {
                let a = self.resolve_f(args.pop()?)?;
                let dst = self.new_f();
                self.instrs.push(VInstr::SqrtF { sel, dst, a });
                Some(VVal::F(dst))
            }
            BuiltinFn::Abs => match self.resolve(args.pop()?)? {
                TR::I(a) => {
                    let dst = self.new_i();
                    self.instrs.push(VInstr::AbsI { sel, dst, a });
                    Some(VVal::I(dst))
                }
                TR::F(a) => {
                    let dst = self.new_f();
                    self.instrs.push(VInstr::AbsF { sel, dst, a });
                    Some(VVal::F(dst))
                }
                _ => None,
            },
            BuiltinFn::MinOf | BuiltinFn::MaxOf => {
                let r = args.pop()?;
                let l = args.pop()?;
                let min = matches!(f, BuiltinFn::MinOf);
                match (self.resolve(l)?, self.resolve(r)?) {
                    (TR::I(a), TR::I(b)) => {
                        let dst = self.new_i();
                        self.instrs.push(VInstr::MinMaxI {
                            sel,
                            min,
                            dst,
                            a,
                            b,
                        });
                        Some(VVal::I(dst))
                    }
                    (TR::F(a), TR::F(b)) => {
                        let dst = self.new_f();
                        self.instrs.push(VInstr::MinMaxF {
                            sel,
                            min,
                            dst,
                            a,
                            b,
                        });
                        Some(VVal::F(dst))
                    }
                    // Mixed Int/Float min/max picks one operand verbatim —
                    // a mixed-type output column; Null-as-unit likewise.
                    _ => None,
                }
            }
            BuiltinFn::HashOf => {
                let dst = self.new_i();
                match self.resolve(args.pop()?)? {
                    TR::I(a) => self.instrs.push(VInstr::HashI { sel, dst, a }),
                    TR::F(a) => self.instrs.push(VInstr::HashF { sel, dst, a }),
                    TR::B(a) => self.instrs.push(VInstr::HashB { sel, dst, a }),
                    TR::S(a) => self.instrs.push(VInstr::HashS { sel, dst, a }),
                    _ => return None,
                }
                Some(VVal::I(dst))
            }
            BuiltinFn::StrLen => match self.resolve(args.pop()?)? {
                TR::S(a) => {
                    let dst = self.new_i();
                    self.instrs.push(VInstr::StrLenS { sel, dst, a });
                    Some(VVal::I(dst))
                }
                // `str_len` on a non-string errors per row (`as_str`).
                _ => None,
            },
            BuiltinFn::StrContains => {
                let needle = args.pop()?;
                let hay = args.pop()?;
                match (self.resolve(hay)?, self.resolve(needle)?) {
                    (TR::S(a), TR::S(b)) => {
                        let dst = self.new_b();
                        self.instrs.push(VInstr::StrContainsS { sel, dst, a, b });
                        Some(VVal::B(dst))
                    }
                    // Non-string operands error per row (`as_str`).
                    _ => None,
                }
            }
            // Vector builtins stay scalar.
            _ => None,
        }
    }

    /// Merges two branch results into one column per leaf.
    fn merge(&mut self, t: VVal, e: VVal, ts: SelId, es: SelId) -> Option<VVal> {
        match (t, e) {
            (VVal::Tup(tf), VVal::Tup(ef)) if tf.len() == ef.len() => {
                let mut out = Vec::with_capacity(tf.len());
                for (a, b) in tf.into_iter().zip(ef) {
                    out.push(self.merge(a, b, ts, es)?);
                }
                Some(VVal::Tup(out))
            }
            (t, e) => {
                let (tr, er) = (self.resolve(t)?, self.resolve(e)?);
                if tr == er {
                    // Both branches yield the same column (e.g. the same
                    // input field): no merge needed.
                    return Some(tr_val(tr));
                }
                match (tr, er) {
                    (TR::I(t), TR::I(e)) => {
                        let dst = self.new_i();
                        self.instrs.push(VInstr::MergeI { dst, ts, t, es, e });
                        Some(VVal::I(dst))
                    }
                    (TR::F(t), TR::F(e)) => {
                        let dst = self.new_f();
                        self.instrs.push(VInstr::MergeF { dst, ts, t, es, e });
                        Some(VVal::F(dst))
                    }
                    (TR::B(t), TR::B(e)) => {
                        let dst = self.new_b();
                        self.instrs.push(VInstr::MergeB { dst, ts, t, es, e });
                        Some(VVal::B(dst))
                    }
                    (TR::S(t), TR::S(e)) => {
                        let dst = self.new_s();
                        self.instrs.push(VInstr::MergeS { dst, ts, t, es, e });
                        Some(VVal::S(dst))
                    }
                    (TR::V(t), TR::V(e)) => {
                        let dst = self.new_v();
                        self.instrs.push(VInstr::MergeV { dst, ts, t, es, e });
                        Some(VVal::V(dst))
                    }
                    // Branches of different static types would produce a
                    // mixed-type column.
                    _ => None,
                }
            }
        }
    }

    /// The lowered program: every kernel emitted so far plus the register
    /// counts to size a scratch for it.
    fn finish(self) -> Kernels {
        Kernels {
            instrs: self.instrs,
            n_i: self.n_i,
            n_f: self.n_f,
            n_b: self.n_b,
            n_s: self.n_s,
            n_v: self.n_v,
            n_sels: self.n_sels,
        }
    }

    /// Output-row materialization recipe for the final abstract value.
    fn mat_node(&mut self, v: VVal) -> Option<MatNode> {
        match v {
            VVal::Tup(fs) => {
                let mut out = Vec::with_capacity(fs.len());
                for f in fs {
                    out.push(self.mat_node(f)?);
                }
                Some(MatNode::Tup(out))
            }
            VVal::Arg {
                path,
                shape: Shape::Tuple(fs),
            } => {
                let mut out = Vec::with_capacity(fs.len());
                for (i, fshape) in fs.into_iter().enumerate() {
                    let mut p = path.clone();
                    p.push(i);
                    out.push(self.mat_node(VVal::Arg {
                        path: p,
                        shape: fshape,
                    })?);
                }
                Some(MatNode::Tup(out))
            }
            v => Some(match self.resolve(v)? {
                TR::I(r) => MatNode::I(r),
                TR::F(r) => MatNode::F(r),
                TR::B(r) => MatNode::B(r),
                TR::S(r) => MatNode::S(r),
                TR::V(r) => MatNode::V(r),
            }),
        }
    }
}

// ---------------------------------------------------------------- execution

fn hash_value(v: &Value) -> i64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    (h.finish() & 0x7fff_ffff_ffff_ffff) as i64
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
    if needle.is_empty() {
        return true;
    }
    if needle.len() > hay.len() {
        return false;
    }
    let first = needle[0];
    for i in 0..=(hay.len() - needle.len()) {
        if hay[i] == first && hay[i..i + needle.len()] == *needle {
            return true;
        }
    }
    false
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
    if a.total_cmp(&b) != Ordering::Greater {
        a
    } else {
        b
    }
}

/// `max_of(a, b)` on floats: `if a >= b { a } else { b }` under `total_cmp`.
fn max_total(a: f64, b: f64) -> f64 {
    if a.total_cmp(&b) != Ordering::Less {
        a
    } else {
        b
    }
}

fn ensure<T: Copy + Default>(col: &mut Vec<T>, n: usize) {
    if col.len() < n {
        col.resize(n, T::default());
    }
}

fn ensure_v(col: &mut Vec<Value>, n: usize) {
    if col.len() < n {
        col.resize(n, Value::Null);
    }
}

impl Kernels {
    fn new_scratch(&self) -> VectorScratch {
        VectorScratch {
            i: vec![Vec::new(); self.n_i],
            f: vec![Vec::new(); self.n_f],
            b: vec![Vec::new(); self.n_b],
            s: vec![StrCol::default(); self.n_s],
            v: vec![Vec::new(); self.n_v],
            sels: vec![Vec::new(); self.n_sels],
        }
    }

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
        self.stage_sels.len()
    }

    /// Fresh per-task scratch buffers for this program.
    pub fn new_scratch(&self) -> VectorScratch {
        self.kernels.new_scratch()
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
    /// batch row-at-a-time through the scalar tier, which reproduces values
    /// and the first error in evaluation order bit-identically.
    pub fn run_batch(
        &self,
        rows: &[Value],
        s: &mut VectorScratch,
        counts: &mut [u64],
        out: &mut Vec<Value>,
    ) -> bool {
        debug_assert_eq!(counts.len(), self.stage_sels.len() + 1);
        if !self.kernels.run(rows, s) {
            return false;
        }
        for (i, &sid) in self.stage_sels.iter().enumerate() {
            counts[i] += s.sels[sid].len() as u64;
        }
        counts[self.stage_sels.len()] += s.sels[self.out_sel].len() as u64;
        match &self.out {
            OutSpec::PassThrough => {
                out.extend(
                    s.sels[self.out_sel]
                        .iter()
                        .map(|&l| rows[l as usize].clone()),
                );
            }
            OutSpec::Rows(m) => {
                out.reserve(s.sels[self.out_sel].len());
                for idx in 0..s.sels[self.out_sel].len() {
                    let l = s.sels[self.out_sel][idx] as usize;
                    out.push(mat_value(m, s, l));
                }
            }
        }
        true
    }
}

fn mat_value(m: &MatNode, s: &VectorScratch, l: usize) -> Value {
    match m {
        MatNode::I(r) => Value::Int(s.i[*r][l]),
        MatNode::F(r) => Value::Float(s.f[*r][l]),
        MatNode::B(r) => Value::Bool(s.b[*r][l]),
        MatNode::S(r) => Value::str(
            std::str::from_utf8(s.s[*r].lane(l)).expect("string arena holds whole UTF-8 strings"),
        ),
        MatNode::V(r) => s.v[*r][l].clone(),
        MatNode::Tup(fs) => Value::tuple(fs.iter().map(|f| mat_value(f, s, l)).collect::<Vec<_>>()),
    }
}

/// Executes one kernel; `false` aborts the batch (shape mismatch or a
/// runtime error on a selected lane). Binary kernels whose destination
/// shares a register file with their operands temporarily move the
/// destination column out — the builder is single-assignment, so `dst`
/// never aliases `a`/`b`.
fn step(instr: &VInstr, rows: &[Value], s: &mut VectorScratch, n: usize) -> bool {
    use VInstr::*;
    match instr {
        LoadI { dst, path } => {
            let mut d = std::mem::take(&mut s.i[*dst]);
            d.clear();
            d.reserve(n);
            let mut ok = true;
            for row in rows {
                match path_get(row, path) {
                    Some(Value::Int(v)) => d.push(*v),
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            s.i[*dst] = d;
            return ok;
        }
        LoadF { dst, path } => {
            let mut d = std::mem::take(&mut s.f[*dst]);
            d.clear();
            d.reserve(n);
            let mut ok = true;
            for row in rows {
                match path_get(row, path) {
                    Some(Value::Float(v)) => d.push(*v),
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            s.f[*dst] = d;
            return ok;
        }
        LoadB { dst, path } => {
            let mut d = std::mem::take(&mut s.b[*dst]);
            d.clear();
            d.reserve(n);
            let mut ok = true;
            for row in rows {
                match path_get(row, path) {
                    Some(Value::Bool(v)) => d.push(*v),
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            s.b[*dst] = d;
            return ok;
        }
        LoadV { dst, path } => {
            let mut d = std::mem::take(&mut s.v[*dst]);
            d.clear();
            d.reserve(n);
            let mut ok = true;
            for row in rows {
                match path_get(row, path) {
                    Some(v) => d.push(v.clone()),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            s.v[*dst] = d;
            return ok;
        }
        SplatI { dst, v } => {
            let d = &mut s.i[*dst];
            d.clear();
            d.resize(n, *v);
        }
        SplatF { dst, v } => {
            let d = &mut s.f[*dst];
            d.clear();
            d.resize(n, *v);
        }
        SplatB { dst, v } => {
            let d = &mut s.b[*dst];
            d.clear();
            d.resize(n, *v);
        }
        SplatV { dst, v } => {
            let d = &mut s.v[*dst];
            d.clear();
            d.resize(n, v.clone());
        }
        ArithI { sel, op, dst, a, b } => {
            let mut d = std::mem::take(&mut s.i[*dst]);
            ensure(&mut d, n);
            let (a, b) = (&s.i[*a], &s.i[*b]);
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = match op {
                    BinOp::Add => a[l].wrapping_add(b[l]),
                    BinOp::Sub => a[l].wrapping_sub(b[l]),
                    _ => a[l].wrapping_mul(b[l]),
                };
            }
            s.i[*dst] = d;
        }
        ArithF { sel, op, dst, a, b } => {
            let mut d = std::mem::take(&mut s.f[*dst]);
            ensure(&mut d, n);
            let (a, b) = (&s.f[*a], &s.f[*b]);
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = match op {
                    BinOp::Add => a[l] + b[l],
                    BinOp::Sub => a[l] - b[l],
                    _ => a[l] * b[l],
                };
            }
            s.f[*dst] = d;
        }
        DivF { sel, dst, a, b } => {
            let mut d = std::mem::take(&mut s.f[*dst]);
            ensure(&mut d, n);
            let mut ok = true;
            {
                let (a, b) = (&s.f[*a], &s.f[*b]);
                for &l in &s.sels[*sel] {
                    let l = l as usize;
                    if b[l] == 0.0 {
                        ok = false;
                        break;
                    }
                    d[l] = a[l] / b[l];
                }
            }
            s.f[*dst] = d;
            return ok;
        }
        ModI { sel, dst, a, b } => {
            let mut d = std::mem::take(&mut s.i[*dst]);
            ensure(&mut d, n);
            let mut ok = true;
            {
                let (a, b) = (&s.i[*a], &s.i[*b]);
                for &l in &s.sels[*sel] {
                    let l = l as usize;
                    if b[l] == 0 {
                        ok = false;
                        break;
                    }
                    d[l] = a[l].rem_euclid(b[l]);
                }
            }
            s.i[*dst] = d;
            return ok;
        }
        CastF { sel, dst, a } => {
            ensure(&mut s.f[*dst], n);
            for &l in &s.sels[*sel] {
                let l = l as usize;
                s.f[*dst][l] = s.i[*a][l] as f64;
            }
        }
        NegI { sel, dst, a } => {
            let mut d = std::mem::take(&mut s.i[*dst]);
            ensure(&mut d, n);
            let a = &s.i[*a];
            for &l in &s.sels[*sel] {
                let l = l as usize;
                // Plain (non-wrapping) negation, matching the scalar tier.
                d[l] = -a[l];
            }
            s.i[*dst] = d;
        }
        NegF { sel, dst, a } => {
            let mut d = std::mem::take(&mut s.f[*dst]);
            ensure(&mut d, n);
            let a = &s.f[*a];
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = -a[l];
            }
            s.f[*dst] = d;
        }
        NotB { sel, dst, a } => {
            let mut d = std::mem::take(&mut s.b[*dst]);
            ensure(&mut d, n);
            let a = &s.b[*a];
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = !a[l];
            }
            s.b[*dst] = d;
        }
        AbsI { sel, dst, a } => {
            let mut d = std::mem::take(&mut s.i[*dst]);
            ensure(&mut d, n);
            let a = &s.i[*a];
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = a[l].abs();
            }
            s.i[*dst] = d;
        }
        AbsF { sel, dst, a } => {
            let mut d = std::mem::take(&mut s.f[*dst]);
            ensure(&mut d, n);
            let a = &s.f[*a];
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = a[l].abs();
            }
            s.f[*dst] = d;
        }
        SqrtF { sel, dst, a } => {
            let mut d = std::mem::take(&mut s.f[*dst]);
            ensure(&mut d, n);
            let a = &s.f[*a];
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = a[l].sqrt();
            }
            s.f[*dst] = d;
        }
        MinMaxI {
            sel,
            min,
            dst,
            a,
            b,
        } => {
            let mut d = std::mem::take(&mut s.i[*dst]);
            ensure(&mut d, n);
            let (a, b) = (&s.i[*a], &s.i[*b]);
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = if *min { a[l].min(b[l]) } else { a[l].max(b[l]) };
            }
            s.i[*dst] = d;
        }
        MinMaxF {
            sel,
            min,
            dst,
            a,
            b,
        } => {
            let mut d = std::mem::take(&mut s.f[*dst]);
            ensure(&mut d, n);
            let (a, b) = (&s.f[*a], &s.f[*b]);
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = if *min {
                    min_total(a[l], b[l])
                } else {
                    max_total(a[l], b[l])
                };
            }
            s.f[*dst] = d;
        }
        HashI { sel, dst, a } => {
            let mut d = std::mem::take(&mut s.i[*dst]);
            ensure(&mut d, n);
            let a = &s.i[*a];
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = hash_value(&Value::Int(a[l]));
            }
            s.i[*dst] = d;
        }
        HashF { sel, dst, a } => {
            ensure(&mut s.i[*dst], n);
            for &l in &s.sels[*sel] {
                let l = l as usize;
                s.i[*dst][l] = hash_value(&Value::Float(s.f[*a][l]));
            }
        }
        HashB { sel, dst, a } => {
            ensure(&mut s.i[*dst], n);
            for &l in &s.sels[*sel] {
                let l = l as usize;
                s.i[*dst][l] = hash_value(&Value::Bool(s.b[*a][l]));
            }
        }
        CmpI { sel, op, dst, a, b } => {
            ensure(&mut s.b[*dst], n);
            for &l in &s.sels[*sel] {
                let l = l as usize;
                s.b[*dst][l] = cmp_holds(*op, s.i[*a][l].cmp(&s.i[*b][l]));
            }
        }
        CmpF { sel, op, dst, a, b } => {
            ensure(&mut s.b[*dst], n);
            for &l in &s.sels[*sel] {
                let l = l as usize;
                let (x, y) = (s.f[*a][l], s.f[*b][l]);
                s.b[*dst][l] = match op {
                    // Value equality on floats goes through `float_key`
                    // (all NaNs equal, ±0 equal) — not `total_cmp`.
                    BinOp::Eq => Value::Float(x) == Value::Float(y),
                    BinOp::Ne => Value::Float(x) != Value::Float(y),
                    _ => cmp_holds(*op, x.total_cmp(&y)),
                };
            }
        }
        CmpB { sel, op, dst, a, b } => {
            let mut d = std::mem::take(&mut s.b[*dst]);
            ensure(&mut d, n);
            let (a, b) = (&s.b[*a], &s.b[*b]);
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = cmp_holds(*op, a[l].cmp(&b[l]));
            }
            s.b[*dst] = d;
        }
        BoolB {
            sel,
            and,
            dst,
            a,
            b,
        } => {
            let mut d = std::mem::take(&mut s.b[*dst]);
            ensure(&mut d, n);
            let (a, b) = (&s.b[*a], &s.b[*b]);
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = if *and { a[l] && b[l] } else { a[l] || b[l] };
            }
            s.b[*dst] = d;
        }
        SelSplit {
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
                if cond[l as usize] {
                    ts.push(l);
                } else {
                    es.push(l);
                }
            }
            s.sels[*then_sel] = ts;
            s.sels[*else_sel] = es;
        }
        MergeI { dst, ts, t, es, e } => {
            let mut d = std::mem::take(&mut s.i[*dst]);
            ensure(&mut d, n);
            for &l in &s.sels[*ts] {
                d[l as usize] = s.i[*t][l as usize];
            }
            for &l in &s.sels[*es] {
                d[l as usize] = s.i[*e][l as usize];
            }
            s.i[*dst] = d;
        }
        MergeF { dst, ts, t, es, e } => {
            let mut d = std::mem::take(&mut s.f[*dst]);
            ensure(&mut d, n);
            for &l in &s.sels[*ts] {
                d[l as usize] = s.f[*t][l as usize];
            }
            for &l in &s.sels[*es] {
                d[l as usize] = s.f[*e][l as usize];
            }
            s.f[*dst] = d;
        }
        MergeB { dst, ts, t, es, e } => {
            let mut d = std::mem::take(&mut s.b[*dst]);
            ensure(&mut d, n);
            for &l in &s.sels[*ts] {
                d[l as usize] = s.b[*t][l as usize];
            }
            for &l in &s.sels[*es] {
                d[l as usize] = s.b[*e][l as usize];
            }
            s.b[*dst] = d;
        }
        MergeV { dst, ts, t, es, e } => {
            let mut d = std::mem::take(&mut s.v[*dst]);
            ensure_v(&mut d, n);
            for &l in &s.sels[*ts] {
                d[l as usize] = s.v[*t][l as usize].clone();
            }
            for &l in &s.sels[*es] {
                d[l as usize] = s.v[*e][l as usize].clone();
            }
            s.v[*dst] = d;
        }
        FilterApply { parent, pred, dst } => {
            let mut d = std::mem::take(&mut s.sels[*dst]);
            d.clear();
            let pred = &s.b[*pred];
            for &l in &s.sels[*parent] {
                if pred[l as usize] {
                    d.push(l);
                }
            }
            s.sels[*dst] = d;
        }
        LoadS { dst, path, dict } => {
            let mut d = std::mem::take(&mut s.s[*dst]);
            d.clear();
            d.starts.reserve(n);
            d.lens.reserve(n);
            let ok = if *dict {
                load_str_dict(&mut d, rows, path)
            } else {
                load_str_plain(&mut d, rows, path)
            };
            s.s[*dst] = d;
            return ok;
        }
        SplatS { dst, v } => {
            let d = &mut s.s[*dst];
            d.clear();
            let (start, len) = match d.push_bytes(v.as_bytes()) {
                Some(r) => r,
                None => return false, // single string wider than the arena
            };
            d.starts.resize(n, start);
            d.lens.resize(n, len);
            d.codes.resize(n, 0);
            d.dict.push((start, len));
        }
        StrLenS { sel, dst, a } => {
            let mut d = std::mem::take(&mut s.i[*dst]);
            ensure(&mut d, n);
            let a = &s.s[*a];
            for &l in &s.sels[*sel] {
                let l = l as usize;
                d[l] = a.lens[l] as i64;
            }
            s.i[*dst] = d;
        }
        StrContainsS { sel, dst, a, b } => {
            let mut d = std::mem::take(&mut s.b[*dst]);
            ensure(&mut d, n);
            {
                let (a, b) = (&s.s[*a], &s.s[*b]);
                if !a.dict.is_empty() && b.dict.len() == 1 {
                    // Uniform needle over a dictionary-encoded haystack:
                    // search once per distinct value, gather through codes.
                    let needle = b.dict_entry(0);
                    let per: Vec<bool> = (0..a.dict.len())
                        .map(|c| contains_bytes(a.dict_entry(c), needle))
                        .collect();
                    for &l in &s.sels[*sel] {
                        let l = l as usize;
                        d[l] = per[a.codes[l] as usize];
                    }
                } else {
                    for &l in &s.sels[*sel] {
                        let l = l as usize;
                        d[l] = contains_bytes(a.lane(l), b.lane(l));
                    }
                }
            }
            s.b[*dst] = d;
        }
        CmpS { sel, op, dst, a, b } => {
            let mut d = std::mem::take(&mut s.b[*dst]);
            ensure(&mut d, n);
            {
                let (a, b) = (&s.s[*a], &s.s[*b]);
                for &l in &s.sels[*sel] {
                    let l = l as usize;
                    // `Value::Str` equality is content equality and its
                    // order is bytewise, so one byte-slice `cmp` covers
                    // every comparison operator.
                    d[l] = cmp_holds(*op, a.lane(l).cmp(b.lane(l)));
                }
            }
            s.b[*dst] = d;
        }
        HashS { sel, dst, a } => {
            let mut d = std::mem::take(&mut s.i[*dst]);
            ensure(&mut d, n);
            {
                let a = &s.s[*a];
                if a.dict.is_empty() {
                    for &l in &s.sels[*sel] {
                        let l = l as usize;
                        d[l] = hash_str_bytes(a.lane(l));
                    }
                } else {
                    let per: Vec<i64> = (0..a.dict.len())
                        .map(|c| hash_str_bytes(a.dict_entry(c)))
                        .collect();
                    for &l in &s.sels[*sel] {
                        let l = l as usize;
                        d[l] = per[a.codes[l] as usize];
                    }
                }
            }
            s.i[*dst] = d;
        }
        MergeS { dst, ts, t, es, e } => {
            let mut d = std::mem::take(&mut s.s[*dst]);
            d.clear();
            d.starts.resize(n, 0);
            d.lens.resize(n, 0);
            let mut ok = true;
            'merge: for (sid, src) in [(*ts, *t), (*es, *e)] {
                let src = &s.s[src];
                for &l in &s.sels[sid] {
                    let l = l as usize;
                    match d.push_bytes(src.lane(l)) {
                        Some((start, len)) => {
                            d.starts[l] = start;
                            d.lens[l] = len;
                        }
                        None => {
                            ok = false;
                            break 'merge;
                        }
                    }
                }
            }
            s.s[*dst] = d;
            return ok;
        }
    }
    true
}

/// [`VInstr::LoadS`] without dictionary encoding: every lane's bytes go
/// into the arena back-to-back.
fn load_str_plain(d: &mut StrCol, rows: &[Value], path: &[usize]) -> bool {
    for row in rows {
        match path_get(row, path) {
            Some(Value::Str(st)) => match d.push_bytes(st.as_bytes()) {
                Some((start, len)) => {
                    d.starts.push(start);
                    d.lens.push(len);
                }
                None => return false, // arena outgrew u32 offsets
            },
            _ => return false, // shape mismatch
        }
    }
    true
}

/// [`VInstr::LoadS`] with dictionary encoding: each distinct string is
/// stored once (first-appearance order); lanes carry codes plus ranges
/// shared with their dictionary entry.
fn load_str_dict(d: &mut StrCol, rows: &[Value], path: &[usize]) -> bool {
    use std::hash::Hasher;
    // hash → candidate codes; collisions compare bytes.
    let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
    d.codes.reserve(rows.len());
    for row in rows {
        let st = match path_get(row, path) {
            Some(Value::Str(st)) => st,
            _ => return false,
        };
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        hasher.write(st.as_bytes());
        let cands = index.entry(hasher.finish()).or_default();
        let code = match cands
            .iter()
            .copied()
            .find(|&c| d.dict_entry(c as usize) == st.as_bytes())
        {
            Some(c) => c,
            None => {
                let (start, len) = match d.push_bytes(st.as_bytes()) {
                    Some(r) => r,
                    None => return false,
                };
                let c = d.dict.len() as u32;
                d.dict.push((start, len));
                cands.push(c);
                c
            }
        };
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

/// One typed accumulator slot: `acc = op(acc, val)` per row of the group.
/// `zero: Some(z)` starts a group from `op(z, first value)` (the scalar
/// `uni(zero, s)`); `None` starts it from the first value itself — the
/// `Null`-unit min/max, and every slot of the merge phase, where the first
/// partial of a group is taken as is.
#[derive(Clone, Debug)]
enum Slot {
    I {
        op: SlotOp,
        val: Reg,
        zero: Option<i64>,
    },
    F {
        op: SlotOp,
        val: Reg,
        zero: Option<f64>,
    },
    B {
        op: SlotOp,
        val: Reg,
        zero: Option<bool>,
    },
}

fn comb_i(op: SlotOp, a: i64, b: i64) -> i64 {
    match op {
        SlotOp::Add => a.wrapping_add(b),
        SlotOp::Mul => a.wrapping_mul(b),
        SlotOp::Min => a.min(b),
        _ => a.max(b),
    }
}

fn comb_f(op: SlotOp, a: f64, b: f64) -> f64 {
    match op {
        SlotOp::Add => a + b,
        SlotOp::Mul => a * b,
        SlotOp::Min => min_total(a, b),
        _ => max_total(a, b),
    }
}

fn comb_b(op: SlotOp, a: bool, b: bool) -> bool {
    match op {
        SlotOp::And => a && b,
        _ => a || b,
    }
}

/// Recognizes a slot-wise `uni`: the tuple
/// `(op_0(a.0, b.0), …, op_n(a.n, b.n))` that
/// [`crate::expr::FoldOp::banana_split`] emits (second component `true`), or
/// the bare `op(a, b)` of an unsplit fold (`false`). Operand order is part of
/// the shape: the accumulator is always the left operand.
fn slot_ops(uni: &CompiledEval) -> Option<(Vec<SlotOp>, bool)> {
    fn comb(op: &Op) -> Option<SlotOp> {
        Some(match op {
            Op::Bin(BinOp::Add) => SlotOp::Add,
            Op::Bin(BinOp::Mul) => SlotOp::Mul,
            Op::Bin(BinOp::And) => SlotOp::And,
            Op::Bin(BinOp::Or) => SlotOp::Or,
            Op::Call(BuiltinFn::MinOf, 2) => SlotOp::Min,
            Op::Call(BuiltinFn::MaxOf, 2) => SlotOp::Max,
            _ => return None,
        })
    }
    if uni.arity != 2 {
        return None;
    }
    let ops = uni.code.ops.as_slice();
    if let [Op::Local(0), Op::Local(1), c] = ops {
        return Some((vec![comb(c)?], false));
    }
    let (Op::Tuple(n), body) = ops.split_last()? else {
        return None;
    };
    if *n == 0 || body.len() != 5 * n {
        return None;
    }
    let mut slots = Vec::with_capacity(*n);
    for (i, chunk) in body.chunks_exact(5).enumerate() {
        match chunk {
            [Op::Local(0), Op::Field(a), Op::Local(1), Op::Field(b), c] if *a == i && *b == i => {
                slots.push(comb(c)?)
            }
            _ => return None,
        }
    }
    Some((slots, true))
}

impl Builder<'_> {
    /// Types one accumulator slot from its per-row value and (combiner phase)
    /// its `zero` component; `None` when `uni` over these types would error
    /// on every row or produce a mixed-type accumulator column.
    fn slot(&mut self, op: SlotOp, v: VVal, zero: Option<&Value>) -> Option<Slot> {
        use SlotOp::*;
        self.cur_sel = 0;
        let tr = self.resolve(v)?;
        // `Null` is min/max's unit: `uni(Null, s)` is `s` itself.
        let zero = match (op, zero) {
            (Min | Max, Some(Value::Null)) => None,
            (_, z) => z,
        };
        Some(match (op, tr, zero) {
            (Add | Mul | Min | Max, TR::I(val), None) => Slot::I {
                op,
                val,
                zero: None,
            },
            (Add | Mul | Min | Max, TR::F(val), None) => Slot::F {
                op,
                val,
                zero: None,
            },
            (And | Or, TR::B(val), None) => Slot::B {
                op,
                val,
                zero: None,
            },
            (Add | Mul | Min | Max, TR::I(val), Some(Value::Int(z))) => Slot::I {
                op,
                val,
                zero: Some(*z),
            },
            // Mixed Int/Float sums and products coerce through `as_float`,
            // so the accumulator is Float from `uni(zero, s)` on.
            (Add | Mul, TR::I(_) | TR::F(_), Some(z @ (Value::Int(_) | Value::Float(_)))) => {
                Slot::F {
                    op,
                    val: self.resolve_f(tr_val(tr))?,
                    zero: Some(z.as_float().ok()?),
                }
            }
            (Min | Max, TR::F(val), Some(Value::Float(z))) => Slot::F {
                op,
                val,
                zero: Some(*z),
            },
            (And | Or, TR::B(val), Some(Value::Bool(z))) => Slot::B {
                op,
                val,
                zero: Some(*z),
            },
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
        MatNode::V(_) => false,
        MatNode::Tup(fs) => fs.iter().all(key_is_typed),
        _ => true,
    }
}

/// What an [`AggKernel`] folds.
pub enum AggInput<'a> {
    /// The combiner phase over input rows: `key(row)` names the group,
    /// `sng(row)` feeds the slots, and a group starts from `uni(zero, ·)`.
    /// Each UDF is its compiled slot program plus bound capture slots.
    Rows {
        /// The grouping key UDF.
        key: (&'a CompiledEval, &'a [Option<Value>]),
        /// The fold's element function.
        sng: (&'a CompiledEval, &'a [Option<Value>]),
        /// The fold's (already evaluated) `zero`.
        zero: &'a Value,
    },
    /// The merge phase over `(key, acc)` partials: `row.0` names the group,
    /// `row.1` feeds the slots, and a group starts from its first partial.
    Partials,
}

/// A whole fused `aggBy` — `key`, `sng` and `uni` together — specialized
/// into one columnar program: `key` and `sng` run as batch kernels that
/// leave their results in typed registers, and `uni`, recognized as
/// slot-wise ([`slot_ops`]), folds those registers into per-group typed
/// accumulator columns indexed by a dense first-seen group id. Immutable and
/// shareable across worker threads; each task folds with its own
/// [`AggState`].
#[derive(Clone, Debug)]
pub struct AggKernel {
    kernels: Kernels,
    /// Recipe for a group's key `Value` (typed leaves only).
    key: MatNode,
    /// The key's leaf registers when every leaf is a string column — the
    /// candidates for group assignment by dictionary code; empty otherwise.
    key_strs: Vec<Reg>,
    slots: Vec<Slot>,
    /// Whether the accumulator is a tuple of the slots (banana split) or
    /// the single slot's bare value.
    tuple_acc: bool,
}

/// Specializes a fused `aggBy` phase against a driver-side sample (see
/// [`specialize_sampled`]). `None` — the caller counts a fallback and runs
/// the scalar loop — when `key`/`sng` resist typing, the key has an opaque
/// leaf, `uni` is not slot-wise, or a slot's operator does not fit its
/// zero/value types.
pub fn specialize_agg(
    input: &AggInput<'_>,
    uni: &CompiledEval,
    samples: &[Value],
) -> Option<AggKernel> {
    let sample = samples.first()?;
    let (ops, tuple_acc) = slot_ops(uni)?;
    let mut b = Builder::new(samples);
    let row = VVal::Arg {
        path: Vec::new(),
        shape: shape_of(sample),
    };
    let (key_v, val_v, zero) = match input {
        AggInput::Rows { key, sng, zero } => {
            if key.0.arity != 1 || sng.0.arity != 1 {
                return None;
            }
            let k = b.eval_code(&key.0.code.ops, key.1, &row, 0)?;
            let v = b.eval_code(&sng.0.code.ops, sng.1, &row, 0)?;
            (k, v, Some(*zero))
        }
        AggInput::Partials => (b.field(row.clone(), 0)?, b.field(row, 1)?, None),
    };
    let key = b.mat_node(key_v)?;
    if !key_is_typed(&key) {
        return None;
    }
    let mut slots = Vec::with_capacity(ops.len());
    for (i, op) in ops.into_iter().enumerate() {
        let slot = if tuple_acc {
            let z = match zero {
                Some(z) => Some(z.field(i).ok()?),
                None => None,
            };
            let v = b.field(val_v.clone(), i)?;
            b.slot(op, v, z)?
        } else {
            b.slot(op, val_v.clone(), zero)?
        };
        slots.push(slot);
    }
    let leaves = match &key {
        MatNode::Tup(fs) => fs.as_slice(),
        leaf => std::slice::from_ref(leaf),
    };
    let key_strs: Option<Vec<Reg>> = leaves
        .iter()
        .map(|f| match f {
            MatNode::S(r) => Some(*r),
            _ => None,
        })
        .collect();
    let key_strs = key_strs.unwrap_or_default();
    Some(AggKernel {
        kernels: b.finish(),
        key,
        key_strs,
        slots,
        tuple_acc,
    })
}

/// One slot's per-group accumulators, indexed by group id.
#[derive(Debug)]
enum AccCol {
    I(Vec<i64>),
    F(Vec<f64>),
    B(Vec<bool>),
}

const NO_GROUP: u32 = u32::MAX;

/// Largest per-batch dictionary-code table the code fast path will build
/// (the product of the key columns' dictionary sizes).
const DICT_GROUPS_MAX: usize = 4096;

/// Open-addressing index from a key's probe hash to its dense group id.
/// The probe hash is private to the kernel (cheap, consistent with `Value`
/// equality on typed leaves); the hashes partials carry downstream are the
/// engine's own, computed once per emitted group.
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
    accs: Vec<AccCol>,
    /// Per-lane group ids of the current batch.
    gids: Vec<u32>,
    /// Lanes of the current batch that did not create their group (a
    /// creating lane's contribution is already in the group's initial
    /// accumulator).
    upd: Vec<u32>,
    /// Per-batch memo from combined dictionary code to group id.
    dict_gids: Vec<u32>,
}

fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Probe hash of lane `l`'s key. Equal keys (under `Value` equality: floats
/// by canonical NaN and signed zero) hash equally; nothing else is promised.
fn lane_hash(m: &MatNode, s: &VectorScratch, l: usize, h: u64) -> u64 {
    match m {
        MatNode::I(r) => mix(h, s.i[*r][l] as u64),
        MatNode::F(r) => mix(h, float_key(s.f[*r][l])),
        MatNode::B(r) => mix(h, s.b[*r][l] as u64),
        MatNode::S(r) => {
            let bytes = s.s[*r].lane(l);
            let mut h = mix(h, bytes.len() as u64);
            for c in bytes.chunks(8) {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                h = mix(h, u64::from_le_bytes(w));
            }
            h
        }
        MatNode::V(_) => unreachable!("group keys have typed leaves only"),
        MatNode::Tup(fs) => fs.iter().fold(h, |h, f| lane_hash(f, s, l, h)),
    }
}

/// Whether lane `l`'s key equals the stored group key `v` (built from the
/// same recipe, so shapes always line up) under `Value` equality.
fn lane_eq_value(m: &MatNode, s: &VectorScratch, l: usize, v: &Value) -> bool {
    match (m, v) {
        (MatNode::I(r), Value::Int(x)) => s.i[*r][l] == *x,
        (MatNode::F(r), Value::Float(x)) => float_key(s.f[*r][l]) == float_key(*x),
        (MatNode::B(r), Value::Bool(x)) => s.b[*r][l] == *x,
        (MatNode::S(r), Value::Str(x)) => s.s[*r].lane(l) == x.as_bytes(),
        (MatNode::Tup(ms), Value::Tuple(vs)) => {
            ms.len() == vs.len()
                && ms
                    .iter()
                    .zip(vs.iter())
                    .all(|(m, v)| lane_eq_value(m, s, l, v))
        }
        _ => false,
    }
}

/// `acc[gid[l]] = f(acc[gid[l]], v[l])` over the updating lanes, in row
/// order — so each group accumulates in the order the scalar loop would.
fn fold_lanes<T: Copy>(acc: &mut [T], v: &[T], gids: &[u32], upd: &[u32], f: impl Fn(T, T) -> T) {
    for &l in upd {
        let l = l as usize;
        let g = gids[l] as usize;
        acc[g] = f(acc[g], v[l]);
    }
}

impl AggKernel {
    /// Fresh per-task fold state.
    pub fn new_state(&self) -> AggState {
        AggState {
            scratch: self.kernels.new_scratch(),
            keys: Vec::new(),
            table: GroupTable::new(),
            accs: self
                .slots
                .iter()
                .map(|slot| match slot {
                    Slot::I { .. } => AccCol::I(Vec::new()),
                    Slot::F { .. } => AccCol::F(Vec::new()),
                    Slot::B { .. } => AccCol::B(Vec::new()),
                })
                .collect(),
            gids: Vec::new(),
            upd: Vec::new(),
            dict_gids: Vec::new(),
        }
    }

    /// Folds one batch of rows into `st`'s groups.
    ///
    /// Returns `false` — with every group and accumulator untouched — when
    /// the batch cannot be evaluated columnar-exactly (a row does not
    /// conform to the specialized shape, or `key`/`sng` hit a runtime error
    /// on some lane): everything fallible runs before the first accumulator
    /// is written. The caller must then fold this batch and the rest of the
    /// partition row-at-a-time through the scalar tier, seeded with
    /// [`finish`](Self::finish)'s groups — reproducing values and the first
    /// error in evaluation order bit-identically.
    pub fn absorb(&self, rows: &[Value], st: &mut AggState) -> bool {
        if !self.kernels.run(rows, &mut st.scratch) {
            return false;
        }
        self.assign_groups(rows.len(), st);
        let AggState {
            scratch: s,
            accs,
            gids,
            upd,
            ..
        } = st;
        for (slot, acc) in self.slots.iter().zip(accs.iter_mut()) {
            match (slot, acc) {
                (Slot::I { op, val, .. }, AccCol::I(a)) => {
                    fold_lanes(a, &s.i[*val], gids, upd, |a, b| comb_i(*op, a, b))
                }
                (Slot::F { op, val, .. }, AccCol::F(a)) => {
                    fold_lanes(a, &s.f[*val], gids, upd, |a, b| comb_f(*op, a, b))
                }
                (Slot::B { op, val, .. }, AccCol::B(a)) => {
                    fold_lanes(a, &s.b[*val], gids, upd, |a, b| comb_b(*op, a, b))
                }
                _ => unreachable!("accumulator columns are typed by their slots"),
            }
        }
        true
    }

    /// Size of the combined dictionary-code space of the key columns, when
    /// every key leaf is a string column that was dictionary-encoded for
    /// this `n`-lane batch and the space is small enough to memoize.
    fn code_space(&self, s: &VectorScratch, n: usize) -> Option<usize> {
        if self.key_strs.is_empty() {
            return None;
        }
        let mut w = 1usize;
        for &r in &self.key_strs {
            let col = &s.s[r];
            if col.codes.len() != n {
                return None;
            }
            w = w
                .checked_mul(col.dict.len())
                .filter(|w| *w <= DICT_GROUPS_MAX)?;
        }
        Some(w)
    }

    /// Assigns every lane of an evaluated batch its group id, in row order
    /// (so ids are dense in first-seen order). A lane that opens a group
    /// also writes the group's key and initial accumulators and is left out
    /// of `upd`. When every key leaf is a dictionary-encoded string column
    /// the probe runs once per distinct code combination per batch.
    fn assign_groups(&self, n: usize, st: &mut AggState) {
        let AggState {
            scratch: s,
            keys,
            table,
            accs,
            gids,
            upd,
            dict_gids,
        } = st;
        gids.clear();
        upd.clear();
        let by_code = match self.code_space(s, n) {
            Some(w) => {
                dict_gids.clear();
                dict_gids.resize(w, NO_GROUP);
                true
            }
            None => false,
        };
        for l in 0..n {
            let code = by_code.then(|| {
                self.key_strs.iter().fold(0usize, |c, &r| {
                    c * s.s[r].dict.len() + s.s[r].codes[l] as usize
                })
            });
            if let Some(c) = code {
                if dict_gids[c] != NO_GROUP {
                    gids.push(dict_gids[c]);
                    upd.push(l as u32);
                    continue;
                }
            }
            let h = lane_hash(&self.key, s, l, 0);
            let (g, created) =
                table.find_or_insert(h, |g| lane_eq_value(&self.key, s, l, &keys[g as usize]));
            if let Some(c) = code {
                dict_gids[c] = g;
            }
            gids.push(g);
            if !created {
                upd.push(l as u32);
                continue;
            }
            keys.push(mat_value(&self.key, s, l));
            for (slot, acc) in self.slots.iter().zip(accs.iter_mut()) {
                match (slot, acc) {
                    (Slot::I { op, val, zero }, AccCol::I(a)) => {
                        let v = s.i[*val][l];
                        a.push(zero.map_or(v, |z| comb_i(*op, z, v)));
                    }
                    (Slot::F { op, val, zero }, AccCol::F(a)) => {
                        let v = s.f[*val][l];
                        a.push(zero.map_or(v, |z| comb_f(*op, z, v)));
                    }
                    (Slot::B { op, val, zero }, AccCol::B(a)) => {
                        let v = s.b[*val][l];
                        a.push(zero.map_or(v, |z| comb_b(*op, z, v)));
                    }
                    _ => unreachable!("accumulator columns are typed by their slots"),
                }
            }
        }
    }

    /// The folded groups as `(key, accumulator)` values in first-seen
    /// order — the one place a group's accumulator becomes a `Value`.
    pub fn finish(&self, st: AggState) -> Vec<(Value, Value)> {
        let slot_value = |c: &AccCol, g: usize| match c {
            AccCol::I(a) => Value::Int(a[g]),
            AccCol::F(a) => Value::Float(a[g]),
            AccCol::B(a) => Value::Bool(a[g]),
        };
        st.keys
            .into_iter()
            .enumerate()
            .map(|(g, k)| {
                let acc = if self.tuple_acc {
                    Value::tuple(st.accs.iter().map(|c| slot_value(c, g)).collect::<Vec<_>>())
                } else {
                    slot_value(&st.accs[0], g)
                };
                (k, acc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{compile_lambda, Machine};
    use crate::expr::{Lambda, ScalarExpr};
    use crate::interp::Catalog;

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
    /// against the scalar tier.
    fn check_map(lam: &Lambda, rows: &[Value]) {
        let code = compile_lambda(lam);
        let caps = code.bind(&HashMap::new());
        let catalog = Catalog::new();
        let vp = specialize(&[VecStageSpec::Map(&code, &caps)], &rows[0])
            .expect("expected specializable program");
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(vp.run_batch(rows, &mut scratch, &mut counts, &mut out));
        assert_eq!(counts, vec![rows.len() as u64; 2]);
        let mut m = Machine::new();
        for (row, got) in rows.iter().zip(&out) {
            let want = code
                .eval(std::slice::from_ref(row), &caps, &mut m, &catalog)
                .expect("scalar tier errored where vector tier succeeded");
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
        let code = compile_lambda(&lam);
        let caps = code.bind(&HashMap::new());
        let vp = specialize(
            &[VecStageSpec::Map(&code, &caps)],
            &Value::tuple(vec![Value::Float(1.0), Value::Float(1.0)]),
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
        let code = compile_lambda(&lam);
        let caps = code.bind(&HashMap::new());
        let vp = specialize(
            &[VecStageSpec::Map(&code, &caps)],
            &Value::tuple(vec![Value::Int(0), Value::Int(0)]),
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
        let code = compile_lambda(&lam);
        let caps = code.bind(&HashMap::new());
        let rows = int_pair_rows(31);
        let vp = specialize(&[VecStageSpec::Filter(&code, &caps)], &rows[0]).unwrap();
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
        let (c1, c2, c3) = (compile_lambda(&m1), compile_lambda(&f), compile_lambda(&m2));
        let base = HashMap::new();
        let (b1, b2, b3) = (c1.bind(&base), c2.bind(&base), c3.bind(&base));
        let rows = int_pair_rows(200);
        let vp = specialize(
            &[
                VecStageSpec::Map(&c1, &b1),
                VecStageSpec::Filter(&c2, &b2),
                VecStageSpec::Map(&c3, &b3),
            ],
            &rows[0],
        )
        .unwrap();
        assert_eq!(vp.n_stages(), 3);
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 4];
        let mut out = Vec::new();
        assert!(vp.run_batch(&rows, &mut scratch, &mut counts, &mut out));
        // Scalar reference: the same chain row-at-a-time.
        let catalog = Catalog::new();
        let mut m = Machine::new();
        let mut want = Vec::new();
        let mut want_counts = vec![0u64; 4];
        for row in &rows {
            want_counts[0] += 1;
            let v1 = c1
                .eval(std::slice::from_ref(row), &b1, &mut m, &catalog)
                .unwrap();
            want_counts[1] += 1;
            let keep = c2
                .eval(std::slice::from_ref(&v1), &b2, &mut m, &catalog)
                .unwrap();
            if !matches!(keep, Value::Bool(true)) {
                continue;
            }
            want_counts[2] += 1;
            want.push(
                c3.eval(std::slice::from_ref(&v1), &b3, &mut m, &catalog)
                    .unwrap(),
            );
            want_counts[3] += 1;
        }
        assert_eq!(out, want);
        assert_eq!(counts, want_counts);
    }

    #[test]
    fn captures_are_splatted() {
        let lam = Lambda::new(["x"], se_bin(BinOp::Mul, x0(), ScalarExpr::var("scale")));
        let code = compile_lambda(&lam);
        let mut base = HashMap::new();
        base.insert("scale".to_string(), Value::Int(17));
        let caps = code.bind(&base);
        let rows = int_pair_rows(10);
        let vp = specialize(&[VecStageSpec::Map(&code, &caps)], &rows[0]).unwrap();
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(vp.run_batch(&rows, &mut scratch, &mut counts, &mut out));
        assert_eq!(out[3], Value::Int(51));
    }

    #[test]
    fn non_specializable_programs_are_rejected() {
        let sample = Value::tuple(vec![Value::Int(0), Value::Int(0)]);
        let base = HashMap::new();
        // String builtin over a non-string slot: `as_str` errors per row.
        let s = compile_lambda(&Lambda::new(
            ["x"],
            ScalarExpr::call(BuiltinFn::StrLen, vec![x0()]),
        ));
        let sc = s.bind(&base);
        assert!(specialize(&[VecStageSpec::Map(&s, &sc)], &sample).is_none());
        // Vector builtin.
        let d = compile_lambda(&Lambda::new(
            ["x"],
            ScalarExpr::call(BuiltinFn::Dist, vec![x0(), x1()]),
        ));
        let dc = d.bind(&base);
        assert!(specialize(&[VecStageSpec::Map(&d, &dc)], &sample).is_none());
        // Unbound capture.
        let u = compile_lambda(&Lambda::new(["x"], ScalarExpr::var("missing")));
        let uc = u.bind(&base);
        assert!(specialize(&[VecStageSpec::Map(&u, &uc)], &sample).is_none());
        // Two-parameter lambda (fold `uni`): not a single-input stage.
        let two = compile_lambda(&Lambda::new(
            ["a", "b"],
            se_bin(BinOp::Add, ScalarExpr::var("a"), ScalarExpr::var("b")),
        ));
        let tc = two.bind(&base);
        assert!(specialize(&[VecStageSpec::Map(&two, &tc)], &sample).is_none());
        // Non-Bool filter result.
        let nb = compile_lambda(&Lambda::new(["x"], x0()));
        let nc = nb.bind(&base);
        assert!(specialize(&[VecStageSpec::Filter(&nb, &nc)], &sample).is_none());
        // Non-tuple sample shape for a field access.
        let fa = compile_lambda(&Lambda::new(["x"], x0()));
        let fc = fa.bind(&base);
        assert!(specialize(&[VecStageSpec::Map(&fa, &fc)], &Value::Int(3)).is_none());
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
        let code = compile_lambda(lam);
        let caps = code.bind(&HashMap::new());
        let catalog = Catalog::new();
        let vp = specialize_sampled(&[VecStageSpec::Map(&code, &caps)], samples)
            .expect("expected specializable program");
        let mut scratch = vp.new_scratch();
        let mut counts = vec![0u64; 2];
        let mut out = Vec::new();
        assert!(vp.run_batch(rows, &mut scratch, &mut counts, &mut out));
        let mut m = Machine::new();
        for (row, got) in rows.iter().zip(&out) {
            let want = code
                .eval(std::slice::from_ref(row), &caps, &mut m, &catalog)
                .expect("scalar tier errored where vector tier succeeded");
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
        let code = compile_lambda(&lam);
        let caps = code.bind(&HashMap::new());
        let rows = str_rows();
        let vp = specialize(&[VecStageSpec::Filter(&code, &caps)], &rows[0]).unwrap();
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
        let code = compile_lambda(&lam);
        let mut base = HashMap::new();
        base.insert("pat".to_string(), Value::str("héllo"));
        let caps = code.bind(&base);
        let rows = str_rows();
        let vp = specialize(&[VecStageSpec::Map(&code, &caps)], &rows[0]).unwrap();
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
                .any(|i| matches!(i, VInstr::LoadS { dict: true, .. })),
            "low-cardinality sample must dictionary-encode the load"
        );
        // A single-row sample can never clear DICT_MIN_SAMPLE.
        let vp1 = check_map_sampled(&lam, &rows[..1], &rows);
        assert!(
            vp1.kernels
                .instrs
                .iter()
                .all(|i| !matches!(i, VInstr::LoadS { dict: true, .. })),
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
            .any(|i| matches!(i, VInstr::LoadS { dict: true, .. })));
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
        let code = compile_lambda(&lam);
        let caps = code.bind(&HashMap::new());
        let vp = specialize(&[VecStageSpec::Map(&code, &caps)], &rows[0]).unwrap();
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
        let code = compile_lambda(&lam);
        let caps = code.bind(&HashMap::new());
        let vp = specialize(&[VecStageSpec::Map(&code, &caps)], &rows[0]).unwrap();
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
        let ops = |uni: &Lambda| slot_ops(&compile_lambda(uni));
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

    /// The scalar reference: `InsertionMap`-style first-seen groups folded
    /// row at a time through the compiled `key`/`sng`/`uni`.
    fn scalar_groups(key: &Lambda, fold: &FoldOp, rows: &[Value]) -> Vec<(Value, Value)> {
        let (kc, sc, uc) = (
            compile_lambda(key),
            compile_lambda(&fold.sng),
            compile_lambda(&fold.uni),
        );
        let caps = Vec::new();
        let catalog = Catalog::new();
        let zero = zero_of(fold);
        let mut m = Machine::new();
        let mut groups: Vec<(Value, Value)> = Vec::new();
        for row in rows {
            let k = kc
                .eval(std::slice::from_ref(row), &caps, &mut m, &catalog)
                .unwrap();
            let s = sc
                .eval(std::slice::from_ref(row), &caps, &mut m, &catalog)
                .unwrap();
            match groups.iter_mut().find(|(gk, _)| *gk == k) {
                Some((_, acc)) => {
                    *acc = uc.eval(&[acc.clone(), s], &caps, &mut m, &catalog).unwrap()
                }
                None => {
                    let first = uc
                        .eval(&[zero.clone(), s], &caps, &mut m, &catalog)
                        .unwrap();
                    groups.push((k, first));
                }
            }
        }
        groups
    }

    fn combiner_kernel(key: &Lambda, fold: &FoldOp, samples: &[Value]) -> Option<AggKernel> {
        let (kc, sc, uc) = (
            compile_lambda(key),
            compile_lambda(&fold.sng),
            compile_lambda(&fold.uni),
        );
        let zero = zero_of(fold);
        specialize_agg(
            &AggInput::Rows {
                key: (&kc, &[]),
                sng: (&sc, &[]),
                zero: &zero,
            },
            &uc,
            samples,
        )
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
        // Same through the merge phase: partials of two halves, merged.
        let halves: Vec<Value> = [&rows[..25], &rows[25..]]
            .iter()
            .flat_map(|half| scalar_groups(&key, &fold, half))
            .map(|(k, acc)| Value::tuple(vec![k, acc]))
            .collect();
        let uc = compile_lambda(&fold.uni);
        let merge = specialize_agg(&AggInput::Partials, &uc, &halves).expect("merge kernel");
        let mut st = merge.new_state();
        assert!(merge.absorb(&halves, &mut st));
        let merged = merge.finish(st);
        let want = scalar_groups(&key, &fold, &rows);
        assert_eq!(merged.len(), want.len());
        for (k, acc) in &want {
            assert!(merged.contains(&(k.clone(), acc.clone())), "{k:?}");
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
        // `Null + s` errors on every row; the scalar tier must produce it.
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
