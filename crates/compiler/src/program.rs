//! The driver-program AST — the quoted contents of the `parallelize { … }`
//! brackets (paper, Listing 4 / Section 3.2).
//!
//! An Emma program mixes *centralized control flow* (vals, vars, loops,
//! conditionals) with *parallel dataflows* (bag expressions). The compiler
//! takes a holistic view over this whole structure: control flow stays in the
//! driver, maximal bag expressions are compiled to dataflow plans, and the
//! interplay between the two (caching across loop iterations, partition
//! pulling behind control-flow barriers, broadcast of driver variables) is
//! where the paper's physical optimizations live.

use std::fmt;

use crate::bag_expr::BagExpr;
use crate::expr::{Lambda, ScalarExpr, Term, TermMut};

/// The right-hand side of a binding: either a bag-typed dataflow expression
/// or a scalar driver expression (which may itself contain terminal folds
/// over bags).
#[derive(Clone, Debug, PartialEq)]
pub enum RValue {
    /// A bag-valued expression.
    Bag(BagExpr),
    /// A scalar-valued expression.
    Scalar(ScalarExpr),
}

impl From<BagExpr> for RValue {
    fn from(e: BagExpr) -> Self {
        RValue::Bag(e)
    }
}

impl From<ScalarExpr> for RValue {
    fn from(e: ScalarExpr) -> Self {
        RValue::Scalar(e)
    }
}

/// A driver statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// Immutable binding (`val name = value`).
    ValDef {
        /// Binding name.
        name: String,
        /// Bound expression.
        value: RValue,
    },
    /// Mutable binding (`var name = value`).
    VarDef {
        /// Binding name.
        name: String,
        /// Initial expression.
        value: RValue,
    },
    /// Assignment to a mutable binding.
    Assign {
        /// Target variable.
        name: String,
        /// New value.
        value: RValue,
    },
    /// `while (cond) { body }` — the *native* host-language loop; whether it
    /// runs as lazily unrolled dataflows or a native iteration is an engine
    /// concern, not a language one (paper, Section 1, "Native Iterations").
    While {
        /// Loop condition (re-evaluated each iteration).
        cond: ScalarExpr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Driver-side iteration over a small scalar sequence
    /// (`for (c <- classifiers) { … }` in Listing 5).
    ForEach {
        /// Loop variable bound to each element.
        var: String,
        /// A scalar expression evaluating to a `Value::Bag` sequence.
        seq: ScalarExpr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Conditional.
    If {
        /// Branch condition.
        cond: ScalarExpr,
        /// Then-branch.
        then_branch: Vec<Stmt>,
        /// Else-branch (may be empty).
        else_branch: Vec<Stmt>,
    },
    /// `write(sink)(bag)` — materializes a bag to a named sink.
    Write {
        /// Sink name.
        sink: String,
        /// The bag to write.
        bag: BagExpr,
    },
    /// `val name = stateful(bag)` — converts a bag into a keyed stateful bag
    /// (paper, Listing 3 lines 24–26). Subsequent `Ref { name }` bag
    /// references read the current state snapshot (`.bag()`).
    StatefulCreate {
        /// The stateful binding's name.
        name: String,
        /// The initial contents.
        init: BagExpr,
        /// Key extractor over elements (the `A <: Key[K]` bound).
        key: Lambda,
    },
    /// `val delta = state.update(messages)(udf)` — point-wise state update
    /// with update messages sharing the element key space (Listing 3
    /// lines 27–30). The changed delta is bound as a regular bag.
    StatefulUpdate {
        /// The stateful binding to update.
        state: String,
        /// Name the changed delta is bound to.
        delta: String,
        /// The update messages.
        messages: BagExpr,
        /// Key extractor over messages (routes each to its state element).
        message_key: Lambda,
        /// `(element, message) ⟼ new element | null` — null declines the
        /// update (the paper's `Option[A]`).
        update: Lambda,
    },
}

impl Stmt {
    /// `val name = value`.
    pub fn val(name: impl Into<String>, value: impl Into<RValue>) -> Stmt {
        Stmt::ValDef {
            name: name.into(),
            value: value.into(),
        }
    }

    /// `var name = value`.
    pub fn var(name: impl Into<String>, value: impl Into<RValue>) -> Stmt {
        Stmt::VarDef {
            name: name.into(),
            value: value.into(),
        }
    }

    /// `name = value`.
    pub fn assign(name: impl Into<String>, value: impl Into<RValue>) -> Stmt {
        Stmt::Assign {
            name: name.into(),
            value: value.into(),
        }
    }

    /// `while (cond) { body }`.
    pub fn while_loop(cond: ScalarExpr, body: Vec<Stmt>) -> Stmt {
        Stmt::While { cond, body }
    }

    /// `for (var <- seq) { body }`.
    pub fn for_each(var: impl Into<String>, seq: ScalarExpr, body: Vec<Stmt>) -> Stmt {
        Stmt::ForEach {
            var: var.into(),
            seq,
            body,
        }
    }

    /// `if (cond) { then } else { else }`.
    pub fn if_else(cond: ScalarExpr, then_branch: Vec<Stmt>, else_branch: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        }
    }

    /// `write(sink)(bag)`.
    pub fn write(sink: impl Into<String>, bag: BagExpr) -> Stmt {
        Stmt::Write {
            sink: sink.into(),
            bag,
        }
    }

    /// `val name = stateful(init, key)`.
    pub fn stateful(name: impl Into<String>, init: BagExpr, key: Lambda) -> Stmt {
        assert_eq!(key.params.len(), 1, "state key takes a unary lambda");
        Stmt::StatefulCreate {
            name: name.into(),
            init,
            key,
        }
    }

    /// `val delta = state.update(messages)(udf)`.
    pub fn stateful_update(
        state: impl Into<String>,
        delta: impl Into<String>,
        messages: BagExpr,
        message_key: Lambda,
        update: Lambda,
    ) -> Stmt {
        assert_eq!(
            message_key.params.len(),
            1,
            "message key takes a unary lambda"
        );
        assert_eq!(update.params.len(), 2, "update takes (element, message)");
        Stmt::StatefulUpdate {
            state: state.into(),
            delta: delta.into(),
            messages,
            message_key,
            update,
        }
    }

    /// The terms this statement holds itself, in source order: a binding's
    /// value, a condition or loop sequence, a sink's bag, a stateful
    /// statement's bag and its lambdas. Nested blocks are [`Stmt::blocks`].
    pub fn for_each_term<'a>(&'a self, mut visit: impl FnMut(Term<'a>)) {
        match self {
            Stmt::ValDef { value, .. }
            | Stmt::VarDef { value, .. }
            | Stmt::Assign { value, .. } => visit(match value {
                RValue::Bag(b) => Term::Bag(b),
                RValue::Scalar(e) => Term::Scalar(e),
            }),
            Stmt::While { cond: e, .. }
            | Stmt::ForEach { seq: e, .. }
            | Stmt::If { cond: e, .. } => visit(Term::Scalar(e)),
            Stmt::Write { bag, .. } => visit(Term::Bag(bag)),
            Stmt::StatefulCreate { init, key, .. } => {
                visit(Term::Bag(init));
                visit(Term::Lambda(key));
            }
            Stmt::StatefulUpdate {
                messages,
                message_key,
                update,
                ..
            } => {
                visit(Term::Bag(messages));
                visit(Term::Lambda(message_key));
                visit(Term::Lambda(update));
            }
        }
    }

    /// The `&mut` twin of [`Stmt::for_each_term`].
    pub fn for_each_term_mut(&mut self, mut visit: impl FnMut(TermMut<'_>)) {
        match self {
            Stmt::ValDef { value, .. }
            | Stmt::VarDef { value, .. }
            | Stmt::Assign { value, .. } => visit(match value {
                RValue::Bag(b) => TermMut::Bag(b),
                RValue::Scalar(e) => TermMut::Scalar(e),
            }),
            Stmt::While { cond: e, .. }
            | Stmt::ForEach { seq: e, .. }
            | Stmt::If { cond: e, .. } => visit(TermMut::Scalar(e)),
            Stmt::Write { bag, .. } => visit(TermMut::Bag(bag)),
            Stmt::StatefulCreate { init, key, .. } => {
                visit(TermMut::Bag(init));
                visit(TermMut::Lambda(key));
            }
            Stmt::StatefulUpdate {
                messages,
                message_key,
                update,
                ..
            } => {
                visit(TermMut::Bag(messages));
                visit(TermMut::Lambda(message_key));
                visit(TermMut::Lambda(update));
            }
        }
    }

    /// The nested statement blocks: a loop's body, a conditional's branches.
    pub fn blocks(&self) -> impl Iterator<Item = &Vec<Stmt>> {
        let (first, second) = match self {
            Stmt::While { body, .. } | Stmt::ForEach { body, .. } => (Some(body), None),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => (Some(then_branch), Some(else_branch)),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// The `&mut` twin of [`Stmt::blocks`].
    pub fn blocks_mut(&mut self) -> impl Iterator<Item = &mut Vec<Stmt>> {
        let (first, second) = match self {
            Stmt::While { body, .. } | Stmt::ForEach { body, .. } => (Some(body), None),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => (Some(then_branch), Some(else_branch)),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// A complete driver program — the contents of the `parallelize` brackets.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// The statements, in order.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Creates a program from its statements.
    pub fn new(body: Vec<Stmt>) -> Program {
        Program { body }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(s: &Stmt, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match s {
                Stmt::ValDef { name, value } => match value {
                    RValue::Bag(b) => writeln!(f, "{pad}val {name} = {b}"),
                    RValue::Scalar(e) => writeln!(f, "{pad}val {name} = {e}"),
                },
                Stmt::VarDef { name, value } => match value {
                    RValue::Bag(b) => writeln!(f, "{pad}var {name} = {b}"),
                    RValue::Scalar(e) => writeln!(f, "{pad}var {name} = {e}"),
                },
                Stmt::Assign { name, value } => match value {
                    RValue::Bag(b) => writeln!(f, "{pad}{name} = {b}"),
                    RValue::Scalar(e) => writeln!(f, "{pad}{name} = {e}"),
                },
                Stmt::While { cond, body } => {
                    writeln!(f, "{pad}while ({cond}) {{")?;
                    for s in body {
                        go(s, f, indent + 1)?;
                    }
                    writeln!(f, "{pad}}}")
                }
                Stmt::ForEach { var, seq, body } => {
                    writeln!(f, "{pad}for ({var} <- {seq}) {{")?;
                    for s in body {
                        go(s, f, indent + 1)?;
                    }
                    writeln!(f, "{pad}}}")
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    writeln!(f, "{pad}if ({cond}) {{")?;
                    for s in then_branch {
                        go(s, f, indent + 1)?;
                    }
                    if else_branch.is_empty() {
                        writeln!(f, "{pad}}}")
                    } else {
                        writeln!(f, "{pad}}} else {{")?;
                        for s in else_branch {
                            go(s, f, indent + 1)?;
                        }
                        writeln!(f, "{pad}}}")
                    }
                }
                Stmt::Write { sink, bag } => writeln!(f, "{pad}write({sink}, {bag})"),
                Stmt::StatefulCreate { name, init, key } => {
                    writeln!(f, "{pad}val {name} = stateful({init}, {key})")
                }
                Stmt::StatefulUpdate {
                    state,
                    delta,
                    messages,
                    message_key,
                    update,
                } => writeln!(
                    f,
                    "{pad}val {delta} = {state}.update({messages}, key={message_key})({update})"
                ),
            }
        }
        go(self, f, 0)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.body {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Lambda;

    #[test]
    fn builders_produce_expected_shapes() {
        let p = Program::new(vec![
            Stmt::val("xs", BagExpr::read("points")),
            Stmt::var("i", ScalarExpr::lit(0i64)),
            Stmt::while_loop(
                ScalarExpr::var("i").lt(ScalarExpr::lit(3i64)),
                vec![Stmt::assign(
                    "i",
                    ScalarExpr::var("i").add(ScalarExpr::lit(1i64)),
                )],
            ),
            Stmt::write(
                "out",
                BagExpr::var("xs").map(Lambda::new(["x"], ScalarExpr::var("x"))),
            ),
        ]);
        assert_eq!(p.body.len(), 4);
        let text = p.to_string();
        assert!(text.contains("while ((i < 3))"));
        assert!(text.contains("write(out"));
    }
}
