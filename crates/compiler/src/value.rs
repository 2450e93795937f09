//! The dynamic value model shared by the compiler IR and the engine.
//!
//! Emma programs in this reproduction are *first-class values*: a driver AST
//! over an analyzable expression language (see the crate docs for why this
//! substitutes for Scala-macro quotation). Records flowing through dataflows
//! are dynamic [`Value`]s — tuples of primitives, numeric vectors, and
//! (for nesting) bags of values.
//!
//! `Value` implements total equality and hashing (floats compare by bit
//! pattern, `NaN == NaN`) so values can serve as grouping and join keys, and
//! a total order for `min`/`max`-style folds.
//!
//! **Layout rule.** A value whose size is fixed once it is built is *one*
//! heap block: a tuple is an `Arc<[Value]>` and a vector an `Arc<[f64]>`,
//! refcounts and elements in the same allocation, built in place from an
//! array or an exact-size iterator. A bag stays `Arc<Vec<Value>>`: bags are
//! grown by `push`, and sealing one into a slice would cost a copy of every
//! row. `Value` is 24 bytes either way (`Str` is already a fat pointer).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use emma_core::ops;

/// A dynamically typed record value.
#[derive(Clone, Debug, Default)]
pub enum Value {
    /// The absent value (used e.g. for empty-bag `min_by` results).
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Immutable string (cheap to clone; rows are cloned across operators).
    Str(Arc<str>),
    /// Dense numeric vector (k-means positions, feature vectors).
    Vector(Arc<[f64]>),
    /// Positional tuple / struct.
    Tuple(Arc<[Value]>),
    /// A nested bag of values (group values, driver-side sequences).
    Bag(Arc<Vec<Value>>),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for tuples. An array, or an `Arc<[Value]>`
    /// collected from an iterator whose length std trusts (a slice, range
    /// or `drain` iterator through `map`), is the one allocation; a `Vec`
    /// is copied into a fresh block.
    pub fn tuple(fields: impl Into<Arc<[Value]>>) -> Value {
        Value::Tuple(fields.into())
    }

    /// Convenience constructor for vectors (same rule as [`Value::tuple`]).
    pub fn vector(v: impl Into<Arc<[f64]>>) -> Value {
        Value::Vector(v.into())
    }

    /// Convenience constructor for bags.
    pub fn bag(v: impl Into<Vec<Value>>) -> Value {
        Value::Bag(Arc::new(v.into()))
    }

    /// Positional field access on tuples.
    pub fn field(&self, i: usize) -> Result<&Value, ValueError> {
        match self {
            Value::Tuple(fs) => fs.get(i).ok_or_else(|| ValueError::FieldOutOfRange {
                index: i,
                arity: fs.len(),
            }),
            other => Err(ValueError::type_mismatch("Tuple", other)),
        }
    }

    /// Extracts a bool.
    pub fn as_bool(&self) -> Result<bool, ValueError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ValueError::type_mismatch("Bool", other)),
        }
    }

    /// Extracts an integer.
    pub fn as_int(&self) -> Result<i64, ValueError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(ValueError::type_mismatch("Int", other)),
        }
    }

    /// Extracts a float, coercing integers.
    pub fn as_float(&self) -> Result<f64, ValueError> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(ValueError::type_mismatch("Float", other)),
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Result<&str, ValueError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(ValueError::type_mismatch("Str", other)),
        }
    }

    /// Extracts a vector.
    pub fn as_vector(&self) -> Result<&[f64], ValueError> {
        match self {
            Value::Vector(v) => Ok(v),
            other => Err(ValueError::type_mismatch("Vector", other)),
        }
    }

    /// Extracts the elements of a nested bag.
    pub fn as_bag(&self) -> Result<&[Value], ValueError> {
        match self {
            Value::Bag(b) => Ok(b),
            other => Err(ValueError::type_mismatch("Bag", other)),
        }
    }

    /// `true` for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short name for the value's runtime type (for diagnostics).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Bool(_) => "Bool",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
            Value::Vector(_) => "Vector",
            Value::Tuple(_) => "Tuple",
            Value::Bag(_) => "Bag",
        }
    }

    /// Approximate serialized size in bytes — the unit the engine's cost
    /// model charges for shuffles, broadcasts, and storage.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 8 + s.len() as u64,
            Value::Vector(v) => 8 + 8 * v.len() as u64,
            Value::Tuple(fs) => 8 + fs.iter().map(Value::approx_bytes).sum::<u64>(),
            Value::Bag(b) => 8 + b.iter().map(Value::approx_bytes).sum::<u64>(),
        }
    }
}

/// Errors raised by dynamic value operations and expression evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValueError {
    /// A value had an unexpected runtime type.
    TypeMismatch {
        /// Expected type name.
        expected: &'static str,
        /// Found type name.
        found: &'static str,
    },
    /// Tuple field index out of range.
    FieldOutOfRange {
        /// Requested index.
        index: usize,
        /// Tuple arity.
        arity: usize,
    },
    /// An unbound variable was referenced during evaluation.
    UnboundVariable(String),
    /// Division by zero or a similar arithmetic fault.
    Arithmetic(String),
    /// A named dataset or UDF was not found.
    Unknown(String),
}

impl ValueError {
    /// Builds a type-mismatch error from the found value.
    pub fn type_mismatch(expected: &'static str, found: &Value) -> Self {
        ValueError::TypeMismatch {
            expected,
            found: found.type_name(),
        }
    }
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            ValueError::FieldOutOfRange { index, arity } => {
                write!(f, "field {index} out of range for tuple of arity {arity}")
            }
            ValueError::UnboundVariable(name) => write!(f, "unbound variable `{name}`"),
            ValueError::Arithmetic(msg) => write!(f, "arithmetic error: {msg}"),
            ValueError::Unknown(what) => write!(f, "unknown: {what}"),
        }
    }
}

impl std::error::Error for ValueError {}

// ---------------------------------------------------------------- equality

pub(crate) fn float_key(f: f64) -> u64 {
    // Canonicalize NaNs and signed zero so Eq/Hash agree.
    if f.is_nan() {
        u64::MAX
    } else if f == 0.0 {
        0
    } else {
        f.to_bits()
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => float_key(*a) == float_key(*b),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                float_key(*a as f64) == float_key(*b)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Vector(a), Value::Vector(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|(x, y)| float_key(*x) == float_key(*y))
            }
            (Value::Tuple(a), Value::Tuple(b)) => a == b,
            // Bags compare as multisets: `b` cancels every element of `a`.
            (Value::Bag(a), Value::Bag(b)) => {
                a.len() == b.len() && ops::minus(a.iter(), b.iter()).next().is_none()
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that compare equal must hash equally.
            Value::Int(i) => {
                2u8.hash(state);
                float_key(*i as f64).hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                float_key(*f).hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Vector(v) => {
                4u8.hash(state);
                for f in v.iter() {
                    float_key(*f).hash(state);
                }
            }
            Value::Tuple(fs) => {
                5u8.hash(state);
                for f in fs.iter() {
                    f.hash(state);
                }
            }
            Value::Bag(b) => {
                // Order-independent hash: combine element hashes commutatively.
                6u8.hash(state);
                let acc = b
                    .iter()
                    .fold(0u64, |acc, v| acc.wrapping_add(ops::hash_of(v)));
                acc.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Vector(_) => 4,
                Value::Tuple(_) => 5,
                Value::Bag(_) => 6,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Vector(a), Value::Vector(b)) => a.len().cmp(&b.len()).then_with(|| {
                for (x, y) in a.iter().zip(b.iter()) {
                    let o = x.total_cmp(y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                Ordering::Equal
            }),
            (Value::Tuple(a), Value::Tuple(b)) => a.cmp(b),
            (Value::Bag(a), Value::Bag(b)) => {
                let mut sa: Vec<&Value> = a.iter().collect();
                let mut sb: Vec<&Value> = b.iter().collect();
                sa.sort();
                sb.sort();
                sa.cmp(&sb)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Vector(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{x:.4}")?;
                }
                write!(f, "]")
            }
            Value::Tuple(fs) => {
                write!(f, "(")?;
                for (i, v) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Bag(b) => {
                write!(f, "{{{{")?;
                for (i, v) in b.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}}}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_cross_type_equality_is_hash_consistent() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_equals_nan() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn signed_zero_is_canonical() {
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
    }

    #[test]
    fn bags_compare_as_multisets() {
        let a = Value::bag(vec![Value::Int(1), Value::Int(2), Value::Int(2)]);
        let b = Value::bag(vec![Value::Int(2), Value::Int(1), Value::Int(2)]);
        let c = Value::bag(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(a, c);
    }

    #[test]
    fn tuple_field_access() {
        let t = Value::tuple(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(t.field(0).unwrap(), &Value::Int(1));
        assert!(matches!(
            t.field(5),
            Err(ValueError::FieldOutOfRange { index: 5, arity: 2 })
        ));
        assert!(Value::Int(3).field(0).is_err());
    }

    #[test]
    fn ordering_is_total() {
        let mut vs = [
            Value::Float(2.5),
            Value::Int(1),
            Value::Null,
            Value::str("a"),
            Value::Bool(true),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Int(1));
    }

    #[test]
    fn approx_bytes_is_monotone_in_content() {
        let small = Value::tuple(vec![Value::Int(1)]);
        let big = Value::tuple(vec![Value::Int(1), Value::str("hello world")]);
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn display_forms() {
        let t = Value::tuple(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(t.to_string(), "(1, x)");
        assert_eq!(Value::bag(vec![Value::Int(1)]).to_string(), "{{1}}");
    }
}
