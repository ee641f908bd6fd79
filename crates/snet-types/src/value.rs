//! Field values.
//!
//! Field values come "from the SaC domain" and are "entirely opaque to
//! S-Net" (paper, Section 4): the coordination layer never inspects
//! them, it only moves them between boxes. This enum carries the value
//! shapes the SaC layer of this reproduction produces — scalars and
//! n-dimensional arrays — plus raw bytes and a fully opaque escape
//! hatch for applications with their own payload types.
//!
//! All variants are cheap to clone (arrays are reference-counted), so
//! records can be duplicated by filters without copying payloads.
//!
//! Every non-scalar payload sits behind a **thin** (single-word)
//! pointer, so a `Value` is 16 bytes. This is deliberate: records
//! store values inline (see `record`), records travel by value
//! through stream channel slots and batch buffers, and every byte of
//! `Value` is copied several times per hop — the PR 4 record-size
//! budget keeps a whole 4-field/4-tag record near two cache lines.
//! The price is one extra indirection when *reading* a string, byte
//! buffer or opaque payload, none of which sit on the coordination
//! hot path (the coordination layer never inspects payloads).

use bytes::Bytes;
use sacarray::Array;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// A field value: opaque payload from the computation layer.
#[derive(Clone)]
pub enum Value {
    /// Scalar integer (a rank-0 SaC array).
    Int(i64),
    /// Scalar double.
    Double(f64),
    /// Scalar boolean.
    Bool(bool),
    /// Immutable string (thin: the length lives with the data).
    Str(Arc<String>),
    /// n-dimensional integer array (SaC `int[*]`) — boards, etc.
    IntArray(Arc<Array<i64>>),
    /// n-dimensional boolean array (SaC `bool[*]`) — option cubes, etc.
    BoolArray(Arc<Array<bool>>),
    /// n-dimensional double array (SaC `double[*]`).
    DoubleArray(Arc<Array<f64>>),
    /// Raw bytes (e.g. serialised external payloads).
    Bytes(Bytes),
    /// Anything else; compared by identity (thin: the vtable lives
    /// behind the box).
    Opaque(Arc<Box<dyn Any + Send + Sync>>),
}

impl Value {
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    pub fn as_int_array(&self) -> Option<&Array<i64>> {
        match self {
            Value::IntArray(a) => Some(a.as_ref()),
            _ => None,
        }
    }

    pub fn as_bool_array(&self) -> Option<&Array<bool>> {
        match self {
            Value::BoolArray(a) => Some(a.as_ref()),
            _ => None,
        }
    }

    pub fn as_double_array(&self) -> Option<&Array<f64>> {
        match self {
            Value::DoubleArray(a) => Some(a.as_ref()),
            _ => None,
        }
    }

    /// Downcasts an opaque payload.
    pub fn downcast<T: Any + Send + Sync>(&self) -> Option<&T> {
        match self {
            Value::Opaque(a) => (**a).downcast_ref::<T>(),
            _ => None,
        }
    }

    /// Wraps an arbitrary payload as an opaque value.
    pub fn opaque<T: Any + Send + Sync>(v: T) -> Value {
        Value::Opaque(Arc::new(Box::new(v)))
    }
}

impl PartialEq for Value {
    /// Structural equality where the payload supports it; opaque
    /// payloads compare by identity (same allocation).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::IntArray(a), Value::IntArray(b)) => a == b,
            (Value::BoolArray(a), Value::BoolArray(b)) => a == b,
            (Value::DoubleArray(a), Value::DoubleArray(b)) => {
                a.shape() == b.shape() && a.data() == b.data()
            }
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            (Value::Opaque(a), Value::Opaque(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "Int({v})"),
            Value::Double(v) => write!(f, "Double({v})"),
            Value::Bool(v) => write!(f, "Bool({v})"),
            Value::Str(s) => write!(f, "Str({s:?})"),
            Value::IntArray(a) => write!(f, "IntArray(shape {})", a.shape()),
            Value::BoolArray(a) => write!(f, "BoolArray(shape {})", a.shape()),
            Value::DoubleArray(a) => write!(f, "DoubleArray(shape {})", a.shape()),
            Value::Bytes(b) => write!(f, "Bytes({} bytes)", b.len()),
            Value::Opaque(_) => write!(f, "Opaque(..)"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(Arc::new(v.to_string()))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(Arc::new(v))
    }
}

impl From<Array<i64>> for Value {
    fn from(v: Array<i64>) -> Value {
        Value::IntArray(Arc::new(v))
    }
}

impl From<Array<bool>> for Value {
    fn from(v: Array<bool>) -> Value {
        Value::BoolArray(Arc::new(v))
    }
}

impl From<Array<f64>> for Value {
    fn from(v: Array<f64>) -> Value {
        Value::DoubleArray(Arc::new(v))
    }
}

impl From<Bytes> for Value {
    fn from(v: Bytes) -> Value {
        Value::Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_conversions_and_accessors() {
        assert_eq!(Value::from(42i64).as_int(), Some(42));
        assert_eq!(Value::from(1.5f64).as_double(), Some(1.5));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(42i64).as_bool(), None);
    }

    #[test]
    fn array_values_are_cheap_clones() {
        let a = Array::fill([100, 100], 7i64);
        let v = Value::from(a.clone());
        let w = v.clone();
        match (&v, &w) {
            (Value::IntArray(x), Value::IntArray(y)) => assert!(x.ptr_eq(y)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn equality_is_structural_for_arrays() {
        let a = Value::from(Array::from_vec(vec![1i64, 2, 3]));
        let b = Value::from(Array::from_vec(vec![1i64, 2, 3]));
        assert_eq!(a, b);
        let c = Value::from(Array::from_vec(vec![1i64, 2]));
        assert_ne!(a, c);
    }

    #[test]
    fn opaque_compares_by_identity() {
        #[derive(Debug)]
        struct Payload(#[allow(dead_code)] u32);
        let v = Value::opaque(Payload(1));
        let w = v.clone();
        assert_eq!(v, w);
        let x = Value::opaque(Payload(1));
        assert_ne!(v, x);
        assert_eq!(v.downcast::<Payload>().unwrap().0, 1);
        assert!(v.downcast::<String>().is_none());
    }

    #[test]
    fn cross_variant_equality_is_false() {
        assert_ne!(Value::Int(1), Value::Double(1.0));
        assert_ne!(Value::Bool(true), Value::Int(1));
    }
}
