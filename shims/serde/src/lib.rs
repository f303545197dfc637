//! Offline shim for `serde`: `Serialize`/`Deserialize` over an owned
//! [`Value`] data model, with derive macros re-exported from the
//! companion `serde_derive` shim. See `shims/README.md`.
//!
//! Unlike real serde there is no zero-copy serializer plumbing: types
//! convert to and from [`Value`] trees, and `serde_json` renders those.
//! That is entirely sufficient for the workspace's round-trip usage.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model every serializable type maps onto.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Ordered sequence.
    Array(Vec<Value>),
    /// Ordered key-value map (insertion order preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(i) => Some(*i),
            Value::U64(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(u) => Some(*u),
            Value::I64(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number (mirroring
    /// `serde_json::Value::as_f64`, which widens integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(f) => Some(*f),
            Value::I64(i) => Some(*i as f64),
            Value::U64(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// Looks up an object field by key (`None` on non-objects and
    /// missing keys, like `serde_json::Value::get`).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|pairs| pairs.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    /// Builds an error from a message.
    pub fn msg(message: impl Into<String>) -> Error {
        Error(message.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Looks up a field in an object's entries (derive-generated code calls
/// this).
pub fn obj_get<'a>(pairs: &'a [(String, Value)], key: &str) -> Result<&'a Value, Error> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::msg(format!("missing field `{key}`")))
}

/// Types convertible into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::msg("expected bool")),
        }
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as i128;
                if wide >= i64::MIN as i128 && wide <= i64::MAX as i128 {
                    Value::I64(wide as i64)
                } else {
                    Value::U64(*self as u64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::I64(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::msg(concat!("integer out of range for ", stringify!($t)))),
                    Value::U64(u) => <$t>::try_from(*u)
                        .map_err(|_| Error::msg(concat!("integer out of range for ", stringify!($t)))),
                    _ => Err(Error::msg(concat!("expected integer for ", stringify!($t)))),
                }
            }
        }
    )*};
}
int_impls!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(f) => Ok(*f),
            Value::I64(i) => Ok(*i as f64),
            Value::U64(u) => Ok(*u as f64),
            // Real serde_json renders non-finite floats as `null`.
            Value::Null => Ok(f64::NAN),
            _ => Err(Error::msg("expected number for f64")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::msg("expected string")),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v
            .as_str()
            .ok_or_else(|| Error::msg("expected single-char string"))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::msg("expected single-char string")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::msg("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        <[T; N]>::try_from(items)
            .map_err(|items| Error::msg(format!("expected {N} elements, got {}", items.len())))
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_array().ok_or_else(|| Error::msg("expected tuple array"))?;
                let expected = [$(stringify!($idx)),+].len();
                if items.len() != expected {
                    return Err(Error::msg(format!(
                        "expected {expected}-tuple, got {} elements", items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}
tuple_impls! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

#[expect(
    clippy::disallowed_types,
    reason = "serde's own impl, kept so the shim stays API-compatible"
)]
impl<K: Serialize, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (stringify_key(k), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (stringify_key(k), v.to_value()))
                .collect(),
        )
    }
}

/// Renders a map key as the JSON object-key string (strings verbatim,
/// scalars via their JSON token), matching serde_json's behaviour.
fn stringify_key<K: Serialize>(key: &K) -> String {
    match key.to_value() {
        Value::Str(s) => s,
        Value::I64(i) => i.to_string(),
        Value::U64(u) => u.to_string(),
        Value::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(i64::from_value(&42i64.to_value()).unwrap(), 42);
        assert_eq!(u64::from_value(&u64::MAX.to_value()).unwrap(), u64::MAX);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(String::from_value(&"hi".to_value()).unwrap(), "hi");
        assert_eq!(Option::<i64>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn compounds_round_trip() {
        let v = vec![(1i64, "a".to_string()), (2, "b".to_string())];
        let back = Vec::<(i64, String)>::from_value(&v.to_value()).unwrap();
        assert_eq!(back, v);
        let arr: [u8; 3] = [7, 8, 9];
        assert_eq!(<[u8; 3]>::from_value(&arr.to_value()).unwrap(), arr);
    }
}
