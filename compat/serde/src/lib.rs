//! In-tree, dependency-free stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal serde-compatible surface: `Serialize` / `Deserialize`
//! traits routed through a JSON-shaped [`Value`] tree, plus derive macros
//! (re-exported from the in-tree `serde_derive` proc-macro crate) that
//! follow serde's data model for plain structs and enums — externally
//! tagged variants, newtype structs as their inner value, missing
//! `Option` fields as `None`.
//!
//! Only the surface this workspace actually uses is implemented; it is
//! not a general-purpose serde replacement.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A JSON number: integers are kept exact, everything else is `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A signed integer.
    I64(i64),
    /// An unsigned integer too large for `i64`.
    U64(u64),
    /// A floating-point number.
    F64(f64),
}

impl Number {
    /// The number as `f64` (lossy for huge integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::I64(v) => v as f64,
            Number::U64(v) => v as f64,
            Number::F64(v) => v,
        }
    }
}

/// A JSON value tree — the interchange format of this serde stand-in.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// A `Value::Null` with a `'static` lifetime, usable as a missing-field
/// placeholder.
pub static NULL: Value = Value::Null;

impl Value {
    /// The fields of an object, if this is one.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The elements of an array, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Object field lookup by key (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Deserialization / serialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Builds an error from a message.
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serialization into the [`Value`] tree.
pub trait Serialize {
    /// Converts `self` to a JSON value.
    fn to_value(&self) -> Value;
}

/// Deserialization out of the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a JSON value.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// The `serde::de` module: owned deserialization marker.
pub mod de {
    pub use crate::{Deserialize, DeserializeOwned, Error};
}

/// Marker for types deserializable without borrowing from the input —
/// every [`Deserialize`] type here, since [`super::Value`] owns its data.
pub trait DeserializeOwned: Deserialize {}

impl<T: Deserialize> DeserializeOwned for T {}

/// Support for derive-generated code. Not part of the public surface.
pub mod __private {
    use super::{Value, NULL};

    /// Looks a field up in an object body; missing fields read as `null`
    /// (so `Option` fields deserialize to `None`, everything else errors
    /// with a type mismatch, mirroring serde's missing-field handling).
    pub fn field<'a>(fields: &'a [(String, Value)], name: &str) -> &'a Value {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or(&NULL)
    }
}

// ---------------------------------------------------------------------------
// Serialize / Deserialize impls for std types.
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! ser_de_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Number(Number::I64(*self as i64)) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(Number::I64(n)) => Ok(*n as $t),
                    Value::Number(Number::U64(n)) => Ok(*n as $t),
                    Value::Number(Number::F64(n)) if n.fract() == 0.0 => Ok(*n as $t),
                    _ => Err(Error::custom(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

macro_rules! ser_de_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Number(Number::U64(*self as u64)) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(Number::U64(n)) => Ok(*n as $t),
                    Value::Number(Number::I64(n)) if *n >= 0 => Ok(*n as $t),
                    Value::Number(Number::F64(n)) if n.fract() == 0.0 && *n >= 0.0 => {
                        Ok(*n as $t)
                    }
                    _ => Err(Error::custom(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

ser_de_signed!(i8, i16, i32, i64, isize);
ser_de_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_de_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Number(Number::F64(*self as f64)) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) => Ok(n.as_f64() as $t),
                    _ => Err(Error::custom(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

ser_de_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Serialize for std::sync::Arc<str> {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for std::sync::Arc<str> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(std::sync::Arc::from(s.as_str())),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error::custom("expected single-char string")),
        }
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

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::from_value(v)?))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::custom("expected array")),
        }
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
        let items: Vec<T> = Vec::from_value(v)?;
        <[T; N]>::try_from(items)
            .map_err(|items| Error::custom(format!("expected {N} elements, got {}", items.len())))
    }
}

macro_rules! ser_de_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_array().ok_or_else(|| Error::custom("expected array"))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(Error::custom("tuple arity mismatch"));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )+};
}

ser_de_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
);

/// JSON object keys: any serializable key whose value form is a string or
/// number maps to a string key (mirroring serde_json's behaviour for maps).
fn key_to_string<K: Serialize>(key: &K) -> String {
    match key.to_value() {
        Value::String(s) => s,
        Value::Number(Number::I64(n)) => n.to_string(),
        Value::Number(Number::U64(n)) => n.to_string(),
        Value::Number(Number::F64(n)) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => panic!("unsupported map key type: {other:?}"),
    }
}

fn key_from_str<K: Deserialize>(key: &str) -> Result<K, Error> {
    if let Ok(k) = K::from_value(&Value::String(key.to_string())) {
        return Ok(k);
    }
    if let Ok(n) = key.parse::<i64>() {
        if let Ok(k) = K::from_value(&Value::Number(Number::I64(n))) {
            return Ok(k);
        }
    }
    if let Ok(n) = key.parse::<u64>() {
        if let Ok(k) = K::from_value(&Value::Number(Number::U64(n))) {
            return Ok(k);
        }
    }
    if let Ok(n) = key.parse::<f64>() {
        if let Ok(k) = K::from_value(&Value::Number(Number::F64(n))) {
            return Ok(k);
        }
    }
    Err(Error::custom(format!("cannot parse map key `{key}`")))
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_to_string(k), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::custom("expected object"))?;
        obj.iter()
            .map(|(k, v)| Ok((key_from_str(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl<T: Serialize + Ord> Serialize for std::collections::BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?;
        arr.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize + Eq + std::hash::Hash> Serialize for std::collections::HashSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Eq + std::hash::Hash> Deserialize for std::collections::HashSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?;
        arr.iter().map(T::from_value).collect()
    }
}

impl<K: Serialize + Eq + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_to_string(k), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::custom("expected object"))?;
        obj.iter()
            .map(|(k, v)| Ok((key_from_str(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl Serialize for std::time::Duration {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), self.as_secs().to_value()),
            ("nanos".to_string(), self.subsec_nanos().to_value()),
        ])
    }
}

impl Deserialize for std::time::Duration {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::custom("expected duration object"))?;
        let secs = u64::from_value(__private::field(obj, "secs"))?;
        let nanos = u32::from_value(__private::field(obj, "nanos"))?;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

impl Serialize for std::path::PathBuf {
    fn to_value(&self) -> Value {
        Value::String(self.to_string_lossy().into_owned())
    }
}

impl Deserialize for std::path::PathBuf {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(std::path::PathBuf::from(String::from_value(v)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_roundtrip() {
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Some(3u32).to_value(), Value::Number(Number::U64(3)));
    }

    #[test]
    fn map_keys_stringify() {
        let mut m = BTreeMap::new();
        m.insert(7u64, "x".to_string());
        let v = m.to_value();
        assert_eq!(v.get("7").and_then(Value::as_str), Some("x"));
        let back: BTreeMap<u64, String> = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn shared_str_roundtrip() {
        let name: std::sync::Arc<str> = std::sync::Arc::from("zone007");
        let v = name.to_value();
        assert_eq!(v, "zone007".to_string().to_value());
        let back: std::sync::Arc<str> = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, name);
        assert!(<std::sync::Arc<str>>::from_value(&Value::Null).is_err());
    }
}
