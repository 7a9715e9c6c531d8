//! Offline stand-in for the `serde` crate.
//!
//! The build environment cannot reach crates.io, so the workspace
//! vendors this minimal replacement. It is JSON-only: instead of
//! serde's visitor architecture, [`Serialize`] converts a value into
//! the [`Value`] tree and [`Deserialize`] reads one back out. The
//! companion `serde_json` shim supplies the text encoding.
//!
//! There is no derive macro (that would need a proc-macro crate, which
//! is just more vendored code to maintain); the two structs in this
//! workspace that previously derived the traits implement them by hand.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// The JSON data model: every serialisable value maps into this tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

/// JSON object storage. A `BTreeMap` keeps key order deterministic
/// (sorted), like the default `serde_json` configuration.
pub type Map = BTreeMap<String, Value>;

/// A JSON number, kept in the widest lossless representation seen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// Anything with a fractional part or beyond 64-bit integer range.
    Float(f64),
}

impl Value {
    /// Looks up `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string content, when `self` is a JSON string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean content, when `self` is a JSON boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::PosInt(n)) => Some(*n),
            _ => None,
        }
    }

    /// The value as `i64`, when it is an integer in `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::PosInt(n)) => i64::try_from(*n).ok(),
            Value::Number(Number::NegInt(n)) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::PosInt(n)) => Some(*n as f64),
            Value::Number(Number::NegInt(n)) => Some(*n as f64),
            Value::Number(Number::Float(f)) => Some(*f),
            _ => None,
        }
    }

    /// The element list, when `self` is a JSON array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The key/value map, when `self` is a JSON object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable lookup of `key` when `self` is an object.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Object(map) => map.get_mut(key),
            _ => None,
        }
    }

    /// The mutable element list, when `self` is a JSON array.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The mutable key/value map, when `self` is a JSON object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// Serialisation / deserialisation failure.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error carrying `message`.
    pub fn custom(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Conversion into the JSON data model.
pub trait Serialize {
    /// Builds the [`Value`] tree for `self`.
    fn to_value(&self) -> Value;

    /// The [`Value`] tree for `self`, borrowed when `self` already is
    /// one. The printer reads through this, so printing a `Value` (or a
    /// reference to one) never copies the tree.
    fn borrow_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Conversion out of the JSON data model.
pub trait Deserialize: Sized {
    /// Reads `Self` back out of a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the tree does not have the expected shape.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// Reads `Self` out of a tree the caller is done with. A `Value`
    /// takes the tree itself, so parsing into one never copies it.
    ///
    /// # Errors
    ///
    /// As [`Deserialize::from_value`].
    fn from_owned(value: Value) -> Result<Self, Error> {
        Self::from_value(&value)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn borrow_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }

    fn from_owned(value: Value) -> Result<Self, Error> {
        Ok(value)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn borrow_value(&self) -> Cow<'_, Value> {
        (**self).borrow_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::custom("expected boolean"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value
                    .as_u64()
                    .ok_or_else(|| Error::custom("expected unsigned integer"))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v < 0 {
                    Value::Number(Number::NegInt(v))
                } else {
                    Value::Number(Number::PosInt(v as u64))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value
                    .as_i64()
                    .ok_or_else(|| Error::custom("expected integer"))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::Float(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .ok_or_else(|| Error::custom("expected number"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        // f32 -> f64 widening is exact, so the round trip back through
        // `as f32` in `Deserialize` recovers the original bits.
        Value::Number(Number::Float(f64::from(*self)))
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value
            .as_f64()
            .ok_or_else(|| Error::custom("expected number"))? as f32)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($len:literal: $($t:ident . $idx:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let items = value
                    .as_array()
                    .ok_or_else(|| Error::custom("expected array"))?;
                if items.len() != $len {
                    return Err(Error::custom(concat!(
                        "expected array of length ",
                        stringify!($len)
                    )));
                }
                Ok(($($t::from_value(&items[$idx])?,)+))
            }
        }
    };
}

impl_serde_tuple!(1: A.0);
impl_serde_tuple!(2: A.0, B.1);
impl_serde_tuple!(3: A.0, B.1, C.2);
impl_serde_tuple!(4: A.0, B.1, C.2, D.3);
impl_serde_tuple!(5: A.0, B.1, C.2, D.3, E.4);
impl_serde_tuple!(6: A.0, B.1, C.2, D.3, E.4, F.5);
