//! Helpers over the vendored `serde_json::Value`: building objects, walking
//! them by key, and writing them out. Parsing is `serde_json::parse`.

pub use serde_json::Value;

pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

pub fn count(n: u64) -> Value {
    Value::UInt(n)
}

/// A number, or `null` when there is none.
pub fn opt(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Float)
}

/// Walks a dotted path of object keys.
pub fn path<'a>(v: &'a Value, dotted: &str) -> Option<&'a Value> {
    dotted.split('.').try_fold(v, |v, key| v.get_field(key))
}

/// The number at a dotted path.
pub fn num(v: &Value, dotted: &str) -> Option<f64> {
    path(v, dotted)?.as_f64()
}

/// The items of the array under `key`; empty when there is none.
pub fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get_field(key).and_then(Value::as_array).unwrap_or(&[])
}

/// The entries of the object under `key`; empty when there is none.
pub fn entries_of<'a>(v: &'a Value, key: &str) -> &'a [(String, Value)] {
    v.get_field(key).and_then(Value::as_object).unwrap_or(&[])
}

/// The vendored `serde_json` writes any `Serialize` type but `Value` itself
/// is not one; this is the missing impl.
struct Tree<'a>(&'a Value);

impl serde::Serialize for Tree<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Compact, one line.
pub fn compact(v: &Value) -> String {
    serde_json::to_string(&Tree(v)).expect("a value tree always serialises")
}

/// Indented by two spaces, with a trailing newline.
pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(&Tree(v)).expect("a value tree always serialises") + "\n"
}
