//! Documents: ordered field → value records.

use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A record: an ordered map of field names to typed values.
///
/// `BTreeMap` keeps field iteration (and therefore the canonical encoding)
/// deterministic regardless of insertion order.
///
/// A `Document` is a shared, copy-on-write handle: `clone` bumps a count,
/// so a row held by a table, a snapshot, a query result, a proof and a
/// message is one allocation.  `set`, `remove` and `with` copy the fields
/// on the first write to a shared row, so no holder ever sees another's
/// change.  Shared contents are never mutated, which is what makes the
/// pointer-equality shortcut of `==` sound.  Nothing derived from the
/// contents (hash, encoding) is cached here: verifiers hash the bytes they
/// are handed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Document {
    fields: Arc<BTreeMap<String, Value>>,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Document::default()
    }

    /// Builder-style field insertion.
    pub fn with(mut self, field: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(field, value);
        self
    }

    /// Sets a field, returning the previous value if any.
    pub fn set(&mut self, field: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        Arc::make_mut(&mut self.fields).insert(field.into(), value.into())
    }

    /// Reads a field.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.fields.get(field)
    }

    /// Removes a field.
    pub fn remove(&mut self, field: &str) -> Option<Value> {
        Arc::make_mut(&mut self.fields).remove(field)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates fields in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Keeps only the named fields (projection); unknown names are ignored.
    pub fn project(&self, fields: &[String]) -> Document {
        fields
            .iter()
            .filter_map(|f| Some((f.clone(), self.fields.get(f)?.clone())))
            .collect()
    }

    /// Appends the canonical encoding to `out` (field-name ordered).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.fields.len() as u32).to_be_bytes());
        for (k, v) in self.fields.iter() {
            out.extend_from_slice(&(k.len() as u32).to_be_bytes());
            out.extend_from_slice(k.as_bytes());
            v.encode_into(out);
        }
    }

    /// Logical size in bytes of the fields (for cost accounting and cache
    /// weights), not the resident bytes of this handle: every clone of a
    /// shared row reports the full size.
    pub fn size(&self) -> usize {
        self.fields
            .iter()
            .map(|(k, v)| 8 + k.len() + v.size())
            .sum::<usize>()
            + 4
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, Value)> for Document {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        Document {
            fields: Arc::new(iter.into_iter().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::new()
            .with("name", "widget")
            .with("price", 19i64)
            .with("rating", 4.5)
    }

    #[test]
    fn set_get_remove() {
        let mut d = doc();
        assert_eq!(d.get("name"), Some(&Value::Str("widget".into())));
        assert_eq!(d.set("price", 21i64), Some(Value::Int(19)));
        assert_eq!(d.remove("rating"), Some(Value::Float(4.5)));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn encoding_is_insertion_order_independent() {
        let a = Document::new().with("x", 1i64).with("y", 2i64);
        let b = Document::new().with("y", 2i64).with("x", 1i64);
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode_into(&mut ea);
        b.encode_into(&mut eb);
        assert_eq!(ea, eb);
        assert_eq!(a, b);
    }

    #[test]
    fn encoding_reflects_content() {
        let a = Document::new().with("x", 1i64);
        let b = Document::new().with("x", 2i64);
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode_into(&mut ea);
        b.encode_into(&mut eb);
        assert_ne!(ea, eb);
    }

    #[test]
    fn projection_keeps_only_named() {
        let d = doc();
        let p = d.project(&["name".to_string(), "missing".to_string()]);
        assert_eq!(p.len(), 1);
        assert!(p.get("name").is_some());
    }

    #[test]
    fn display_renders_fields() {
        let s = doc().to_string();
        assert!(s.contains("name") && s.contains("price"));
    }

    fn encoded(d: &Document) -> Vec<u8> {
        let mut out = Vec::new();
        d.encode_into(&mut out);
        out
    }

    #[test]
    fn writes_to_a_clone_leave_the_original_alone() {
        let original = doc();
        let bytes = encoded(&original);
        let shown = original.to_string();

        let mut set = original.clone();
        set.set("price", 99i64);
        let mut removed = original.clone();
        removed.remove("name");
        let with = original.clone().with("extra", true);

        assert_eq!(encoded(&original), bytes);
        assert_eq!(original.to_string(), shown);
        assert_eq!(original.get("price"), Some(&Value::Int(19)));
        assert!(original.get("name").is_some() && original.get("extra").is_none());
        assert_eq!(set.get("price"), Some(&Value::Int(99)));
        assert!(removed.get("name").is_none());
        assert_eq!(with.get("extra"), Some(&Value::Bool(true)));
        for changed in [&set, &removed, &with] {
            assert_ne!(encoded(changed), bytes);
            assert_ne!(changed, &original);
        }
    }

    #[test]
    fn equality_ignores_sharing() {
        let a = doc();
        let shared = a.clone();
        let separate = doc();
        assert_eq!(a, shared);
        assert_eq!(a, separate);
        assert_eq!(encoded(&shared), encoded(&separate));
        // A write that stores the same value copies, yet stays equal.
        let mut rewritten = a.clone();
        rewritten.set("price", 19i64);
        assert_eq!(rewritten, a);
        assert_ne!(a, a.clone().with("price", 20i64));
    }

    #[test]
    fn size_grows_with_fields() {
        let small = Document::new().with("a", 1i64);
        let big = small.clone().with("blob", vec![0u8; 100]);
        assert!(big.size() > small.size() + 100);
    }
}
