//! Documents: ordered field → value records.

use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// A record: an ordered map of field names to typed values.
///
/// `BTreeMap` keeps field iteration (and therefore the canonical encoding)
/// deterministic regardless of insertion order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Document {
    fields: BTreeMap<String, Value>,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Document::default()
    }

    /// Builder-style field insertion.
    pub fn with(mut self, field: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.insert(field.into(), value.into());
        self
    }

    /// Sets a field, returning the previous value if any.
    pub fn set(&mut self, field: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        self.fields.insert(field.into(), value.into())
    }

    /// Reads a field.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.fields.get(field)
    }

    /// Removes a field.
    pub fn remove(&mut self, field: &str) -> Option<Value> {
        self.fields.remove(field)
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
        let mut out = Document::new();
        for f in fields {
            if let Some(v) = self.fields.get(f) {
                out.fields.insert(f.clone(), v.clone());
            }
        }
        out
    }

    /// Appends the canonical encoding to `out` (field-name ordered).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.fields.len() as u32).to_be_bytes());
        for (k, v) in &self.fields {
            out.extend_from_slice(&(k.len() as u32).to_be_bytes());
            out.extend_from_slice(k.as_bytes());
            v.encode_into(out);
        }
    }

    /// Approximate size in bytes (for cost accounting).
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
            fields: iter.into_iter().collect(),
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

    #[test]
    fn size_grows_with_fields() {
        let small = Document::new().with("a", 1i64);
        let big = small.clone().with("blob", vec![0u8; 100]);
        assert!(big.size() > small.size() + 100);
    }
}
