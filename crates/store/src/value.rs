//! Typed field values with a total order and canonical encoding.

use std::cmp::Ordering;
use std::fmt;

/// A typed value stored in a document field.
///
/// Values have a *total* order (floats order via [`f64::total_cmp`], and
/// values of different types order by type tag), which lets any value be an
/// index key.  The canonical encoding ([`Value::encode_into`]) underpins
/// result hashing: two stores with equal content produce identical bytes.
#[derive(Clone, Debug)]
pub enum Value {
    /// Absence of a value.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// IEEE-754 double.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// Type tag used for cross-type ordering and encoding.
    fn tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Bytes(_) => 5,
        }
    }

    /// Appends the canonical encoding of this value to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            Value::Null => {}
            Value::Bool(b) => out.push(u8::from(*b)),
            Value::Int(i) => out.extend_from_slice(&i.to_be_bytes()),
            Value::Float(f) => out.extend_from_slice(&f.to_bits().to_be_bytes()),
            Value::Str(s) => {
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.extend_from_slice(&(b.len() as u32).to_be_bytes());
                out.extend_from_slice(b);
            }
        }
    }

    /// Approximate in-memory/wire size in bytes (for cost accounting).
    pub fn size(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len(),
            Value::Bytes(b) => 4 + b.len(),
        }
    }

    /// Numeric view (ints and floats), for aggregation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Mixed numerics compare numerically so range queries behave
            // intuitively; ties broken by tag for totality.
            (Int(a), Float(b)) => (*a as f64)
                .total_cmp(b)
                .then(self.tag().cmp(&other.tag())),
            (Float(a), Int(b)) => a
                .total_cmp(&(*b as f64))
                .then(self.tag().cmp(&other.tag())),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            _ => self.tag().cmp(&other.tag()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut buf = Vec::with_capacity(self.size());
        self.encode_into(&mut buf);
        buf.hash(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "0x{}", sdr_crypto::hex::encode(b)),
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
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_across_types() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(5),
            Value::Str("a".into()),
            Value::Bytes(vec![1]),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
        assert!(Value::Int(2) > Value::Float(1.5));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        // total_cmp puts NaN above all finite values; what matters is that
        // comparison never panics and is consistent.
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_ne!(nan.cmp(&one), Ordering::Equal);
    }

    #[test]
    fn encoding_distinguishes_types_and_values() {
        fn enc(v: &Value) -> Vec<u8> {
            let mut out = Vec::new();
            v.encode_into(&mut out);
            out
        }
        assert_ne!(enc(&Value::Int(1)), enc(&Value::Int(2)));
        assert_ne!(enc(&Value::Int(1)), enc(&Value::Float(1.0)));
        assert_ne!(enc(&Value::Str("1".into())), enc(&Value::Int(1)));
        assert_eq!(enc(&Value::Str("ab".into())), enc(&Value::Str("ab".into())));
    }

    #[test]
    fn size_estimates() {
        assert_eq!(Value::Null.size(), 1);
        assert_eq!(Value::Int(7).size(), 9);
        assert_eq!(Value::Str("abcd".into()).size(), 9);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }
}
