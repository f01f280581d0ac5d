//! Filter predicates over documents.

use crate::document::Document;
use crate::pattern::Pattern;
use crate::value::Value;

/// Comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Evaluates `lhs op rhs` under the total value order.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        use std::cmp::Ordering::*;
        let ord = lhs.cmp(rhs);
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    fn tag(self) -> u8 {
        match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        }
    }
}

/// A boolean predicate tree over document fields.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// Always true (scan everything).
    True,
    /// Compare a field against a constant; a missing field compares as
    /// [`Value::Null`].
    Cmp {
        /// Field name.
        field: String,
        /// Operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// Field's string value matches a glob pattern (missing/non-string
    /// fields never match).
    Like {
        /// Field name.
        field: String,
        /// Glob pattern (search semantics).
        pattern: Pattern,
    },
    /// Both children hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either child holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// Child does not hold.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for a field comparison.
    pub fn cmp(field: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Cmp {
            field: field.into(),
            op,
            value: value.into(),
        }
    }

    /// Convenience constructor for equality.
    pub fn eq(field: impl Into<String>, value: impl Into<Value>) -> Self {
        Self::cmp(field, CmpOp::Eq, value)
    }

    /// Convenience constructor for a glob match.
    pub fn like(field: impl Into<String>, pattern: Pattern) -> Self {
        Predicate::Like {
            field: field.into(),
            pattern,
        }
    }

    /// Conjunction.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Evaluates the predicate against a document.
    pub fn eval(&self, doc: &Document) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp { field, op, value } => {
                let lhs = doc.get(field).unwrap_or(&Value::Null);
                op.eval(lhs, value)
            }
            Predicate::Like { field, pattern } => doc
                .get(field)
                .and_then(Value::as_str)
                .is_some_and(|s| pattern.search(s)),
            Predicate::And(a, b) => a.eval(doc) && b.eval(doc),
            Predicate::Or(a, b) => a.eval(doc) || b.eval(doc),
            Predicate::Not(p) => !p.eval(doc),
        }
    }

    /// Appends a canonical encoding (for query hashing/cache keys).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Predicate::True => out.push(0),
            Predicate::Cmp { field, op, value } => {
                out.push(1);
                out.extend_from_slice(&(field.len() as u32).to_be_bytes());
                out.extend_from_slice(field.as_bytes());
                out.push(op.tag());
                value.encode_into(out);
            }
            Predicate::Like { field, pattern } => {
                out.push(2);
                out.extend_from_slice(&(field.len() as u32).to_be_bytes());
                out.extend_from_slice(field.as_bytes());
                let src = pattern.source();
                out.extend_from_slice(&(src.len() as u32).to_be_bytes());
                out.extend_from_slice(src.as_bytes());
            }
            Predicate::And(a, b) => {
                out.push(3);
                a.encode_into(out);
                b.encode_into(out);
            }
            Predicate::Or(a, b) => {
                out.push(4);
                a.encode_into(out);
                b.encode_into(out);
            }
            Predicate::Not(p) => {
                out.push(5);
                p.encode_into(out);
            }
        }
    }

    /// If this predicate (or a conjunct of it) pins `field` to a single
    /// value with `Eq`, returns that value — the executor uses this to
    /// route through a secondary index instead of scanning.
    pub fn index_hint(&self, field: &str) -> Option<&Value> {
        match self {
            Predicate::Cmp {
                field: f,
                op: CmpOp::Eq,
                value,
            } if f == field => Some(value),
            Predicate::And(a, b) => a.index_hint(field).or_else(|| b.index_hint(field)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::new()
            .with("name", "gadget pro")
            .with("price", 100i64)
            .with("stock", 5i64)
    }

    #[test]
    fn comparisons() {
        let d = doc();
        assert!(Predicate::cmp("price", CmpOp::Eq, 100i64).eval(&d));
        assert!(Predicate::cmp("price", CmpOp::Lt, 101i64).eval(&d));
        assert!(Predicate::cmp("price", CmpOp::Ge, 100i64).eval(&d));
        assert!(!Predicate::cmp("price", CmpOp::Gt, 100i64).eval(&d));
        assert!(Predicate::cmp("price", CmpOp::Ne, 99i64).eval(&d));
    }

    #[test]
    fn missing_field_is_null() {
        let d = doc();
        assert!(Predicate::eq("missing", Value::Null).eval(&d));
        assert!(!Predicate::cmp("missing", CmpOp::Gt, 0i64).eval(&d));
    }

    #[test]
    fn boolean_combinators() {
        let d = doc();
        let p = Predicate::cmp("price", CmpOp::Ge, 50i64)
            .and(Predicate::cmp("stock", CmpOp::Gt, 0i64));
        assert!(p.eval(&d));
        let q = Predicate::eq("price", 1i64).or(Predicate::eq("stock", 5i64));
        assert!(q.eval(&d));
        assert!(!q.clone().not().eval(&d));
    }

    #[test]
    fn like_matches_substring_glob() {
        let d = doc();
        let p = Predicate::like("name", Pattern::compile("gadget*").unwrap());
        assert!(p.eval(&d));
        let p = Predicate::like("name", Pattern::compile("widget").unwrap());
        assert!(!p.eval(&d));
        // Non-string fields never match.
        let p = Predicate::like("price", Pattern::compile("*").unwrap());
        assert!(!p.eval(&d));
    }

    #[test]
    fn index_hint_through_conjunction() {
        let p = Predicate::eq("a", 1i64).and(Predicate::eq("b", 2i64));
        assert_eq!(p.index_hint("b"), Some(&Value::Int(2)));
        assert_eq!(p.index_hint("c"), None);
        // Disjunctions cannot use an index.
        let q = Predicate::eq("a", 1i64).or(Predicate::eq("a", 2i64));
        assert_eq!(q.index_hint("a"), None);
    }

    #[test]
    fn encoding_distinguishes_predicates() {
        fn enc(p: &Predicate) -> Vec<u8> {
            let mut v = Vec::new();
            p.encode_into(&mut v);
            v
        }
        assert_ne!(
            enc(&Predicate::eq("a", 1i64)),
            enc(&Predicate::eq("a", 2i64))
        );
        assert_ne!(
            enc(&Predicate::eq("a", 1i64)),
            enc(&Predicate::cmp("a", CmpOp::Ne, 1i64))
        );
        assert_ne!(enc(&Predicate::True), enc(&Predicate::True.not()));
    }
}
