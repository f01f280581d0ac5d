//! The query AST and result values.
//!
//! Covers the read shapes the paper calls out: point reads, ranges,
//! filtered scans, file reads, `grep Expression Path`, aggregations
//! ("complex join for a database" included via [`Query::Join`]).

use crate::document::Document;
use crate::fsview::GrepMatch;
use crate::predicate::Predicate;
use crate::value::Value;
use sdr_crypto::{Digest, Hash160, Hash256, Sha1, Sha256};

/// Aggregation function applied over matching rows.
#[derive(Clone, Debug, PartialEq)]
pub enum Aggregate {
    /// Row count.
    Count,
    /// Sum of a numeric field.
    Sum(String),
    /// Minimum of a field (any type, total order).
    Min(String),
    /// Maximum of a field.
    Max(String),
    /// Arithmetic mean of a numeric field.
    Avg(String),
}

impl Aggregate {
    fn tag(&self) -> u8 {
        match self {
            Aggregate::Count => 0,
            Aggregate::Sum(_) => 1,
            Aggregate::Min(_) => 2,
            Aggregate::Max(_) => 3,
            Aggregate::Avg(_) => 4,
        }
    }

    /// The field this aggregate reads, if any.
    pub fn field(&self) -> Option<&str> {
        match self {
            Aggregate::Count => None,
            Aggregate::Sum(f) | Aggregate::Min(f) | Aggregate::Max(f) | Aggregate::Avg(f) => {
                Some(f)
            }
        }
    }
}

/// A read request against the replicated content.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Fetch one row by primary key.
    GetRow {
        /// Table name.
        table: String,
        /// Primary key.
        key: u64,
    },
    /// Fetch rows with primary keys in `[low, high]`.
    Range {
        /// Table name.
        table: String,
        /// Inclusive lower bound.
        low: u64,
        /// Inclusive upper bound.
        high: u64,
        /// Optional row cap.
        limit: Option<u32>,
    },
    /// Scan (or index-probe) a table with a predicate.
    Filter {
        /// Table name.
        table: String,
        /// Row filter.
        predicate: Predicate,
        /// Optional projection (field names to keep).
        projection: Option<Vec<String>>,
        /// Optional row cap.
        limit: Option<u32>,
    },
    /// Aggregate matching rows, optionally grouped by a field.
    Aggregate {
        /// Table name.
        table: String,
        /// Row filter.
        predicate: Predicate,
        /// Aggregation function.
        agg: Aggregate,
        /// Optional group-by field.
        group_by: Option<String>,
    },
    /// Inner hash-join of two tables on equality of two fields, with a
    /// post-join filter over merged rows (right fields prefixed `r.`).
    Join {
        /// Left table.
        left: String,
        /// Right table.
        right: String,
        /// Join field on the left table.
        left_field: String,
        /// Join field on the right table.
        right_field: String,
        /// Filter over merged rows.
        predicate: Predicate,
        /// Optional row cap.
        limit: Option<u32>,
    },
    /// Read a whole file.
    ReadFile {
        /// File path.
        path: String,
    },
    /// Grep files under a prefix (the paper's flagship complex read).
    Grep {
        /// Glob pattern source (compiled by the executor).
        pattern: String,
        /// Path prefix to search under.
        prefix: String,
    },
    /// List file paths under a prefix.
    ListFiles {
        /// Path prefix.
        prefix: String,
    },
    /// Read a byte range of a file (served chunk-by-chunk under proof
    /// reads; see `StreamProof`).
    ReadFileRange {
        /// File path.
        path: String,
        /// Byte offset of the first byte to read.
        offset: u64,
        /// Number of bytes to read (clamped to the file length).
        len: u64,
    },
    /// Fetch rows with primary keys in the half-open `[start, end)` —
    /// the proof-supported scan shape: one `RangeProof` authenticates
    /// the whole answer, completeness included (unlike [`Query::Range`],
    /// whose `limit` makes the result prefix-truncatable and therefore
    /// unprovable by a single range proof).
    ScanRange {
        /// Table name.
        table: String,
        /// Inclusive lower bound.
        start: u64,
        /// Exclusive upper bound.
        end: u64,
    },
}

impl Query {
    /// Appends a canonical encoding (pledges embed "a copy of the request";
    /// cache keys hash it).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        match self {
            Query::GetRow { table, key } => {
                out.push(0);
                put_str(out, table);
                out.extend_from_slice(&key.to_be_bytes());
            }
            Query::Range {
                table,
                low,
                high,
                limit,
            } => {
                out.push(1);
                put_str(out, table);
                out.extend_from_slice(&low.to_be_bytes());
                out.extend_from_slice(&high.to_be_bytes());
                out.extend_from_slice(&limit.unwrap_or(u32::MAX).to_be_bytes());
            }
            Query::Filter {
                table,
                predicate,
                projection,
                limit,
            } => {
                out.push(2);
                put_str(out, table);
                predicate.encode_into(out);
                match projection {
                    None => out.push(0),
                    Some(fields) => {
                        out.push(1);
                        out.extend_from_slice(&(fields.len() as u32).to_be_bytes());
                        for f in fields {
                            put_str(out, f);
                        }
                    }
                }
                out.extend_from_slice(&limit.unwrap_or(u32::MAX).to_be_bytes());
            }
            Query::Aggregate {
                table,
                predicate,
                agg,
                group_by,
            } => {
                out.push(3);
                put_str(out, table);
                predicate.encode_into(out);
                out.push(agg.tag());
                if let Some(f) = agg.field() {
                    put_str(out, f);
                }
                match group_by {
                    None => out.push(0),
                    Some(f) => {
                        out.push(1);
                        put_str(out, f);
                    }
                }
            }
            Query::Join {
                left,
                right,
                left_field,
                right_field,
                predicate,
                limit,
            } => {
                out.push(4);
                put_str(out, left);
                put_str(out, right);
                put_str(out, left_field);
                put_str(out, right_field);
                predicate.encode_into(out);
                out.extend_from_slice(&limit.unwrap_or(u32::MAX).to_be_bytes());
            }
            Query::ReadFile { path } => {
                out.push(5);
                put_str(out, path);
            }
            Query::Grep { pattern, prefix } => {
                out.push(6);
                put_str(out, pattern);
                put_str(out, prefix);
            }
            Query::ListFiles { prefix } => {
                out.push(7);
                put_str(out, prefix);
            }
            Query::ReadFileRange { path, offset, len } => {
                out.push(8);
                put_str(out, path);
                out.extend_from_slice(&offset.to_be_bytes());
                out.extend_from_slice(&len.to_be_bytes());
            }
            Query::ScanRange { table, start, end } => {
                out.push(9);
                put_str(out, table);
                out.extend_from_slice(&start.to_be_bytes());
                out.extend_from_slice(&end.to_be_bytes());
            }
        }
    }

    /// Canonical encoding as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Short label for metrics ("what kind of read was this").
    pub fn kind(&self) -> &'static str {
        match self {
            Query::GetRow { .. } => "get",
            Query::Range { .. } => "range",
            Query::Filter { .. } => "filter",
            Query::Aggregate { .. } => "aggregate",
            Query::Join { .. } => "join",
            Query::ReadFile { .. } => "read_file",
            Query::Grep { .. } => "grep",
            Query::ListFiles { .. } => "list",
            Query::ReadFileRange { .. } => "stream",
            Query::ScanRange { .. } => "scan",
        }
    }
}

/// The result of executing a [`Query`].
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResult {
    /// Rows with their primary keys (Get/Range/Filter/Join).
    Rows(Vec<(u64, Document)>),
    /// A single scalar (ungrouped aggregate).
    Scalar(Value),
    /// Grouped aggregates: `(group key, aggregate value)` pairs, ordered.
    Groups(Vec<(Value, Value)>),
    /// File contents (`None` when the file does not exist).
    Text(Option<String>),
    /// Grep hits.
    Matches(Vec<GrepMatch>),
    /// File paths.
    Paths(Vec<String>),
}

impl QueryResult {
    /// Appends a canonical encoding (hashed into pledges).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        match self {
            QueryResult::Rows(rows) => {
                out.push(0);
                out.extend_from_slice(&(rows.len() as u64).to_be_bytes());
                for (k, d) in rows {
                    out.extend_from_slice(&k.to_be_bytes());
                    d.encode_into(out);
                }
            }
            QueryResult::Scalar(v) => {
                out.push(1);
                v.encode_into(out);
            }
            QueryResult::Groups(groups) => {
                out.push(2);
                out.extend_from_slice(&(groups.len() as u64).to_be_bytes());
                for (k, v) in groups {
                    k.encode_into(out);
                    v.encode_into(out);
                }
            }
            QueryResult::Text(t) => {
                out.push(3);
                match t {
                    None => out.push(0),
                    Some(s) => {
                        out.push(1);
                        put_str(out, s);
                    }
                }
            }
            QueryResult::Matches(ms) => {
                out.push(4);
                out.extend_from_slice(&(ms.len() as u64).to_be_bytes());
                for m in ms {
                    put_str(out, &m.path);
                    out.extend_from_slice(&m.line.to_be_bytes());
                    put_str(out, &m.text);
                }
            }
            QueryResult::Paths(ps) => {
                out.push(5);
                out.extend_from_slice(&(ps.len() as u64).to_be_bytes());
                for p in ps {
                    put_str(out, p);
                }
            }
        }
    }

    /// Canonical encoding as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// SHA-1 of the canonical encoding — the hash the paper places in
    /// pledge packets.
    pub fn sha1(&self) -> Hash160 {
        Sha1::digest(&self.encode())
    }

    /// SHA-256 of the canonical encoding (modern alternative).
    pub fn sha256(&self) -> Hash256 {
        Sha256::digest(&self.encode())
    }

    /// Approximate result size in bytes (cost accounting / wire size).
    pub fn size(&self) -> usize {
        match self {
            QueryResult::Rows(rows) => rows.iter().map(|(_, d)| 8 + d.size()).sum(),
            QueryResult::Scalar(v) => v.size(),
            QueryResult::Groups(g) => g.iter().map(|(k, v)| k.size() + v.size()).sum(),
            QueryResult::Text(t) => t.as_ref().map_or(1, |s| s.len() + 1),
            QueryResult::Matches(ms) => ms.iter().map(|m| m.path.len() + m.text.len() + 4).sum(),
            QueryResult::Paths(ps) => ps.iter().map(|p| p.len() + 4).sum(),
        }
    }

    /// Number of rows/items in the result.
    pub fn row_count(&self) -> usize {
        match self {
            QueryResult::Rows(r) => r.len(),
            QueryResult::Scalar(_) => 1,
            QueryResult::Groups(g) => g.len(),
            QueryResult::Text(t) => usize::from(t.is_some()),
            QueryResult::Matches(m) => m.len(),
            QueryResult::Paths(p) => p.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_encodings_distinguish_queries() {
        let a = Query::GetRow {
            table: "t".into(),
            key: 1,
        };
        let b = Query::GetRow {
            table: "t".into(),
            key: 2,
        };
        let c = Query::ReadFile { path: "t".into() };
        assert_ne!(a.encode(), b.encode());
        assert_ne!(a.encode(), c.encode());
        assert_eq!(a.encode(), a.clone().encode());
    }

    #[test]
    fn result_hash_changes_with_content() {
        let r1 = QueryResult::Scalar(Value::Int(1));
        let r2 = QueryResult::Scalar(Value::Int(2));
        assert_ne!(r1.sha1(), r2.sha1());
        assert_ne!(r1.sha256(), r2.sha256());
        assert_eq!(r1.sha1(), r1.clone().sha1());
    }

    #[test]
    fn result_hash_distinguishes_variants() {
        let empty_rows = QueryResult::Rows(vec![]);
        let empty_paths = QueryResult::Paths(vec![]);
        assert_ne!(empty_rows.sha1(), empty_paths.sha1());
    }

    #[test]
    fn row_counts() {
        assert_eq!(QueryResult::Text(None).row_count(), 0);
        assert_eq!(QueryResult::Text(Some("x".into())).row_count(), 1);
        assert_eq!(
            QueryResult::Paths(vec!["a".into(), "b".into()]).row_count(),
            2
        );
    }

    #[test]
    fn kind_labels() {
        assert_eq!(
            Query::Grep {
                pattern: "e*".into(),
                prefix: "/".into()
            }
            .kind(),
            "grep"
        );
        assert_eq!(
            Query::ListFiles { prefix: "/".into() }.kind(),
            "list"
        );
    }

    #[test]
    fn aggregate_field_access() {
        assert_eq!(Aggregate::Count.field(), None);
        assert_eq!(Aggregate::Sum("x".into()).field(), Some("x"));
    }
}
