//! The query executor, with per-query cost accounting.
//!
//! Every execution returns a [`QueryCost`] describing the work performed
//! (rows scanned, index probes, bytes processed).  The replication layer
//! converts this into virtual CPU time, which is how "a computationally
//! very intensive task … applying an aggregation function on the entire
//! data content" (Section 3.2) becomes visible in the experiments.

use crate::database::Database;
use crate::document::Document;
use crate::error::StoreError;
use crate::pattern::Pattern;
use crate::predicate::Predicate;
use crate::query::{Aggregate, Query, QueryResult};
use crate::table::Table;
use crate::value::Value;
use std::collections::BTreeMap;

/// Work performed while executing one query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Rows examined by scanning.
    pub rows_scanned: u64,
    /// Rows fetched through a secondary index.
    pub index_probes: u64,
    /// Bytes of file content processed (grep / read).
    pub bytes_processed: u64,
    /// Rows/items in the produced result.
    pub rows_returned: u64,
}

impl QueryCost {
    /// Sums two costs (used when a checker re-executes batches).
    pub fn merge(self, other: QueryCost) -> QueryCost {
        QueryCost {
            rows_scanned: self.rows_scanned + other.rows_scanned,
            index_probes: self.index_probes + other.index_probes,
            bytes_processed: self.bytes_processed + other.bytes_processed,
            rows_returned: self.rows_returned + other.rows_returned,
        }
    }
}

/// Executes `query` against `db`, returning the result and its cost.
pub fn execute(db: &Database, query: &Query) -> Result<(QueryResult, QueryCost), StoreError> {
    let mut cost = QueryCost::default();
    let result = match query {
        Query::GetRow { table, key } => {
            let t = db.table(table)?;
            cost.index_probes += 1;
            let rows = t
                .get(*key)
                .map(|d| vec![(*key, d.clone())])
                .unwrap_or_default();
            QueryResult::Rows(rows)
        }
        Query::Range {
            table,
            low,
            high,
            limit,
        } => {
            let t = db.table(table)?;
            let cap = limit.map(|l| l as usize).unwrap_or(usize::MAX);
            let mut rows = Vec::new();
            for (k, d) in t.range(*low, *high) {
                cost.rows_scanned += 1;
                if rows.len() < cap {
                    rows.push((k, d.clone()));
                }
            }
            QueryResult::Rows(rows)
        }
        Query::Filter {
            table,
            predicate,
            projection,
            limit,
        } => {
            let t = db.table(table)?;
            let cap = limit.map(|l| l as usize).unwrap_or(usize::MAX);
            let rows = filter_rows(t, predicate, &mut cost);
            let mut out = Vec::new();
            for (k, d) in rows {
                if out.len() >= cap {
                    break;
                }
                let doc = match projection {
                    Some(fields) => d.project(fields),
                    None => d.clone(),
                };
                out.push((k, doc));
            }
            QueryResult::Rows(out)
        }
        Query::Aggregate {
            table,
            predicate,
            agg,
            group_by,
        } => {
            let t = db.table(table)?;
            let rows = filter_rows(t, predicate, &mut cost);
            match group_by {
                None => QueryResult::Scalar(aggregate(rows.iter().map(|(_, d)| *d), agg)?),
                Some(field) => {
                    let mut groups: BTreeMap<Value, Vec<&Document>> = BTreeMap::new();
                    for (_, d) in &rows {
                        let key = d.get(field).cloned().unwrap_or(Value::Null);
                        groups.entry(key).or_default().push(d);
                    }
                    let mut out = Vec::with_capacity(groups.len());
                    for (key, docs) in groups {
                        out.push((key, aggregate(docs.into_iter(), agg)?));
                    }
                    QueryResult::Groups(out)
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
            let lt = db.table(left)?;
            let rt = db.table(right)?;
            let cap = limit.map(|l| l as usize).unwrap_or(usize::MAX);

            // Build phase over the right table.
            let mut build: BTreeMap<Value, Vec<(u64, &Document)>> = BTreeMap::new();
            for (k, d) in rt.iter() {
                cost.rows_scanned += 1;
                if let Some(v) = d.get(right_field) {
                    build.entry(v.clone()).or_default().push((k, d));
                }
            }
            // Probe phase over the left table.
            let mut out = Vec::new();
            'probe: for (lk, ld) in lt.iter() {
                cost.rows_scanned += 1;
                let Some(v) = ld.get(left_field) else { continue };
                let Some(matches) = build.get(v) else { continue };
                for (rk, rd) in matches {
                    let mut merged = ld.clone();
                    for (f, val) in rd.iter() {
                        merged.set(format!("r.{f}"), val.clone());
                    }
                    merged.set("r.#key", Value::Int(*rk as i64));
                    if predicate.eval(&merged) {
                        out.push((lk, merged));
                        if out.len() >= cap {
                            break 'probe;
                        }
                    }
                }
            }
            QueryResult::Rows(out)
        }
        Query::ReadFile { path } => {
            let contents = db.fs().read(path);
            cost.bytes_processed += contents.as_ref().map_or(0, |c| c.len() as u64);
            QueryResult::Text(contents)
        }
        Query::Grep { pattern, prefix } => {
            let pat = Pattern::compile(pattern)?;
            let (matches, scanned) = db.fs().grep(&pat, prefix);
            cost.bytes_processed += scanned as u64;
            QueryResult::Matches(matches)
        }
        Query::ListFiles { prefix } => {
            let paths = db.fs().list(prefix);
            cost.rows_scanned += db.fs().file_count() as u64;
            QueryResult::Paths(paths)
        }
        Query::ReadFileRange { path, offset, len } => {
            let contents = db.fs().read_range(path, *offset, *len);
            cost.bytes_processed += contents.as_ref().map_or(0, |c| c.len() as u64);
            QueryResult::Text(contents)
        }
        Query::ScanRange { table, start, end } => {
            let t = db.table(table)?;
            let mut rows = Vec::new();
            for (k, d) in t.scan(*start, *end) {
                cost.rows_scanned += 1;
                rows.push((k, d.clone()));
            }
            QueryResult::Rows(rows)
        }
    };
    cost.rows_returned = result.row_count() as u64;
    Ok((result, cost))
}

/// Evaluates `predicate` over `table`, using a secondary index when the
/// predicate pins an indexed field with equality.
fn filter_rows<'t>(
    table: &'t Table,
    predicate: &Predicate,
    cost: &mut QueryCost,
) -> Vec<(u64, &'t Document)> {
    // Try each indexed field for an equality hint.
    let indexed: Vec<String> = table.indexed_fields().map(str::to_string).collect();
    for field in &indexed {
        if let Some(value) = predicate.index_hint(field) {
            if let Some(keys) = table.index_keys(field, value) {
                let mut out = Vec::with_capacity(keys.len());
                for k in keys {
                    cost.index_probes += 1;
                    if let Some(d) = table.get(k) {
                        if predicate.eval(d) {
                            out.push((k, d));
                        }
                    }
                }
                return out;
            }
        }
    }
    // Fall back to a full scan.
    let mut out = Vec::new();
    for (k, d) in table.iter() {
        cost.rows_scanned += 1;
        if predicate.eval(d) {
            out.push((k, d));
        }
    }
    out
}

/// Applies an aggregate over a row iterator.
fn aggregate<'a, I: Iterator<Item = &'a Document>>(
    rows: I,
    agg: &Aggregate,
) -> Result<Value, StoreError> {
    match agg {
        Aggregate::Count => Ok(Value::Int(rows.count() as i64)),
        Aggregate::Sum(field) => {
            let mut sum = 0.0;
            let mut any_float = false;
            let mut isum: i64 = 0;
            for d in rows {
                match d.get(field) {
                    Some(Value::Int(i)) => {
                        isum = isum.wrapping_add(*i);
                        sum += *i as f64;
                    }
                    Some(Value::Float(f)) => {
                        any_float = true;
                        sum += f;
                    }
                    Some(Value::Null) | None => {}
                    Some(_) => return Err(StoreError::BadQuery("sum over non-numeric field")),
                }
            }
            Ok(if any_float {
                Value::Float(sum)
            } else {
                Value::Int(isum)
            })
        }
        Aggregate::Min(field) => Ok(rows
            .filter_map(|d| d.get(field))
            .min()
            .cloned()
            .unwrap_or(Value::Null)),
        Aggregate::Max(field) => Ok(rows
            .filter_map(|d| d.get(field))
            .max()
            .cloned()
            .unwrap_or(Value::Null)),
        Aggregate::Avg(field) => {
            let mut sum = 0.0;
            let mut n = 0u64;
            for d in rows {
                match d.get(field).and_then(Value::as_f64) {
                    Some(v) => {
                        sum += v;
                        n += 1;
                    }
                    None => match d.get(field) {
                        None | Some(Value::Null) => {}
                        Some(_) => {
                            return Err(StoreError::BadQuery("avg over non-numeric field"))
                        }
                    },
                }
            }
            Ok(if n == 0 {
                Value::Null
            } else {
                Value::Float(sum / n as f64)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::update::UpdateOp;

    fn db() -> Database {
        let mut db = Database::new();
        db.apply_write(&[UpdateOp::CreateTable {
            table: "products".into(),
            indexes: vec!["category".into()],
        }])
        .unwrap();
        let items: [(&str, i64, &str); 5] = [
            ("anvil", 100, "tools"),
            ("rope", 10, "tools"),
            ("tnt", 50, "explosives"),
            ("rocket", 500, "explosives"),
            ("glue", 5, "adhesives"),
        ];
        let ops: Vec<UpdateOp> = items
            .iter()
            .enumerate()
            .map(|(i, (n, p, c))| UpdateOp::Insert {
                table: "products".into(),
                key: i as u64 + 1,
                doc: Document::new()
                    .with("name", *n)
                    .with("price", *p)
                    .with("category", *c),
            })
            .collect();
        db.apply_write(&ops).unwrap();
        db.apply_write(&[
            UpdateOp::WriteFile {
                path: "/docs/readme".into(),
                contents: "acme products\nquality guaranteed\n".into(),
            },
            UpdateOp::WriteFile {
                path: "/docs/catalog".into(),
                contents: "anvil: best in class\nrocket: fast delivery\n".into(),
            },
        ])
        .unwrap();
        db
    }

    #[test]
    fn get_row() {
        let db = db();
        let (r, c) = execute(
            &db,
            &Query::GetRow {
                table: "products".into(),
                key: 1,
            },
        )
        .unwrap();
        assert_eq!(r.row_count(), 1);
        assert_eq!(c.index_probes, 1);
        assert_eq!(c.rows_returned, 1);
    }

    #[test]
    fn get_missing_row_is_empty_not_error() {
        let db = db();
        let (r, _) = execute(
            &db,
            &Query::GetRow {
                table: "products".into(),
                key: 999,
            },
        )
        .unwrap();
        assert_eq!(r, QueryResult::Rows(vec![]));
    }

    #[test]
    fn range_with_limit() {
        let db = db();
        let (r, c) = execute(
            &db,
            &Query::Range {
                table: "products".into(),
                low: 1,
                high: 5,
                limit: Some(2),
            },
        )
        .unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(c.rows_scanned, 5);
    }

    #[test]
    fn scan_range_is_half_open_and_unlimited() {
        let db = db();
        let (r, c) = execute(
            &db,
            &Query::ScanRange {
                table: "products".into(),
                start: 2,
                end: 5,
            },
        )
        .unwrap();
        let QueryResult::Rows(rows) = &r else {
            panic!("scan returns rows")
        };
        let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![2, 3, 4]);
        assert_eq!(c.rows_scanned, 3);
        // Empty and out-of-range scans return no rows.
        let (r, _) = execute(
            &db,
            &Query::ScanRange {
                table: "products".into(),
                start: 5,
                end: 5,
            },
        )
        .unwrap();
        assert_eq!(r.row_count(), 0);
    }

    #[test]
    fn filter_uses_index_when_available() {
        let db = db();
        let (r, c) = execute(
            &db,
            &Query::Filter {
                table: "products".into(),
                predicate: Predicate::eq("category", "tools"),
                projection: None,
                limit: None,
            },
        )
        .unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(c.rows_scanned, 0, "should not scan");
        assert_eq!(c.index_probes, 2);
    }

    #[test]
    fn filter_scans_without_index() {
        let db = db();
        let (r, c) = execute(
            &db,
            &Query::Filter {
                table: "products".into(),
                predicate: Predicate::cmp("price", CmpOp::Ge, 100i64),
                projection: None,
                limit: None,
            },
        )
        .unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(c.rows_scanned, 5);
        assert_eq!(c.index_probes, 0);
    }

    #[test]
    fn filter_with_projection() {
        let db = db();
        let (r, _) = execute(
            &db,
            &Query::Filter {
                table: "products".into(),
                predicate: Predicate::True,
                projection: Some(vec!["name".into()]),
                limit: Some(1),
            },
        )
        .unwrap();
        let QueryResult::Rows(rows) = r else { panic!() };
        assert_eq!(rows[0].1.len(), 1);
        assert!(rows[0].1.get("name").is_some());
    }

    #[test]
    fn aggregate_count_sum_avg() {
        let db = db();
        let q = |agg| Query::Aggregate {
            table: "products".into(),
            predicate: Predicate::True,
            agg,
            group_by: None,
        };
        let (r, _) = execute(&db, &q(Aggregate::Count)).unwrap();
        assert_eq!(r, QueryResult::Scalar(Value::Int(5)));
        let (r, _) = execute(&db, &q(Aggregate::Sum("price".into()))).unwrap();
        assert_eq!(r, QueryResult::Scalar(Value::Int(665)));
        let (r, _) = execute(&db, &q(Aggregate::Avg("price".into()))).unwrap();
        assert_eq!(r, QueryResult::Scalar(Value::Float(133.0)));
        let (r, _) = execute(&db, &q(Aggregate::Min("price".into()))).unwrap();
        assert_eq!(r, QueryResult::Scalar(Value::Int(5)));
        let (r, _) = execute(&db, &q(Aggregate::Max("price".into()))).unwrap();
        assert_eq!(r, QueryResult::Scalar(Value::Int(500)));
    }

    #[test]
    fn aggregate_group_by() {
        let db = db();
        let (r, _) = execute(
            &db,
            &Query::Aggregate {
                table: "products".into(),
                predicate: Predicate::True,
                agg: Aggregate::Count,
                group_by: Some("category".into()),
            },
        )
        .unwrap();
        let QueryResult::Groups(groups) = r else { panic!() };
        assert_eq!(groups.len(), 3);
        // BTreeMap ordering: adhesives, explosives, tools.
        assert_eq!(groups[0].0, Value::Str("adhesives".into()));
        assert_eq!(groups[0].1, Value::Int(1));
        assert_eq!(groups[2].1, Value::Int(2));
    }

    #[test]
    fn aggregate_type_error() {
        let db = db();
        let err = execute(
            &db,
            &Query::Aggregate {
                table: "products".into(),
                predicate: Predicate::True,
                agg: Aggregate::Sum("name".into()),
                group_by: None,
            },
        );
        assert!(matches!(err, Err(StoreError::BadQuery(_))));
    }

    #[test]
    fn join_matches_on_field() {
        let mut db = db();
        db.apply_write(&[
            UpdateOp::CreateTable {
                table: "reviews".into(),
                indexes: vec![],
            },
            UpdateOp::Insert {
                table: "reviews".into(),
                key: 1,
                doc: Document::new().with("product", "anvil").with("stars", 5i64),
            },
            UpdateOp::Insert {
                table: "reviews".into(),
                key: 2,
                doc: Document::new().with("product", "anvil").with("stars", 4i64),
            },
            UpdateOp::Insert {
                table: "reviews".into(),
                key: 3,
                doc: Document::new().with("product", "rope").with("stars", 2i64),
            },
        ])
        .unwrap();
        let (r, c) = execute(
            &db,
            &Query::Join {
                left: "products".into(),
                right: "reviews".into(),
                left_field: "name".into(),
                right_field: "product".into(),
                predicate: Predicate::cmp("r.stars", CmpOp::Ge, 4i64),
                limit: None,
            },
        )
        .unwrap();
        let QueryResult::Rows(rows) = r else { panic!() };
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|(_, d)| d.get("name") == Some(&Value::Str("anvil".into()))));
        // Join scanned both tables.
        assert_eq!(c.rows_scanned, 5 + 3);
    }

    #[test]
    fn file_read_and_grep() {
        let db = db();
        let (r, _) = execute(
            &db,
            &Query::ReadFile {
                path: "/docs/readme".into(),
            },
        )
        .unwrap();
        let QueryResult::Text(Some(text)) = r else { panic!() };
        assert!(text.contains("acme"));

        let (r, c) = execute(
            &db,
            &Query::Grep {
                pattern: "best*class".into(),
                prefix: "/docs".into(),
            },
        )
        .unwrap();
        let QueryResult::Matches(ms) = r else { panic!() };
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].path, "/docs/catalog");
        assert!(c.bytes_processed > 0);
    }

    #[test]
    fn read_file_range_slices_the_file() {
        let db = db();
        let full = match execute(
            &db,
            &Query::ReadFile {
                path: "/docs/readme".into(),
            },
        )
        .unwrap()
        .0
        {
            QueryResult::Text(Some(t)) => t,
            other => panic!("unexpected result {other:?}"),
        };
        let (r, c) = execute(
            &db,
            &Query::ReadFileRange {
                path: "/docs/readme".into(),
                offset: 5,
                len: 8,
            },
        )
        .unwrap();
        assert_eq!(r, QueryResult::Text(Some(full[5..13].to_string())));
        assert_eq!(c.bytes_processed, 8);

        // Past-the-end offsets yield an empty (but present) result.
        let (r, _) = execute(
            &db,
            &Query::ReadFileRange {
                path: "/docs/readme".into(),
                offset: 1 << 20,
                len: 8,
            },
        )
        .unwrap();
        assert_eq!(r, QueryResult::Text(Some(String::new())));

        // Missing files are None, like ReadFile.
        let (r, _) = execute(
            &db,
            &Query::ReadFileRange {
                path: "/docs/missing".into(),
                offset: 0,
                len: 8,
            },
        )
        .unwrap();
        assert_eq!(r, QueryResult::Text(None));
    }

    #[test]
    fn grep_bad_pattern_errors() {
        let db = db();
        assert!(matches!(
            execute(
                &db,
                &Query::Grep {
                    pattern: "[oops".into(),
                    prefix: "/".into(),
                },
            ),
            Err(StoreError::BadPattern(_))
        ));
    }

    #[test]
    fn list_files() {
        let db = db();
        let (r, _) = execute(
            &db,
            &Query::ListFiles {
                prefix: "/docs".into(),
            },
        )
        .unwrap();
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn missing_table_errors() {
        let db = db();
        assert!(matches!(
            execute(
                &db,
                &Query::GetRow {
                    table: "nope".into(),
                    key: 1,
                },
            ),
            Err(StoreError::NoSuchTable(_))
        ));
    }

    #[test]
    fn determinism_same_query_same_hash() {
        let db = db();
        let q = Query::Filter {
            table: "products".into(),
            predicate: Predicate::cmp("price", CmpOp::Ge, 10i64),
            projection: None,
            limit: None,
        };
        let (r1, _) = execute(&db, &q).unwrap();
        let (r2, _) = execute(&db, &q).unwrap();
        assert_eq!(r1.sha1(), r2.sha1());
    }

    #[test]
    fn cost_merge() {
        let a = QueryCost {
            rows_scanned: 1,
            index_probes: 2,
            bytes_processed: 3,
            rows_returned: 4,
        };
        let b = a;
        let m = a.merge(b);
        assert_eq!(m.rows_scanned, 2);
        assert_eq!(m.rows_returned, 8);
    }
}
