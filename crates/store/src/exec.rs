//! The query executor, with per-query cost accounting.
//!
//! Every execution returns a [`QueryCost`] describing the work of the
//! modeled plan (rows scanned, index probes, bytes processed).  The
//! replication layer converts this into virtual CPU time, which is how "a
//! computationally very intensive task … applying an aggregation function
//! on the entire data content" (Section 3.2) becomes visible in the
//! experiments.  The host may short-cut the modeled plan — a limited
//! filter stops at its limit, a join probes the right table's index —
//! without changing the result or the charged cost.

use crate::database::Database;
use crate::document::Document;
use crate::error::StoreError;
use crate::pattern::Pattern;
use crate::predicate::Predicate;
use crate::query::{Aggregate, Query, QueryResult};
use crate::table::Table;
use crate::value::Value;
use std::cmp;
use std::collections::BTreeMap;

/// The work of the modeled plan for one query: what the virtual clock
/// charges, not what the host did.
///
/// The modeled plan scans a whole table for an unindexed filter, limited
/// or not, reads a whole posting set for an indexed one, and builds over
/// the whole right table of a join.  The host may stop early or probe an
/// index instead; the charge stays that of the modeled plan, so a
/// host-only speed-up moves no modeled time.
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
            let cap = cap(*limit);
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
            let rows = filter_rows(t, predicate, &mut cost).take(cap(*limit));
            let out = rows
                .map(|(k, d)| match projection {
                    Some(fields) => (k, d.project(fields)),
                    None => (k, d.clone()),
                })
                .collect();
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
                None => {
                    let mut fold = Fold::default();
                    for (_, d) in rows {
                        fold.add(agg, d)?;
                    }
                    QueryResult::Scalar(fold.finish(agg))
                }
                Some(field) => {
                    static NULL: Value = Value::Null;
                    let mut groups: BTreeMap<&Value, Fold> = BTreeMap::new();
                    for (_, d) in rows {
                        let key = d.get(field).unwrap_or(&NULL);
                        groups.entry(key).or_default().add(agg, d)?;
                    }
                    let out = groups
                        .into_iter()
                        .map(|(key, fold)| (key.clone(), fold.finish(agg)))
                        .collect();
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
            // The modeled plan builds over the whole right table.
            cost.rows_scanned += rt.len() as u64;
            let cap = cap(*limit);
            let rows = if rt.has_index(right_field) {
                join_probe(lt, left_field, predicate, cap, &mut cost, |v| {
                    let keys = rt.index_keys(right_field, v).expect("field is indexed");
                    keys.filter_map(|k| Some((k, rt.get(k)?)))
                })
            } else {
                let mut build: BTreeMap<&Value, Vec<(u64, &Document)>> = BTreeMap::new();
                for (k, d) in rt.iter() {
                    if let Some(v) = d.get(right_field) {
                        build.entry(v).or_default().push((k, d));
                    }
                }
                join_probe(lt, left_field, predicate, cap, &mut cost, |v| {
                    build.get(v).into_iter().flatten().copied()
                })
            };
            QueryResult::Rows(rows)
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

/// A query's row cap (`None` is unlimited).
fn cap(limit: Option<u32>) -> usize {
    limit.map_or(usize::MAX, |l| l as usize)
}

/// The rows of `table` matching `predicate`, in key order, evaluated
/// lazily so a limited caller stops at its limit.  Reads the posting set
/// of the first indexed field the predicate pins with equality, else
/// scans.  Charges the whole modeled plan up front: the posting length,
/// or every row of the table.
fn filter_rows<'t>(
    table: &'t Table,
    predicate: &'t Predicate,
    cost: &mut QueryCost,
) -> impl Iterator<Item = (u64, &'t Document)> + 't {
    let postings = table
        .indexed_fields()
        .find_map(|field| table.index_keys(field, predicate.index_hint(field)?));
    let rows = match postings {
        Some(keys) => {
            cost.index_probes += keys.len() as u64;
            Rows::Index(keys.filter_map(move |k| Some((k, table.get(k)?))))
        }
        None => {
            cost.rows_scanned += table.len() as u64;
            Rows::Scan(table.iter())
        }
    };
    rows.filter(move |(_, d)| predicate.eval(d))
}

/// The two row sources of [`filter_rows`], as one iterator type.
enum Rows<I, S> {
    Index(I),
    Scan(S),
}

impl<'t, I, S> Iterator for Rows<I, S>
where
    I: Iterator<Item = (u64, &'t Document)>,
    S: Iterator<Item = (u64, &'t Document)>,
{
    type Item = (u64, &'t Document);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Rows::Index(i) => i.next(),
            Rows::Scan(s) => s.next(),
        }
    }
}

/// Probes an equality join: walks the left table in key order, looks
/// each row's join value up with `matches` (the right rows carrying it,
/// in key order), and keeps merged rows (right fields prefixed `r.`)
/// that pass the filter, until `cap` have.  Charges one scanned row per
/// left row probed.
fn join_probe<'r, M: Iterator<Item = (u64, &'r Document)>>(
    left: &Table,
    left_field: &str,
    predicate: &Predicate,
    cap: usize,
    cost: &mut QueryCost,
    matches: impl Fn(&Value) -> M,
) -> Vec<(u64, Document)> {
    let mut out = Vec::new();
    if cap == 0 {
        return out;
    }
    for (lk, ld) in left.iter() {
        cost.rows_scanned += 1;
        let Some(v) = ld.get(left_field) else { continue };
        for (rk, rd) in matches(v) {
            let mut merged = ld.clone();
            for (f, val) in rd.iter() {
                merged.set(format!("r.{f}"), val.clone());
            }
            merged.set("r.#key", Value::Int(rk as i64));
            if predicate.eval(&merged) {
                out.push((lk, merged));
                if out.len() >= cap {
                    return out;
                }
            }
        }
    }
    out
}

/// One aggregate's running state over the rows of one group, folded in
/// a single pass.
#[derive(Default)]
struct Fold<'a> {
    /// Rows counted (`Count`) or numeric values averaged (`Avg`).
    n: u64,
    /// Wrapping integer sum (`Sum`'s result when it met no float).
    isum: i64,
    /// Float sum, in row order (`Sum`, `Avg`).
    sum: f64,
    /// Whether `Sum` met a float.
    any_float: bool,
    /// The extreme so far (`Min`, `Max`).
    best: Option<&'a Value>,
}

impl<'a> Fold<'a> {
    /// Folds one row in.  `Min` keeps the first minimum and `Max` the
    /// last maximum, as [`Iterator::min`] and [`Iterator::max`] do.
    fn add(&mut self, agg: &Aggregate, d: &'a Document) -> Result<(), StoreError> {
        match agg {
            Aggregate::Count => self.n += 1,
            Aggregate::Sum(field) => match d.get(field) {
                Some(Value::Int(i)) => {
                    self.isum = self.isum.wrapping_add(*i);
                    self.sum += *i as f64;
                }
                Some(Value::Float(f)) => {
                    self.any_float = true;
                    self.sum += f;
                }
                Some(Value::Null) | None => {}
                Some(_) => return Err(StoreError::BadQuery("sum over non-numeric field")),
            },
            Aggregate::Min(field) => {
                if let Some(v) = d.get(field) {
                    self.best = Some(self.best.map_or(v, |best| cmp::min(best, v)));
                }
            }
            Aggregate::Max(field) => {
                if let Some(v) = d.get(field) {
                    self.best = Some(self.best.map_or(v, |best| cmp::max(best, v)));
                }
            }
            Aggregate::Avg(field) => match d.get(field) {
                None | Some(Value::Null) => {}
                Some(v) => {
                    let Some(x) = v.as_f64() else {
                        return Err(StoreError::BadQuery("avg over non-numeric field"));
                    };
                    self.sum += x;
                    self.n += 1;
                }
            },
        }
        Ok(())
    }

    /// The aggregate's value.
    fn finish(self, agg: &Aggregate) -> Value {
        match agg {
            Aggregate::Count => Value::Int(self.n as i64),
            Aggregate::Sum(_) if self.any_float => Value::Float(self.sum),
            Aggregate::Sum(_) => Value::Int(self.isum),
            Aggregate::Min(_) | Aggregate::Max(_) => self.best.cloned().unwrap_or(Value::Null),
            Aggregate::Avg(_) if self.n == 0 => Value::Null,
            Aggregate::Avg(_) => Value::Float(self.sum / self.n as f64),
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
        for agg in [Aggregate::Sum("name".into()), Aggregate::Avg("name".into())] {
            for group_by in [None, Some("category".to_string())] {
                let err = execute(
                    &db,
                    &Query::Aggregate {
                        table: "products".into(),
                        predicate: Predicate::True,
                        agg: agg.clone(),
                        group_by,
                    },
                );
                assert!(matches!(err, Err(StoreError::BadQuery(_))));
            }
        }
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

    /// `db()` plus a `reviews` table referencing products by name,
    /// indexed on `product` when `indexed`.
    fn db_with_reviews(indexed: bool) -> Database {
        let mut db = db();
        let indexes = if indexed { vec!["product".into()] } else { vec![] };
        let mut ops = vec![UpdateOp::CreateTable {
            table: "reviews".into(),
            indexes,
        }];
        let reviews: [(&str, i64); 5] = [
            ("rope", 5),
            ("anvil", 5),
            ("anvil", 4),
            ("rope", 2),
            ("glue", 4),
        ];
        for (i, (product, stars)) in reviews.iter().enumerate() {
            ops.push(UpdateOp::Insert {
                table: "reviews".into(),
                key: i as u64 + 1,
                doc: Document::new().with("product", *product).with("stars", *stars),
            });
        }
        db.apply_write(&ops).unwrap();
        db
    }

    fn join(limit: Option<u32>) -> Query {
        Query::Join {
            left: "products".into(),
            right: "reviews".into(),
            left_field: "name".into(),
            right_field: "product".into(),
            predicate: Predicate::cmp("r.stars", CmpOp::Ge, 4i64),
            limit,
        }
    }

    #[test]
    fn indexed_join_matches_the_build_and_stops_at_the_limit() {
        let (built, built_cost) = execute(&db_with_reviews(false), &join(None)).unwrap();
        let (probed, probed_cost) = execute(&db_with_reviews(true), &join(None)).unwrap();
        assert_eq!(built, probed);
        assert_eq!(built_cost, probed_cost);
        let QueryResult::Rows(rows) = probed else { panic!() };
        // Left key order, then right key order within one left row.
        let keys: Vec<(u64, &Value)> = rows
            .iter()
            .map(|(k, d)| (*k, d.get("r.#key").unwrap()))
            .collect();
        assert_eq!(
            keys,
            vec![
                (1, &Value::Int(2)),
                (1, &Value::Int(3)),
                (2, &Value::Int(1)),
                (5, &Value::Int(5)),
            ]
        );
        assert_eq!(probed_cost.rows_scanned, 5 + 5);
        for indexed in [false, true] {
            let (r, c) = execute(&db_with_reviews(indexed), &join(Some(2))).unwrap();
            assert_eq!(r.row_count(), 2);
            // The whole right table, plus the one left row that matched twice.
            assert_eq!(c.rows_scanned, 5 + 1);
        }
    }

    #[test]
    fn limit_zero_returns_no_rows() {
        for indexed in [false, true] {
            let db = db_with_reviews(indexed);
            let (r, c) = execute(&db, &join(Some(0))).unwrap();
            assert_eq!(r.row_count(), 0, "join, indexed: {indexed}");
            // The build is charged; no left row is probed.
            assert_eq!(c.rows_scanned, 5);
            let filter = Query::Filter {
                table: "products".into(),
                predicate: Predicate::True,
                projection: None,
                limit: Some(0),
            };
            assert_eq!(execute(&db, &filter).unwrap().0.row_count(), 0);
            let range = Query::Range {
                table: "products".into(),
                low: 1,
                high: 5,
                limit: Some(0),
            };
            assert_eq!(execute(&db, &range).unwrap().0.row_count(), 0);
        }
    }

    #[test]
    fn limited_filter_charges_the_modeled_plan() {
        let db = db();
        let scan = |limit| Query::Filter {
            table: "products".into(),
            predicate: Predicate::cmp("price", CmpOp::Ge, 10i64),
            projection: None,
            limit,
        };
        let (r, c) = execute(&db, &scan(Some(1))).unwrap();
        assert_eq!(r.row_count(), 1);
        assert_eq!((c.rows_scanned, c.index_probes), (5, 0));
        let indexed = Query::Filter {
            table: "products".into(),
            predicate: Predicate::eq("category", "tools"),
            projection: None,
            limit: Some(1),
        };
        let (r, c) = execute(&db, &indexed).unwrap();
        let QueryResult::Rows(rows) = r else { panic!() };
        assert_eq!(rows.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![1]);
        assert_eq!((c.rows_scanned, c.index_probes), (0, 2));
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
