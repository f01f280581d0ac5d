//! Write operations applied deterministically to a database.

use crate::database::Database;
use crate::document::Document;
use crate::error::StoreError;

/// A single write operation.
///
/// A *write request* in the protocol is a batch of these (see
/// [`Database::apply_write`]); applying the same batch to equal states
/// yields equal states — the property state-machine replication needs and
/// the audit relies on.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOp {
    /// Create an empty table with the given secondary indexes.
    CreateTable {
        /// Table name.
        table: String,
        /// Fields to index.
        indexes: Vec<String>,
    },
    /// Insert a row (fails when the key exists).
    Insert {
        /// Table name.
        table: String,
        /// Primary key.
        key: u64,
        /// Row contents.
        doc: Document,
    },
    /// Insert or replace a row.
    Upsert {
        /// Table name.
        table: String,
        /// Primary key.
        key: u64,
        /// Row contents.
        doc: Document,
    },
    /// Merge fields into an existing row.
    Update {
        /// Table name.
        table: String,
        /// Primary key.
        key: u64,
        /// Fields to merge.
        changes: Document,
    },
    /// Delete a row.
    Delete {
        /// Table name.
        table: String,
        /// Primary key.
        key: u64,
    },
    /// Create or replace a file.
    WriteFile {
        /// File path.
        path: String,
        /// New contents.
        contents: String,
    },
    /// Append to a file (created when absent).
    AppendFile {
        /// File path.
        path: String,
        /// Data to append.
        contents: String,
    },
    /// Delete a file.
    DeleteFile {
        /// File path.
        path: String,
    },
}

impl UpdateOp {
    /// Applies the operation to `db`.
    pub fn apply(&self, db: &mut Database) -> Result<(), StoreError> {
        match self {
            UpdateOp::CreateTable { table, indexes } => {
                db.create_table(table)?;
                let t = db.table_mut(table)?;
                for f in indexes {
                    t.create_index(f.clone());
                }
                Ok(())
            }
            UpdateOp::Insert { table, key, doc } => db.table_mut(table)?.insert(*key, doc.clone()),
            UpdateOp::Upsert { table, key, doc } => {
                db.table_mut(table)?.upsert(*key, doc.clone());
                Ok(())
            }
            UpdateOp::Update {
                table,
                key,
                changes,
            } => db.table_mut(table)?.update(*key, changes),
            UpdateOp::Delete { table, key } => db.table_mut(table)?.delete(*key).map(|_| ()),
            UpdateOp::WriteFile { path, contents } => {
                db.fs_mut().write_file(path.clone(), contents.clone());
                Ok(())
            }
            UpdateOp::AppendFile { path, contents } => {
                db.fs_mut().append_file(path.clone(), contents);
                Ok(())
            }
            UpdateOp::DeleteFile { path } => db.fs_mut().delete_file(path),
        }
    }

    /// Appends a canonical encoding (write requests travel inside signed
    /// broadcasts).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        match self {
            UpdateOp::CreateTable { table, indexes } => {
                out.push(0);
                put_str(out, table);
                out.extend_from_slice(&(indexes.len() as u32).to_be_bytes());
                for f in indexes {
                    put_str(out, f);
                }
            }
            UpdateOp::Insert { table, key, doc } => {
                out.push(1);
                put_str(out, table);
                out.extend_from_slice(&key.to_be_bytes());
                doc.encode_into(out);
            }
            UpdateOp::Upsert { table, key, doc } => {
                out.push(2);
                put_str(out, table);
                out.extend_from_slice(&key.to_be_bytes());
                doc.encode_into(out);
            }
            UpdateOp::Update {
                table,
                key,
                changes,
            } => {
                out.push(3);
                put_str(out, table);
                out.extend_from_slice(&key.to_be_bytes());
                changes.encode_into(out);
            }
            UpdateOp::Delete { table, key } => {
                out.push(4);
                put_str(out, table);
                out.extend_from_slice(&key.to_be_bytes());
            }
            UpdateOp::WriteFile { path, contents } => {
                out.push(5);
                put_str(out, path);
                put_str(out, contents);
            }
            UpdateOp::AppendFile { path, contents } => {
                out.push(6);
                put_str(out, path);
                put_str(out, contents);
            }
            UpdateOp::DeleteFile { path } => {
                out.push(7);
                put_str(out, path);
            }
        }
    }

    /// Encodes a batch of operations canonically.
    pub fn encode_batch(ops: &[UpdateOp]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(ops.len() as u32).to_be_bytes());
        for op in ops {
            op.encode_into(&mut out);
        }
        out
    }

    /// Approximate encoded size (for network cost accounting).
    pub fn size(&self) -> usize {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_table() -> Database {
        let mut db = Database::new();
        UpdateOp::CreateTable {
            table: "t".into(),
            indexes: vec!["cat".into()],
        }
        .apply(&mut db)
        .unwrap();
        db
    }

    #[test]
    fn create_insert_update_delete() {
        let mut db = db_with_table();
        UpdateOp::Insert {
            table: "t".into(),
            key: 1,
            doc: Document::new().with("cat", "a").with("v", 1i64),
        }
        .apply(&mut db)
        .unwrap();
        UpdateOp::Update {
            table: "t".into(),
            key: 1,
            changes: Document::new().with("v", 2i64),
        }
        .apply(&mut db)
        .unwrap();
        assert_eq!(
            db.table("t").unwrap().get(1).unwrap().get("v"),
            Some(&crate::value::Value::Int(2))
        );
        UpdateOp::Delete {
            table: "t".into(),
            key: 1,
        }
        .apply(&mut db)
        .unwrap();
        assert!(db.table("t").unwrap().get(1).is_none());
    }

    #[test]
    fn file_operations() {
        let mut db = Database::new();
        UpdateOp::WriteFile {
            path: "/a".into(),
            contents: "one\n".into(),
        }
        .apply(&mut db)
        .unwrap();
        UpdateOp::AppendFile {
            path: "/a".into(),
            contents: "two\n".into(),
        }
        .apply(&mut db)
        .unwrap();
        assert_eq!(db.fs().read("/a").as_deref(), Some("one\ntwo\n"));
        UpdateOp::DeleteFile { path: "/a".into() }.apply(&mut db).unwrap();
        assert!(db.fs().read("/a").is_none());
    }

    #[test]
    fn errors_propagate() {
        let mut db = db_with_table();
        let bad = UpdateOp::Update {
            table: "t".into(),
            key: 9,
            changes: Document::new(),
        };
        assert_eq!(bad.apply(&mut db), Err(StoreError::NoSuchKey(9)));
        let bad = UpdateOp::Insert {
            table: "missing".into(),
            key: 1,
            doc: Document::new(),
        };
        assert!(matches!(bad.apply(&mut db), Err(StoreError::NoSuchTable(_))));
    }

    #[test]
    fn same_batch_same_state() {
        let ops = vec![
            UpdateOp::CreateTable {
                table: "x".into(),
                indexes: vec![],
            },
            UpdateOp::Insert {
                table: "x".into(),
                key: 5,
                doc: Document::new().with("f", 1.5),
            },
            UpdateOp::WriteFile {
                path: "/p".into(),
                contents: "data".into(),
            },
        ];
        let mut a = Database::new();
        let mut b = Database::new();
        for op in &ops {
            op.apply(&mut a).unwrap();
            op.apply(&mut b).unwrap();
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn batch_encoding_roundtrip_stability() {
        let ops = vec![
            UpdateOp::Delete {
                table: "t".into(),
                key: 3,
            },
            UpdateOp::DeleteFile { path: "/f".into() },
        ];
        assert_eq!(UpdateOp::encode_batch(&ops), UpdateOp::encode_batch(&ops));
        assert_ne!(
            UpdateOp::encode_batch(&ops),
            UpdateOp::encode_batch(&ops[..1])
        );
    }
}
