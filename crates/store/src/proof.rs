//! Whole-state authentication: chaining a static read to the state digest.
//!
//! One engine proves every static read: a [`RangeProof`] over one
//! persistent map, where a point read is the range of one (`[key, key]`).
//! The state digest, however, commits to a *two-level* structure: rows
//! live in a table's row map, the table lives (as its row-map root) in
//! the database's table map, and the digest binds the table map root,
//! the file tree root, the table count, and the content version.  The
//! types here splice the levels together so a slave can hand a client
//! one self-contained object that verifies a `GetRow`, `ReadFile` or
//! `ScanRange` answer — presence, absence *and* completeness — directly
//! against a master-signed [`Database::state_digest`], with no pledge,
//! audit, or trusted re-execution involved:
//!
//! * rows: rows range → rows root → table entry `[name, name]` → tables
//!   root → digest ([`TableProof`], for `GetRow` and `ScanRange` alike);
//! * files: path entry `[path, path]` → files root → digest
//!   ([`FileProof`], and [`StreamProof`] for chunk-by-chunk reads).
//!
//! Everything stays O(log n + k): proof generation walks the boundary
//! search paths per level reusing cached subtree hashes, and
//! verification re-hashes only the skeleton and the k claimed rows.

use crate::chunk::{ChunkId, FileManifest, ManifestSlice};
use crate::database::{digest_from_parts, Database};
use crate::document::Document;
use crate::error::StoreError;
use crate::pmap::{MerkleContent, ProofError, RangeProof};
use crate::query::{Query, QueryResult};
use sdr_crypto::Hash256;
use std::ops::Bound;

/// Compares a recomputed state digest with the trusted one.
fn check_digest(digest: Hash256, expected: &Hash256) -> Result<(), ProofError> {
    if digest == *expected {
        Ok(())
    } else {
        Err(ProofError::RootMismatch)
    }
}

/// Proof that the rows of one table with keys from `start` to `end` are
/// *exactly* the claimed rows, chained up to the database's state
/// digest.  A `GetRow` proves `[key, key]` (`end` is `Included`): zero
/// rows prove the key absent.  A [`Query::ScanRange`] proves
/// `[start, end)` (`end` is `Excluded`) with one proof: O(log n + k)
/// hash work and wire bytes where k point proofs would cost k·O(log n)
/// of each.
#[derive(Clone, Debug, PartialEq)]
pub struct TableProof {
    /// The table read.
    pub table: String,
    /// Inclusive lower bound of the key range.
    pub start: u64,
    /// Upper bound of the key range.
    pub end: Bound<u64>,
    /// Range proof of the rows within the table's row map.
    pub range: RangeProof<u64>,
    /// The table's row count (part of the table's digest preimage).
    pub table_len: u64,
    /// Proof of the table's entry (`[table, table]`) within the
    /// database's table map.
    pub table_entry: RangeProof<String>,
    /// Number of tables (part of the state-digest preimage).
    pub table_count: u32,
    /// Digest of the file tree (the other half of the state digest).
    pub files_digest: Hash256,
}

impl TableProof {
    /// Verifies the proof against a trusted state digest for `version`.
    ///
    /// `rows` is the claimed answer, ascending by key.  Acceptance means
    /// the table holds exactly these rows in the range — none forged,
    /// none omitted.
    pub fn verify(
        &self,
        expected_digest: &Hash256,
        version: u64,
        rows: &[(u64, Document)],
    ) -> Result<(), ProofError> {
        let encoded: Vec<(u64, Vec<u8>)> = rows
            .iter()
            .map(|(k, doc)| {
                let mut out = Vec::with_capacity(64);
                doc.content_encode(&mut out);
                (*k, out)
            })
            .collect();
        let rows_root = self.range.computed_root(&self.start, self.end.as_ref(), &encoded)?;

        // The table's value in the outer map is (row count, rows root) —
        // recompute its encoding from the inner fold, so a forged
        // `table_len` or spliced row proof breaks the outer fold.
        let mut table_value = Vec::with_capacity(40);
        table_value.extend_from_slice(&self.table_len.to_be_bytes());
        table_value.extend_from_slice(rows_root.as_ref());
        let tables_root = self.table_entry.point_root(&self.table, Some(&table_value))?;
        check_digest(
            digest_from_parts(version, self.table_count, &tables_root, &self.files_digest),
            expected_digest,
        )
    }
}

/// The file half of the chain: the path's entry in the file tree (or its
/// absence, when `encoding` is `None`) → files root → state digest.
fn verify_file_entry(
    file: &RangeProof<String>,
    path: &String,
    encoding: Option<Vec<u8>>,
    tables_root: &Hash256,
    table_count: u32,
    version: u64,
    expected_digest: &Hash256,
) -> Result<(), ProofError> {
    let files_root = file.point_root(path, encoding.as_deref())?;
    check_digest(
        digest_from_parts(version, table_count, tables_root, &files_root),
        expected_digest,
    )
}

/// Proof that a file exists (with given contents) or is absent, chained
/// up to the database's state digest.
#[derive(Clone, Debug, PartialEq)]
pub struct FileProof {
    /// The path looked up.
    pub path: String,
    /// Proof of the file (or its absence) within the file tree.
    pub file: RangeProof<String>,
    /// Root of the table map (the other half of the state digest).
    pub tables_root: Hash256,
    /// Number of tables (part of the state-digest preimage).
    pub table_count: u32,
}

impl FileProof {
    /// Verifies the proof against a trusted state digest for `version`.
    ///
    /// The file tree commits to chunk *manifests*, so the verifier
    /// re-chunks the claimed contents (the chunker is deterministic) and
    /// recomputes the manifest encoding — a claim that differs in any
    /// byte produces different chunk digests and breaks the fold.
    pub fn verify(
        &self,
        expected_digest: &Hash256,
        version: u64,
        contents: Option<&str>,
    ) -> Result<(), ProofError> {
        let encoding = contents.map(|c| {
            let manifest = FileManifest::of(c.as_bytes());
            let mut out = Vec::with_capacity(manifest.chunks.len() * 36 + 32);
            manifest.content_encode(&mut out);
            out
        });
        verify_file_entry(
            &self.file,
            &self.path,
            encoding,
            &self.tables_root,
            self.table_count,
            version,
            expected_digest,
        )
    }
}

/// Header proof of a streamed (`ReadFileRange`) read: binds the *slice*
/// of a file's chunk table covering the requested byte range to the
/// state digest, so each subsequent chunk verifies alone against its
/// 32-byte manifest entry.
///
/// The verification chain is chunk bytes → [`ChunkId`] (chunk
/// commitment) → slice entry → chunk-table Merkle root → manifest
/// encoding → file-tree leaf → files root → digest preimage →
/// master-signed digest stamp.  The header carries only the entries the
/// read touches plus an O(log chunks) range proof — a 4 KiB read of a
/// huge file no longer ships the whole chunk table — and a client never
/// buffers the file: it checks this header once, then hashes each
/// arriving chunk as it lands; a corrupted chunk is rejected the moment
/// it arrives.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamProof {
    /// The path streamed.
    pub path: String,
    /// The chunk-table slice covering the requested byte range
    /// (`None` claims the file is absent).
    pub slice: Option<ManifestSlice>,
    /// Proof of the manifest (or the path's absence) within the file
    /// tree.
    pub file: RangeProof<String>,
    /// Root of the table map (the other half of the state digest).
    pub tables_root: Hash256,
    /// Number of tables (part of the state-digest preimage).
    pub table_count: u32,
}

impl StreamProof {
    /// Verifies the slice against a trusted state digest for `version`:
    /// the slice's internal range proof first, then the rebuilt manifest
    /// encoding up the file tree.  After this,
    /// [`StreamProof::verify_chunk`] needs no further trust in the
    /// slave.
    pub fn verify_header(
        &self,
        expected_digest: &Hash256,
        version: u64,
    ) -> Result<(), ProofError> {
        let encoding = match &self.slice {
            Some(slice) => Some(slice.verified_encoding()?),
            None => None,
        };
        verify_file_entry(
            &self.file,
            &self.path,
            encoding,
            &self.tables_root,
            self.table_count,
            version,
            expected_digest,
        )
    }

    /// Verifies one streamed chunk (by absolute chunk index) against the
    /// already-verified slice: length and chunk commitment must both
    /// match.
    pub fn verify_chunk(&self, index: usize, data: &[u8]) -> Result<(), ProofError> {
        let entry = self
            .slice
            .as_ref()
            .and_then(|s| s.entry(index))
            .ok_or(ProofError::ShapeMismatch)?;
        if data.len() != entry.len as usize || ChunkId::of(data) != entry.id {
            return Err(ProofError::RootMismatch);
        }
        Ok(())
    }

    /// Path length of the header fold (hash work the verifier does).
    pub fn depth(&self) -> usize {
        self.file.depth()
    }

    /// Approximate wire size of the header in bytes.
    pub fn wire_len(&self) -> usize {
        let slice = self.slice.as_ref().map_or(1, |s| s.wire_len());
        self.file.wire_len() + self.path.len() + 36 + slice
    }
}

/// A self-contained proof for one static read.
#[derive(Clone, Debug, PartialEq)]
pub enum StateProof {
    /// Proof for a `GetRow` answer: the rows range `[key, key]`.
    Row(TableProof),
    /// Proof for a `ReadFile` answer.
    File(FileProof),
    /// Proof for a `ScanRange` answer: `[start, end)`, k rows, one proof.
    Range(TableProof),
}

impl StateProof {
    /// Verifies that `result` is the authentic answer to `query` at the
    /// state committed to by `expected_digest`/`version`.
    ///
    /// Checks three things: the proof is *about* the query (same table
    /// and key range, or path), the result has the shape the query
    /// produces, and the proof folds to the trusted digest.
    pub fn verify_result(
        &self,
        expected_digest: &Hash256,
        version: u64,
        query: &Query,
        result: &QueryResult,
    ) -> Result<(), ProofError> {
        let (proof, table, start, end, rows) = match (self, query, result) {
            (StateProof::Row(p), Query::GetRow { table, key }, QueryResult::Rows(rows)) => {
                (p, table, *key, Bound::Included(*key), rows)
            }
            (
                StateProof::Range(p),
                Query::ScanRange { table, start, end },
                QueryResult::Rows(rows),
            ) => (p, table, *start, Bound::Excluded(*end), rows),
            (StateProof::File(p), Query::ReadFile { path }, QueryResult::Text(text))
                if p.path == *path =>
            {
                return p.verify(expected_digest, version, text.as_deref());
            }
            _ => return Err(ProofError::ShapeMismatch),
        };
        if proof.table != *table || proof.start != start || proof.end != end {
            return Err(ProofError::ShapeMismatch);
        }
        proof.verify(expected_digest, version, rows)
    }

    /// Total skeleton depth across both levels (hash work the verifier
    /// does).
    pub fn depth(&self) -> usize {
        match self {
            StateProof::Row(p) | StateProof::Range(p) => p.range.depth() + p.table_entry.depth(),
            StateProof::File(p) => p.file.depth(),
        }
    }

    /// Approximate wire size in bytes: the skeletons plus the fields
    /// they chain through (bounds, row count, table count, the other
    /// half's root).
    pub fn wire_len(&self) -> usize {
        match self {
            StateProof::Row(p) | StateProof::Range(p) => {
                p.range.wire_len() + p.table_entry.wire_len() + p.table.len() + 61
            }
            StateProof::File(p) => p.file.wire_len() + p.path.len() + 36,
        }
    }
}

impl Database {
    /// Produces the proof of a `GetRow` — the rows range `[key, key]` —
    /// against the current [`Database::state_digest`].  Errors when the
    /// table itself does not exist (a missing *row* yields an absence
    /// proof instead).
    pub fn prove_row(&self, table: &str, key: u64) -> Result<StateProof, StoreError> {
        self.prove_rows(table, key, Bound::Included(key)).map(StateProof::Row)
    }

    /// Produces a [`FileProof`] for `path` (presence or absence) against
    /// the current [`Database::state_digest`].
    pub fn prove_file(&self, path: &str) -> StateProof {
        let path = path.to_string();
        StateProof::File(FileProof {
            file: self.fs().files.prove_range(&path, Bound::Included(&path)),
            path,
            tables_root: self.tables_root(),
            table_count: self.table_count() as u32,
        })
    }

    /// Produces a [`StreamProof`] header for the byte range
    /// `[offset, offset + len)` of `path` (presence or absence) against
    /// the current [`Database::state_digest`]: the anchor of a
    /// chunk-by-chunk streamed read, carrying only the chunk-table slice
    /// the range touches.
    pub fn prove_stream(&self, path: &str, offset: u64, len: u64) -> StreamProof {
        let key = path.to_string();
        StreamProof {
            slice: self.fs().manifest(path).map(|m| m.slice(offset, len)),
            file: self.fs().files.prove_range(&key, Bound::Included(&key)),
            path: key,
            tables_root: self.tables_root(),
            table_count: self.table_count() as u32,
        }
    }

    /// Produces the proof of a `ScanRange` — the rows of `table` with
    /// keys in `[start, end)` — against the current
    /// [`Database::state_digest`].  Errors when the table itself does
    /// not exist (an empty range yields a valid zero-row proof instead).
    pub fn prove_scan(&self, table: &str, start: u64, end: u64) -> Result<StateProof, StoreError> {
        self.prove_rows(table, start, Bound::Excluded(end)).map(StateProof::Range)
    }

    fn prove_rows(
        &self,
        table: &str,
        start: u64,
        end: Bound<u64>,
    ) -> Result<TableProof, StoreError> {
        let t = self.table(table)?;
        let name = table.to_string();
        Ok(TableProof {
            range: t.rows.prove_range(&start, end.as_ref()),
            table_len: t.len() as u64,
            table_entry: self.tables.prove_range(&name, Bound::Included(&name)),
            table: name,
            start,
            end,
            table_count: self.table_count() as u32,
            files_digest: self.fs().files_digest(),
        })
    }

    /// Proof machinery for an arbitrary static read; `None` for query
    /// shapes that need pledge+audit (computed queries, the
    /// limit-truncatable legacy `Range` — and `ReadFileRange`, which
    /// streams with its own [`StreamProof`]).
    pub fn prove_query(&self, query: &Query) -> Option<Result<StateProof, StoreError>> {
        match query {
            Query::GetRow { table, key } => Some(self.prove_row(table, *key)),
            Query::ReadFile { path } => Some(Ok(self.prove_file(path))),
            Query::ScanRange { table, start, end } => Some(self.prove_scan(table, *start, *end)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::UpdateOp;

    fn db() -> Database {
        let mut db = Database::new();
        db.apply_write(&[
            UpdateOp::CreateTable {
                table: "t".into(),
                indexes: vec![],
            },
            UpdateOp::Insert {
                table: "t".into(),
                key: 1,
                doc: Document::new().with("v", 10i64),
            },
            UpdateOp::Insert {
                table: "t".into(),
                key: 2,
                doc: Document::new().with("v", 20i64),
            },
            UpdateOp::WriteFile {
                path: "/readme".into(),
                contents: "hello world\n".into(),
            },
        ])
        .unwrap();
        db
    }

    #[test]
    fn row_presence_and_absence_verify() {
        let db = db();
        let digest = db.state_digest();
        let v = db.version();

        let q = Query::GetRow {
            table: "t".into(),
            key: 1,
        };
        let (result, _) = crate::exec::execute(&db, &q).unwrap();
        db.prove_row("t", 1)
            .unwrap()
            .verify_result(&digest, v, &q, &result)
            .unwrap();

        // Absent row: empty result + absence proof.
        let q99 = Query::GetRow {
            table: "t".into(),
            key: 99,
        };
        db.prove_row("t", 99)
            .unwrap()
            .verify_result(&digest, v, &q99, &QueryResult::Rows(vec![]))
            .unwrap();
    }

    #[test]
    fn file_presence_and_absence_verify() {
        let db = db();
        let digest = db.state_digest();
        let v = db.version();
        let q = Query::ReadFile {
            path: "/readme".into(),
        };
        db.prove_file("/readme")
            .verify_result(
                &digest,
                v,
                &q,
                &QueryResult::Text(Some("hello world\n".into())),
            )
            .unwrap();
        let qm = Query::ReadFile {
            path: "/missing".into(),
        };
        db.prove_file("/missing")
            .verify_result(&digest, v, &qm, &QueryResult::Text(None))
            .unwrap();
    }

    #[test]
    fn forged_answers_rejected() {
        let db = db();
        let digest = db.state_digest();
        let v = db.version();
        let q = Query::GetRow {
            table: "t".into(),
            key: 1,
        };
        let proof = db.prove_row("t", 1).unwrap();

        // Wrong document content.
        let forged = QueryResult::Rows(vec![(1, Document::new().with("v", 666i64))]);
        assert_eq!(
            proof.verify_result(&digest, v, &q, &forged),
            Err(ProofError::RootMismatch)
        );
        // Claiming the row is absent.
        assert_eq!(
            proof.verify_result(&digest, v, &q, &QueryResult::Rows(vec![])),
            Err(ProofError::ShapeMismatch)
        );
        // A proof for a different key cannot answer this query.
        let other = db.prove_row("t", 2).unwrap();
        let (result, _) = crate::exec::execute(&db, &q).unwrap();
        assert_eq!(
            other.verify_result(&digest, v, &q, &result),
            Err(ProofError::ShapeMismatch)
        );
        // Wrong version (digest binds it).
        assert_eq!(
            proof.verify_result(&digest, v + 1, &q, &result),
            Err(ProofError::RootMismatch)
        );
    }

    #[test]
    fn proof_goes_stale_after_write() {
        let mut db = db();
        let q = Query::ReadFile {
            path: "/readme".into(),
        };
        let proof = db.prove_file("/readme");
        let old_digest = db.state_digest();
        let old_v = db.version();
        db.apply_write(&[UpdateOp::AppendFile {
            path: "/readme".into(),
            contents: "more\n".into(),
        }])
        .unwrap();
        let result = QueryResult::Text(Some("hello world\n".into()));
        proof
            .verify_result(&old_digest, old_v, &q, &result)
            .unwrap();
        assert!(proof
            .verify_result(&db.state_digest(), db.version(), &q, &result)
            .is_err());
    }

    fn stream_contents(lines: usize) -> String {
        (0..lines).map(|l| format!("entry {l:05} streamed payload\n")).collect()
    }

    #[test]
    fn stream_proof_verifies_chunk_by_chunk() {
        let mut db = db();
        let contents = stream_contents(3_000);
        db.apply_write(&[UpdateOp::WriteFile {
            path: "/stream".into(),
            contents: contents.clone(),
        }])
        .unwrap();
        let digest = db.state_digest();
        let v = db.version();

        let proof = db.prove_stream("/stream", 0, u64::MAX);
        proof.verify_header(&digest, v).unwrap();
        let slice = proof.slice.clone().unwrap();
        assert!(slice.entries.len() > 1, "fixture should be multi-chunk");
        assert_eq!(slice.first, 0);
        assert_eq!(slice.entries.len(), slice.chunk_count as usize);

        // Verify and assemble chunk by chunk — never holding more than
        // one chunk beyond the output buffer.
        let mut assembled = Vec::new();
        for (i, entry) in slice.entries.iter().enumerate() {
            let data = db.fs().chunk_bytes(&entry.id).unwrap().to_vec();
            proof.verify_chunk(i, &data).unwrap();
            assembled.extend_from_slice(&data);
        }
        assert_eq!(String::from_utf8(assembled).unwrap(), contents);
    }

    #[test]
    fn stream_proof_slice_header_covers_only_the_requested_range() {
        let mut db = db();
        let contents = stream_contents(20_000);
        db.apply_write(&[UpdateOp::WriteFile {
            path: "/big".into(),
            contents: contents.clone(),
        }])
        .unwrap();
        let manifest = db.fs().manifest("/big").unwrap().clone();
        assert!(manifest.chunks.len() >= 8, "fixture should be many-chunk");

        // A small read in the middle of the file.
        let offset = manifest.chunk_offset(manifest.chunks.len() / 2) + 10;
        let proof = db.prove_stream("/big", offset, 100);
        proof.verify_header(&db.state_digest(), db.version()).unwrap();
        let slice = proof.slice.as_ref().unwrap();
        assert!(slice.entries.len() <= 2, "small read ships few entries");

        // The slice header is much smaller than a whole-manifest one.
        let whole = db.prove_stream("/big", 0, u64::MAX);
        assert!(proof.wire_len() * 2 < whole.wire_len());

        // The sliced chunks verify at their absolute indexes; others are
        // out of the slice.
        let first = slice.first as usize;
        for (rel, entry) in slice.entries.iter().enumerate() {
            let data = db.fs().chunk_bytes(&entry.id).unwrap();
            proof.verify_chunk(first + rel, data).unwrap();
            assert_eq!(
                slice.entry_start(first + rel),
                Some(manifest.chunk_offset(first + rel))
            );
        }
        assert_eq!(proof.verify_chunk(0, b"x"), Err(ProofError::ShapeMismatch));
    }

    #[test]
    fn stream_proof_rejects_corruption_at_the_corrupted_chunk() {
        let mut db = db();
        db.apply_write(&[UpdateOp::WriteFile {
            path: "/stream".into(),
            contents: stream_contents(3_000),
        }])
        .unwrap();
        let proof = db.prove_stream("/stream", 0, u64::MAX);
        proof.verify_header(&db.state_digest(), db.version()).unwrap();
        let slice = proof.slice.as_ref().unwrap();

        let good0 = db.fs().chunk_bytes(&slice.entries[0].id).unwrap().to_vec();
        let mut bad1 = db.fs().chunk_bytes(&slice.entries[1].id).unwrap().to_vec();
        bad1[7] ^= 0x01;

        proof.verify_chunk(0, &good0).unwrap();
        assert_eq!(proof.verify_chunk(1, &bad1), Err(ProofError::RootMismatch));
        // Wrong length alone is also caught.
        assert_eq!(proof.verify_chunk(0, &good0[..good0.len() - 1]), Err(ProofError::RootMismatch));
        // An index past the slice is a shape error.
        assert_eq!(
            proof.verify_chunk(slice.entries.len(), b"x"),
            Err(ProofError::ShapeMismatch)
        );
        // And a tampered header (extra slice entry) breaks the fold.
        let mut forged = proof.clone();
        let extra = forged.slice.as_ref().unwrap().entries[0];
        forged.slice.as_mut().unwrap().entries.push(extra);
        assert!(forged.verify_header(&db.state_digest(), db.version()).is_err());
    }

    #[test]
    fn stream_proof_absence_for_missing_path() {
        let db = db();
        let proof = db.prove_stream("/missing", 0, u64::MAX);
        assert!(proof.slice.is_none());
        proof.verify_header(&db.state_digest(), db.version()).unwrap();
        // An absent file has no chunks to verify.
        assert_eq!(proof.verify_chunk(0, b"x"), Err(ProofError::ShapeMismatch));
    }

    #[test]
    fn delete_then_absence_proof() {
        let mut db = db();
        db.apply_write(&[UpdateOp::WriteFile {
            path: "/gone".into(),
            contents: stream_contents(500),
        }])
        .unwrap();
        let live = db.prove_stream("/gone", 0, u64::MAX);
        live.verify_header(&db.state_digest(), db.version()).unwrap();

        db.apply_write(&[UpdateOp::DeleteFile { path: "/gone".into() }]).unwrap();
        // The old presence header is stale now...
        assert!(live.verify_header(&db.state_digest(), db.version()).is_err());
        // ...and a fresh proof shows verifiable absence, on the stream
        // path and the point-read path alike.
        let gone = db.prove_stream("/gone", 0, u64::MAX);
        assert!(gone.slice.is_none());
        gone.verify_header(&db.state_digest(), db.version()).unwrap();
        let q = Query::ReadFile { path: "/gone".into() };
        db.prove_file("/gone")
            .verify_result(&db.state_digest(), db.version(), &q, &QueryResult::Text(None))
            .unwrap();
    }

    #[test]
    fn single_chunk_file_proofs() {
        let mut db = db();
        db.apply_write(&[UpdateOp::WriteFile {
            path: "/tiny".into(),
            contents: "just one chunk\n".into(),
        }])
        .unwrap();
        let proof = db.prove_stream("/tiny", 0, u64::MAX);
        proof.verify_header(&db.state_digest(), db.version()).unwrap();
        let slice = proof.slice.as_ref().unwrap();
        assert_eq!(slice.entries.len(), 1);
        proof
            .verify_chunk(0, db.fs().chunk_bytes(&slice.entries[0].id).unwrap())
            .unwrap();
        // The whole-file point proof agrees.
        let q = Query::ReadFile { path: "/tiny".into() };
        db.prove_file("/tiny")
            .verify_result(
                &db.state_digest(),
                db.version(),
                &q,
                &QueryResult::Text(Some("just one chunk\n".into())),
            )
            .unwrap();
    }

    #[test]
    fn range_scan_proof_verifies_and_binds_the_query() {
        let mut db = db();
        // Widen the table so the scan is a real slice of it.
        let ops: Vec<UpdateOp> = (3..50)
            .map(|k| UpdateOp::Insert {
                table: "t".into(),
                key: k,
                doc: Document::new().with("v", (k * 10) as i64),
            })
            .collect();
        db.apply_write(&ops).unwrap();
        let digest = db.state_digest();
        let v = db.version();

        let q = Query::ScanRange {
            table: "t".into(),
            start: 10,
            end: 20,
        };
        let (result, cost) = crate::exec::execute(&db, &q).unwrap();
        assert_eq!(cost.rows_returned, 10);
        let proof = db.prove_scan("t", 10, 20).unwrap();
        proof.verify_result(&digest, v, &q, &result).unwrap();

        // The proof binds the exact bounds: a shifted query fails shape.
        let q2 = Query::ScanRange {
            table: "t".into(),
            start: 10,
            end: 21,
        };
        assert_eq!(
            proof.verify_result(&digest, v, &q2, &result),
            Err(ProofError::ShapeMismatch)
        );

        // Dropping a row (incomplete answer) is caught.
        let QueryResult::Rows(rows) = &result else {
            panic!("rows")
        };
        let mut omitted = rows.clone();
        omitted.remove(4);
        assert!(proof
            .verify_result(&digest, v, &q, &QueryResult::Rows(omitted))
            .is_err());
        // Forging a value is caught.
        let mut forged = rows.clone();
        forged[2].1 = Document::new().with("v", 666i64);
        assert!(proof
            .verify_result(&digest, v, &q, &QueryResult::Rows(forged))
            .is_err());
        // A stale digest is caught.
        assert_eq!(
            proof.verify_result(&digest, v + 1, &q, &result),
            Err(ProofError::RootMismatch)
        );
    }

    #[test]
    fn empty_range_scan_proof_verifies() {
        let db = db();
        let q = Query::ScanRange {
            table: "t".into(),
            start: 100,
            end: 200,
        };
        let (result, _) = crate::exec::execute(&db, &q).unwrap();
        assert_eq!(result.row_count(), 0);
        db.prove_scan("t", 100, 200)
            .unwrap()
            .verify_result(&db.state_digest(), db.version(), &q, &result)
            .unwrap();
        // Scanning a missing table is an error, not a proof.
        assert!(db.prove_scan("nope", 0, 10).is_err());
    }

    #[test]
    fn missing_table_is_an_error_not_a_proof() {
        let db = db();
        assert!(db.prove_row("nope", 1).is_err());
        assert!(db
            .prove_query(&Query::GetRow {
                table: "nope".into(),
                key: 1
            })
            .unwrap()
            .is_err());
        assert!(db
            .prove_query(&Query::ListFiles { prefix: "/".into() })
            .is_none());
    }
}
