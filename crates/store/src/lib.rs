//! The replicated data content substrate.
//!
//! The paper's system replicates "a database, the contents of a large Web
//! site, or a file system" and must support reads that are "very complex;
//! they can request parts of the data content, but also the results of
//! applying aggregation functions on this content … not only operations of
//! the type `read FileName`, but also operations of the type `grep
//! Expression Path`" (Section 2).
//!
//! This crate implements exactly that content model:
//!
//! * [`value`] / [`document`] — typed field values and records;
//! * [`pmap`] — the persistent (copy-on-write) ordered map every
//!   container is built on: O(1) clone, path-copying writes, and cached
//!   Merkle subtree digests;
//! * [`table`] — tables with a primary key and secondary indexes;
//! * [`database`] — the named-table + file-system container, with the
//!   `content_version` counter and an incrementally maintained
//!   whole-state digest;
//! * [`chunk`] — the content-defined chunker and content-addressed,
//!   refcounted chunk store (dedup across files, O(chunk) appends);
//! * [`fsview`] — the file-system flavoured content (`read`, `grep`),
//!   built on per-file chunk manifests over the shared chunk store;
//! * [`predicate`] / [`pattern`] — filter expressions and the from-scratch
//!   glob/substring matcher that powers grep;
//! * [`query`] — the query AST (point reads, ranges, filters, grep,
//!   aggregations with group-by, joins);
//! * [`exec`] — the executor, which returns both the result and a
//!   [`exec::QueryCost`] so the simulator can charge realistic work;
//! * [`update`] — deterministic write operations;
//! * [`cache`] — the execution memo every replica of a deployment shares
//!   (each computed query runs once per state digest), the auditor's
//!   `(version, query)` cache (its main optimisation in Section 3.4) and
//!   the slave's byte-budgeted reply cache;
//! * [`snapshot`] — versioned snapshots, each with the ops that produced
//!   it, enabling the delayed-discovery rollback of Section 3.5 and
//!   slave catch-up replays (O(1) per version thanks to structural
//!   sharing);
//! * [`proof`] — authenticated static reads: one range-proof engine over
//!   the persistent trees (a point read is the range of one), chained up
//!   to [`Database::state_digest`] — presence, absence and completeness
//!   alike.
//!
//! Everything is deterministic: canonical byte encodings make result hashes
//! reproducible across masters, slaves, and the auditor, and the
//! persistent trees are history-independent so equal content always
//! yields equal digests.
//!
//! # The two read paths
//!
//! The protocol layer (`sdr-core`) serves reads in one of two ways, and
//! this crate supplies the substrate for both:
//!
//! * **Pledge + audit** (computed queries — filters, aggregates, joins,
//!   grep): the slave executes and signs a pledge over the result hash;
//!   correctness is *probabilistic and after the fact* — a lie survives
//!   until a double-check or the auditor's re-execution catches it.
//!   Per-read cost: one result hash for the client, one re-execution for
//!   the auditor.
//! * **Proof-verified** (static reads — `GetRow`, `ReadFile`,
//!   `ScanRange`): the slave attaches a [`proof::StateProof`] anchored in
//!   a master-signed state digest.  Correctness is *deterministic and
//!   immediate*: the client verifies O(log n + k) hashes and needs no
//!   auditor, no double-check, and no trust in the slave at all.
//!   Per point read: ~70 proof bytes per tree level on the wire (a key,
//!   a value commitment and one sibling hash) and O(log n) hashes at
//!   both ends — no trusted-party work whatsoever.
//!
//! Streamed file reads (`ReadFileRange`) extend the proof-verified
//! path to large files: the slave sends one [`proof::StreamProof`]
//! header (Merkle path from the file's chunk *manifest* to the signed
//! digest) and then raw chunks; the client verifies each chunk against
//! the manifest as it arrives, so corruption is caught at the offending
//! chunk without ever buffering the whole file.
//!
//! # Cost model
//!
//! With `n` rows/files and point writes touching one entry:
//!
//! | operation                        | cost                            |
//! |----------------------------------|---------------------------------|
//! | `Database::clone` / snapshot     | O(1)                            |
//! | `apply_write` (per touched row)  | O(log n) node copies            |
//! | failed-batch rollback            | O(1) (restore pre-write handle) |
//! | `state_digest` after a write     | O(log n) re-hashed nodes        |
//! | `state_digest`, nothing changed  | O(1)                            |
//! | `prove_row` / `prove_file`       | O(log n) (cached subtree hashes)|
//! | point verification (client side) | O(log n) hashes                 |
//!
//! Every static read is one [`proof::TableProof`] or
//! [`proof::FileProof`] over the same engine, a [`pmap::RangeProof`]: a
//! pruned treap skeleton whose subtrees outside the key range collapse
//! to cached hashes and whose in-range rows are rebuilt from the claimed
//! answer, so the proof attests membership *and* completeness —
//! omitting any row changes the recomputed root.  A point read proves
//! `[key, key]`; a range read (`ScanRange`, half-open `[start, end)`
//! over `k` rows) proves its range in one skeleton:
//!
//! | operation                           | cost                              |
//! |-------------------------------------|-----------------------------------|
//! | `k` point reads, proved one by one  | O(k log n) hashes, ~`k·depth×70` B|
//! | `prove_scan` / range verify         | O(log n + k) hashes               |
//! | range proof on the wire             | O(log n) skeleton + O(k) rows     |
//! | cross-shard stitched scan (s shards)| s range proofs, one per sub-range |
//!
//! A scan crossing shard boundaries is split at them by the client,
//! each piece verified against its own shard's signed digest stamp,
//! and stitched only if the verified pieces tile `[start, end)`
//! exactly — so a stitched scan is exactly as strong as its weakest
//! piece, and one Byzantine shard replica cannot corrupt, truncate, or
//! pad the merged answer.
//!
//! File content is chunked (content-defined, ~1.25 KiB average) into a
//! shared content-addressed store; with `c` chunks per file and `b`
//! bytes written:
//!
//! | operation                          | cost                              |
//! |------------------------------------|-----------------------------------|
//! | chunked `WriteFile`                | O(b) hash + O(log n) tree copies  |
//! | chunked `AppendFile`               | O(appended + tail chunk), not O(b)|
//! | duplicate content across files     | stored once (refcounted)          |
//! | `prove_stream` (header)            | O(c) build; wire is the *slice*:  |
//! |                                    | covering entries + O(log c) path  |
//! | stream verify (client, per chunk)  | O(chunk) hash, O(1) memory        |
//!
//! # Commit rounds
//!
//! One [`Database::apply_write`] call is one atomic commit: the whole
//! op slice applies or none of it does (any failing op restores the
//! pre-write handle in O(1) — structural sharing makes the backup a
//! pointer copy, not a deep clone), and success bumps
//! `content_version` by exactly one.  The protocol layer
//! (`sdr-core`) builds its *commit rounds* directly on this contract:
//! a sequencer packs one or more client writes into one ordered round
//! and every replica applies them as consecutive `apply_write` calls —
//! `n` writes advance the version by exactly `n`, a failed write rolls
//! back alone without disturbing its neighbours, and the incremental
//! [`Database::state_digest`] stays O(log n) per commit, so
//! re-digesting after every write in a round costs far less than one
//! signature.  That is what lets a single master-signed digest stamp
//! anchor the round's final version (and every static-read [`proof`]
//! served against it) instead of one stamp per write.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chunk;
pub mod database;
pub mod document;
pub mod error;
pub mod exec;
pub mod fsview;
pub mod pattern;
pub mod pmap;
pub mod predicate;
pub mod proof;
pub mod query;
pub mod snapshot;
pub mod table;
pub mod update;
pub mod value;

pub use cache::{ExecMemo, ExecMemoStats, LruByteCache, QueryCache, EXEC_MEMO_BUDGET};
pub use chunk::{ChunkId, ChunkStats, ChunkStore, FileManifest, ManifestEntry};
pub use database::{digest_from_parts, Database};
pub use document::Document;
pub use error::StoreError;
pub use exec::{execute, QueryCost};
pub use fsview::FsView;
pub use pattern::Pattern;
pub use pmap::{MerkleContent, NodeStats, PMap, ProofError, RangeProof};
pub use predicate::{CmpOp, Predicate};
pub use proof::{FileProof, StateProof, StreamProof, TableProof};
pub use query::{Aggregate, Query, QueryResult};
pub use snapshot::{Snapshot, SnapshotStore};
pub use table::Table;
pub use update::UpdateOp;
pub use value::Value;
