//! Criterion benchmarks for the query engine and the persistent store:
//! the relative cost of the paper's read shapes (point reads vs. "very
//! complex" aggregations and greps) on the standard dataset, plus the
//! copy-on-write hot paths (snapshot, clone, incremental digest) on a
//! production-scale 10k-row dataset.

use criterion::{criterion_group, criterion_main, Criterion};
use sdr_core::dataset::DatasetSpec;
use sdr_core::StateDigestStamp;
use sdr_crypto::{Digest, MssSigner, Sha256, Signer};
use sdr_sim::{NodeId, SimTime};
use sdr_store::{
    execute, Aggregate, CmpOp, Database, Document, ExecMemo, LruByteCache, Predicate, Query,
    QueryCache, SnapshotStore, StateProof, UpdateOp,
};
use std::hint::black_box;
use std::sync::Arc;

fn bench_queries(c: &mut Criterion) {
    let db = DatasetSpec::default().build();

    let cases: Vec<(&str, Query)> = vec![
        (
            "get_row",
            Query::GetRow {
                table: "products".into(),
                key: 250,
            },
        ),
        (
            "range_25",
            Query::Range {
                table: "products".into(),
                low: 100,
                high: 125,
                limit: None,
            },
        ),
        (
            "filter_indexed",
            Query::Filter {
                table: "products".into(),
                predicate: Predicate::eq("category", "tools"),
                projection: None,
                limit: None,
            },
        ),
        (
            "filter_scan",
            Query::Filter {
                table: "products".into(),
                predicate: Predicate::cmp("price", CmpOp::Ge, 500i64),
                projection: None,
                limit: None,
            },
        ),
        (
            "aggregate_group_by",
            Query::Aggregate {
                table: "products".into(),
                predicate: Predicate::True,
                agg: Aggregate::Avg("price".into()),
                group_by: Some("category".into()),
            },
        ),
        (
            "join_products_reviews",
            Query::Join {
                left: "products".into(),
                right: "reviews".into(),
                left_field: "id".into(),
                right_field: "product_id".into(),
                predicate: Predicate::cmp("r.stars", CmpOp::Ge, 4i64),
                limit: None,
            },
        ),
        (
            "grep_docs",
            Query::Grep {
                pattern: "error".into(),
                prefix: "/docs".into(),
            },
        ),
        (
            "read_file",
            Query::ReadFile {
                path: "/docs/file-000.log".into(),
            },
        ),
    ];

    let mut group = c.benchmark_group("query");
    for (name, query) in cases {
        group.bench_function(name, |b| {
            b.iter(|| black_box(execute(&db, &query).expect("query ok")))
        });
    }

    // The catalogue's limited shapes on one `churn_mix` shard (25k
    // products, 12.5k reviews indexed on `product_id`): a limited scan
    // stops at its limit and a limited join probes the review index,
    // which the unlimited rows above cannot show.
    let shard = DatasetSpec {
        n_products: 25_000,
        n_reviews: 12_500,
        n_files: 0,
        lines_per_file: 0,
        shared_block_lines: 0,
        hot_fraction: 0.01,
        skew: 0.0,
        seed: 11,
    }
    .build();
    let limited: [(&str, Query); 2] = [
        (
            "filter_scan_limit50",
            Query::Filter {
                table: "products".into(),
                predicate: Predicate::cmp("price", CmpOp::Ge, 450i64)
                    .and(Predicate::cmp("stock", CmpOp::Gt, 0i64)),
                projection: Some(vec!["name".into(), "price".into()]),
                limit: Some(50),
            },
        ),
        (
            "join_limit100",
            Query::Join {
                left: "products".into(),
                right: "reviews".into(),
                left_field: "id".into(),
                right_field: "product_id".into(),
                predicate: Predicate::cmp("r.stars", CmpOp::Ge, 4i64),
                limit: Some(100),
            },
        ),
    ];
    for (name, query) in limited {
        group.bench_function(name, |b| {
            b.iter(|| black_box(execute(&shard, &query).expect("query ok")))
        });
    }
    group.finish();
}

/// The execution memo on the shape most of its hits take: a grouped
/// aggregate over a 25k-row table (one shard of the `churn_100k`
/// catalogue).  A miss executes and admits the result; a hit is the
/// state digest, one key hash and an LRU probe.
fn bench_exec_memo(c: &mut Criterion) {
    let db = DatasetSpec {
        n_products: 25_000,
        n_reviews: 0,
        n_files: 0,
        lines_per_file: 0,
        shared_block_lines: 0,
        hot_fraction: 0.01,
        skew: 0.0,
        seed: 42,
    }
    .build();
    let query = Query::Aggregate {
        table: "products".into(),
        predicate: Predicate::True,
        agg: Aggregate::Avg("price".into()),
        group_by: Some("category".into()),
    };
    let mut group = c.benchmark_group("exec_memo");
    group.bench_function("miss", |b| {
        b.iter(|| black_box(ExecMemo::new().execute(&db, &query).expect("query ok")))
    });
    let memo = ExecMemo::new();
    memo.execute(&db, &query).expect("query ok");
    group.bench_function("hit", |b| {
        b.iter(|| black_box(memo.execute(&db, &query).expect("query ok")))
    });
    group.finish();
}

fn bench_state_digest(c: &mut Criterion) {
    let db = DatasetSpec::default().build();
    c.bench_function("state_digest", |b| b.iter(|| black_box(db.state_digest())));
}

/// A production-scale dataset (10k products, 10k reviews) that the
/// pre-COW store could not run: every write deep-cloned and every digest
/// re-encoded all of it.
fn large_dataset() -> Database {
    DatasetSpec {
        n_products: 10_000,
        n_reviews: 10_000,
        n_files: 100,
        lines_per_file: 20,
        shared_block_lines: 0,
        hot_fraction: 0.01,
        skew: 0.0,
        seed: 42,
    }
    .build()
}

fn point_write(i: u64) -> Vec<UpdateOp> {
    vec![UpdateOp::Update {
        table: "products".into(),
        key: 1 + (i * 7919) % 10_000,
        changes: Document::new().with("price", (i % 997) as i64),
    }]
}

/// The pre-refactor digest cost: linearly re-encode the whole state and
/// hash it (what `state_digest` did before subtree hashes were cached).
fn full_rescan_digest(db: &Database) -> sdr_crypto::Hash256 {
    let mut buf = Vec::with_capacity(1 << 20);
    buf.extend_from_slice(b"sdr/state/v1");
    buf.extend_from_slice(&db.version().to_be_bytes());
    let mut names: Vec<&str> = db.table_names().collect();
    names.sort_unstable();
    for name in names {
        db.table(name).expect("listed").encode_into(&mut buf);
    }
    db.fs().encode_into(&mut buf);
    Sha256::digest(&buf)
}

fn bench_cow_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("cow_10k");
    let mut db = large_dataset();

    // The headline pair: repeated digests after single-row writes.  The
    // incremental path re-hashes O(log n) cached nodes; the rescan path
    // re-encodes all ~20k rows — the acceptance target is >= 10x between
    // them.
    let mut i = 0u64;
    group.bench_function("state_digest_after_point_write", |b| {
        b.iter(|| {
            i += 1;
            db.apply_write(&point_write(i)).expect("applies");
            black_box(db.state_digest())
        })
    });
    group.bench_function("full_rescan_digest_after_point_write", |b| {
        b.iter(|| {
            i += 1;
            db.apply_write(&point_write(i)).expect("applies");
            black_box(full_rescan_digest(&db))
        })
    });

    // Snapshot retention and cloning are O(1) handle copies.
    let mut snaps = SnapshotStore::new(4);
    group.bench_function("snapshot_record", |b| {
        b.iter(|| {
            snaps.record(black_box(&db), None, 0);
        })
    });
    group.bench_function("db_clone", |b| b.iter(|| black_box(db.clone())));

    // A write while snapshots are live: path-copying, not deep-copying.
    let retained = db.clone();
    group.bench_function("point_write_with_live_snapshot", |b| {
        b.iter(|| {
            i += 1;
            db.apply_write(&point_write(i)).expect("applies");
        })
    });
    drop(retained);
    group.finish();
}

/// Authenticated point reads on the 10k-row catalogue: proof generation
/// must reuse the cached subtree hashes (O(log n), microseconds — no
/// full-tree re-hash on the hot path) and verification must fold the
/// same O(log n) path at the client.
fn bench_proofs(c: &mut Criterion) {
    let mut group = c.benchmark_group("proof_10k");
    let db = large_dataset();
    let digest = db.state_digest(); // Warm the subtree-hash caches once.
    let version = db.version();

    let mut k = 0u64;
    group.bench_function("prove_row", |b| {
        b.iter(|| {
            k += 1;
            black_box(db.prove_row("products", 1 + (k * 7919) % 10_000).expect("table"))
        })
    });
    group.bench_function("prove_row_absent", |b| {
        b.iter(|| black_box(db.prove_row("products", 5_000_000).expect("table")))
    });
    group.bench_function("prove_file", |b| {
        b.iter(|| black_box(db.prove_file("/docs/file-042.log")))
    });

    let query = Query::GetRow {
        table: "products".into(),
        key: 4_242,
    };
    let (result, _) = execute(&db, &query).expect("row");
    let proof = db.prove_row("products", 4_242).expect("table");
    group.bench_function("verify_row", |b| {
        b.iter(|| {
            proof
                .verify_result(black_box(&digest), version, &query, &result)
                .expect("verifies")
        })
    });

    // The strawman this path replaces: re-hashing the whole state to
    // check one row (what a client would do with only a signed digest
    // and the raw content).
    group.bench_function("full_state_digest_rebuild", |b| {
        b.iter(|| black_box(full_rescan_digest(&db)))
    });
    group.finish();
}

/// The flash-crowd hot path: the first verified read of a key pays
/// proof generation at the slave plus a real (MSS) digest-stamp
/// signature check and an O(log n) Merkle-path fold at the client.
/// Every repeat read of the same key under the same anchor hits the
/// slave's reply cache (hash the key, probe the LRU) and the client's
/// stamp cache (hash the stamp, probe the LRU), leaving only the
/// per-reply path fold — the acceptance target is >= 5x between them.
fn bench_hot_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_read");
    let db = large_dataset();
    let digest = db.state_digest(); // Warm the subtree-hash caches once.
    let version = db.version();

    // A real hash-based master signature, so the first read pays the
    // verification cost the protocol actually charges for.
    let mut signer = MssSigner::generate([7; 32], 6).expect("keygen");
    let master_key = signer.public_key();
    let stamp = StateDigestStamp::build(version, digest, SimTime::ZERO, NodeId(0), &mut signer)
        .expect("stamp signs");

    let query = Query::GetRow {
        table: "products".into(),
        key: 4_242,
    };
    let (result, _) = execute(&db, &query).expect("row");

    group.bench_function("first_verified_read", |b| {
        b.iter(|| {
            let proof = db.prove_row("products", 4_242).expect("table");
            stamp.verify(black_box(&master_key)).expect("stamp ok");
            proof
                .verify_result(&stamp.digest, stamp.version, &query, &result)
                .expect("verifies")
        })
    });

    // Warm both sides' caches the way the protocol does: the slave
    // memoizes the assembled reply, the client memoizes the verified
    // stamp digest.
    let reply_key = Sha256::digest_parts(&[
        b"sdr/proof-reply/v1",
        &version.to_be_bytes(),
        QueryCache::key(version, &query).as_ref(),
    ]);
    let proof = db.prove_row("products", 4_242).expect("table");
    let mut reply_cache: LruByteCache<Arc<(Query, StateProof)>> = LruByteCache::new(1 << 20);
    reply_cache.put(reply_key, Arc::new((query.clone(), proof)), 1 << 10);
    let stamp_key = Sha256::digest_parts(&[
        b"sdr/stamp-cache/v1",
        &master_key.encode(),
        &stamp.signing_bytes(),
    ]);
    let mut stamp_cache: LruByteCache<()> = LruByteCache::new(64);
    stamp_cache.put(stamp_key, (), 1);

    group.bench_function("repeat_cached_read", |b| {
        b.iter(|| {
            let cached = reply_cache.get(&reply_key).expect("hot key").clone();
            assert!(stamp_cache.get(&stamp_key).is_some());
            cached
                .1
                .verify_result(black_box(&stamp.digest), stamp.version, &cached.0, &result)
                .expect("verifies")
        })
    });
    group.finish();
}

/// The chunked content store on a 10k-line file (~400 KB): appending a
/// line re-chunks only the tail chunk and re-hashes the O(log n)
/// manifest path, while the strawman it replaces rewrites (re-chunks and
/// re-hashes) the whole file — the acceptance target is >= 10x between
/// them.  The dedup write shows a byte-identical copy costing only
/// chunk hashing and refcount bumps, never a second stored copy.
fn bench_chunks(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_10k");

    let mut contents = String::with_capacity(400_000);
    for l in 0..10_000 {
        contents.push_str(&format!("media segment {l:05} payload=0123456789abcdef\n"));
    }
    let mut db = Database::new();
    db.apply_write(&[UpdateOp::WriteFile {
        path: "/media/big.bin".into(),
        contents: contents.clone(),
    }])
    .expect("seed file");

    let mut i = 0u64;
    group.bench_function("append_line_chunked", |b| {
        b.iter(|| {
            i += 1;
            let mut d = db.clone(); // O(1) COW handle copy.
            d.apply_write(&[UpdateOp::AppendFile {
                path: "/media/big.bin".into(),
                contents: format!("appended line {i}\n"),
            }])
            .expect("append applies");
            black_box(d)
        })
    });
    group.bench_function("whole_file_rewrite", |b| {
        b.iter(|| {
            i += 1;
            let mut d = db.clone();
            let rewritten = format!("{contents}appended line {i}\n");
            d.apply_write(&[UpdateOp::WriteFile {
                path: "/media/big.bin".into(),
                contents: rewritten,
            }])
            .expect("rewrite applies");
            black_box(d)
        })
    });
    group.bench_function("dedup_write_identical_copy", |b| {
        b.iter(|| {
            let mut d = db.clone();
            d.apply_write(&[UpdateOp::WriteFile {
                path: "/media/copy.bin".into(),
                contents: contents.clone(),
            }])
            .expect("copy applies");
            black_box(d)
        })
    });
    group.finish();
}

/// Verified range reads on the 10k-row dataset: one O(log n + k) range
/// proof for a 256-row page vs the strawman of 256 point proofs, and
/// the manifest-slice stream header vs shipping the whole chunk table
/// of a 1 MiB file.  Both sides ride the one proof engine: a point
/// proof is the range of one, `[k, k]`, so the strawman measures 256
/// ranges of one against one range of 256.
fn bench_range(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_10k");
    let db = large_dataset();
    let digest = db.state_digest(); // Warm the subtree-hash caches once.
    let version = db.version();
    let (start, end) = (4_000u64, 4_256u64);
    let query = Query::ScanRange {
        table: "products".into(),
        start,
        end,
    };
    let (result, _) = execute(&db, &query).expect("scan");
    let range_proof = db.prove_scan("products", start, end).expect("table");
    let point_proofs: Vec<_> = (start..end)
        .map(|k| {
            let q = Query::GetRow {
                table: "products".into(),
                key: k,
            };
            let (r, _) = execute(&db, &q).expect("row");
            (q, r, db.prove_row("products", k).expect("table"))
        })
        .collect();

    // The headline wire saving: one log-depth skeleton amortised over
    // the whole page vs 256 full paths.  Enforced here so a regression
    // fails the bench run instead of silently drifting in
    // BENCH_store.json.
    let range_bytes = range_proof.wire_len();
    let point_bytes: usize = point_proofs.iter().map(|(_, _, p)| p.wire_len()).sum();
    assert!(
        range_bytes * 5 <= point_bytes,
        "range proof must be >= 5x smaller on the wire: {range_bytes} vs {point_bytes}"
    );

    group.bench_function("prove_scan_256", |b| {
        b.iter(|| black_box(db.prove_scan("products", start, end).expect("table")))
    });
    group.bench_function("verify_scan_256", |b| {
        b.iter(|| {
            range_proof
                .verify_result(black_box(&digest), version, &query, &result)
                .expect("verifies")
        })
    });
    // 256 ranges of one, each a full root-to-row path.
    group.bench_function("verify_256_point_proofs", |b| {
        b.iter(|| {
            for (q, r, p) in &point_proofs {
                p.verify_result(black_box(&digest), version, q, r).expect("verifies")
            }
        })
    });

    // Manifest slice vs whole chunk table on a 1 MiB file: the stream
    // header for a 4 KiB read ships only the covering chunk entries.
    let mut media = Database::new();
    let line = "0123456789abcdef".repeat(4);
    let contents: String = (0..16_384).map(|i| format!("{line}{i:06}\n")).collect();
    assert!(contents.len() > 1 << 20, "media file must exceed 1 MiB");
    media
        .apply_write(&[UpdateOp::WriteFile {
            path: "/media/big.bin".into(),
            contents,
        }])
        .expect("write applies");
    group.bench_function("slice_header_1mib", |b| {
        b.iter(|| black_box(media.prove_stream("/media/big.bin", 512 * 1024, 4_096)))
    });
    group.bench_function("whole_manifest_header_1mib", |b| {
        b.iter(|| black_box(media.prove_stream("/media/big.bin", 0, u64::MAX)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_queries,
    bench_exec_memo,
    bench_state_digest,
    bench_cow_store,
    bench_proofs,
    bench_hot_read,
    bench_chunks,
    bench_range
);
criterion_main!(benches);
