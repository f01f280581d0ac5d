//! Property-based tests for the store: ordering, encoding, index/scan
//! equivalence, the computed-query plans against a reference executor,
//! pattern matching, write atomicity, and the proof engine under
//! mutation.

use proptest::prelude::*;
use sdr_crypto::Hash256;
use sdr_store::pmap::RangeNode;
use sdr_store::{
    execute, Aggregate, CmpOp, Database, Document, PMap, Pattern, Predicate, Query, QueryCost,
    QueryResult, RangeProof, StateProof, StoreError, Table, UpdateOp, Value,
};
use std::collections::BTreeMap;
use std::ops::Bound;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-z]{0,12}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Bytes),
    ]
}

proptest! {
    /// The value order is a total order: antisymmetric and transitive on
    /// sampled triples, and consistent with equality.
    #[test]
    fn value_order_is_total(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        match a.cmp(&b) {
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => prop_assert_eq!(b.cmp(&a), Ordering::Equal),
        }
        // Transitivity.
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
    }

    /// Canonical encodings are injective over generated values: equal
    /// encodings imply equal values and vice versa.
    #[test]
    fn value_encoding_injective(a in arb_value(), b in arb_value()) {
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode_into(&mut ea);
        b.encode_into(&mut eb);
        prop_assert_eq!(ea == eb, a == b);
    }

    /// An escaped literal pattern matches exactly its own text.
    #[test]
    fn escaped_pattern_matches_itself(text in "[a-zA-Z0-9 *?\\[\\]]{0,24}") {
        let escaped: String = text
            .chars()
            .flat_map(|c| match c {
                '*' | '?' | '[' | ']' | '\\' => vec!['\\', c],
                _ => vec![c],
            })
            .collect();
        let pat = Pattern::compile(&escaped).expect("escape always compiles");
        prop_assert!(pat.matches(&text));
    }

    /// `search` is equivalent to an unanchored match: a pattern found by
    /// search is matched by `*pat*`.
    #[test]
    fn search_equals_star_wrapped_match(
        needle in "[a-z]{1,6}",
        hay in "[a-z ]{0,40}",
    ) {
        let plain = Pattern::compile(&needle).expect("compiles");
        let wrapped = Pattern::compile(&format!("*{needle}*")).expect("compiles");
        prop_assert_eq!(plain.search(&hay), wrapped.matches(&hay));
        // And search agrees with plain substring search for literals.
        prop_assert_eq!(plain.search(&hay), hay.contains(&needle));
    }

    /// Index-accelerated filters return exactly what a full scan returns.
    #[test]
    fn index_equals_scan(
        rows in proptest::collection::vec(("[a-c]", 0i64..20), 1..40),
        probe in "[a-c]",
    ) {
        let mut indexed = Database::new();
        indexed.create_table("t").expect("fresh");
        indexed.table_mut("t").expect("t").create_index("cat");
        let mut plain = Database::new();
        plain.create_table("t").expect("fresh");

        for (i, (cat, v)) in rows.iter().enumerate() {
            let doc = Document::new().with("cat", cat.as_str()).with("v", *v);
            indexed.table_mut("t").expect("t").insert(i as u64, doc.clone()).expect("unique");
            plain.table_mut("t").expect("t").insert(i as u64, doc).expect("unique");
        }

        let q = Query::Filter {
            table: "t".into(),
            predicate: Predicate::eq("cat", probe.as_str()),
            projection: None,
            limit: None,
        };
        let (ri, ci) = execute(&indexed, &q).expect("ok");
        let (rs, cs) = execute(&plain, &q).expect("ok");
        prop_assert_eq!(ri.sha1(), rs.sha1(), "index and scan disagree");
        // The indexed path must not scan.
        prop_assert_eq!(ci.rows_scanned, 0);
        prop_assert!(cs.rows_scanned as usize == rows.len());
    }

    /// A failing batch leaves the database untouched (atomicity).
    #[test]
    fn failed_batch_is_atomic(
        keys in proptest::collection::vec(0u64..10, 1..6),
        dup in 0u64..10,
    ) {
        let mut db = Database::new();
        db.create_table("t").expect("fresh");
        db.table_mut("t").expect("t").insert(dup, Document::new()).expect("unique");
        let before = db.state_digest();

        // Build a batch that inserts `keys` then re-inserts `dup` (fails).
        let mut ops: Vec<UpdateOp> = keys
            .iter()
            .filter(|k| **k != dup)
            .enumerate()
            .map(|(i, _)| UpdateOp::Insert {
                table: "t".into(),
                key: 100 + i as u64,
                doc: Document::new(),
            })
            .collect();
        ops.push(UpdateOp::Insert {
            table: "t".into(),
            key: dup,
            doc: Document::new(),
        });
        prop_assert!(db.apply_write(&ops).is_err());
        prop_assert_eq!(db.state_digest(), before);
    }

    /// Executing the same query twice yields byte-identical results.
    #[test]
    fn execution_is_deterministic(
        rows in proptest::collection::vec((0i64..100, "[a-d]"), 0..30),
        low in 0u64..20,
        span in 0u64..20,
    ) {
        let mut db = Database::new();
        db.create_table("t").expect("fresh");
        for (i, (v, c)) in rows.iter().enumerate() {
            db.table_mut("t")
                .expect("t")
                .insert(i as u64, Document::new().with("v", *v).with("c", c.as_str()))
                .expect("unique");
        }
        let queries = [
            Query::Range { table: "t".into(), low, high: low + span, limit: None },
            Query::Aggregate {
                table: "t".into(),
                predicate: Predicate::cmp("v", CmpOp::Ge, 50i64),
                agg: sdr_store::Aggregate::Count,
                group_by: Some("c".into()),
            },
        ];
        for q in &queries {
            let (r1, _) = execute(&db, q).expect("ok");
            let (r2, _) = execute(&db, q).expect("ok");
            prop_assert_eq!(r1.sha1(), r2.sha1());
        }
    }

    /// Result encodings are stable across clones and distinguish results.
    #[test]
    fn result_hash_distinguishes(a in 0i64..1000, b in 0i64..1000) {
        let ra = QueryResult::Scalar(Value::Int(a));
        let rb = QueryResult::Scalar(Value::Int(b));
        prop_assert_eq!(ra.sha1() == rb.sha1(), a == b);
    }

    /// The persistent map agrees with a `BTreeMap` model under arbitrary
    /// op sequences, its digest is a pure function of content (rebuild
    /// oracle), and snapshots taken mid-stream stay frozen.
    #[test]
    fn pmap_matches_model_and_digest_is_content_pure(
        ops in proptest::collection::vec((0u64..48, "[a-z]{0,6}", any::<bool>()), 1..80),
    ) {
        type Snapshot = (PMap<u64, String>, Vec<(u64, String)>);
        let mut map: PMap<u64, String> = PMap::new();
        let mut model: BTreeMap<u64, String> = BTreeMap::new();
        let mut snapshots: Vec<Snapshot> = Vec::new();

        for (i, (key, val, is_remove)) in ops.iter().enumerate() {
            if *is_remove {
                prop_assert_eq!(map.remove(key), model.remove(key));
            } else {
                prop_assert_eq!(
                    map.insert(*key, val.clone()),
                    model.insert(*key, val.clone())
                );
            }
            prop_assert_eq!(map.len(), model.len());
            if i.is_multiple_of(13) {
                snapshots.push((
                    map.clone(),
                    model.iter().map(|(k, v)| (*k, v.clone())).collect(),
                ));
            }
        }

        // Content agreement, in order.
        let got: Vec<(u64, String)> = map.iter().map(|(k, v)| (*k, v.clone())).collect();
        let want: Vec<(u64, String)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        prop_assert_eq!(&got, &want);

        // Digest oracle: a map rebuilt from scratch out of the final
        // content (fresh nodes, cold caches) digests identically, and the
        // cache agrees with a cache-free recomputation.
        let mut rebuilt: PMap<u64, String> = PMap::new();
        for (k, v) in &want {
            rebuilt.insert(*k, v.clone());
        }
        prop_assert_eq!(map.root_hash(), rebuilt.root_hash());
        prop_assert_eq!(map.root_hash(), map.root_hash_uncached());

        // Snapshots still hold exactly the content they captured.
        for (snap, content) in snapshots {
            let snap_got: Vec<(u64, String)> =
                snap.iter().map(|(k, v)| (*k, v.clone())).collect();
            prop_assert_eq!(&snap_got, &content);
            prop_assert_eq!(snap.root_hash(), snap.root_hash_uncached());
        }
    }

    /// Proof oracle: after an arbitrary edit sequence, point proofs (the
    /// range of one, `[key, key]`) agree with `root_hash` for every
    /// probed key — present keys verify with exactly their current value
    /// (and nothing else), absent keys verify as absent (and not as
    /// present), and no proof survives a subsequent mutation of the map.
    #[test]
    fn pmap_proofs_agree_with_root_hash_on_random_edits(
        ops in proptest::collection::vec((0u64..48, "[a-z]{0,6}", any::<bool>()), 1..80),
        probes in proptest::collection::vec(0u64..64, 1..12),
    ) {
        let mut map: PMap<u64, String> = PMap::new();
        let mut model: BTreeMap<u64, String> = BTreeMap::new();
        for (key, val, is_remove) in &ops {
            if *is_remove {
                map.remove(key);
                model.remove(key);
            } else {
                map.insert(*key, val.clone());
                model.insert(*key, val.clone());
            }
        }
        let root = map.root_hash();
        let point = |map: &PMap<u64, String>, key: &u64| map.prove_range(key, Bound::Included(key));
        let claim = |key: &u64, val: Option<&str>| -> Vec<(u64, String)> {
            val.map(|v| (*key, v.to_string())).into_iter().collect()
        };
        let verify = |proof: &RangeProof<u64>, root, key: &u64, val: Option<&str>| {
            proof.verify(root, key, Bound::Included(key), &claim(key, val))
        };
        for key in &probes {
            let proof = point(&map, key);
            match model.get(key) {
                Some(val) => {
                    verify(&proof, &root, key, Some(val))
                        .unwrap_or_else(|e| panic!("key {key}: {e}"));
                    // Only the true value verifies.
                    prop_assert!(verify(&proof, &root, key, Some("forged-x")).is_err());
                    prop_assert!(verify(&proof, &root, key, None).is_err());
                }
                None => {
                    verify(&proof, &root, key, None)
                        .unwrap_or_else(|e| panic!("absent {key}: {e}"));
                    prop_assert!(verify(&proof, &root, key, Some("ghost")).is_err());
                }
            }
        }
        // A mutation invalidates proofs against the new root.
        let probe = probes[0];
        let proof = point(&map, &probe);
        map.insert(63, "post-proof".into());
        let claimed = model.get(&probe).map(String::as_str);
        prop_assert!(verify(&proof, &map.root_hash(), &probe, claimed).is_err() || probe == 63);
    }

    /// Database digests are a pure function of content across interleaved
    /// snapshots, rolled-back batches, and shared structure.
    #[test]
    fn state_digest_survives_cow_sharing_and_rollbacks(
        writes in proptest::collection::vec(
            proptest::collection::vec((0u64..32, -100i64..100), 1..4),
            1..12,
        ),
    ) {
        let setup = UpdateOp::CreateTable { table: "t".into(), indexes: vec!["v".into()] };
        let mut plain = Database::new();
        plain.apply_write(std::slice::from_ref(&setup)).expect("schema");
        let mut cow = Database::new();
        cow.apply_write(std::slice::from_ref(&setup)).expect("schema");

        let mut retained = Vec::new();
        for batch in &writes {
            let ops: Vec<UpdateOp> = batch
                .iter()
                .map(|(k, v)| UpdateOp::Upsert {
                    table: "t".into(),
                    key: *k,
                    doc: Document::new().with("v", *v),
                })
                .collect();
            // The cow copy takes a snapshot before every batch and
            // suffers a failing batch (rolled back via the pre-write
            // handle) between real ones.
            retained.push((cow.clone(), cow.state_digest()));
            let mut poisoned = ops.clone();
            poisoned.push(UpdateOp::Insert {
                table: "missing".into(),
                key: 0,
                doc: Document::new(),
            });
            prop_assert!(cow.apply_write(&poisoned).is_err());
            plain.apply_write(&ops).expect("applies");
            cow.apply_write(&ops).expect("applies");
            prop_assert_eq!(plain.state_digest(), cow.state_digest());
        }
        // Every snapshot kept its digest despite all the sharing.
        for (snap, digest) in retained {
            prop_assert_eq!(snap.state_digest(), digest);
        }
    }

    /// Chunking round-trip oracle: the content-defined spans partition
    /// the input exactly (contiguous, in-bounds, reassembling to the
    /// original), chunk sizes respect the configured bounds, and the
    /// fsview built on the chunk store reads back byte-identical
    /// content through both the whole-file and ranged paths.
    #[test]
    fn chunking_reassembles_and_fsview_round_trips(
        contents in "[a-zA-Z0-9 \n]{0,12000}",
        tail in "[a-z\n]{0,3000}",
        offset in 0u64..16_000,
        len in 0u64..8_000,
    ) {
        use sdr_store::chunk::{chunk_spans, MAX_CHUNK, MIN_CHUNK};

        let data = contents.as_bytes();
        let spans = chunk_spans(data);
        // Exact partition: contiguous from 0 to len.
        let mut expect_start = 0;
        for &(start, end) in &spans {
            prop_assert_eq!(start, expect_start);
            prop_assert!(end > start);
            expect_start = end;
        }
        prop_assert_eq!(expect_start, data.len());
        if data.is_empty() {
            prop_assert!(spans.is_empty());
        }
        // Size bounds: every chunk but the last is >= MIN_CHUNK (the
        // tail may be short); none exceeds MAX_CHUNK.
        for (i, &(start, end)) in spans.iter().enumerate() {
            prop_assert!(end - start <= MAX_CHUNK);
            if i + 1 < spans.len() {
                prop_assert!(end - start >= MIN_CHUNK);
            }
        }

        // Fsview oracle: write + append reads back as the plain string
        // concatenation, whole and by range.
        let mut db = Database::new();
        db.apply_write(&[
            UpdateOp::WriteFile { path: "/f".into(), contents: contents.clone() },
            UpdateOp::AppendFile { path: "/f".into(), contents: tail.clone() },
        ])
        .expect("writes apply");
        let full = format!("{contents}{tail}");
        prop_assert_eq!(db.fs().read("/f").as_deref(), Some(full.as_str()));
        let lo = (offset as usize).min(full.len());
        let hi = lo.saturating_add(len as usize).min(full.len());
        prop_assert_eq!(
            db.fs().read_range("/f", offset, len).as_deref(),
            Some(&full[lo..hi])
        );
    }
}

proptest! {
    /// Range-proof oracle: for a random map and random `[start, end)`,
    /// `prove_range` verifies against exactly the `iter_from`-truncated
    /// contents, every row it covers also verifies as a range of one,
    /// and any single mutation of the claimed rows — omission, forged
    /// value, duplication, or key shift — is rejected.
    #[test]
    fn range_proof_matches_point_proofs_and_rejects_mutations(
        pairs in proptest::collection::vec((0u64..64, "[a-z]{0,8}"), 0..40),
        a in 0u64..70,
        b in 0u64..70,
    ) {
        use sdr_store::PMap;

        let (start, end) = if a <= b { (a, b) } else { (b, a) };
        let entries: BTreeMap<u64, String> = pairs.into_iter().collect();
        let mut m: PMap<u64, String> = PMap::new();
        for (k, v) in &entries {
            m.insert(*k, v.clone());
        }
        let root = m.root_hash();

        // The honest answer: `iter_from` truncated at `end`.
        let rows: Vec<(u64, String)> = m
            .iter_from(&start)
            .take_while(|(k, _)| **k < end)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
        let expect: Vec<u64> =
            entries.keys().copied().filter(|k| (start..end).contains(k)).collect();
        prop_assert_eq!(&keys, &expect, "iter_from truncation disagrees with the oracle");

        let end_bound = Bound::Excluded(&end);
        let proof = m.prove_range(&start, end_bound);
        prop_assert!(proof.verify(&root, &start, end_bound, &rows).is_ok());

        // Every covered row's range of one verifies too (range ⇔ points).
        for row in &rows {
            let one = m.prove_range(&row.0, Bound::Included(&row.0));
            let point = Bound::Included(&row.0);
            prop_assert!(one.verify(&root, &row.0, point, std::slice::from_ref(row)).is_ok());
        }

        if rows.is_empty() {
            // Claiming a row where the range is provably empty must die.
            if start < end {
                let phantom = vec![(start, "phantom".to_string())];
                prop_assert!(proof.verify(&root, &start, end_bound, &phantom).is_err());
            }
        } else {
            let i = rows.len() / 2;
            let mut dropped = rows.clone();
            dropped.remove(i);
            prop_assert!(
                proof.verify(&root, &start, end_bound, &dropped).is_err(),
                "omitting a row must break completeness"
            );
            let mut altered = rows.clone();
            altered[i].1.push('!');
            prop_assert!(proof.verify(&root, &start, end_bound, &altered).is_err());
            let mut doubled = rows.clone();
            let dup = doubled[i].clone();
            doubled.insert(i, dup);
            prop_assert!(proof.verify(&root, &start, end_bound, &doubled).is_err());
            let mut shifted = rows.clone();
            shifted[i].0 = shifted[i].0.wrapping_add(1);
            prop_assert!(proof.verify(&root, &start, end_bound, &shifted).is_err());
        }
    }
}

/// One change to an honest proof, or to the answer it proves.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// Flip a byte of a `Pruned` subtree hash.
    PrunedByte,
    /// Move a `Path` key to its lower neighbour.
    KeyDown,
    /// Move a `Path` key to its upper neighbour.
    KeyUp,
    /// Switch a `Path` node's `value_commitment` `Some` ↔ `None`.
    FlipCommitment,
    /// Raise an `InRange` count by one.
    CountUp,
    /// Lower an `InRange` count by one.
    CountDown,
    /// Replace a `Path` node (and its subtree) by `Empty`.
    PathToEmpty,
    /// Present another read's proof and answer for this read.
    ForeignProof,
    /// Omission: collapse a rows-skeleton `Path` subtree to its true
    /// hash and drop its rows from the answer.
    HideSubtree,
    /// Padding: collapse a rows-skeleton `Path` subtree to `InRange`
    /// and put all its rows in the answer.
    PadSubtree,
    DropRow,
    DuplicateRow,
    AlterRow,
    ShiftKey,
    PhantomRow,
    ToggleText,
    AlterText,
}

const MUTATIONS: [Mutation; 17] = [
    Mutation::PrunedByte,
    Mutation::KeyDown,
    Mutation::KeyUp,
    Mutation::FlipCommitment,
    Mutation::CountUp,
    Mutation::CountDown,
    Mutation::PathToEmpty,
    Mutation::ForeignProof,
    Mutation::HideSubtree,
    Mutation::PadSubtree,
    Mutation::DropRow,
    Mutation::DuplicateRow,
    Mutation::AlterRow,
    Mutation::ShiftKey,
    Mutation::PhantomRow,
    Mutation::ToggleText,
    Mutation::AlterText,
];

/// Skeleton keys the corpus can move to a neighbouring key.
trait Nudge {
    fn nudge(&self, up: bool) -> Self;
}

impl Nudge for u64 {
    fn nudge(&self, up: bool) -> Self {
        if up {
            self.wrapping_add(1)
        } else {
            self.wrapping_sub(1)
        }
    }
}

impl Nudge for String {
    fn nudge(&self, up: bool) -> Self {
        let mut s = self.clone();
        if up {
            s.push('\0'); // the immediate successor
        } else {
            s.pop(); // a prefix: below, and often adjacent
        }
        s
    }
}

/// Whether `m` changes `node` itself.
fn applies<K>(m: Mutation, node: &RangeNode<K>) -> bool {
    use Mutation::*;
    matches!(
        (m, node),
        (PrunedByte, RangeNode::Pruned(_))
            | (
                KeyDown | KeyUp | FlipCommitment | PathToEmpty | HideSubtree | PadSubtree,
                RangeNode::Path { .. }
            )
            | (CountUp | CountDown, RangeNode::InRange { .. })
    )
}

/// Number of skeleton nodes `m` can change.
fn sites<K>(node: &RangeNode<K>, m: Mutation) -> usize {
    let own = usize::from(applies(m, node));
    match node {
        RangeNode::Path { left, right, .. } => own + sites(left, m) + sites(right, m),
        _ => own,
    }
}

/// Applies `m` to the `nth` node it can change, in pre-order.
fn mutate_node<K: Nudge>(node: &mut RangeNode<K>, m: Mutation, nth: &mut usize) -> bool {
    if applies(m, node) {
        if *nth > 0 {
            *nth -= 1;
        } else {
            match (m, &mut *node) {
                (Mutation::PathToEmpty, _) => *node = RangeNode::Empty,
                (_, RangeNode::Pruned(h)) => h.0[0] ^= 1,
                (Mutation::CountUp, RangeNode::InRange { count }) => *count += 1,
                (_, RangeNode::InRange { count }) => *count -= 1,
                (Mutation::FlipCommitment, RangeNode::Path { value_commitment, .. }) => {
                    *value_commitment = match value_commitment {
                        Some(_) => None,
                        None => Some(Hash256([7; 32])),
                    }
                }
                (_, RangeNode::Path { key, .. }) => *key = key.nudge(matches!(m, Mutation::KeyUp)),
                (_, RangeNode::Empty) => unreachable!("no mutation applies to Empty"),
            }
            return true;
        }
    }
    match node {
        RangeNode::Path { left, right, .. } => {
            mutate_node(left, m, nth) || mutate_node(right, m, nth)
        }
        _ => false,
    }
}

/// Applies `m` at the site of the proof's skeletons that `pick` selects.
fn mutate_proof(proof: &mut StateProof, m: Mutation, pick: u64) -> bool {
    match proof {
        StateProof::Row(p) | StateProof::Range(p) => {
            let (rows, entry) = (sites(&p.range.root, m), sites(&p.table_entry.root, m));
            if rows + entry == 0 {
                return false;
            }
            let mut nth = (pick % (rows + entry) as u64) as usize;
            if nth < rows {
                mutate_node(&mut p.range.root, m, &mut nth)
            } else {
                nth -= rows;
                mutate_node(&mut p.table_entry.root, m, &mut nth)
            }
        }
        StateProof::File(p) => {
            let n = sites(&p.file.root, m);
            n > 0 && mutate_node(&mut p.file.root, m, &mut ((pick % n as u64) as usize))
        }
    }
}

/// Omission (`hide`) or padding on the `nth` `Path` node of a rows
/// skeleton: the node becomes `Pruned` with its subtree's true hash and
/// the rows under it leave the answer, or it becomes `InRange` and every
/// row under it joins the answer.  A treap's shape is a function of its
/// key set, so the subtree within BST bounds `(lo, hi)` is the map of
/// exactly the table's rows in `(lo, hi)`.
fn collapse_subtree(
    node: &mut RangeNode<u64>,
    (lo, hi): (Option<u64>, Option<u64>),
    nth: &mut usize,
    (table, hide): (&Table, bool),
    rows: &mut Vec<(u64, Document)>,
) -> bool {
    let RangeNode::Path { key, left, right, .. } = node else {
        return false;
    };
    if *nth > 0 {
        *nth -= 1;
        let k = *key;
        return collapse_subtree(left, (lo, Some(k)), nth, (table, hide), rows)
            || collapse_subtree(right, (Some(k), hi), nth, (table, hide), rows);
    }
    let inside = |k: u64| lo.is_none_or(|l| k > l) && hi.is_none_or(|h| k < h);
    let under: Vec<(u64, Document)> =
        table.iter().filter(|(k, _)| inside(*k)).map(|(k, d)| (k, d.clone())).collect();
    rows.retain(|(k, _)| !inside(*k));
    if hide {
        let mut subtree = PMap::new();
        for (k, doc) in under {
            subtree.insert(k, doc);
        }
        *node = RangeNode::Pruned(subtree.root_hash());
    } else {
        *node = RangeNode::InRange { count: under.len() as u32 };
        rows.extend(under);
        rows.sort_by_key(|r| r.0);
    }
    true
}

/// Applies `HideSubtree` or `PadSubtree` to a rows proof and its answer,
/// at the `Path` node `pick` selects.
fn collapse_rows(
    db: &Database,
    proof: &mut StateProof,
    answer: &mut QueryResult,
    m: Mutation,
    pick: u64,
) -> bool {
    let (StateProof::Row(p) | StateProof::Range(p), QueryResult::Rows(rows)) = (proof, answer)
    else {
        return false;
    };
    let n = sites(&p.range.root, m);
    if n == 0 {
        return false;
    }
    let table = db.table(&p.table).expect("proved tables exist");
    let attack = (table, matches!(m, Mutation::HideSubtree));
    let mut nth = (pick % n as u64) as usize;
    collapse_subtree(&mut p.range.root, (None, None), &mut nth, attack, rows)
}

/// Applies `m` to the claimed answer, at the row `pick` selects.
fn mutate_answer(result: &mut QueryResult, m: Mutation, pick: u64) -> bool {
    match (result, m) {
        (QueryResult::Rows(rows), Mutation::PhantomRow) => {
            let i = rows.partition_point(|r| r.0 < pick);
            if rows.get(i).is_some_and(|r| r.0 == pick) {
                return false;
            }
            rows.insert(i, (pick, Document::new()));
        }
        (QueryResult::Rows(rows), _) if rows.is_empty() => return false,
        (QueryResult::Rows(rows), m) => {
            let i = (pick % rows.len() as u64) as usize;
            match m {
                Mutation::DropRow => drop(rows.remove(i)),
                Mutation::DuplicateRow => rows.insert(i, rows[i].clone()),
                Mutation::AlterRow => drop(rows[i].1.set("v", 999i64)),
                Mutation::ShiftKey => rows[i].0 = rows[i].0.nudge(pick & 1 == 0),
                _ => return false,
            }
        }
        (QueryResult::Text(text), Mutation::ToggleText) => {
            *text = match text {
                Some(_) => None,
                None => Some(String::new()),
            }
        }
        (QueryResult::Text(Some(text)), Mutation::AlterText) => text.push('!'),
        _ => return false,
    }
    true
}

/// Keys with the edges of the key space over-represented.
/// The straightforward plans for the computed queries, kept as the
/// oracle for `execute`'s: filters evaluate every candidate row and then
/// truncate, joins build a map over the whole right table, aggregates
/// collect each group's rows and reduce them afterwards.  A join with
/// limit 0 returns no rows and probes no left row.
mod reference {
    use super::*;

    pub fn execute(db: &Database, query: &Query) -> Result<(QueryResult, QueryCost), StoreError> {
        let mut cost = QueryCost::default();
        let result = match query {
            Query::Filter { table, predicate, projection, limit } => {
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
            Query::Aggregate { table, predicate, agg, group_by } => {
                let t = db.table(table)?;
                let rows = filter_rows(t, predicate, &mut cost);
                match group_by {
                    None => QueryResult::Scalar(aggregate(rows.iter().map(|(_, d)| *d), agg)?),
                    Some(field) => {
                        static NULL: Value = Value::Null;
                        let mut groups: BTreeMap<&Value, Vec<&Document>> = BTreeMap::new();
                        for (_, d) in &rows {
                            groups.entry(d.get(field).unwrap_or(&NULL)).or_default().push(d);
                        }
                        let mut out = Vec::with_capacity(groups.len());
                        for (key, docs) in groups {
                            out.push((key.clone(), aggregate(docs.into_iter(), agg)?));
                        }
                        QueryResult::Groups(out)
                    }
                }
            }
            Query::Join { left, right, left_field, right_field, predicate, limit } => {
                let lt = db.table(left)?;
                let rt = db.table(right)?;
                let cap = limit.map(|l| l as usize).unwrap_or(usize::MAX);
                let mut build: BTreeMap<Value, Vec<(u64, &Document)>> = BTreeMap::new();
                for (k, d) in rt.iter() {
                    cost.rows_scanned += 1;
                    if let Some(v) = d.get(right_field) {
                        build.entry(v.clone()).or_default().push((k, d));
                    }
                }
                let mut out = Vec::new();
                if cap > 0 {
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
                }
                QueryResult::Rows(out)
            }
            other => panic!("not a computed query: {other:?}"),
        };
        cost.rows_returned = result.row_count() as u64;
        Ok((result, cost))
    }

    fn filter_rows<'t>(
        table: &'t Table,
        predicate: &Predicate,
        cost: &mut QueryCost,
    ) -> Vec<(u64, &'t Document)> {
        let indexed: Vec<String> = table.indexed_fields().map(str::to_string).collect();
        for field in &indexed {
            if let Some(value) = predicate.index_hint(field) {
                if let Some(keys) = table.index_keys(field, value) {
                    let mut out = Vec::new();
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
        let mut out = Vec::new();
        for (k, d) in table.iter() {
            cost.rows_scanned += 1;
            if predicate.eval(d) {
                out.push((k, d));
            }
        }
        out
    }

    fn aggregate<'a, I: Iterator<Item = &'a Document>>(
        rows: I,
        agg: &Aggregate,
    ) -> Result<Value, StoreError> {
        match agg {
            Aggregate::Count => Ok(Value::Int(rows.count() as i64)),
            Aggregate::Sum(field) => {
                let (mut sum, mut any_float, mut isum) = (0.0, false, 0i64);
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
                Ok(if any_float { Value::Float(sum) } else { Value::Int(isum) })
            }
            Aggregate::Min(field) => {
                Ok(rows.filter_map(|d| d.get(field)).min().cloned().unwrap_or(Value::Null))
            }
            Aggregate::Max(field) => {
                Ok(rows.filter_map(|d| d.get(field)).max().cloned().unwrap_or(Value::Null))
            }
            Aggregate::Avg(field) => {
                let (mut sum, mut n) = (0.0, 0u64);
                for d in rows {
                    match d.get(field) {
                        None | Some(Value::Null) => {}
                        Some(v) => match v.as_f64() {
                            Some(x) => {
                                sum += x;
                                n += 1;
                            }
                            None => return Err(StoreError::BadQuery("avg over non-numeric field")),
                        },
                    }
                }
                Ok(if n == 0 { Value::Null } else { Value::Float(sum / n as f64) })
            }
        }
    }
}

/// A field that is missing, Null, a small Int, the equal Float, a
/// fraction or a string: numeric ties across types, Null and missing
/// group keys, and non-numeric aggregate inputs.
fn arb_field() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        Just(None),
        Just(Some(Value::Null)),
        (0i64..4).prop_map(|i| Some(Value::Int(i))),
        (0i64..4).prop_map(|i| Some(Value::Float(i as f64))),
        Just(Some(Value::Float(0.5))),
        "[ab]".prop_map(|s| Some(Value::Str(s))),
    ]
}

/// A numeric-only field (missing, Null, Int or the equal Float), so
/// `Sum` and `Avg` also succeed on most tables.
fn arb_number() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        Just(None),
        Just(Some(Value::Null)),
        (-3i64..4).prop_map(|i| Some(Value::Int(i))),
        (-3i64..4).prop_map(|i| Some(Value::Float(i as f64))),
    ]
}

fn doc_of(fields: &[(&str, &Option<Value>)]) -> Document {
    let mut doc = Document::new();
    for (name, value) in fields {
        if let Some(v) = value {
            doc.set(*name, v.clone());
        }
    }
    doc
}

/// Every filter, aggregate and join shape over `l` and `r`.
fn computed_queries(cat: &str, floor: i64) -> Vec<Query> {
    let limits = [None, Some(0), Some(1), Some(2), Some(1_000)];
    let predicates = [
        Predicate::True,
        Predicate::eq("c", cat),
        Predicate::eq("c", cat).and(Predicate::cmp("n", CmpOp::Ge, floor)),
        Predicate::cmp("n", CmpOp::Ge, floor),
    ];
    let mut queries = Vec::new();
    for limit in limits {
        for predicate in &predicates {
            for projection in [None, Some(vec!["n".to_string(), "g".to_string()])] {
                queries.push(Query::Filter {
                    table: "l".into(),
                    predicate: predicate.clone(),
                    projection,
                    limit,
                });
            }
        }
        for predicate in [Predicate::True, Predicate::cmp("r.s", CmpOp::Ge, floor)] {
            queries.push(Query::Join {
                left: "l".into(),
                right: "r".into(),
                left_field: "j".into(),
                right_field: "j".into(),
                predicate,
                limit,
            });
        }
    }
    for field in ["x", "n"] {
        let aggs = [
            Aggregate::Count,
            Aggregate::Sum(field.into()),
            Aggregate::Min(field.into()),
            Aggregate::Max(field.into()),
            Aggregate::Avg(field.into()),
        ];
        for agg in aggs {
            for group_by in [None, Some("g".to_string())] {
                for predicate in &predicates {
                    queries.push(Query::Aggregate {
                        table: "l".into(),
                        predicate: predicate.clone(),
                        agg: agg.clone(),
                        group_by: group_by.clone(),
                    });
                }
            }
        }
    }
    queries
}

proptest! {
    /// Plan equivalence: on random tables, with and without the indexes
    /// the plans can use, `execute` returns exactly the reference
    /// executor's result and cost (or error) for every filter, join and
    /// aggregate shape.
    #[test]
    fn computed_plans_match_the_reference_executor(
        left in proptest::collection::vec(
            (0u64..48, (arb_field(), arb_field(), arb_number()), arb_field(), "[a-c]"),
            0..40,
        ),
        right in proptest::collection::vec((0u64..48, arb_field(), 0i64..5), 0..40),
        (left_indexed, right_indexed) in (any::<bool>(), any::<bool>()),
        cat in "[a-c]",
        floor in -1i64..5,
    ) {
        let indexes = |on: bool, field: &str| if on { vec![field.to_string()] } else { vec![] };
        let mut ops = vec![
            UpdateOp::CreateTable { table: "l".into(), indexes: indexes(left_indexed, "c") },
            UpdateOp::CreateTable { table: "r".into(), indexes: indexes(right_indexed, "j") },
        ];
        for (key, (g, x, n), j, c) in &left {
            let c = Some(Value::Str(c.clone()));
            ops.push(UpdateOp::Upsert {
                table: "l".into(),
                key: *key,
                doc: doc_of(&[("g", g), ("x", x), ("n", n), ("j", j), ("c", &c)]),
            });
        }
        for (key, j, stars) in &right {
            ops.push(UpdateOp::Upsert {
                table: "r".into(),
                key: *key,
                doc: doc_of(&[("j", j), ("s", &Some(Value::Int(*stars)))]),
            });
        }
        let mut db = Database::new();
        db.apply_write(&ops).expect("valid batch");

        for q in computed_queries(&cat, floor) {
            prop_assert_eq!(execute(&db, &q), reference::execute(&db, &q), "{:?}", q);
        }
    }
}

fn corpus_key() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), 0u64..64, any::<u64>()]
}

/// `t` is a prefix of `tt`'s name; `empty` never gets a row.
const TABLES: [&str; 3] = ["t", "tt", "empty"];
/// The empty path, and `/docs/file-1` a strict prefix of `/docs/file-10`.
const PATHS: [&str; 5] = ["", "/docs/file-1", "/docs/file-10", "/docs/file-2", "/docs"];

proptest! {
    /// Mutation corpus judged by truth.  Every static read — point reads
    /// present and absent, file reads, scans, and the table-map entries
    /// under them — gets an honest proof, then one change at a time to
    /// the proof or to the claimed answer.  The oracle is the executor:
    /// verification never panics, and accepts only an answer equal to
    /// `execute`'s.  ("Every mutation is rejected" would be the wrong
    /// oracle: a `Pruned` empty subtree folds exactly like `Empty`.)
    #[test]
    fn mutated_proofs_accept_only_the_true_answer(
        rows in proptest::collection::vec((corpus_key(), -50i64..50), 0..40),
        files in proptest::collection::vec((0usize..PATHS.len(), "[a-z\n]{0,40}"), 0..5),
        probes in proptest::collection::vec(
            (0usize..TABLES.len(), corpus_key(), corpus_key()),
            1..5,
        ),
        mutations in proptest::collection::vec((0usize..MUTATIONS.len(), any::<u64>()), 12..24),
    ) {
        let mut ops: Vec<UpdateOp> = TABLES
            .iter()
            .map(|t| UpdateOp::CreateTable { table: t.to_string(), indexes: vec![] })
            .collect();
        for (i, (key, v)) in rows.iter().enumerate() {
            ops.push(UpdateOp::Upsert {
                table: TABLES[usize::from(i % 3 == 0)].into(),
                key: *key,
                doc: Document::new().with("v", *v),
            });
        }
        for (p, contents) in &files {
            ops.push(UpdateOp::WriteFile { path: PATHS[*p].into(), contents: contents.clone() });
        }
        let mut db = Database::new();
        db.apply_write(&ops).expect("valid batch");
        let (digest, version) = (db.state_digest(), db.version());

        let mut queries = Vec::new();
        for (t, a, b) in &probes {
            let table = TABLES[*t].to_string();
            queries.push(Query::GetRow { table: table.clone(), key: *a });
            if let Some((present, _)) = rows.get(*a as usize % rows.len().max(1)) {
                queries.push(Query::GetRow { table: table.clone(), key: *present });
            }
            let (start, end) = (*a.min(b), *a.max(b));
            queries.push(Query::ScanRange { table, start, end });
            queries.push(Query::ReadFile { path: PATHS[*b as usize % PATHS.len()].into() });
        }
        let cases: Vec<(Query, QueryResult, StateProof)> = queries
            .into_iter()
            .map(|q| {
                let (truth, _) = execute(&db, &q).expect("static reads execute");
                let proof = db.prove_query(&q).expect("a static read").expect("the table exists");
                proof
                    .verify_result(&digest, version, &q, &truth)
                    .unwrap_or_else(|e| panic!("honest proof of {q:?} rejected: {e}"));
                (q, truth, proof)
            })
            .collect();

        let mut rejected = 0;
        for (i, (q, truth, proof)) in cases.iter().enumerate() {
            for &(m, pick) in &mutations {
                let m = MUTATIONS[m];
                let (mut claimed, mut forged) = (truth.clone(), proof.clone());
                let changed = match m {
                    Mutation::ForeignProof => {
                        let other = &cases[(i + 1 + pick as usize % cases.len()) % cases.len()];
                        (claimed, forged) = (other.1.clone(), other.2.clone());
                        true
                    }
                    Mutation::HideSubtree | Mutation::PadSubtree => {
                        collapse_rows(&db, &mut forged, &mut claimed, m, pick)
                    }
                    Mutation::DropRow
                    | Mutation::DuplicateRow
                    | Mutation::AlterRow
                    | Mutation::ShiftKey
                    | Mutation::PhantomRow
                    | Mutation::ToggleText
                    | Mutation::AlterText => mutate_answer(&mut claimed, m, pick),
                    _ => mutate_proof(&mut forged, m, pick),
                };
                if !changed {
                    continue;
                }
                match forged.verify_result(&digest, version, q, &claimed) {
                    Ok(()) => prop_assert_eq!(
                        &claimed, truth, "accepted a wrong answer to {:?} after {:?}", q, m
                    ),
                    Err(_) => rejected += 1,
                }
            }
        }
        prop_assert!(rejected > 0, "no mutation was rejected: the corpus is vacuous");
    }
}
