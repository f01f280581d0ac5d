//! Persistent ordered maps with cached Merkle subtree digests.
//!
//! [`PMap`] is the copy-on-write backbone of the store: a *deterministic
//! treap* whose nodes live behind [`Arc`].  Cloning a map is O(1) (one
//! reference-count bump); mutation copies only the O(log n) nodes on the
//! path from the root to the touched key, so a snapshot and its successor
//! share everything else.  Heap priorities are derived by hashing the key
//! itself, which makes the tree shape a pure function of the key *set* —
//! two maps holding the same entries are structurally identical no matter
//! what sequence of inserts and removes produced them (history
//! independence), so structural digests double as content digests.
//!
//! Every node caches the Merkle hash of its subtree (built from
//! [`sdr_crypto::merkle::leaf_hash`] / [`node_hash`]); path copying
//! naturally discards the caches along a mutated path and nothing else,
//! so re-computing the root digest after a point update re-hashes only
//! O(log n) nodes.
//!
//! Because the digest *is* a search tree, the map can also emit
//! **authenticated reads**: [`PMap::prove_range`] produces a
//! [`RangeProof`] — the tree skeleton around a key range, with every
//! subtree outside the range collapsed to its cached hash — against
//! [`PMap::root_hash`].  A point read is the range of one; a key's
//! absence is proved by the same skeleton ending in the empty slot where
//! the key would live.  Verification ([`RangeProof::verify`]) checks the
//! hash fold and the BST order of the skeleton, so completeness and
//! absence are as binding as presence.
//!
//! Cost model (n = entries, shared = a clone of this map is alive):
//!
//! | operation              | unshared         | shared                      |
//! |------------------------|------------------|-----------------------------|
//! | `clone`                | O(1)             | O(1)                        |
//! | `get` / `iter`         | O(log n) / O(n)  | same                        |
//! | `insert`/`remove`      | O(log n)         | O(log n) node copies        |
//! | `get_mut`              | O(log n)         | O(log n) node copies        |
//! | `root_hash`            | O(1) amortized   | O(log n) after a mutation   |
//! | `prove_range`/`verify` | O(log n + k)     | same (k = rows in range)    |

use sdr_crypto::merkle::{entry_commitment, leaf_hash, node_hash, treap_node_hash};
use sdr_crypto::Hash256;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

/// Keys a [`PMap`] can index: ordered, cloneable, and canonically
/// encodable.  The encoding feeds both the deterministic heap priority
/// and the per-entry Merkle leaf hash, so it must be injective and
/// self-delimiting.
pub trait PKey: Ord + Clone {
    /// Appends the canonical encoding of this key to `out`.
    fn encode_key(&self, out: &mut Vec<u8>);
}

impl PKey for u64 {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl PKey for String {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_be_bytes());
        out.extend_from_slice(self.as_bytes());
    }
}

impl PKey for crate::value::Value {
    fn encode_key(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }
}

/// Values that can contribute to a [`PMap`]'s Merkle digest.
///
/// Only required by [`PMap::root_hash`]; maps over values without an
/// encoding (for example derived index postings) simply never ask for a
/// digest.
pub trait MerkleContent {
    /// Appends the canonical encoding of this value to `out`.
    fn content_encode(&self, out: &mut Vec<u8>);
}

impl MerkleContent for String {
    fn content_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_be_bytes());
        out.extend_from_slice(self.as_bytes());
    }
}

impl MerkleContent for crate::document::Document {
    fn content_encode(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }
}

/// Deterministic heap priority: a hash of the key's canonical encoding.
///
/// FNV-1a accumulates the bytes; a splitmix64 finaliser diffuses them so
/// near-identical keys (sequential row ids) get uncorrelated priorities.
fn priority(encoded_key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in encoded_key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finaliser.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

type Link<K, V> = Option<Arc<Node<K, V>>>;

struct Node<K, V> {
    key: K,
    value: V,
    /// Deterministic heap priority (ties broken by key order, so the
    /// composite `(prio, key)` is a strict total order over live nodes).
    prio: u64,
    left: Link<K, V>,
    right: Link<K, V>,
    /// Subtree entry count.
    len: usize,
    /// Cached Merkle hash of this subtree; empty on every fresh
    /// (path-copied) node, filled lazily by [`PMap::root_hash`].
    hash: OnceLock<Hash256>,
}

impl<K: Clone, V: Clone> Clone for Node<K, V> {
    fn clone(&self) -> Self {
        // Cloning happens only on the copy-on-write path (`Arc::make_mut`
        // just before a mutation), so the copy starts with a cold digest
        // cache.
        Node {
            key: self.key.clone(),
            value: self.value.clone(),
            prio: self.prio,
            left: self.left.clone(),
            right: self.right.clone(),
            len: self.len,
            hash: OnceLock::new(),
        }
    }
}

fn link_len<K, V>(link: &Link<K, V>) -> usize {
    link.as_ref().map_or(0, |n| n.len)
}

/// `true` when `(pa, ka)` outranks `(pb, kb)` in the heap order.
fn heap_gt<K: Ord>(pa: u64, ka: &K, pb: u64, kb: &K) -> bool {
    (pa, ka) > (pb, kb)
}

/// A persistent ordered map (deterministic treap behind [`Arc`] nodes).
///
/// See the [module docs](self) for the cost model.
pub struct PMap<K, V> {
    root: Link<K, V>,
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None }
    }
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, V> PMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        link_len(&self.root)
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// In-order iteration over `(key, value)` pairs.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut it = Iter { stack: Vec::new() };
        it.push_left_spine(self.root.as_deref());
        it
    }
}

impl<K: PKey, V: Clone> PMap<K, V> {
    /// Reads the value at `key`.
    ///
    /// Accepts any borrowed form of the key (`&str` for `String` keys),
    /// so hot-path lookups never allocate.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(n.key.borrow()) {
                Ordering::Equal => return Some(&n.value),
                Ordering::Less => cur = n.left.as_deref(),
                Ordering::Greater => cur = n.right.as_deref(),
            }
        }
        None
    }

    /// Whether `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Mutable access to the value at `key`.
    ///
    /// Copies the (shared parts of the) path to the entry and discards
    /// the digest caches along it, so the next [`PMap::root_hash`] sees
    /// the mutation.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !self.contains_key(key) {
            // Checked up front so a miss copies nothing.
            return None;
        }
        Some(get_mut_rec(&mut self.root, key))
    }

    /// Inserts or replaces; returns the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let mut buf = Vec::with_capacity(16);
        key.encode_key(&mut buf);
        insert_rec(&mut self.root, key, value, priority(&buf))
    }

    /// Removes the entry at `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !self.contains_key(key) {
            // Checked up front so a miss copies nothing.
            return None;
        }
        Some(remove_rec(&mut self.root, key))
    }

    /// In-order iteration starting at the first key `>= start`.
    pub fn iter_from<Q>(&self, start: &Q) -> Iter<'_, K, V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut stack = Vec::new();
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            if n.key.borrow() < start {
                cur = n.right.as_deref();
            } else {
                stack.push(n);
                cur = n.left.as_deref();
            }
        }
        Iter { stack }
    }
}

impl<K: PKey, V: Clone + MerkleContent> PMap<K, V> {
    /// The Merkle digest of the whole map.
    ///
    /// Node hashes are cached; after a point mutation only the copied
    /// path (O(log n) nodes) is re-hashed.  Because the tree shape is
    /// history-independent, equal content implies equal digests.
    pub fn root_hash(&self) -> Hash256 {
        link_hash(&self.root)
    }

    /// Recomputes the digest ignoring every cache (test oracle).
    pub fn root_hash_uncached(&self) -> Hash256 {
        link_hash_uncached(&self.root)
    }

    /// Produces one O(log n + k) proof for every entry in the range that
    /// starts at `start` (inclusive) and ends at `end` — including
    /// *completeness*: a verifier that accepts the proof knows no
    /// in-range entry was omitted.  A point read is the range of one,
    /// `end = Bound::Included(key)`: a present key proves its value, an
    /// absent one proves the empty slot where it would live.
    ///
    /// The proof is the tree skeleton around the range: the boundary
    /// search paths, with out-of-range ancestors carrying their value
    /// commitments, every subtree whose BST interval is disjoint from
    /// the range collapsed to its cached subtree hash, and every maximal
    /// fully-in-range subtree collapsed to a bare entry count.
    /// Verification rebuilds those subtrees from the claimed rows alone —
    /// the treap is deterministic, so a key set has exactly one shape —
    /// and accepts only if the fold matches the root.  Completeness
    /// follows because a pruned subtree hash is only legal where the BST
    /// bounds prove the subtree cannot intersect the range.
    pub fn prove_range(&self, start: &K, end: Bound<&K>) -> RangeProof<K> {
        RangeProof {
            root: range_node(&self.root, &Span { start, end }, None, None),
        }
    }
}

/// The key range a [`RangeProof`] covers: `start` inclusive, `end` as
/// given (`Included` for point reads, `Excluded` for scans).
struct Span<'a, K> {
    start: &'a K,
    end: Bound<&'a K>,
}

impl<K: Ord> Span<'_, K> {
    fn end_key(&self) -> Option<&K> {
        match self.end {
            Bound::Included(e) | Bound::Excluded(e) => Some(e),
            Bound::Unbounded => None,
        }
    }

    /// Whether `key` is in the range — the only test where `Included`
    /// and `Excluded` differ.
    fn contains(&self, key: &K) -> bool {
        key >= self.start
            && match self.end {
                Bound::Included(e) => key <= e,
                Bound::Excluded(e) => key < e,
                Bound::Unbounded => true,
            }
    }

    /// Whether no key of the open interval `(lo, hi)` can be in range.
    fn disjoint(&self, lo: Option<&K>, hi: Option<&K>) -> bool {
        hi.is_some_and(|h| h <= self.start)
            || lo.is_some_and(|l| self.end_key().is_some_and(|e| l >= e))
    }

    /// Whether every key of the open interval `(lo, hi)` is in range.
    fn covers(&self, lo: Option<&K>, hi: Option<&K>) -> bool {
        lo.is_some_and(|l| l >= self.start)
            && self.end_key().is_none_or(|e| hi.is_some_and(|h| h <= e))
    }
}

fn range_node<'t, K: PKey, V: Clone + MerkleContent>(
    link: &'t Link<K, V>,
    span: &Span<'_, K>,
    lo: Option<&'t K>,
    hi: Option<&'t K>,
) -> RangeNode<K> {
    let Some(n) = link.as_deref() else {
        return RangeNode::Empty;
    };
    // The subtree's keys all lie in the open interval (lo, hi).
    if span.disjoint(lo, hi) {
        return RangeNode::Pruned(link_hash(link));
    }
    if span.covers(lo, hi) {
        // The verifier rebuilds the whole subtree from the rows, so only
        // the count travels.
        return RangeNode::InRange {
            count: n.len as u32,
        };
    }
    RangeNode::Path {
        key: n.key.clone(),
        value_commitment: (!span.contains(&n.key)).then(|| value_commitment(&n.value)),
        left: Box::new(range_node(&n.left, span, lo, Some(&n.key))),
        right: Box::new(range_node(&n.right, span, Some(&n.key), hi)),
    }
}

/// Why a proof failed verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// The proof's shape contradicts the claimed result: a value where
    /// the rows say none (or the reverse), rows left over or missing, or
    /// a skeleton deeper than [`MAX_PROOF_DEPTH`].
    ShapeMismatch,
    /// The skeleton's keys are inconsistent with the BST bounds around
    /// them (a malicious prover spliced paths or hid rows).
    OrderViolation,
    /// The folded hash does not match the trusted root digest.
    RootMismatch,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::ShapeMismatch => write!(f, "proof shape contradicts claimed result"),
            ProofError::OrderViolation => write!(f, "proof path violates search order"),
            ProofError::RootMismatch => write!(f, "proof does not fold to the trusted root"),
        }
    }
}

/// Deepest tree level a [`RangeProof`] fold descends to, counting the
/// skeleton and the rebuilt in-range subtrees alike.  The fold recurses
/// once per level before it compares any hash, so an unbounded skeleton
/// from a Byzantine prover would overflow the verifier's stack.  The
/// deepest honest proof measured on a 100k-row table (the `churn_mix`
/// benchmark's catalogue, unsharded, seeds 11 and 23) is 41 levels; a
/// treap's height grows as ~4.3 ln n, so 128 leaves room for tables far
/// larger than memory.
pub const MAX_PROOF_DEPTH: usize = 128;

/// One node of a [`RangeProof`]'s tree skeleton.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RangeNode<K> {
    /// An empty link.
    Empty,
    /// A subtree collapsed to its subtree digest.  Only legal where the
    /// surrounding BST bounds prove the subtree is disjoint from the
    /// range — that check is what makes omission of in-range rows
    /// impossible.
    Pruned(Hash256),
    /// One node on a boundary search path.  Out-of-range path nodes
    /// carry their value commitment; in-range path nodes take their
    /// value from the claimed rows (`value_commitment: None`).
    Path {
        /// The path node's key (in the clear, for BST-order checks).
        key: K,
        /// `Some` commitment for out-of-range nodes, `None` in range.
        value_commitment: Option<Hash256>,
        /// Left child skeleton.
        left: Box<RangeNode<K>>,
        /// Right child skeleton.
        right: Box<RangeNode<K>>,
    },
    /// A maximal subtree entirely inside the range: its next `count`
    /// entries come from the claimed rows, and the verifier rebuilds the
    /// (unique, deterministic) treap over them.
    InRange {
        /// Number of rows this subtree consumes.
        count: u32,
    },
}

/// An O(log n + k) proof that a key range of a [`PMap`] contains exactly
/// the k claimed rows — no more, no fewer — against [`PMap::root_hash`].
/// Built by [`PMap::prove_range`]; a point read is the range of one.
///
/// Cost intuition: k point proofs ship and fold k full root-to-entry
/// paths (k·O(log n) hashes); one range proof ships the boundary paths
/// once and k entry commitments, so both wire bytes and verify hashing
/// drop to O(log n + k).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeProof<K> {
    /// Root of the pruned tree skeleton.
    pub root: RangeNode<K>,
}

impl<K: PKey> RangeProof<K> {
    /// Folds the proof and the claimed rows (`(key, canonical value
    /// encoding)`, ascending) into the root digest they imply.
    ///
    /// Checks, structurally: every pruned subtree is provably disjoint
    /// from the range (completeness), every in-range skeleton node
    /// matches the next claimed row, every `InRange` subtree's rows are
    /// strictly ascending within its BST bounds, the rows are consumed
    /// exactly, and no level lies deeper than [`MAX_PROOF_DEPTH`].  The
    /// caller compares the result against a trusted digest (or uses
    /// [`RangeProof::verify`]).
    pub fn computed_root(
        &self,
        start: &K,
        end: Bound<&K>,
        rows: &[(K, Vec<u8>)],
    ) -> Result<Hash256, ProofError> {
        let rows = rows.iter().map(|(k, enc)| claimed_row(k, enc)).collect();
        self.fold(Span { start, end }, rows)
    }

    /// [`RangeProof::computed_root`] for the range of one, `[key, key]`:
    /// `value` is the claimed encoding, `Some` claiming presence and
    /// `None` absence.
    pub fn point_root(&self, key: &K, value: Option<&[u8]>) -> Result<Hash256, ProofError> {
        let row = value.map(|v| claimed_row(key, v)).into_iter().collect();
        self.fold(Span { start: key, end: Bound::Included(key) }, row)
    }

    fn fold<'a>(
        &self,
        span: Span<'a, K>,
        rows: Vec<Claimed<'a, K>>,
    ) -> Result<Hash256, ProofError> {
        let mut fold = Fold {
            span,
            rows,
            cursor: 0,
            buf: Vec::with_capacity(16),
        };
        let hash = fold.node(&self.root, None, None, 1)?;
        if fold.cursor != fold.rows.len() {
            return Err(ProofError::ShapeMismatch);
        }
        Ok(hash)
    }

    /// Verifies the proof against a trusted root digest.
    pub fn verify(
        &self,
        root: &Hash256,
        start: &K,
        end: Bound<&K>,
        rows: &[(K, Vec<u8>)],
    ) -> Result<(), ProofError> {
        if self.computed_root(start, end, rows)? == *root {
            Ok(())
        } else {
            Err(ProofError::RootMismatch)
        }
    }

    /// Longest boundary-path chain in the skeleton.
    pub fn depth(&self) -> usize {
        range_node_depth(&self.root)
    }

    /// Approximate wire size in bytes.
    pub fn wire_len(&self) -> usize {
        range_node_wire_len(&self.root, &mut Vec::with_capacity(16))
    }
}

/// One claimed row as the fold uses it: key, heap priority, entry
/// commitment.
type Claimed<'a, K> = (&'a K, u64, Hash256);

fn claimed_row<'a, K: PKey>(key: &'a K, value: &[u8]) -> Claimed<'a, K> {
    let mut buf = Vec::with_capacity(16);
    key.encode_key(&mut buf);
    (key, priority(&buf), entry_commitment(&leaf_hash(&buf), &leaf_hash(value)))
}

/// One [`RangeProof`] fold: the range, the claimed rows (ascending), and
/// how many of them the in-order walk has consumed.
struct Fold<'a, K> {
    span: Span<'a, K>,
    rows: Vec<Claimed<'a, K>>,
    cursor: usize,
    /// Scratch space for key encodings.
    buf: Vec<u8>,
}

impl<K: PKey> Fold<'_, K> {
    fn node<'p>(
        &mut self,
        node: &'p RangeNode<K>,
        lo: Option<&'p K>,
        hi: Option<&'p K>,
        depth: usize,
    ) -> Result<Hash256, ProofError> {
        match node {
            // An empty link is safe to claim anywhere: its digest is a
            // distinct domain, so a lie cannot fold to the trusted root.
            RangeNode::Empty => Ok(empty_hash()),
            RangeNode::Pruned(h) if self.span.disjoint(lo, hi) => Ok(*h),
            RangeNode::Pruned(_) => Err(ProofError::OrderViolation),
            // Only these two recurse, so only they can run deep.
            _ if depth > MAX_PROOF_DEPTH => Err(ProofError::ShapeMismatch),
            RangeNode::InRange { count } => {
                if !self.span.covers(lo, hi) {
                    return Err(ProofError::OrderViolation);
                }
                let (a, count) = (self.cursor, *count as usize);
                let b = a.checked_add(count).ok_or(ProofError::ShapeMismatch)?;
                if count == 0 || b > self.rows.len() {
                    return Err(ProofError::ShapeMismatch);
                }
                for i in a..b {
                    let floor = if i == a { lo } else { Some(self.rows[i - 1].0) };
                    let k = self.rows[i].0;
                    if floor.is_some_and(|f| k <= f) || hi.is_some_and(|h| k >= h) {
                        return Err(ProofError::OrderViolation);
                    }
                }
                let hash = self.in_range(a, b, depth)?;
                self.cursor = b;
                Ok(hash)
            }
            RangeNode::Path {
                key,
                value_commitment,
                left,
                right,
            } => {
                if lo.is_some_and(|l| key <= l) || hi.is_some_and(|h| key >= h) {
                    return Err(ProofError::OrderViolation);
                }
                // In-order: the left subtree's rows precede this node's.
                let left_hash = self.node(left, lo, Some(key), depth + 1)?;
                let entry = match (self.span.contains(key), value_commitment) {
                    (true, None) => {
                        let i = self.cursor;
                        if i >= self.rows.len() || self.rows[i].0 != key {
                            return Err(ProofError::ShapeMismatch);
                        }
                        self.cursor = i + 1;
                        self.rows[i].2
                    }
                    (false, Some(vc)) => {
                        self.buf.clear();
                        key.encode_key(&mut self.buf);
                        entry_commitment(&leaf_hash(&self.buf), vc)
                    }
                    _ => return Err(ProofError::ShapeMismatch),
                };
                let right_hash = self.node(right, Some(key), hi, depth + 1)?;
                Ok(treap_node_hash(&left_hash, &entry, &right_hash))
            }
        }
    }

    /// Rebuilds the digest of the unique deterministic treap over
    /// `rows[a..b]` — the row with the maximal `(priority, key)` is the
    /// root, recursively.  Expected O(k log k) like any treap build; its
    /// levels count towards [`MAX_PROOF_DEPTH`] like the skeleton's.
    fn in_range(&self, a: usize, b: usize, depth: usize) -> Result<Hash256, ProofError> {
        if a >= b {
            return Ok(empty_hash());
        }
        if depth > MAX_PROOF_DEPTH {
            return Err(ProofError::ShapeMismatch);
        }
        let rows = &self.rows;
        let mut root = a;
        for i in a + 1..b {
            if heap_gt(rows[i].1, rows[i].0, rows[root].1, rows[root].0) {
                root = i;
            }
        }
        Ok(treap_node_hash(
            &self.in_range(a, root, depth + 1)?,
            &rows[root].2,
            &self.in_range(root + 1, b, depth + 1)?,
        ))
    }
}

fn range_node_depth<K>(node: &RangeNode<K>) -> usize {
    match node {
        RangeNode::Path { left, right, .. } => {
            1 + range_node_depth(left).max(range_node_depth(right))
        }
        _ => 0,
    }
}

/// `buf` is scratch space for key encodings.
fn range_node_wire_len<K: PKey>(node: &RangeNode<K>, buf: &mut Vec<u8>) -> usize {
    match node {
        RangeNode::Empty => 1,
        RangeNode::Pruned(_) => 33,
        RangeNode::InRange { .. } => 5,
        RangeNode::Path {
            key,
            value_commitment,
            left,
            right,
        } => {
            buf.clear();
            key.encode_key(buf);
            2 + buf.len()
                + if value_commitment.is_some() { 32 } else { 0 }
                + range_node_wire_len(left, buf)
                + range_node_wire_len(right, buf)
        }
    }
}

/// Shared-vs-owned node counts for one map (memory telemetry).
///
/// A node is *shared* when it (or any ancestor) has more than one strong
/// reference — i.e. some other clone/snapshot also reaches it; *owned*
/// nodes would be freed if this map were dropped.  Summed over a
/// snapshot ring, `shared` measures structural reuse and `owned` the
/// real retention cost of keeping history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Nodes reachable only through this handle.
    pub owned: usize,
    /// Nodes also reachable from other clones/snapshots.
    pub shared: usize,
}

impl NodeStats {
    /// Total reachable nodes.
    pub fn total(&self) -> usize {
        self.owned + self.shared
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: NodeStats) {
        self.owned += other.owned;
        self.shared += other.shared;
    }
}

fn visit_nodes_rec<K, V>(
    link: &Link<K, V>,
    ancestor_shared: bool,
    f: &mut impl FnMut(&V, bool),
) {
    let Some(n) = link else { return };
    let shared = ancestor_shared || Arc::strong_count(n) > 1;
    f(&n.value, shared);
    visit_nodes_rec(&n.left, shared, f);
    visit_nodes_rec(&n.right, shared, f);
}

impl<K, V> PMap<K, V> {
    /// Visits every node's value with whether the node is shared (its
    /// `Arc`, or any ancestor's, has more than one strong reference) —
    /// the primitive containers build nested telemetry on.
    pub fn visit_nodes(&self, ancestor_shared: bool, f: &mut impl FnMut(&V, bool)) {
        visit_nodes_rec(&self.root, ancestor_shared, f);
    }

    /// Walks the whole tree counting shared vs owned nodes (O(n) — this
    /// is telemetry, not a hot path).
    pub fn node_stats(&self) -> NodeStats {
        self.node_stats_inherited(false)
    }

    /// Like [`PMap::node_stats`], but with every node forced `shared`
    /// when the map handle itself lives inside a shared container (a
    /// table embedded in a shared database node is reachable from the
    /// other handle too, even though its own `Arc` counts are 1).
    pub fn node_stats_inherited(&self, ancestor_shared: bool) -> NodeStats {
        let mut out = NodeStats::default();
        self.visit_nodes(ancestor_shared, &mut |_, shared| {
            if shared {
                out.shared += 1;
            } else {
                out.owned += 1;
            }
        });
        out
    }
}

/// Digest of an empty subtree (distinct domain from any entry).
fn empty_hash() -> Hash256 {
    static EMPTY: OnceLock<Hash256> = OnceLock::new();
    *EMPTY.get_or_init(|| leaf_hash(b"sdr/pmap/empty"))
}

/// Commitment to a key: the leaf hash of its canonical encoding.
fn key_commitment<K: PKey>(key: &K) -> Hash256 {
    let mut buf = Vec::with_capacity(16);
    key.encode_key(&mut buf);
    leaf_hash(&buf)
}

/// Commitment to a value: the leaf hash of its canonical encoding.
fn value_commitment<V: MerkleContent>(value: &V) -> Hash256 {
    let mut buf = Vec::with_capacity(64);
    value.content_encode(&mut buf);
    leaf_hash(&buf)
}

/// An entry's commitment binds key and value commitments *separately*
/// (rather than hashing their concatenation) so authentication paths can
/// ship a path node's key in the clear — absence proofs need it to check
/// search-order consistency — while the value travels as 32 bytes.
fn entry_hash<K: PKey, V: MerkleContent>(node: &Node<K, V>) -> Hash256 {
    entry_commitment(&key_commitment(&node.key), &value_commitment(&node.value))
}

fn link_hash<K: PKey, V: Clone + MerkleContent>(link: &Link<K, V>) -> Hash256 {
    match link {
        None => empty_hash(),
        Some(n) => *n.hash.get_or_init(|| {
            node_hash(
                &node_hash(&link_hash(&n.left), &entry_hash(n)),
                &link_hash(&n.right),
            )
        }),
    }
}

fn link_hash_uncached<K: PKey, V: Clone + MerkleContent>(link: &Link<K, V>) -> Hash256 {
    match link {
        None => empty_hash(),
        Some(n) => node_hash(
            &node_hash(&link_hash_uncached(&n.left), &entry_hash(n)),
            &link_hash_uncached(&n.right),
        ),
    }
}

fn get_mut_rec<'a, K, V, Q>(link: &'a mut Link<K, V>, key: &Q) -> &'a mut V
where
    K: PKey + Borrow<Q>,
    V: Clone,
    Q: Ord + ?Sized,
{
    let arc = link.as_mut().expect("presence checked by caller");
    let n = Arc::make_mut(arc);
    n.hash = OnceLock::new();
    match key.cmp(n.key.borrow()) {
        Ordering::Equal => &mut n.value,
        Ordering::Less => get_mut_rec(&mut n.left, key),
        Ordering::Greater => get_mut_rec(&mut n.right, key),
    }
}

fn insert_rec<K: PKey, V: Clone>(
    link: &mut Link<K, V>,
    key: K,
    value: V,
    prio: u64,
) -> Option<V> {
    let Some(existing) = link.as_ref() else {
        *link = Some(Arc::new(Node {
            key,
            value,
            prio,
            left: None,
            right: None,
            len: 1,
            hash: OnceLock::new(),
        }));
        return None;
    };
    if heap_gt(prio, &key, existing.prio, &existing.key) {
        // The new entry outranks this subtree's root, so it becomes the
        // root here; the old subtree splits around the key.  (A key
        // already present never takes this branch: its node has the same
        // composite priority, which every ancestor strictly outranks.)
        let (left, right) = split(link.take(), &key);
        let len = 1 + link_len(&left) + link_len(&right);
        *link = Some(Arc::new(Node {
            key,
            value,
            prio,
            left,
            right,
            len,
            hash: OnceLock::new(),
        }));
        return None;
    }
    let arc = link.as_mut().expect("checked above");
    let n = Arc::make_mut(arc);
    n.hash = OnceLock::new();
    let old = match key.cmp(&n.key) {
        Ordering::Equal => Some(std::mem::replace(&mut n.value, value)),
        Ordering::Less => insert_rec(&mut n.left, key, value, prio),
        Ordering::Greater => insert_rec(&mut n.right, key, value, prio),
    };
    n.len = 1 + link_len(&n.left) + link_len(&n.right);
    old
}

/// Splits a subtree into (keys `< key`, keys `>= key`).
fn split<K: PKey, V: Clone>(link: Link<K, V>, key: &K) -> (Link<K, V>, Link<K, V>) {
    let Some(mut arc) = link else {
        return (None, None);
    };
    let n = Arc::make_mut(&mut arc);
    n.hash = OnceLock::new();
    if n.key < *key {
        let (low, high) = split(n.right.take(), key);
        n.right = low;
        n.len = 1 + link_len(&n.left) + link_len(&n.right);
        (Some(arc), high)
    } else {
        let (low, high) = split(n.left.take(), key);
        n.left = high;
        n.len = 1 + link_len(&n.left) + link_len(&n.right);
        (low, Some(arc))
    }
}

/// Merges two subtrees where every key in `a` precedes every key in `b`.
fn merge<K: PKey, V: Clone>(a: Link<K, V>, b: Link<K, V>) -> Link<K, V> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(mut x), Some(mut y)) => {
            if heap_gt(x.prio, &x.key, y.prio, &y.key) {
                let n = Arc::make_mut(&mut x);
                n.hash = OnceLock::new();
                let right = n.right.take();
                n.right = merge(right, Some(y));
                n.len = 1 + link_len(&n.left) + link_len(&n.right);
                Some(x)
            } else {
                let n = Arc::make_mut(&mut y);
                n.hash = OnceLock::new();
                let left = n.left.take();
                n.left = merge(Some(x), left);
                n.len = 1 + link_len(&n.left) + link_len(&n.right);
                Some(y)
            }
        }
    }
}

fn remove_rec<K, V, Q>(link: &mut Link<K, V>, key: &Q) -> V
where
    K: PKey + Borrow<Q>,
    V: Clone,
    Q: Ord + ?Sized,
{
    let arc = link.as_mut().expect("presence checked by caller");
    let ord = key.cmp(arc.key.borrow());
    if ord == Ordering::Equal {
        let node = link.take().expect("checked above");
        return match Arc::try_unwrap(node) {
            Ok(n) => {
                *link = merge(n.left, n.right);
                n.value
            }
            Err(shared) => {
                let value = shared.value.clone();
                *link = merge(shared.left.clone(), shared.right.clone());
                value
            }
        };
    }
    let n = Arc::make_mut(arc);
    n.hash = OnceLock::new();
    let value = if ord == Ordering::Less {
        remove_rec(&mut n.left, key)
    } else {
        remove_rec(&mut n.right, key)
    };
    n.len = 1 + link_len(&n.left) + link_len(&n.right);
    value
}

/// In-order iterator over a [`PMap`].
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn push_left_spine(&mut self, mut cur: Option<&'a Node<K, V>>) {
        while let Some(n) = cur {
            self.stack.push(n);
            cur = n.left.as_deref();
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        self.push_left_spine(n.right.as_deref());
        Some((&n.key, &n.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn map_of(keys: &[u64]) -> PMap<u64, String> {
        let mut m = PMap::new();
        for &k in keys {
            m.insert(k, format!("v{k}"));
        }
        m
    }

    #[test]
    fn insert_get_remove_len() {
        let mut m = PMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(3, "three".to_string()), None);
        assert_eq!(m.insert(1, "one".to_string()), None);
        assert_eq!(m.insert(3, "THREE".to_string()), Some("three".to_string()));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&3), Some(&"THREE".to_string()));
        assert_eq!(m.get(&2), None);
        assert_eq!(m.remove(&1), Some("one".to_string()));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let m = map_of(&[5, 1, 9, 3, 7, 2, 8]);
        let keys: Vec<u64> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3, 5, 7, 8, 9]);
    }

    #[test]
    fn iter_from_starts_at_bound() {
        let m = map_of(&[1, 3, 5, 7, 9]);
        let keys: Vec<u64> = m.iter_from(&4).map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![5, 7, 9]);
        let keys: Vec<u64> = m.iter_from(&5).map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![5, 7, 9]);
        assert_eq!(m.iter_from(&10).count(), 0);
    }

    #[test]
    fn clone_is_isolated_from_mutations() {
        let mut m = map_of(&[1, 2, 3]);
        let snapshot = m.clone();
        let snap_hash = snapshot.root_hash();
        m.insert(4, "v4".to_string());
        *m.get_mut(&2).expect("present") = "mutated".to_string();
        m.remove(&1);
        assert_eq!(snapshot.len(), 3);
        assert_eq!(snapshot.get(&2), Some(&"v2".to_string()));
        assert_eq!(snapshot.get(&1), Some(&"v1".to_string()));
        assert_eq!(snapshot.root_hash(), snap_hash);
        assert_ne!(m.root_hash(), snap_hash);
    }

    #[test]
    fn shape_and_digest_are_history_independent() {
        // Same final content via very different op sequences.
        let mut a: PMap<u64, String> = PMap::new();
        for k in 0..50 {
            a.insert(k, format!("v{k}"));
        }
        for k in (0..50).filter(|k: &u64| k.is_multiple_of(3)) {
            a.remove(&k);
        }
        let mut b: PMap<u64, String> = PMap::new();
        for k in (0..50).rev().filter(|k: &u64| !k.is_multiple_of(3)) {
            b.insert(k, "tmp".to_string());
        }
        for k in (0..50).filter(|k: &u64| !k.is_multiple_of(3)) {
            b.insert(k, format!("v{k}"));
        }
        assert_eq!(a.root_hash(), b.root_hash());
        assert_eq!(a.root_hash(), a.root_hash_uncached());
    }

    #[test]
    fn digest_tracks_every_mutation_kind() {
        let mut m = map_of(&[1, 2, 3]);
        let h0 = m.root_hash();
        m.insert(4, "v4".to_string());
        let h1 = m.root_hash();
        assert_ne!(h0, h1);
        *m.get_mut(&2).expect("present") = "new".to_string();
        let h2 = m.root_hash();
        assert_ne!(h1, h2);
        m.remove(&4);
        m.insert(2, "v2".to_string());
        assert_eq!(m.root_hash(), h0);
        assert_eq!(m.root_hash(), m.root_hash_uncached());
    }

    #[test]
    fn cached_digest_matches_uncached_after_shared_mutations() {
        let mut m = map_of(&(0..100).collect::<Vec<_>>());
        let _keep = m.clone(); // Force copy-on-write paths below.
        for k in [0u64, 37, 99, 50] {
            *m.get_mut(&k).expect("present") = "changed".to_string();
            assert_eq!(m.root_hash(), m.root_hash_uncached());
        }
    }

    #[test]
    fn matches_btreemap_on_mixed_ops() {
        let mut m: PMap<u64, String> = PMap::new();
        let mut model: BTreeMap<u64, String> = BTreeMap::new();
        // Deterministic pseudo-random op stream.
        let mut x: u64 = 0x12345;
        for i in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = (x >> 33) % 64;
            if x.is_multiple_of(3) && !model.is_empty() {
                assert_eq!(m.remove(&key), model.remove(&key));
            } else {
                let v = format!("v{i}");
                assert_eq!(m.insert(key, v.clone()), model.insert(key, v));
            }
            assert_eq!(m.len(), model.len());
        }
        let got: Vec<(u64, String)> = m.iter().map(|(k, v)| (*k, v.clone())).collect();
        let want: Vec<(u64, String)> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn string_keys_order_and_prefix_scan() {
        let mut m: PMap<String, String> = PMap::new();
        for p in ["/b/1", "/a/2", "/a/1", "/c", "/a/10"] {
            m.insert(p.to_string(), String::new());
        }
        let under_a: Vec<String> = m
            .iter_from(&"/a".to_string())
            .take_while(|(k, _)| k.starts_with("/a"))
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(under_a, vec!["/a/1", "/a/10", "/a/2"]);
    }

    #[test]
    fn empty_map_digest_is_stable() {
        let a: PMap<u64, String> = PMap::new();
        let b: PMap<u64, String> = PMap::new();
        assert_eq!(a.root_hash(), b.root_hash());
        assert_ne!(a.root_hash(), map_of(&[1]).root_hash());
    }

    fn enc(v: &str) -> Vec<u8> {
        let mut out = Vec::new();
        v.to_string().content_encode(&mut out);
        out
    }

    /// The range of one, `[k, k]`: a point read.
    fn prove_point(m: &PMap<u64, String>, k: u64) -> RangeProof<u64> {
        m.prove_range(&k, Bound::Included(&k))
    }

    fn verify_point(
        proof: &RangeProof<u64>,
        root: &Hash256,
        k: u64,
        value: Option<&str>,
    ) -> Result<(), ProofError> {
        let row: Vec<(u64, Vec<u8>)> = value.map(|v| (k, enc(v))).into_iter().collect();
        proof.verify(root, &k, Bound::Included(&k), &row)
    }

    #[test]
    fn proofs_verify_for_every_key_and_gap() {
        let m = map_of(&[2, 4, 6, 8, 10, 12, 14]);
        let root = m.root_hash();
        for k in 0..16u64 {
            let proof = prove_point(&m, k);
            if m.contains_key(&k) {
                verify_point(&proof, &root, k, Some(&format!("v{k}"))).unwrap();
                // The right value is bound: a different value fails.
                assert_eq!(
                    verify_point(&proof, &root, k, Some("wrong")),
                    Err(ProofError::RootMismatch)
                );
                // Claiming absence of a present key fails on shape.
                assert_eq!(verify_point(&proof, &root, k, None), Err(ProofError::ShapeMismatch));
            } else {
                verify_point(&proof, &root, k, None).unwrap();
                assert!(verify_point(&proof, &root, k, Some("ghost")).is_err());
            }
        }
    }

    #[test]
    fn empty_map_absence_proof() {
        let m: PMap<u64, String> = PMap::new();
        let proof = prove_point(&m, 7);
        assert_eq!(proof.depth(), 0);
        verify_point(&proof, &m.root_hash(), 7, None).unwrap();
    }

    #[test]
    fn single_key_proofs() {
        let m = map_of(&[5]);
        let root = m.root_hash();
        verify_point(&prove_point(&m, 5), &root, 5, Some("v5")).unwrap();
        // Absence on both sides of the only key.
        verify_point(&prove_point(&m, 0), &root, 0, None).unwrap();
        verify_point(&prove_point(&m, u64::MAX), &root, u64::MAX, None).unwrap();
    }

    #[test]
    fn absence_proofs_at_both_ends_of_key_range() {
        let m = map_of(&(10..50).collect::<Vec<_>>());
        let root = m.root_hash();
        for k in [0, 9, 50, u64::MAX] {
            verify_point(&prove_point(&m, k), &root, k, None).unwrap();
        }
        // The extremes of the key space are provable when present too:
        // `[u64::MAX, u64::MAX]` needs no `key + 1`.
        let m = map_of(&[0, 7, u64::MAX]);
        let root = m.root_hash();
        for k in [0, u64::MAX] {
            verify_point(&prove_point(&m, k), &root, k, Some(&format!("v{k}"))).unwrap();
        }
    }

    #[test]
    fn proof_fails_against_digest_after_write() {
        let mut m = map_of(&[1, 2, 3]);
        let proof = prove_point(&m, 2);
        let old_root = m.root_hash();
        m.insert(4, "v4".to_string());
        let new_root = m.root_hash();
        // Still good against the root it was made for...
        verify_point(&proof, &old_root, 2, Some("v2")).unwrap();
        // ...but stale against the post-write digest.
        assert_eq!(
            verify_point(&proof, &new_root, 2, Some("v2")),
            Err(ProofError::RootMismatch)
        );
        // A fresh proof tracks the new digest.
        verify_point(&prove_point(&m, 2), &new_root, 2, Some("v2")).unwrap();
    }

    #[test]
    fn spliced_path_rejected_by_order_check() {
        let m = map_of(&(0..32).collect::<Vec<_>>());
        let root = m.root_hash();
        let mut proof = prove_point(&m, 3);
        // Mirror the root: the path now descends on the wrong side of
        // its first key, which the bounds check catches before any hash.
        let RangeNode::Path { left, right, .. } = &mut proof.root else {
            panic!("a 32-key map has a root path node")
        };
        std::mem::swap(left, right);
        assert_eq!(
            verify_point(&proof, &root, 3, Some("v3")),
            Err(ProofError::OrderViolation)
        );
    }

    #[test]
    fn proof_depth_is_logarithmic() {
        let m = map_of(&(0..1024).collect::<Vec<_>>());
        let worst = (0..1024u64).map(|k| prove_point(&m, k).depth()).max().unwrap();
        // A deterministic treap over 1024 keys stays well under the
        // linear worst case; generous bound to avoid flakiness.
        assert!(worst <= 40, "worst proof depth {worst}");
        assert!(prove_point(&m, 0).wire_len() > 0);
    }

    /// The point proof is the search path alone: every sibling subtree,
    /// the target's own children included, collapses to one hash.
    #[test]
    fn point_proof_prunes_every_subtree_off_the_path() {
        fn count(node: &RangeNode<u64>) -> (usize, usize) {
            match node {
                RangeNode::Path { left, right, .. } => {
                    let (l, r) = (count(left), count(right));
                    (1 + l.0 + r.0, l.1 + r.1)
                }
                RangeNode::InRange { .. } => (0, 1),
                _ => (0, 0),
            }
        }
        let m = map_of(&(0..1024).collect::<Vec<_>>());
        for k in [0u64, 511, 1023, 5000] {
            let proof = prove_point(&m, k);
            let (paths, in_range) = count(&proof.root);
            assert_eq!(paths, proof.depth(), "key {k}: one path, no branches");
            assert_eq!(in_range, 0);
        }
    }

    /// The rows a correct slave would return for `[start, end)`.
    fn rows_of(m: &PMap<u64, String>, start: u64, end: u64) -> Vec<(u64, Vec<u8>)> {
        m.iter_from(&start)
            .take_while(|(k, _)| **k < end)
            .map(|(k, v)| (*k, enc(v)))
            .collect()
    }

    #[test]
    fn range_proofs_verify_and_match_iter_from() {
        let m = map_of(&[2, 4, 6, 8, 10, 12, 14, 20, 30, 40]);
        let root = m.root_hash();
        for start in 0..=42u64 {
            for end in start..=42 {
                let rows = rows_of(&m, start, end);
                let proof = m.prove_range(&start, Bound::Excluded(&end));
                proof
                    .verify(&root, &start, Bound::Excluded(&end), &rows)
                    .unwrap_or_else(|e| panic!("[{start},{end}): {e}"));
                // The closed range adds exactly the row at `end`, if any.
                let mut closed = rows.clone();
                closed.extend(m.get(&end).map(|v| (end, enc(v))));
                m.prove_range(&start, Bound::Included(&end))
                    .verify(&root, &start, Bound::Included(&end), &closed)
                    .unwrap_or_else(|e| panic!("[{start},{end}]: {e}"));
            }
            let tail = rows_of(&m, start, u64::MAX);
            m.prove_range(&start, Bound::Unbounded)
                .verify(&root, &start, Bound::Unbounded, &tail)
                .unwrap_or_else(|e| panic!("[{start},..): {e}"));
        }
    }

    #[test]
    fn range_proof_covers_whole_map_and_empty_map() {
        let m = map_of(&(0..100).collect::<Vec<_>>());
        let rows = rows_of(&m, 0, 1000);
        assert_eq!(rows.len(), 100);
        let proof = m.prove_range(&0, Bound::Excluded(&1000));
        proof.verify(&m.root_hash(), &0, Bound::Excluded(&1000), &rows).unwrap();

        let empty: PMap<u64, String> = PMap::new();
        let proof = empty.prove_range(&0, Bound::Excluded(&1000));
        proof.verify(&empty.root_hash(), &0, Bound::Excluded(&1000), &[]).unwrap();
    }

    #[test]
    fn range_proof_rejects_row_mutations() {
        let m = map_of(&(0..64).collect::<Vec<_>>());
        let root = m.root_hash();
        let (start, end) = (10u64, Bound::Excluded(&30u64));
        let rows = rows_of(&m, start, 30);
        let proof = m.prove_range(&start, end);
        proof.verify(&root, &start, end, &rows).unwrap();

        // Dropping any single row is caught (completeness).
        for i in 0..rows.len() {
            let mut dropped = rows.clone();
            dropped.remove(i);
            assert!(
                proof.verify(&root, &start, end, &dropped).is_err(),
                "dropping row {i} accepted"
            );
        }
        // Inserting a phantom row is caught.
        let mut extra = rows.clone();
        extra.insert(5, (15, enc("phantom")));
        assert!(proof.verify(&root, &start, end, &extra).is_err());
        // Reordering is caught.
        let mut swapped = rows.clone();
        swapped.swap(3, 4);
        assert!(proof.verify(&root, &start, end, &swapped).is_err());
        // A wrong value is caught.
        let mut forged = rows.clone();
        forged[7].1 = enc("wrong");
        assert_eq!(
            proof.verify(&root, &start, end, &forged),
            Err(ProofError::RootMismatch)
        );
    }

    /// Replaces the first `Pruned` hash found with a poisoned digest.
    fn poison_first_pruned(node: &mut RangeNode<u64>) -> bool {
        match node {
            RangeNode::Pruned(h) => {
                *h = leaf_hash(b"evil");
                true
            }
            RangeNode::Path { left, right, .. } => {
                poison_first_pruned(left) || poison_first_pruned(right)
            }
            _ => false,
        }
    }

    /// Turns the first in-range subtree into a pruned hash — the classic
    /// omission attack: hide rows behind an opaque digest.
    fn hide_first_in_range(node: &mut RangeNode<u64>) -> bool {
        match node {
            RangeNode::InRange { .. } => {
                *node = RangeNode::Pruned(leaf_hash(b"hidden"));
                true
            }
            RangeNode::Path { left, right, .. } => {
                hide_first_in_range(left) || hide_first_in_range(right)
            }
            _ => false,
        }
    }

    #[test]
    fn range_proof_rejects_skeleton_tampering() {
        let m = map_of(&(0..64).collect::<Vec<_>>());
        let root = m.root_hash();
        let (start, end) = (10u64, Bound::Excluded(&30u64));
        let rows = rows_of(&m, start, 30);

        let mut poisoned = m.prove_range(&start, end);
        assert!(poison_first_pruned(&mut poisoned.root));
        assert_eq!(
            poisoned.verify(&root, &start, end, &rows),
            Err(ProofError::RootMismatch)
        );

        // Omission: pruning an in-range subtree must fail the bounds
        // check (OrderViolation) no matter what hash it claims, even
        // when the rows are truncated to match.
        let mut hiding = m.prove_range(&start, end);
        assert!(hide_first_in_range(&mut hiding.root));
        assert!(matches!(
            hiding.verify(&root, &start, end, &rows),
            Err(ProofError::OrderViolation | ProofError::ShapeMismatch)
        ));
        for cut in 0..rows.len() {
            let truncated = &rows[..cut];
            assert!(
                hiding.verify(&root, &start, end, truncated).is_err(),
                "omission with {cut} rows accepted"
            );
        }
    }

    #[test]
    fn range_proof_is_stale_after_write() {
        let mut m = map_of(&(0..32).collect::<Vec<_>>());
        let rows = rows_of(&m, 5, 15);
        let proof = m.prove_range(&5, Bound::Excluded(&15));
        let old_root = m.root_hash();
        m.insert(7, "rewritten".to_string());
        proof.verify(&old_root, &5, Bound::Excluded(&15), &rows).unwrap();
        assert_eq!(
            proof.verify(&m.root_hash(), &5, Bound::Excluded(&15), &rows),
            Err(ProofError::RootMismatch)
        );
    }

    #[test]
    fn range_proof_wire_is_sublinear_in_map_size() {
        let m = map_of(&(0..4096).collect::<Vec<_>>());
        let (start, end) = (1000u64, 1256u64);
        let rows = rows_of(&m, start, end);
        assert_eq!(rows.len(), 256);
        let range = m.prove_range(&start, Bound::Excluded(&end));
        range.verify(&m.root_hash(), &start, Bound::Excluded(&end), &rows).unwrap();

        let point_wire: usize = (start..end).map(|k| prove_point(&m, k).wire_len()).sum();
        assert!(
            range.wire_len() * 5 <= point_wire,
            "range proof {} bytes vs {} for 256 ranges of one",
            range.wire_len(),
            point_wire
        );
        assert!(range.depth() <= 80, "boundary depth {}", range.depth());
    }

    /// A Byzantine prover's right spine of out-of-range `Path` nodes with
    /// ascending keys passes every order check; without a depth bound
    /// the recursive fold overflows the verifier's stack long before it
    /// compares a hash.  Run on a 2 MiB thread, the size Rust gives
    /// spawned threads by default.
    #[test]
    fn deep_skeleton_is_rejected_not_a_stack_overflow() {
        const LEVELS: u64 = 10_000;
        let verdict = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut node = RangeNode::Empty;
                for k in (1..=LEVELS).rev() {
                    node = RangeNode::Path {
                        key: k,
                        value_commitment: Some(leaf_hash(b"v")),
                        left: Box::new(RangeNode::Empty),
                        right: Box::new(node),
                    };
                }
                let proof = RangeProof { root: node };
                let key = LEVELS + 1;
                let verdict = verify_point(&proof, &leaf_hash(b"root"), key, None);
                // Dropping the spine recurses too; that much depth is
                // fine (the decoder's own bound is a separate concern).
                drop(proof);
                verdict
            })
            .expect("spawn")
            .join()
            .expect("the fold returns instead of overflowing");
        assert_eq!(verdict, Err(ProofError::ShapeMismatch));

        // The same depth hidden in an `InRange` rebuild: rows whose
        // priorities fall as their keys rise rebuild a right spine.
        let prio = |k: u64| {
            let mut buf = Vec::new();
            k.encode_key(&mut buf);
            priority(&buf)
        };
        let (mut rows, mut floor) = (vec![(1u64, enc("x"))], u64::MAX);
        for k in 2.. {
            let p = prio(k);
            if p < floor && floor - p < u64::MAX / 256 {
                rows.push((k, enc("x")));
                floor = p;
                if rows.len() > MAX_PROOF_DEPTH + 50 {
                    break;
                }
            }
        }
        let proof = RangeProof {
            root: RangeNode::Path {
                key: 1,
                value_commitment: None,
                left: Box::new(RangeNode::Empty),
                right: Box::new(RangeNode::InRange {
                    count: rows.len() as u32 - 1,
                }),
            },
        };
        assert_eq!(
            proof.computed_root(&1, Bound::Unbounded, &rows),
            Err(ProofError::ShapeMismatch)
        );
    }

    #[test]
    fn node_stats_track_sharing() {
        let mut m = map_of(&(0..100).collect::<Vec<_>>());
        let before = m.node_stats();
        assert_eq!(before.total(), 100);
        assert_eq!(before.shared, 0);

        let snap = m.clone();
        // Everything reachable from both handles is now shared.
        assert_eq!(m.node_stats().shared, 100);
        assert_eq!(snap.node_stats().owned, 0);

        // A point write re-owns only the copied path.
        *m.get_mut(&50).expect("present") = "new".into();
        let after = m.node_stats();
        assert_eq!(after.total(), 100);
        assert!(after.owned >= 1 && after.owned <= 40, "owned {}", after.owned);
        drop(snap);
        assert_eq!(m.node_stats().shared, 0);
    }
}
