//! Merkle hash trees with authentication paths.
//!
//! Two tree shapes share the `leaf_hash`/`node_hash` primitives:
//!
//! * [`MerkleTree`] — the classic balanced tree over a leaf *list*; the
//!   Merkle signature scheme (`crate::mss`) certifies one-time keys with
//!   it, exactly the "hash-tree authentication [12]" the paper's
//!   related-work section describes.
//! * **Treap paths** ([`TreapStep`], [`verify_path`]) — authentication
//!   paths through the search-tree-shaped digests the persistent store
//!   (`sdr-store::pmap`) maintains, where every node carries an *entry*
//!   (a key/value commitment) in addition to its two children.  These
//!   back the protocol's authenticated point reads: a slave proves a row
//!   or file against a master-signed state digest with O(log n) hashes.

use crate::digest::{Digest, Hash256};
use crate::error::CryptoError;
use crate::sha256::Sha256;

/// Domain-separation prefixes so leaves can never collide with nodes.
const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// Hashes raw leaf data into a leaf hash.
pub fn leaf_hash(data: &[u8]) -> Hash256 {
    Sha256::digest_parts(&[&[LEAF_PREFIX], data])
}

/// Hashes two child hashes into a parent node hash.
pub fn node_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    Sha256::digest_parts(&[&[NODE_PREFIX], left.as_ref(), right.as_ref()])
}

/// Domain tag for content-defined chunk commitments ([`chunk_hash`]).
const CHUNK_DOMAIN: &[u8] = b"sdr/chunk/v1";

/// Commitment to one content-defined chunk of file data.
///
/// The chunk store (`sdr-store::chunk`) addresses chunks by this digest,
/// and file manifests embed it per chunk, so a streamed read verifies
/// each chunk independently: `chunk_hash(bytes)` must equal the manifest
/// entry, which the manifest's own commitment binds into the state
/// digest.  The length prefix plus a dedicated domain keep chunk
/// commitments disjoint from leaf/node hashes and from each other under
/// concatenation ambiguity.
pub fn chunk_hash(data: &[u8]) -> Hash256 {
    Sha256::digest_parts(&[CHUNK_DOMAIN, &(data.len() as u64).to_be_bytes(), data])
}

/// Commitment to one search-tree entry: a key commitment paired with a
/// value commitment.  Binding key and value separately (instead of
/// hashing their concatenation) lets authentication paths ship a path
/// node's key in the clear — needed to check search-order consistency
/// for absence proofs — while its possibly-large value travels only as
/// a 32-byte commitment.
pub fn entry_commitment(key_commitment: &Hash256, value_commitment: &Hash256) -> Hash256 {
    node_hash(key_commitment, value_commitment)
}

/// Subtree hash of a search-tree node from its parts:
/// `H(H(left, entry), right)`.
pub fn treap_node_hash(left: &Hash256, entry: &Hash256, right: &Hash256) -> Hash256 {
    node_hash(&node_hash(left, entry), right)
}

/// One step up a treap-shaped authentication path: the ancestor's entry
/// commitment, the subtree hash of its *other* child, and which side the
/// proven subtree hangs off.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreapStep {
    /// The ancestor node's entry commitment ([`entry_commitment`]).
    pub entry: Hash256,
    /// Subtree hash of the ancestor's child on the *opposite* side.
    pub sibling: Hash256,
    /// `true` when the proven subtree is the ancestor's **left** child.
    pub from_left: bool,
}

/// Folds a starting subtree hash up a treap authentication path,
/// returning the implied root.  `steps` run leaf-to-root.
pub fn fold_treap_path(start: &Hash256, steps: &[TreapStep]) -> Hash256 {
    let mut acc = *start;
    for step in steps {
        acc = if step.from_left {
            treap_node_hash(&acc, &step.entry, &step.sibling)
        } else {
            treap_node_hash(&step.sibling, &step.entry, &acc)
        };
    }
    acc
}

/// Verifies that `start` (the commitment of the proven subtree — a
/// present node's [`treap_node_hash`], or the empty-subtree digest for an
/// absence proof) folds up `steps` to `root`.
///
/// This checks hash structure only; callers that need *semantic* claims
/// (the path really is the search path for a key) must additionally
/// check key ordering against the per-step keys they transported — the
/// typed layer in `sdr-store` does exactly that.
pub fn verify_path(
    root: &Hash256,
    start: &Hash256,
    steps: &[TreapStep],
) -> Result<(), CryptoError> {
    if fold_treap_path(start, steps) == *root {
        Ok(())
    } else {
        Err(CryptoError::InvalidProof)
    }
}

/// A Merkle tree over a list of leaf hashes.
///
/// Odd nodes at any level are paired with themselves (duplicated), so the
/// tree is defined for any non-zero leaf count.  All levels are retained,
/// making proof generation O(log n) with no recomputation.
///
/// # Examples
///
/// ```
/// use sdr_crypto::merkle::{leaf_hash, MerkleTree};
///
/// let items = [b"alpha".as_ref(), b"beta".as_ref(), b"gamma".as_ref()];
/// let tree = MerkleTree::from_data(&items).unwrap();
/// let proof = tree.prove(1).unwrap();
/// MerkleTree::verify(&tree.root(), &leaf_hash(b"beta"), &proof).unwrap();
/// assert!(MerkleTree::verify(&tree.root(), &leaf_hash(b"evil"), &proof).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct MerkleTree {
    levels: Vec<Vec<Hash256>>,
}

/// An authentication path proving a leaf belongs to a root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: u64,
    /// Sibling hashes from the leaf level up to (excluding) the root.
    pub siblings: Vec<Hash256>,
}

impl MerkleTree {
    /// Builds a tree from pre-hashed leaves.
    ///
    /// Returns an error when `leaves` is empty.
    pub fn from_leaves(leaves: Vec<Hash256>) -> Result<Self, CryptoError> {
        if leaves.is_empty() {
            return Err(CryptoError::Malformed("empty Merkle tree"));
        }
        let mut levels = vec![leaves];
        while levels.last().map(Vec::len) != Some(1) {
            let prev = levels.last().expect("levels is non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = &pair[0];
                let right = pair.get(1).unwrap_or(left);
                next.push(node_hash(left, right));
            }
            levels.push(next);
        }
        Ok(MerkleTree { levels })
    }

    /// Builds a tree by hashing raw leaf data with [`leaf_hash`].
    pub fn from_data<T: AsRef<[u8]>>(items: &[T]) -> Result<Self, CryptoError> {
        Self::from_leaves(items.iter().map(|d| leaf_hash(d.as_ref())).collect())
    }

    /// The tree root.
    pub fn root(&self) -> Hash256 {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Returns the leaf hash at `index`, if present.
    pub fn leaf(&self, index: usize) -> Option<&Hash256> {
        self.levels[0].get(index)
    }

    /// Produces the authentication path for the leaf at `index`.
    pub fn prove(&self, index: usize) -> Result<MerkleProof, CryptoError> {
        if index >= self.leaf_count() {
            return Err(CryptoError::Malformed("leaf index out of range"));
        }
        let mut siblings = Vec::with_capacity(self.levels.len() - 1);
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            let sibling = level.get(sibling_idx).unwrap_or(&level[idx]);
            siblings.push(*sibling);
            idx /= 2;
        }
        Ok(MerkleProof {
            leaf_index: index as u64,
            siblings,
        })
    }

    /// Verifies that `leaf` at the proof's index folds up to `root`.
    pub fn verify(root: &Hash256, leaf: &Hash256, proof: &MerkleProof) -> Result<(), CryptoError> {
        let computed = Self::fold(leaf, proof);
        if computed == *root {
            Ok(())
        } else {
            Err(CryptoError::InvalidProof)
        }
    }

    /// Folds a leaf up an authentication path, returning the implied root.
    pub fn fold(leaf: &Hash256, proof: &MerkleProof) -> Hash256 {
        let mut acc = *leaf;
        let mut idx = proof.leaf_index;
        for sibling in &proof.siblings {
            acc = if idx & 1 == 0 {
                node_hash(&acc, sibling)
            } else {
                node_hash(sibling, &acc)
            };
            idx >>= 1;
        }
        acc
    }

    /// Height of the tree (number of levels above the leaves).
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// Produces one authentication object for the contiguous leaf range
    /// `[first, end)` — O(log n) sibling hashes total, instead of one
    /// full path per leaf.
    pub fn prove_range(&self, first: usize, end: usize) -> Result<MerkleRangeProof, CryptoError> {
        if first >= end || end > self.leaf_count() {
            return Err(CryptoError::Malformed("leaf range out of bounds"));
        }
        let mut siblings = Vec::new();
        let (mut a, mut b) = (first, end);
        for level in &self.levels[..self.levels.len() - 1] {
            if a % 2 == 1 {
                siblings.push(level[a - 1]);
                a -= 1;
            }
            if b % 2 == 1 && b < level.len() {
                siblings.push(level[b]);
            }
            a /= 2;
            b = b.div_ceil(2);
        }
        Ok(MerkleRangeProof {
            first: first as u64,
            siblings,
        })
    }
}

/// An authentication object for a *contiguous* range of leaves.
///
/// Where [`MerkleProof`] ships one sibling path per leaf (O(k log n)
/// hashes for k leaves), a range proof ships only the boundary siblings:
/// the verifier folds the claimed leaves pairwise level by level, pulling
/// a sibling from the proof only where the known segment starts at an odd
/// index or ends before an odd boundary — O(log n) hashes total.
///
/// The verifier must know the tree's total leaf count from a trusted
/// channel (here: the manifest encoding the outer fold commits to), so
/// the odd-node duplication rule cannot be abused to append phantom
/// copies of the last leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleRangeProof {
    /// Index of the first proven leaf.
    pub first: u64,
    /// Boundary sibling hashes, leaf level upward; within one level the
    /// left sibling (if any) precedes the right.
    pub siblings: Vec<Hash256>,
}

impl MerkleRangeProof {
    /// Folds the claimed `leaves` (the range's leaf hashes, in order) up
    /// to the implied root of a tree with `leaf_count` total leaves.
    ///
    /// Errors when the range is out of bounds or the proof has the wrong
    /// number of siblings for this geometry.
    pub fn fold(&self, leaf_count: usize, leaves: &[Hash256]) -> Result<Hash256, CryptoError> {
        let first = self.first as usize;
        let end = first.checked_add(leaves.len()).ok_or(CryptoError::Malformed("range overflow"))?;
        if leaves.is_empty() || end > leaf_count {
            return Err(CryptoError::Malformed("leaf range out of bounds"));
        }
        let mut segment: Vec<Hash256> = leaves.to_vec();
        let (mut a, mut b) = (first, end);
        let mut level_len = leaf_count;
        let mut used = 0usize;
        while level_len > 1 {
            if a % 2 == 1 {
                let sib = *self.siblings.get(used).ok_or(CryptoError::InvalidProof)?;
                used += 1;
                segment.insert(0, sib);
                a -= 1;
            }
            if b % 2 == 1 {
                if b < level_len {
                    let sib = *self.siblings.get(used).ok_or(CryptoError::InvalidProof)?;
                    used += 1;
                    segment.push(sib);
                } else {
                    // Odd tail: the last node pairs with itself.
                    segment.push(*segment.last().expect("segment non-empty"));
                }
            }
            segment = segment
                .chunks(2)
                .map(|pair| node_hash(&pair[0], &pair[1]))
                .collect();
            a /= 2;
            b = b.div_ceil(2);
            level_len = level_len.div_ceil(2);
        }
        if used != self.siblings.len() || segment.len() != 1 {
            return Err(CryptoError::InvalidProof);
        }
        Ok(segment[0])
    }

    /// Verifies the claimed leaf range against a trusted root.
    pub fn verify(
        &self,
        root: &Hash256,
        leaf_count: usize,
        leaves: &[Hash256],
    ) -> Result<(), CryptoError> {
        if self.fold(leaf_count, leaves)? == *root {
            Ok(())
        } else {
            Err(CryptoError::InvalidProof)
        }
    }

    /// Approximate wire size in bytes (index + sibling hashes).
    pub fn wire_len(&self) -> usize {
        8 + self.siblings.len() * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Hash256> {
        (0..n)
            .map(|i| leaf_hash(format!("leaf-{i}").as_bytes()))
            .collect()
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        let tree = MerkleTree::from_leaves(l.clone()).unwrap();
        assert_eq!(tree.root(), l[0]);
        assert_eq!(tree.height(), 0);
    }

    #[test]
    fn empty_rejected() {
        assert!(MerkleTree::from_leaves(vec![]).is_err());
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=33 {
            let l = leaves(n);
            let tree = MerkleTree::from_leaves(l.clone()).unwrap();
            for (i, leaf) in l.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                MerkleTree::verify(&tree.root(), leaf, &proof)
                    .unwrap_or_else(|e| panic!("n={n} i={i}: {e}"));
            }
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let l = leaves(8);
        let tree = MerkleTree::from_leaves(l).unwrap();
        let proof = tree.prove(3).unwrap();
        let bogus = leaf_hash(b"not a real leaf");
        assert_eq!(
            MerkleTree::verify(&tree.root(), &bogus, &proof),
            Err(CryptoError::InvalidProof)
        );
    }

    #[test]
    fn wrong_index_fails() {
        let l = leaves(8);
        let tree = MerkleTree::from_leaves(l.clone()).unwrap();
        let mut proof = tree.prove(3).unwrap();
        proof.leaf_index = 4;
        assert!(MerkleTree::verify(&tree.root(), &l[3], &proof).is_err());
    }

    #[test]
    fn tampered_sibling_fails() {
        let l = leaves(16);
        let tree = MerkleTree::from_leaves(l.clone()).unwrap();
        let mut proof = tree.prove(7).unwrap();
        proof.siblings[2] = leaf_hash(b"evil");
        assert!(MerkleTree::verify(&tree.root(), &l[7], &proof).is_err());
    }

    #[test]
    fn out_of_range_proof_rejected() {
        let tree = MerkleTree::from_leaves(leaves(4)).unwrap();
        assert!(tree.prove(4).is_err());
    }

    #[test]
    fn leaf_and_node_domains_differ() {
        // A node hash over (x, x) must differ from leaf hash of x||x.
        let x = leaf_hash(b"x");
        let node = node_hash(&x, &x);
        let mut concat = Vec::new();
        concat.extend_from_slice(x.as_ref());
        concat.extend_from_slice(x.as_ref());
        assert_ne!(node, leaf_hash(&concat));
    }

    #[test]
    fn from_data_matches_manual() {
        let items = [b"a".as_ref(), b"b".as_ref(), b"c".as_ref()];
        let t1 = MerkleTree::from_data(&items).unwrap();
        let t2 =
            MerkleTree::from_leaves(items.iter().map(|d| leaf_hash(d)).collect()).unwrap();
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn different_leaf_sets_different_roots() {
        let a = MerkleTree::from_data(&[b"a", b"b"]).unwrap();
        let b = MerkleTree::from_data(&[b"a", b"c"]).unwrap();
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn range_proofs_verify_for_all_sizes_and_ranges() {
        for n in 1..=17 {
            let l = leaves(n);
            let tree = MerkleTree::from_leaves(l.clone()).unwrap();
            for first in 0..n {
                for end in (first + 1)..=n {
                    let proof = tree.prove_range(first, end).unwrap();
                    proof
                        .verify(&tree.root(), n, &l[first..end])
                        .unwrap_or_else(|e| panic!("n={n} [{first},{end}): {e}"));
                }
            }
        }
    }

    #[test]
    fn range_proof_is_logarithmic_not_linear() {
        let n = 1024;
        let tree = MerkleTree::from_leaves(leaves(n)).unwrap();
        let proof = tree.prove_range(100, 356).unwrap();
        // 256 point proofs would carry 256 * 10 siblings; the range proof
        // carries at most two boundary siblings per level.
        assert!(proof.siblings.len() <= 2 * tree.height());
    }

    #[test]
    fn range_proof_rejects_mutations() {
        let n = 33;
        let l = leaves(n);
        let tree = MerkleTree::from_leaves(l.clone()).unwrap();
        let proof = tree.prove_range(5, 21).unwrap();
        let root = tree.root();

        // Dropped leaf.
        assert!(proof.verify(&root, n, &l[5..20]).is_err());
        // Extra leaf.
        assert!(proof.verify(&root, n, &l[5..22]).is_err());
        // Swapped neighbours.
        let mut swapped = l[5..21].to_vec();
        swapped.swap(3, 4);
        assert!(proof.verify(&root, n, &swapped).is_err());
        // Shifted start index.
        let mut shifted = proof.clone();
        shifted.first = 6;
        assert!(shifted.verify(&root, n, &l[5..21]).is_err());
        // Tampered sibling.
        let mut tampered = proof.clone();
        tampered.siblings[0] = leaf_hash(b"evil");
        assert!(tampered.verify(&root, n, &l[5..21]).is_err());
        // Lying about the leaf count on a tail-touching range
        // (phantom-duplicate defence: the odd tail pairs with itself,
        // so a phantom 34th leaf changes the required sibling set).
        let tail = tree.prove_range(28, 33).unwrap();
        tail.verify(&root, n, &l[28..33]).unwrap();
        assert!(tail.verify(&root, n + 1, &l[28..33]).is_err());
        // Empty claim.
        assert!(proof.verify(&root, n, &[]).is_err());
    }

    #[test]
    fn range_proof_out_of_bounds_rejected() {
        let tree = MerkleTree::from_leaves(leaves(8)).unwrap();
        assert!(tree.prove_range(3, 3).is_err());
        assert!(tree.prove_range(3, 9).is_err());
    }

    /// A three-node treap (b at the root, a left, c right) proved by hand.
    #[test]
    fn treap_path_folds_to_root() {
        let empty = leaf_hash(b"empty");
        let entry = |k: &[u8], v: &[u8]| entry_commitment(&leaf_hash(k), &leaf_hash(v));
        let ha = treap_node_hash(&empty, &entry(b"a", b"1"), &empty);
        let hc = treap_node_hash(&empty, &entry(b"c", b"3"), &empty);
        let root = treap_node_hash(&ha, &entry(b"b", b"2"), &hc);

        // Prove `a` (left child of the root).
        let steps = vec![TreapStep {
            entry: entry(b"b", b"2"),
            sibling: hc,
            from_left: true,
        }];
        verify_path(&root, &ha, &steps).unwrap();
        // Prove `c` (right child).
        let steps_c = vec![TreapStep {
            entry: entry(b"b", b"2"),
            sibling: ha,
            from_left: false,
        }];
        verify_path(&root, &hc, &steps_c).unwrap();
        // Absence below `a`: the empty link folds up through a and b.
        let absent = vec![
            TreapStep {
                entry: entry(b"a", b"1"),
                sibling: empty,
                from_left: true,
            },
            TreapStep {
                entry: entry(b"b", b"2"),
                sibling: hc,
                from_left: true,
            },
        ];
        verify_path(&root, &empty, &absent).unwrap();
    }

    #[test]
    fn treap_path_rejects_tampering() {
        let empty = leaf_hash(b"empty");
        let entry = |k: &[u8], v: &[u8]| entry_commitment(&leaf_hash(k), &leaf_hash(v));
        let ha = treap_node_hash(&empty, &entry(b"a", b"1"), &empty);
        let root = treap_node_hash(&ha, &entry(b"b", b"2"), &empty);
        let good = vec![TreapStep {
            entry: entry(b"b", b"2"),
            sibling: empty,
            from_left: true,
        }];
        verify_path(&root, &ha, &good).unwrap();

        // Flipping the side changes the fold.
        let mut flipped = good.clone();
        flipped[0].from_left = false;
        assert!(verify_path(&root, &ha, &flipped).is_err());
        // A forged entry (different value) fails.
        let forged = treap_node_hash(&empty, &entry(b"a", b"666"), &empty);
        assert!(verify_path(&root, &forged, &good).is_err());
        // Entry/value separation: swapping key and value commitments fails.
        let swapped = treap_node_hash(
            &empty,
            &entry_commitment(&leaf_hash(b"1"), &leaf_hash(b"a")),
            &empty,
        );
        assert!(verify_path(&root, &swapped, &good).is_err());
    }
}
