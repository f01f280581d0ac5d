//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;
use sdr_crypto::{
    hex, hmac_sha256, Digest, HmacDrbg, MerkleTree, MssKeypair, Sha1, Sha256, WotsKeypair,
};

/// Messages of up to 2 KiB, half of them at the lengths where the block
/// buffer's padding changes shape: 55 (the length still fits), 56 (it
/// spills into another block), 63 and 64 (the block is full).
fn message() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..2048),
        proptest::collection::vec(any::<u8>(), 55..65),
    ]
}

proptest! {
    /// Incremental hashing equals one-shot hashing for any split points.
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in message(),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..5),
    ) {
        let mut points: Vec<usize> = cuts.iter().map(|i| i.index(data.len() + 1)).collect();
        points.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for p in points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha1_incremental_equals_oneshot(
        data in message(),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..5),
    ) {
        let mut points: Vec<usize> = cuts.iter().map(|i| i.index(data.len() + 1)).collect();
        points.sort_unstable();
        let mut h = Sha1::new();
        let mut prev = 0;
        for p in points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), Sha1::digest(&data));
    }

    /// Hex encoding round-trips for any byte string.
    #[test]
    fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let encoded = hex::encode(&data);
        prop_assert_eq!(hex::decode(&encoded), Some(data));
    }

    /// HMAC is deterministic and key-sensitive.
    #[test]
    fn hmac_deterministic_and_key_sensitive(
        key in proptest::collection::vec(any::<u8>(), 1..128),
        msg in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let a = hmac_sha256(&key, &msg);
        let b = hmac_sha256(&key, &msg);
        prop_assert_eq!(a, b);
        let mut key2 = key.clone();
        key2[0] ^= 0x01;
        prop_assert_ne!(a, hmac_sha256(&key2, &msg));
    }

    /// Every Merkle proof of every leaf verifies; a flipped leaf fails.
    #[test]
    fn merkle_proofs_sound_and_complete(
        leaves in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..32), 1..40),
        flip in any::<prop::sample::Index>(),
    ) {
        let tree = MerkleTree::from_data(&leaves).expect("non-empty");
        let root = tree.root();
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).expect("in range");
            let leaf_hash = sdr_crypto::merkle::leaf_hash(leaf);
            prop_assert!(MerkleTree::verify(&root, &leaf_hash, &proof).is_ok());
        }
        // Tamper with one leaf.
        let idx = flip.index(leaves.len());
        let proof = tree.prove(idx).expect("in range");
        let mut tampered = leaves[idx].clone();
        tampered[0] ^= 0xff;
        let bad_hash = sdr_crypto::merkle::leaf_hash(&tampered);
        prop_assert!(MerkleTree::verify(&root, &bad_hash, &proof).is_err());
    }

    /// WOTS round-trips on arbitrary messages and rejects any other message.
    #[test]
    fn wots_roundtrip_and_forgery_rejection(
        seed in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
        other in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let kp = WotsKeypair::from_seed(&seed);
        let sig = kp.sign_unchecked(&msg);
        prop_assert!(WotsKeypair::verify(&kp.public_key(), &msg, &sig).is_ok());
        if other != msg {
            prop_assert!(WotsKeypair::verify(&kp.public_key(), &other, &sig).is_err());
        }
    }

    /// DRBG streams are deterministic per seed and diverge across seeds.
    #[test]
    fn drbg_determinism(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let mut x = HmacDrbg::from_seed_label(seed_a, b"p");
        let mut y = HmacDrbg::from_seed_label(seed_a, b"p");
        prop_assert_eq!(x.generate(64), y.generate(64));
        if seed_a != seed_b {
            let mut z = HmacDrbg::from_seed_label(seed_b, b"p");
            prop_assert_ne!(y.generate(64), z.generate(64));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// MSS signatures round-trip across the whole (small) key capacity and
    /// never verify under a tampered message.
    #[test]
    fn mss_full_capacity_roundtrip(seed in any::<[u8; 32]>()) {
        let mut kp = MssKeypair::generate(seed, 2).expect("height ok");
        let pk = kp.public_key();
        for i in 0..4u64 {
            let msg = format!("msg-{i}");
            let sig = kp.sign(msg.as_bytes()).expect("capacity");
            prop_assert!(MssKeypair::verify(&pk, msg.as_bytes(), &sig).is_ok());
            prop_assert!(MssKeypair::verify(&pk, b"other", &sig).is_err());
        }
        prop_assert!(kp.sign(b"exhausted").is_err());
    }
}
