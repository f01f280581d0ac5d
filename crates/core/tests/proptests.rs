//! Property-based tests for protocol-level invariants: pledge
//! unforgeability, corruption detectability, and evidence soundness.

use proptest::prelude::*;
use sdr_core::config::HashAlgo;
use sdr_core::messages::VersionStamp;
use sdr_core::metrics;
use sdr_core::pledge::{Pledge, ResultHash};
use sdr_core::slave::corrupt;
use sdr_crypto::{HmacSigner, Signer};
use sdr_sim::{NodeId, SimTime};
use sdr_store::{Document, Query, QueryResult, Value};

fn arb_query() -> impl Strategy<Value = Query> {
    prop_oneof![
        ("[a-z]{1,8}", any::<u64>()).prop_map(|(table, key)| Query::GetRow { table, key }),
        ("[a-z]{1,8}", any::<u64>(), 0u32..100).prop_map(|(table, low, span)| Query::Range {
            table,
            low,
            high: low.saturating_add(u64::from(span)),
            limit: None,
        }),
        "[a-z/]{1,16}".prop_map(|path| Query::ReadFile { path }),
        ("[a-z]{1,6}", "[a-z/]{0,10}").prop_map(|(pattern, prefix)| Query::Grep {
            pattern,
            prefix
        }),
    ]
}

fn arb_result() -> impl Strategy<Value = QueryResult> {
    prop_oneof![
        any::<i64>().prop_map(|i| QueryResult::Scalar(Value::Int(i))),
        "[a-z ]{0,32}".prop_map(|s| QueryResult::Text(Some(s))),
        Just(QueryResult::Text(None)),
        proptest::collection::vec((any::<u64>(), any::<i64>()), 0..6).prop_map(|rows| {
            QueryResult::Rows(
                rows.into_iter()
                    .map(|(k, v)| (k, Document::new().with("v", v)))
                    .collect(),
            )
        }),
        proptest::collection::vec("[a-z/]{1,10}", 0..5).prop_map(QueryResult::Paths),
    ]
}

proptest! {
    /// Pledges verify when untouched and fail under any single-field
    /// tampering — a client can never frame an honest slave.
    #[test]
    fn pledge_unforgeable(
        query in arb_query(),
        result in arb_result(),
        version in any::<u64>(),
        ts in 0u64..1_000_000,
        tamper in 0usize..4,
    ) {
        let mut master = HmacSigner::from_seed_label(1, b"master");
        let mut slave = HmacSigner::from_seed_label(2, b"slave");
        let stamp = VersionStamp::build(
            version,
            SimTime::from_micros(ts),
            NodeId(0),
            &mut master,
        ).expect("stamp");
        let pledge = Pledge::build(
            query,
            ResultHash::of(&result, HashAlgo::Sha1),
            stamp,
            NodeId(9),
            &mut slave,
        ).expect("pledge");
        let key = slave.public_key();
        prop_assert!(pledge.verify_signature(&key).is_ok());
        prop_assert!(pledge.matches_result(&result));

        let mut forged = pledge.clone();
        match tamper {
            0 => { forged.slave = NodeId(10); }
            1 => { forged.stamp.version = forged.stamp.version.wrapping_add(1); }
            2 => {
                forged.result_hash = ResultHash::of(
                    &QueryResult::Scalar(Value::Int(-12345)),
                    HashAlgo::Sha1,
                );
            }
            _ => {
                forged.query = Query::ReadFile { path: "/tampered".into() };
            }
        }
        // Skip the rare no-op tamper (e.g. hash collision of same result).
        if forged != pledge {
            prop_assert!(forged.verify_signature(&key).is_err());
        }
    }

    /// Corruption always changes the canonical hash, for any result and
    /// salt, and distinct salts disagree on salt-bearing variants.
    #[test]
    fn corruption_always_detectable(result in arb_result(), salt in 0u64..1000) {
        let bad = corrupt(&result, salt);
        prop_assert_ne!(result.sha1(), bad.sha1());
        prop_assert_ne!(result.sha256(), bad.sha256());
    }

    /// Version stamps verify only under the signing master's key.
    #[test]
    fn stamp_key_binding(version in any::<u64>(), ts in any::<u32>()) {
        let mut m1 = HmacSigner::from_seed_label(1, b"m");
        let m2 = HmacSigner::from_seed_label(2, b"m");
        let stamp = VersionStamp::build(
            version,
            SimTime::from_micros(u64::from(ts)),
            NodeId(0),
            &mut m1,
        ).expect("stamp");
        prop_assert!(stamp.verify(&m1.public_key()).is_ok());
        prop_assert!(stamp.verify(&m2.public_key()).is_err());
    }

    /// Freshness is monotone: if a pledge is fresh at `t`, it is fresh at
    /// any earlier time ≥ its stamp.
    #[test]
    fn freshness_monotone(
        ts in 0u64..1_000_000u64,
        bound_ms in 1u64..5_000,
        dt1 in 0u64..10_000_000,
        dt2 in 0u64..10_000_000,
    ) {
        let mut master = HmacSigner::from_seed_label(1, b"m");
        let mut slave = HmacSigner::from_seed_label(2, b"s");
        let stamp = VersionStamp::build(
            1, SimTime::from_micros(ts), NodeId(0), &mut master,
        ).expect("stamp");
        let pledge = Pledge::build(
            Query::ReadFile { path: "/x".into() },
            ResultHash::of(&QueryResult::Text(None), HashAlgo::Sha1),
            stamp,
            NodeId(3),
            &mut slave,
        ).expect("pledge");
        let bound = sdr_sim::SimDuration::from_millis(bound_ms);
        let (early, late) = if dt1 <= dt2 { (dt1, dt2) } else { (dt2, dt1) };
        let t_early = SimTime::from_micros(ts + early);
        let t_late = SimTime::from_micros(ts + late);
        if pledge.is_fresh(t_late, bound) {
            prop_assert!(pledge.is_fresh(t_early, bound));
        }
    }
}

proptest! {
    // End-to-end cache oracle runs are expensive; a handful of random
    // interleavings per CI run is plenty (PROPTEST_CASES raises it
    // locally).
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Cached-vs-fresh oracle: across random write/read interleavings
    /// (seed, skew, and write rate all drawn), every cache hit rebuilds
    /// the reply host-side and byte-compares it against the cached copy
    /// (`cache_verify`).  Zero divergence means cached replies are
    /// byte-identical to freshly built ones; zero proof rejections means
    /// no stale cached proof ever outlived a version bump.
    #[test]
    fn cached_replies_byte_identical_to_fresh_under_random_interleavings(
        seed in 1u64..1_000,
        skew in 0.0f64..1.0,
        writes_per_sec in 0.0f64..2.0,
    ) {
        use sdr_core::{SlaveBehavior, SystemBuilder, SystemConfig, Workload};

        let cfg = SystemConfig {
            n_masters: 3,
            n_slaves: 3,
            n_clients: 4,
            seed,
            cache_verify: true,
            ..SystemConfig::default()
        };
        let mut w = Workload::default();
        w.dataset.n_products = 40;
        w.dataset.hot_fraction = 0.05;
        w.dataset.skew = skew;
        w.reads_per_sec = 30.0;
        w.writes_per_sec = writes_per_sec;
        w.writer_fraction = 0.5;
        w.mix.get = 80;
        w.mix.grep = 0;
        w.mix.join = 0;
        w.mix.aggregate = 0;
        let n = cfg.n_slaves;
        let mut sys = SystemBuilder::new(cfg)
            .behaviors(vec![SlaveBehavior::Honest; n])
            .workload(w)
            .build();
        sys.run_for(sdr_sim::SimDuration::from_secs(4));

        let stats = sys.stats();
        prop_assert_eq!(stats.wrong_accepted, 0);
        prop_assert_eq!(stats.proof_reads_rejected, 0, "stale cached proof served");
        let m = sys.world.metrics();
        prop_assert_eq!(m.counter(metrics::SLAVE_CACHE_DIVERGENCE), 0);
        prop_assert_eq!(m.counter(metrics::CLIENT_CACHE_DIVERGENCE), 0);
    }
}
