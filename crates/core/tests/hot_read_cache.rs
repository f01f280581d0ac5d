//! Hot-read fast-path tests: the two-sided proof/stamp cache must be an
//! optimization only.  Cached replies are byte-identical to freshly
//! built ones (the `cache_verify` oracle), stale cached proofs never
//! survive a version bump, a cache-poisoning slave cannot forge an
//! accepted proof, and the flash-crowd scenario hits the cache hard
//! with zero wrong accepts.

use sdr_core::messages::{Msg, StateDigestStamp};
use sdr_core::metrics;
use sdr_core::scenario::{registry, Grid, Param, Runner};
use sdr_core::verify::{self, RejectReason, VerifyEnv};
use sdr_core::{SlaveBehavior, System, SystemBuilder, SystemConfig, Workload};
use sdr_crypto::{HmacSigner, Signer};
use sdr_sim::{NodeId, SimDuration, SimTime};
use sdr_store::{execute, Query, QueryResult, Value};

fn small_config(seed: u64) -> SystemConfig {
    SystemConfig {
        n_masters: 3,
        n_slaves: 4,
        n_clients: 8,
        seed,
        ..SystemConfig::default()
    }
}

fn build(cfg: SystemConfig, behaviors: Vec<SlaveBehavior>, workload: Workload) -> System {
    SystemBuilder::new(cfg).behaviors(behaviors).workload(workload).build()
}

/// Point-read-only workload hammering a deliberately small catalogue, so
/// cached entries are guaranteed to be re-requested within one anchor
/// window.
fn hot_workload(reads_per_sec: f64) -> Workload {
    let mut w = Workload::default();
    w.dataset.n_products = 50;
    w.dataset.n_files = 4;
    w.dataset.hot_fraction = 0.02; // 1-key hot set.
    w.dataset.skew = 0.9;
    w.reads_per_sec = reads_per_sec;
    w.writes_per_sec = 0.0;
    w.writer_fraction = 0.0;
    w.mix.get = 100;
    w.mix.range = 0;
    w.mix.filter = 0;
    w.mix.aggregate = 0;
    w.mix.join = 0;
    w.mix.grep = 0;
    w.mix.read_file = 0;
    w.mix.stream = 0;
    w
}

/// An honest steady run with writes: the slave caches must take hits
/// (the whole point), be invalidated on every anchor move, and never
/// cause a single proof rejection — a stale cached proof surviving a
/// version bump would show up here as `proof_reads_rejected`.
#[test]
fn honest_run_caches_hits_and_never_serves_stale_proofs() {
    let cfg = small_config(11);
    let n = cfg.n_slaves;
    let mut w = hot_workload(40.0);
    w.writes_per_sec = 1.0;
    w.writer_fraction = 0.25;
    // Churning clients re-verify the same setup certificates on every
    // rejoin — exactly where the cert memo pays off.
    w.churn = Some(sdr_core::workload::ChurnModel {
        session: SimDuration::from_secs(4),
        offline: SimDuration::from_secs(1),
        fraction: 0.5,
    });
    let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], w);
    sys.run_for(SimDuration::from_secs(20));
    let stats = sys.stats();

    assert!(stats.proof_cache_hits > 0, "cache never hit: {}", stats.render());
    assert!(
        stats.proof_cache_invalidations > 0,
        "anchor moves never invalidated: {}",
        stats.render()
    );
    assert!(stats.stamp_cache_hits > 0, "stamp cache never hit");
    assert!(stats.cert_cache_hits > 0, "cert memo never hit");
    assert_eq!(
        stats.proof_reads_rejected, 0,
        "honest cached replies were rejected: {}",
        stats.render()
    );
    assert_eq!(stats.wrong_accepted, 0);
    assert!(stats.reads_accepted > 100);
}

/// The `cache_verify` oracle: on every cache hit the host rebuilds the
/// reply (or re-verifies the stamp/cert) and byte-compares against the
/// cached copy, counting divergences in raw metrics.  An honest run
/// with writes interleaved must show hits and zero divergence — cached
/// replies are byte-identical to freshly built ones.
#[test]
fn cache_verify_oracle_finds_no_divergence() {
    let mut cfg = small_config(12);
    cfg.cache_verify = true;
    let n = cfg.n_slaves;
    let mut w = hot_workload(40.0);
    w.writes_per_sec = 0.5;
    w.writer_fraction = 0.25;
    w.mix.stream = 10; // Exercise the stream-proof cache too.
    let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], w);
    sys.run_for(SimDuration::from_secs(15));
    let stats = sys.stats();

    assert!(stats.proof_cache_hits > 0, "no hits to verify");
    assert!(stats.stamp_cache_hits > 0, "no stamp hits to verify");
    let m = sys.world.metrics();
    assert_eq!(
        m.counter(metrics::SLAVE_CACHE_DIVERGENCE),
        0,
        "cached reply diverged from a fresh rebuild"
    );
    assert_eq!(
        m.counter(metrics::CLIENT_CACHE_DIVERGENCE),
        0,
        "memoized verification diverged from a recheck"
    );
}

/// The oracle is host-side only: flipping `cache_verify` must not change
/// the modeled system at all — same spec, same seed, byte-identical
/// `RunReport`.
#[test]
fn cache_verify_does_not_change_the_report() {
    let run = |cache_verify: bool| {
        let mut spec = registry::lookup("flash_crowd").expect("registered");
        spec.duration = SimDuration::from_secs(3);
        spec.seeds = vec![9];
        spec.config.n_clients = 100;
        spec.config.cache_verify = cache_verify;
        spec.grid = Grid::sweep("skew", Param::Skew, &[0.9]);
        Runner::new(spec).run().expect("runs").to_json_string()
    };
    assert_eq!(run(false), run(true), "cache_verify leaked into the report");
}

/// Assembled range-scan `ProofReadReply`s are memoized under the same
/// `(anchor, query)` key as point-proof replies, and every anchor move
/// or applied write wipes them wholesale — so a scan-heavy run with
/// writes interleaved must show cache hits AND zero proof rejections.
/// A cached range reply surviving a version bump would be served under
/// a dead anchor and die at the client as `proof_reads_rejected`.
#[test]
fn cached_range_replies_hit_and_are_never_served_stale() {
    let cfg = small_config(15);
    let n = cfg.n_slaves;
    let mut w = hot_workload(40.0);
    w.writes_per_sec = 1.0;
    w.writer_fraction = 0.25;
    w.mix.get = 0;
    w.mix.scan = 100;
    w.mix.scan_len = 8;
    let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], w);
    sys.run_for(SimDuration::from_secs(20));
    let stats = sys.stats();
    let m = sys.world.metrics();

    assert!(m.counter(metrics::SLAVE_RANGE_READS) > 0, "no scans served");
    assert!(
        stats.range_rows_verified > 0,
        "no rows verified under range proofs: {}",
        stats.render()
    );
    assert!(
        stats.proof_cache_hits > 0,
        "range replies never hit the cache: {}",
        stats.render()
    );
    assert!(
        stats.proof_cache_invalidations > 0,
        "writes never invalidated the reply cache: {}",
        stats.render()
    );
    assert_eq!(
        stats.proof_reads_rejected, 0,
        "a cached range reply was served stale: {}",
        stats.render()
    );
    assert_eq!(stats.wrong_accepted, 0);
    assert!(stats.reads_accepted > 100, "accepted only {}", stats.reads_accepted);
}

/// A Byzantine slave that poisons its own reply cache — planting a
/// forged result under the *genuine* signed anchor with an honest-shaped
/// proof — still cannot get a wrong answer accepted: the Merkle fold
/// ties the result to the signed digest, so every poisoned serve dies at
/// the client as a proof rejection.
#[test]
fn poisoned_cache_cannot_forge_an_accepted_proof() {
    let cfg = small_config(14);
    let n = cfg.n_slaves;
    let w = hot_workload(60.0);
    let dataset = w.dataset;
    let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], w);

    // Let anchors propagate, then check our replica of the dataset
    // matches the slaves' (no writes in this workload), so locally built
    // proofs are exactly what an honest slave would serve.
    sys.run_for(SimDuration::from_secs(2));
    let db = dataset.build();
    assert_eq!(sys.with_slave(0, |s| s.state_digest()), db.state_digest());

    // Poison slave 0's cache for every product key: honest proof, lying
    // result, genuine anchor.  Keep-alives wipe the cache every anchor
    // refresh, so re-poison between short bursts.
    let mut poisoned = 0u64;
    for _ in 0..20 {
        poisoned += sys.with_slave(0, |s| {
            let Some(anchor) = s.digest_anchor().cloned() else {
                return 0;
            };
            for key in 1..=50u64 {
                let query = Query::GetRow { table: "products".into(), key };
                let proof = db.prove_row("products", key).expect("table exists");
                let reply = Msg::ProofReadReply {
                    query: Box::new(query.clone()),
                    result: QueryResult::Scalar(Value::Int(666)),
                    proof: Box::new(proof),
                    digest_stamp: anchor.clone(),
                };
                s.poison_reply_cache_for_test(&query, reply);
            }
            50
        });
        sys.run_for(SimDuration::from_millis(200));
    }
    assert!(poisoned > 0, "anchor never arrived; poison was a no-op");

    let stats = sys.stats();
    assert!(
        stats.proof_reads_rejected > 0,
        "poisoned cache was never served (test is vacuous): {}",
        stats.render()
    );
    assert_eq!(
        stats.wrong_accepted, 0,
        "a forged cached proof was accepted: {}",
        stats.render()
    );
    // Clients route around the poisoner and keep reading.
    assert!(stats.reads_accepted > 100);
}

/// Unit-level injection: a cached reply that outlives its anchor is
/// rejected.  Within the freshness bound an old cached reply is
/// legitimately acceptable; past `max_latency` it must die as `Stale`,
/// and after a version bump its proof no longer folds to the new signed
/// digest.
#[test]
fn injected_stale_cached_reply_is_rejected() {
    let mut master = HmacSigner::from_seed_label(1, b"master");
    let masters = vec![(NodeId(0), master.public_key())];
    let slaves = vec![(NodeId(5), HmacSigner::from_seed_label(2, b"slave").public_key())];
    let env = |now_ms: u64| VerifyEnv {
        masters: &masters,
        slaves: &slaves,
        spares: &[],
        now: SimTime::from_millis(now_ms),
        max_latency: SimDuration::from_millis(500),
    };

    let mut db = sdr_core::dataset::DatasetSpec::default().build();
    let query = Query::GetRow { table: "products".into(), key: 3 };
    let (result, _) = execute(&db, &query).unwrap();
    let proof = db.prove_row("products", 3).unwrap();
    let stamp = StateDigestStamp::build(
        db.version(),
        db.state_digest(),
        SimTime::from_millis(100),
        NodeId(0),
        &mut master,
    )
    .unwrap();

    // Fresh enough: the cached reply verifies like a new one.
    verify::verify_proof_read_stampless(&env(400), &query, &result, &proof, &stamp).unwrap();
    // Replayed past the freshness bound: rejected as stale.
    assert_eq!(
        verify::verify_proof_read_stampless(&env(700), &query, &result, &proof, &stamp),
        Err(RejectReason::Stale)
    );

    // A write bumps the version; the old cached proof cannot fold to the
    // new signed digest even under a fresh stamp.
    db.apply_write(&[sdr_store::UpdateOp::Update {
        table: "products".into(),
        key: 3,
        changes: sdr_store::Document::new().with("price", 1i64),
    }])
    .unwrap();
    let new_stamp = StateDigestStamp::build(
        db.version(),
        db.state_digest(),
        SimTime::from_millis(450),
        NodeId(0),
        &mut master,
    )
    .unwrap();
    assert!(matches!(
        verify::verify_proof_read_stampless(&env(500), &query, &result, &proof, &new_stamp),
        Err(RejectReason::BadProof(_))
    ));
}

/// The flash-crowd scenario itself (trimmed): at extreme skew the slave
/// reply cache must absorb >90% of proof reads, with zero wrong accepts.
#[test]
fn flash_crowd_hits_cache_at_high_skew_with_zero_wrong_accepts() {
    let mut spec = registry::lookup("flash_crowd").expect("registered");
    spec.duration = SimDuration::from_secs(6);
    spec.seeds = vec![1];
    spec.config.n_clients = 800;
    spec.grid = Grid::sweep("skew", Param::Skew, &[0.99]);
    let report = Runner::new(spec).run().expect("runs");
    let cell = &report.cells[0];

    let hit_rate = cell.mean("proof_cache_hit_rate");
    assert!(hit_rate > 0.9, "hit rate {hit_rate:.3} at skew 0.99");
    assert_eq!(cell.mean("wrong_accepted"), 0.0);
    assert!(cell.mean("stamp_cache_hits") > 0.0);
    assert!(cell.mean("reads_accepted") > 100.0);
}
