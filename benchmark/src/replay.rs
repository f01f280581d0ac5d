//! Part 2 of the traced run for the simulated workloads: queries drawn
//! with the workload seed from the workload's own mix, each pushed
//! through the read pipeline directly under that workload's signer, one
//! span tree per request.  A short write section follows, so the store's
//! commit cost is measured at this workload's data size too.

use crate::pipeline::{pledged_read, proof_read, stream_read, ReadKind, SLAVE};
use crate::trace::Tracer;
use crate::workloads::SimSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sdr_core::messages::VersionStamp;
use sdr_core::verify::VerifyEnv;
use sdr_core::{ShardMap, StateDigestStamp};
use sdr_crypto::{HmacSigner, SignatureScheme, Signer};
use sdr_sim::{NodeId, SimTime};

const MASTER: NodeId = NodeId(0);
/// Commits applied after the reads (enough for a stable mean).
const REPLAY_WRITES: usize = 64;

/// Replays the workload's reads; returns how many failed verification
/// (must be none: every answer here is honest).
pub fn replay(spec: &SimSpec, tracer: &mut Tracer) -> u64 {
    let seed = spec.config.seed;
    let dataset = &spec.workload.dataset;
    let map = ShardMap::new(spec.config.n_shards, dataset);
    let mut dbs = dataset.build_shards(&map);

    let cfg = &spec.config;
    assert_eq!(
        cfg.signer,
        SignatureScheme::Hmac,
        "the simulated workloads sign with HMAC; real signatures are cold_mix's job"
    );
    let mut master = HmacSigner::from_seed_label(seed, b"master-0");
    let mut slave = HmacSigner::from_seed_label(seed, b"slave-0");
    let masters = [(MASTER, master.public_key())];
    let slaves = [(SLAVE, slave.public_key())];
    let now = SimTime::from_secs(1);
    let env = VerifyEnv {
        masters: &masters,
        slaves: &slaves,
        spares: &[],
        now,
        max_latency: cfg.max_latency,
    };
    // One anchor per shard, as each shard's masters would have signed it.
    let stamps: Vec<(StateDigestStamp, VersionStamp)> = dbs
        .iter()
        .map(|db| {
            let digest =
                StateDigestStamp::build(db.version(), db.state_digest(), now, MASTER, &mut master)
                    .expect("stamp signing");
            let version =
                VersionStamp::build(db.version(), now, MASTER, &mut master).expect("stamp signing");
            (digest, version)
        })
        .collect();

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut failed = 0u64;
    for _ in 0..spec.replay_queries {
        let q = spec.workload.mix.sample(&mut rng, dataset);
        let shard = map.shard_of_query(&q);
        let (db, (digest_stamp, version_stamp)) = (&dbs[shard], &stamps[shard]);
        let done = match ReadKind::of(&q) {
            ReadKind::Point | ReadKind::Scan => proof_read(db, &env, digest_stamp, &q, tracer).0,
            ReadKind::Stream => stream_read(db, &env, digest_stamp, &q, tracer).0,
            ReadKind::Computed => pledged_read(db, &env, version_stamp, &mut slave, &q, tracer),
        };
        failed += u64::from(!done.ok);
    }

    for _ in 0..REPLAY_WRITES {
        let ops = spec.workload.sample_write(&mut rng);
        let db = &mut dbs[map.shard_of_ops(&ops)];
        let s = tracer.open("store.apply_write");
        db.apply_write(&ops).expect("sampled writes are valid");
        tracer.close(s);
        let s = tracer.open("store.state_digest");
        std::hint::black_box(db.state_digest());
        tracer.close(s);
    }
    failed
}
