//! `cold_mix`: the read pipeline with no simulator and no caches.
//!
//! One replica `Database`, one master signing state-digest stamps with
//! the real Merkle signature scheme, one client verifying everything on
//! every read.  A closed loop with one client: each round commits a batch
//! of writes under one stamp, then issues point reads, 256-row scans and
//! one 1 MiB stream, each as execute → prove → verify.  One tamper probe
//! per round, outside the timed parts, checks that a broken answer is
//! still refused.

use crate::child::{cpu_seconds, peak_rss_mib, ChildReport};
use crate::pipeline::{proof_read, stream_read, ReadDone, SLAVE};
use crate::trace::Tracer;
use crate::workloads::{ColdSpec, COLD_FILE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sdr_core::verify::{verify_proof_read, VerifyEnv};
use sdr_core::{StateDigestStamp, Workload};
use sdr_crypto::{HmacSigner, MssSigner, PublicKey, Signature, Signer};
use sdr_sim::{NodeId, SimDuration, SimTime};
use sdr_store::{Database, Query, QueryResult, StateProof, StreamProof, UpdateOp};
use std::time::Instant;

const MASTER: NodeId = NodeId(0);
const MAX_LATENCY: SimDuration = SimDuration::from_millis(2_000);

/// Everything set-up builds: the replica, the master's signer, the keys
/// the client trusts, and the seeded input generator.
pub struct ColdEnv {
    db: Database,
    signer: MssSigner,
    masters: Vec<(NodeId, PublicKey)>,
    slaves: Vec<(NodeId, PublicKey)>,
    writes: Workload,
    rng: SmallRng,
    file_len: u64,
}

fn blob(seed: u64, bytes: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB10B);
    let mut s = String::with_capacity(bytes + 64);
    let mut line = 0u64;
    while s.len() < bytes {
        s.push_str(&format!(
            "frame {line:07} payload={:016x}\n",
            rng.gen::<u64>()
        ));
        line += 1;
    }
    s.truncate(bytes); // ASCII only, so any cut is a char boundary.
    s
}

pub fn setup(spec: &ColdSpec, seed: u64) -> ColdEnv {
    let mut db = spec.dataset.build();
    db.apply_write(&[UpdateOp::WriteFile {
        path: COLD_FILE.into(),
        contents: blob(seed, spec.file_bytes),
    }])
    .expect("the large file is a valid write");

    let mut key_seed = [0u8; 32];
    key_seed[..8].copy_from_slice(&seed.to_be_bytes());
    let signer = MssSigner::generate(key_seed, spec.mss_height).expect("valid MSS height");
    let masters = vec![(MASTER, signer.public_key())];
    // The replica's own key only has to be known to the client; proof
    // reads are not signed by the slave.
    let slaves = vec![(
        SLAVE,
        HmacSigner::from_seed_label(seed, b"slave").public_key(),
    )];

    ColdEnv {
        db,
        signer,
        masters,
        slaves,
        writes: Workload {
            dataset: spec.dataset,
            ..Workload::default()
        },
        rng: SmallRng::seed_from_u64(seed),
        file_len: spec.file_bytes as u64,
    }
}

impl ColdEnv {
    pub fn node_stats(&self) -> sdr_store::NodeStats {
        self.db.node_stats()
    }

    pub fn chunk_dedup_ratio(&self) -> f64 {
        self.db.fs().chunk_stats().dedup_ratio()
    }
}

/// What one run of the loop measured.
#[derive(Debug, Default)]
pub struct ColdOutcome {
    pub reads: u64,
    pub write_ops: u64,
    pub read_wall_ns: u64,
    pub write_wall_ns: u64,
    pub wire_bytes: u64,
    pub rows_verified: u64,
    pub chunks_verified: u64,
    pub verify_errors: u64,
    pub probes_run: u64,
    pub probes_accepted: u64,
    pub state_digest: String,
}

impl ColdOutcome {
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.verify_errors != 0 {
            v.push(format!(
                "{} honest reads failed verification",
                self.verify_errors
            ));
        }
        if self.probes_accepted != 0 {
            v.push(format!(
                "{} of {} tamper probes were accepted (every one must be rejected)",
                self.probes_accepted, self.probes_run
            ));
        }
        v
    }

    fn record_read(&mut self, started: Instant, done: &ReadDone, stamp: &StateDigestStamp) {
        let ns = started.elapsed().as_nanos() as u64;
        self.read_wall_ns += ns;
        self.reads += 1;
        self.verify_errors += u64::from(!done.ok);
        self.wire_bytes += (done.wire_bytes + stamp_wire_len(stamp)) as u64;
        self.chunks_verified += done.chunks as u64;
    }

    pub fn timed_wall_s(&self) -> f64 {
        (self.read_wall_ns + self.write_wall_ns) as f64 / 1e9
    }
}

fn stamp_wire_len(stamp: &StateDigestStamp) -> usize {
    // version + digest + timestamp + master id, then the signature.
    8 + 32 + 8 + 4 + stamp.signature.wire_len()
}

fn flip_signature(stamp: &mut StateDigestStamp) {
    match &mut stamp.signature {
        Signature::Mss(s) => s.wots.values[0].0[0] ^= 1,
        Signature::Hmac(tag) => tag.0[0] ^= 1,
    }
}

/// The five ways a round's answer is broken, one per round in rotation.
/// Each returns whether the broken answer was (wrongly) accepted.
/// `sabotage` leaves the first kind unbroken, so the expectation "must be
/// rejected" fails: the self-test of the gate itself.
fn tamper_probe(
    kind: usize,
    sabotage: bool,
    env: &VerifyEnv<'_>,
    stamp: &StateDigestStamp,
    (q, result, proof): &(Query, QueryResult, StateProof),
    stream: &(StreamProof, Vec<u8>),
) -> bool {
    match kind % 5 {
        0 => {
            let mut rows = match result {
                QueryResult::Rows(rows) => rows.clone(),
                _ => unreachable!("point reads return rows"),
            };
            if !sabotage {
                match rows.first_mut() {
                    Some((_, doc)) => {
                        doc.set("price", -1i64);
                    }
                    None => rows.push((1, Default::default())),
                }
            }
            verify_proof_read(env, SLAVE, q, &QueryResult::Rows(rows), proof, stamp).is_ok()
        }
        1 => {
            let mut proof = proof.clone();
            match &mut proof {
                StateProof::Row(p) => p.files_digest.0[0] ^= 1,
                StateProof::File(p) => p.tables_root.0[0] ^= 1,
                StateProof::Range(p) => p.files_digest.0[0] ^= 1,
            }
            verify_proof_read(env, SLAVE, q, result, &proof, stamp).is_ok()
        }
        2 => {
            let (header, chunk) = stream;
            let mut chunk = chunk.clone();
            chunk[0] ^= 1;
            let first = header.slice.as_ref().map_or(0, |s| s.first as usize);
            header.verify_chunk(first, &chunk).is_ok()
        }
        3 => {
            let mut stamp = stamp.clone();
            flip_signature(&mut stamp);
            verify_proof_read(env, SLAVE, q, result, proof, &stamp).is_ok()
        }
        _ => {
            let late = VerifyEnv {
                now: stamp.timestamp + MAX_LATENCY + SimDuration::from_micros(1),
                masters: env.masters,
                slaves: env.slaves,
                spares: env.spares,
                max_latency: env.max_latency,
            };
            verify_proof_read(&late, SLAVE, q, result, proof, stamp).is_ok()
        }
    }
}

/// Runs the loop.  With the tracer off this is the timed repetition; with
/// it on, the same loop with a span around every call into a layer.
pub fn run(spec: &ColdSpec, env: ColdEnv, tracer: &mut Tracer, sabotage: bool) -> ColdOutcome {
    let ColdEnv {
        mut db,
        mut signer,
        masters,
        slaves,
        writes,
        mut rng,
        file_len,
    } = env;
    let mut out = ColdOutcome::default();
    let n_rows = spec.dataset.n_products as u64;
    let stream_q = Query::ReadFileRange {
        path: COLD_FILE.into(),
        offset: 0,
        len: file_len,
    };

    for round in 0..spec.rounds {
        let now = SimTime::from_secs(round as u64 + 1);

        // Write phase: a batch of commits anchored by one signed stamp.
        let t = Instant::now();
        let root = tracer.open("write.batch");
        for _ in 0..spec.writes_per_round {
            let ops = writes.sample_write(&mut rng);
            let s = tracer.open("store.apply_write");
            db.apply_write(&ops).expect("sampled writes are valid");
            tracer.close(s);
        }
        let s = tracer.open("store.state_digest");
        let digest = db.state_digest();
        tracer.close(s);
        let s = tracer.open("crypto.stamp_sign");
        let stamp = StateDigestStamp::build(db.version(), digest, now, MASTER, &mut signer)
            .expect("the MSS key outlasts the run");
        tracer.close(s);
        tracer.close(root);
        out.write_wall_ns += t.elapsed().as_nanos() as u64;
        out.write_ops += spec.writes_per_round as u64;

        // Read phase: every read pays the full stamp check and fold.
        let env = VerifyEnv {
            masters: &masters,
            slaves: &slaves,
            spares: &[],
            now,
            max_latency: MAX_LATENCY,
        };
        let mut last_point = None;
        for _ in 0..spec.points_per_round {
            let q = Query::GetRow {
                table: "products".into(),
                key: 1 + rng.gen_range(0..n_rows),
            };
            let t = Instant::now();
            let (done, result, proof) = proof_read(&db, &env, &stamp, &q, tracer);
            out.record_read(t, &done, &stamp);
            last_point = Some((q, result, proof));
        }
        for _ in 0..spec.scans_per_round {
            let start = 1 + rng.gen_range(0..n_rows - spec.scan_len);
            let q = Query::ScanRange {
                table: "products".into(),
                start,
                end: start + spec.scan_len,
            };
            let t = Instant::now();
            let (done, ..) = proof_read(&db, &env, &stamp, &q, tracer);
            out.record_read(t, &done, &stamp);
            out.rows_verified += done.rows as u64;
        }
        let t = Instant::now();
        let (done, header, chunk) = stream_read(&db, &env, &stamp, &stream_q, tracer);
        out.record_read(t, &done, &stamp);

        // Tamper probe, outside every timed part.
        let point = last_point.expect("at least one point read per round");
        let accepted = tamper_probe(round, sabotage, &env, &stamp, &point, &(header, chunk));
        out.probes_run += 1;
        out.probes_accepted += u64::from(accepted);
    }
    out.state_digest = db.state_digest().to_string();
    out
}

/// The end-to-end numbers of one repetition.
pub fn timed(spec: &ColdSpec, seed: u64, started: Instant, sabotage: bool) -> ChildReport {
    let env = setup(spec, seed);
    let setup_s = started.elapsed().as_secs_f64();

    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let out = run(spec, env, &mut Tracer::new(false), sabotage);
    let loop_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;

    let mut r = ChildReport {
        fingerprint: out.state_digest.clone(),
        attempted: out.reads + out.write_ops,
        failed: out.verify_errors + out.probes_accepted,
        violations: out.violations(),
        ..ChildReport::default()
    };
    r.set("setup_s", setup_s);
    r.set(
        "reads_per_s",
        out.reads as f64 / (out.read_wall_ns as f64 / 1e9),
    );
    r.set("peak_rss_mib", peak_rss_mib());
    r.set(
        "wire_bytes_per_read",
        out.wire_bytes as f64 / out.reads as f64,
    );
    r.set(
        "commits_per_s",
        out.write_ops as f64 / (out.write_wall_ns as f64 / 1e9),
    );
    r.set("wall_s", out.timed_wall_s());
    r.set(
        "cpu_over_wall",
        if loop_s > 0.0 { cpu_s / loop_s } else { 0.0 },
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_accepted_tamper_probe_or_a_failed_honest_read_is_a_violation() {
        let clean = ColdOutcome {
            reads: 41,
            probes_run: 5,
            ..ColdOutcome::default()
        };
        assert!(clean.violations().is_empty());
        let fooled = ColdOutcome {
            reads: 41,
            probes_run: 5,
            probes_accepted: 1,
            ..ColdOutcome::default()
        };
        assert_eq!(fooled.violations().len(), 1);
        let broken = ColdOutcome {
            verify_errors: 2,
            ..ColdOutcome::default()
        };
        assert_eq!(broken.violations().len(), 1);
    }

    #[test]
    fn the_large_file_is_seeded_and_exactly_sized() {
        assert_eq!(blob(3, 5_000).len(), 5_000);
        assert_eq!(blob(3, 5_000), blob(3, 5_000));
        assert_ne!(blob(3, 5_000), blob(4, 5_000));
    }
}
