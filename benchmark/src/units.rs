//! Part 3 of the traced run: unit costs of the primitives under every
//! layer, at the workload's own sizes.  Each unit is one span around a
//! loop, with the iteration count attached.

use crate::trace::Tracer;
use sdr_broadcast::{Action, MemberId, TobConfig, TotalOrder};
use sdr_crypto::{Digest, HmacSigner, MssSigner, Sha256, Signer, WotsKeypair};
use sdr_sim::event::EventKind;
use sdr_sim::{
    CostModel, Ctx, EventQueue, LinkModel, NetworkConfig, NodeId, Process, SimDuration, SimTime,
    World,
};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub type Units = BTreeMap<&'static str, f64>;

/// Runs `f` `iters` times inside one span; returns nanoseconds per call.
fn unit(tracer: &mut Tracer, name: &'static str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let s = tracer.open(name);
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    let ns = t.elapsed().as_nanos() as f64;
    tracer.close(s);
    tracer.annotate(s, &[("iters", iters)]);
    ns / iters as f64
}

/// sha256 at the two sizes the store hashes (a tree node, a file chunk)
/// and the three signature schemes.
pub fn crypto(tracer: &mut Tracer, mss_height: u8, out: &mut Units) {
    let small = [0x5au8; 64];
    let big = vec![0xa5u8; 4096];
    out.insert(
        "crypto.sha256_64b_ns",
        unit(tracer, "unit.crypto.sha256_64b", 200_000, |_| {
            black_box(Sha256::digest(black_box(&small)));
        }),
    );
    out.insert(
        "crypto.sha256_4k_ns",
        unit(tracer, "unit.crypto.sha256_4k", 5_000, |_| {
            black_box(Sha256::digest(black_box(&big)));
        }),
    );

    let msg = [7u8; 76]; // the length of a digest stamp's signing bytes
    let mut hmac = HmacSigner::from_seed_label(1, b"unit");
    let hmac_key = hmac.public_key();
    let mut tag = hmac.sign(&msg).expect("HMAC signing cannot fail");
    out.insert(
        "crypto.hmac_sign_ns",
        unit(tracer, "unit.crypto.hmac_sign", 50_000, |_| {
            tag = hmac
                .sign(black_box(&msg))
                .expect("HMAC signing cannot fail");
        }),
    );
    out.insert(
        "crypto.hmac_verify_ns",
        unit(tracer, "unit.crypto.hmac_verify", 50_000, |_| {
            black_box(hmac_key.verify(black_box(&msg), &tag)).expect("honest tag");
        }),
    );

    let mut mss = MssSigner::generate([9u8; 32], mss_height).expect("valid MSS height");
    let mss_key = mss.public_key();
    let mut sig = mss.sign(&msg).expect("fresh MSS key");
    out.insert(
        "crypto.mss_sign_us",
        unit(tracer, "unit.crypto.mss_sign", 100, |_| {
            sig = mss
                .sign(black_box(&msg))
                .expect("100 signatures fit any benchmark height");
        }) / 1e3,
    );
    out.insert(
        "crypto.mss_verify_us",
        unit(tracer, "unit.crypto.mss_verify", 200, |_| {
            black_box(mss_key.verify(black_box(&msg), &sig)).expect("honest signature");
        }) / 1e3,
    );

    let wots = WotsKeypair::from_seed(&[3u8; 32]);
    let wots_pk = wots.public_key();
    let wots_sig = wots.sign_unchecked(&msg);
    out.insert(
        "crypto.wots_verify_us",
        unit(tracer, "unit.crypto.wots_verify", 200, |_| {
            black_box(WotsKeypair::verify(&wots_pk, black_box(&msg), &wots_sig))
                .expect("honest signature");
        }) / 1e3,
    );
}

/// xorshift delays in the WAN band, so the queue's hot tiers are used.
struct Spread(u64);

impl Spread {
    fn next_delay(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x % 65_536
    }
}

/// A node that forwards whatever it receives to its neighbour: the
/// cheapest possible handler, so a step costs scheduling and dispatch.
struct Bounce {
    next: NodeId,
}

impl Process<u64> for Bounce {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
        ctx.send(self.next, msg + 1);
    }
}

/// Scheduler costs with `queue_peak` events live, the depth the workload
/// itself reached.
pub fn sim(tracer: &mut Tracer, queue_peak: u64, out: &mut Units) {
    let live = queue_peak.clamp(2, 200_000);

    let mut q: EventQueue<u64> = EventQueue::new();
    let payload = Arc::new(0u64);
    let mut spread = Spread(0x5EED);
    for _ in 0..live {
        q.push(
            SimTime(spread.next_delay()),
            EventKind::Deliver {
                to: NodeId(0),
                from: NodeId(1),
                msg: payload.clone(),
            },
        );
    }
    out.insert(
        "sim.queue_pop_push_ns",
        unit(tracer, "unit.sim.queue_pop_push", 500_000, |_| {
            let ev = q.pop().expect("the queue stays full");
            q.push(SimTime(ev.at.0 + spread.next_delay()), ev.kind);
        }),
    );

    let net = NetworkConfig::new(LinkModel::wan(SimDuration::from_millis(10)));
    let mut world: World<u64> = World::new(1, net, CostModel::standard());
    for i in 0..live {
        let next = NodeId(((i + 1) % live) as u32);
        world.spawn(format!("bounce-{i}"), Box::new(Bounce { next }));
    }
    // One message per node keeps `live` deliveries in flight for good;
    // a first lap lets the queue settle before timing.
    for i in 0..live {
        world.inject(NodeId(i as u32), NodeId(((i + 1) % live) as u32), 0);
    }
    for _ in 0..2 * live {
        world.step();
    }
    out.insert(
        "sim.dispatch_ns",
        unit(tracer, "unit.sim.dispatch", 500_000, |_| {
            black_box(world.step());
        }),
    );
}

/// Total-order broadcast of 100 messages among 3 members, in lockstep.
pub fn broadcast(tracer: &mut Tracer, out: &mut Units) {
    fn order_100() -> usize {
        let n = 3;
        let mut engines: Vec<TotalOrder<u64>> = (0..n)
            .map(|i| TotalOrder::new(MemberId(i as u32), n, TobConfig::default()))
            .collect();
        let mut in_flight = VecDeque::new();
        let mut delivered = 0usize;
        let mut apply = |me: MemberId, actions: Vec<Action<u64>>, in_flight: &mut VecDeque<_>| {
            for a in actions {
                match a {
                    Action::Send { to, msg } => in_flight.push_back((me, to, msg)),
                    Action::Deliver { .. } => delivered += 1,
                    Action::ViewInstalled(_) => {}
                }
            }
        };
        for i in 0..100u64 {
            let from = (i as usize) % n;
            let acts = engines[from].broadcast(i);
            apply(MemberId(from as u32), acts, &mut in_flight);
            while let Some((f, t, m)) = in_flight.pop_front() {
                let acts = engines[t.index()].on_message(f, m);
                apply(t, acts, &mut in_flight);
            }
        }
        delivered
    }
    out.insert(
        "broadcast.order_100_us",
        unit(tracer, "unit.broadcast.order_100", 50, |_| {
            black_box(order_100());
        }) / 1e3,
    );
}
