//! The simulation world: event loop, routing, CPU accounting, faults.

use crate::cost::CostModel;
use crate::event::{Event, EventKind, EventQueue, QueueDepthStats};
use crate::metrics::{self, Metrics};
use crate::net::NetworkConfig;
use crate::process::{NodeId, Payload, Process};
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::sync::Arc;

/// Buffered fan-out of one payload: unicast or multicast.
enum Fanout {
    One(NodeId),
    Many(Vec<NodeId>),
}

/// Handler-side view of the world, passed to every [`Process`] callback.
///
/// Outputs (sends, timers, charges) are buffered and applied by the world
/// after the handler returns, which keeps handlers free of aliasing issues
/// and makes the instant of each side effect well-defined:
///
/// * a message sent after `charge(w)` departs `w` after the handler began;
/// * the node's CPU stays busy until all charged work completes, delaying
///   subsequent events to this node (queueing).
pub struct Ctx<'a, M: Payload> {
    now: SimTime,
    self_id: NodeId,
    charged: SimDuration,
    sends: Vec<(Fanout, Arc<M>, SimDuration, bool)>,
    timers: Vec<(SimTime, u64)>,
    rng: &'a mut SmallRng,
    metrics: &'a mut Metrics,
    costs: &'a CostModel,
}

impl<'a, M: Payload> Ctx<'a, M> {
    /// Current virtual time (when this handler started running).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this handler runs on.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Sends `msg` to `to`; it departs after the work charged so far.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sends
            .push((Fanout::One(to), Arc::new(msg), self.charged, true));
    }

    /// Sends one shared payload to every node in `to`, in order.
    ///
    /// The event queue holds N pointers to a single allocation instead
    /// of N deep clones; each delivery but the last clones the payload
    /// out for its handler.  Delivery order and latency sampling are
    /// identical to N consecutive [`Ctx::send`] calls.
    pub fn multicast(&mut self, to: impl IntoIterator<Item = NodeId>, msg: M) {
        self.sends.push((
            Fanout::Many(to.into_iter().collect()),
            Arc::new(msg),
            self.charged,
            true,
        ));
    }

    /// Sends an already-shared payload to `to`, counting its allocation
    /// as resident (the sender built it fresh but keeps a handle, e.g. in
    /// a cache it now owns).
    pub fn send_shared(&mut self, to: NodeId, msg: Arc<M>) {
        self.sends.push((Fanout::One(to), msg, self.charged, true));
    }

    /// Sends a payload whose allocation was already accounted for (a
    /// cache hit re-serving a previously built reply): logical bytes
    /// grow, resident bytes do not, so `msg_sharing_ratio` counts the
    /// re-serve as sharing.
    pub fn send_cached(&mut self, to: NodeId, msg: Arc<M>) {
        self.sends.push((Fanout::One(to), msg, self.charged, false));
    }

    /// Arms a timer firing `delay` from now.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.timers.push((self.now + delay, tag));
    }

    /// Charges `work` of virtual CPU time to this node.
    pub fn charge(&mut self, work: SimDuration) {
        self.charged += work;
    }

    /// Total work charged so far in this handler.
    pub fn charged(&self) -> SimDuration {
        self.charged
    }

    /// This node's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Samples a uniform `[0,1)` float (convenience for probability checks).
    pub fn coin(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// The world's metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// The world's virtual cost model.
    pub fn costs(&self) -> &CostModel {
        self.costs
    }
}

struct NodeMeta {
    name: String,
    cpu_free_at: SimTime,
    busy_total: SimDuration,
    crashed: bool,
    island: u32,
    incarnation: u32,
}

/// The discrete-event simulation world.
///
/// Owns all processes, the event queue, the network model, per-node RNG
/// streams, and the metrics registry.  See the crate docs for the
/// determinism contract.
pub struct World<M: Payload> {
    time: SimTime,
    queue: EventQueue<M>,
    procs: Vec<Option<Box<dyn Process<M>>>>,
    meta: Vec<NodeMeta>,
    net: NetworkConfig,
    net_rng: SmallRng,
    rngs: Vec<SmallRng>,
    metrics: Metrics,
    costs: CostModel,
    seed: u64,
    events_processed: u64,
    msg_bytes_logical: u64,
    msg_bytes_resident: u64,
}

impl<M: Payload> World<M> {
    /// Creates a world with the given seed, network, and cost model.
    pub fn new(seed: u64, net: NetworkConfig, costs: CostModel) -> Self {
        World {
            time: SimTime::ZERO,
            queue: EventQueue::new(),
            procs: Vec::new(),
            meta: Vec::new(),
            net,
            net_rng: SmallRng::seed_from_u64(seed ^ 0xD6E8_FEB8_6659_FD93),
            rngs: Vec::new(),
            metrics: Metrics::new(),
            costs,
            seed,
            events_processed: 0,
            msg_bytes_logical: 0,
            msg_bytes_resident: 0,
        }
    }

    /// Adds a process; `on_start` runs immediately at the current time.
    pub fn spawn(&mut self, name: impl Into<String>, process: Box<dyn Process<M>>) -> NodeId {
        let id = NodeId(self.procs.len() as u32);
        let node_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(id.0) + 1);
        self.procs.push(Some(process));
        self.meta.push(NodeMeta {
            name: name.into(),
            cpu_free_at: self.time,
            busy_total: SimDuration::ZERO,
            crashed: false,
            island: 0,
            incarnation: 0,
        });
        self.rngs.push(SmallRng::seed_from_u64(node_seed));
        let at = self.time;
        self.dispatch(id, at, |p, ctx| p.on_start(ctx));
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Number of nodes spawned.
    pub fn node_count(&self) -> usize {
        self.procs.len()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metrics registry.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The cost model.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Whether the node is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.meta[id.index()].crashed
    }

    /// Total CPU work this node has performed.
    pub fn busy_total(&self, id: NodeId) -> SimDuration {
        self.meta[id.index()].busy_total
    }

    /// CPU utilisation of `id` over the elapsed simulation time (0..=1).
    pub fn utilisation(&self, id: NodeId) -> f64 {
        if self.time == SimTime::ZERO {
            return 0.0;
        }
        self.busy_total(id).as_micros() as f64 / self.time.as_micros() as f64
    }

    /// Schedules a message delivery from the outside world (test harness).
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        let at = self.time;
        let msg = Arc::new(msg);
        let size = msg.wire_len() as u64;
        if self.route(from, to, at, msg) {
            self.msg_bytes_logical += size;
            self.msg_bytes_resident += size;
        }
    }

    /// Schedules a crash of `node` at time `at`.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.queue.push(at, EventKind::Crash(node));
    }

    /// Schedules a recovery of `node` at time `at`.
    pub fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.queue.push(at, EventKind::Recover(node));
    }

    /// Assigns `node` to a partition island; nodes on different islands
    /// cannot exchange messages.  All nodes start on island 0.
    pub fn set_island(&mut self, node: NodeId, island: u32) {
        self.meta[node.index()].island = island;
    }

    /// Heals all partitions (everyone back to island 0).
    pub fn heal_partitions(&mut self) {
        for m in &mut self.meta {
            m.island = 0;
        }
    }

    /// Mutable, typed access to a process for inspection or test-harness
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range or the process is not a `P`.
    pub fn with_process<P: Process<M>, R>(&mut self, id: NodeId, f: impl FnOnce(&mut P) -> R) -> R {
        let slot = self.procs[id.index()].as_mut().expect("process present");
        let any: &mut dyn Any = slot.as_mut();
        let typed = any.downcast_mut::<P>().unwrap_or_else(|| {
            let name = &self.meta[id.index()].name;
            panic!("node {name} is not a {}", std::any::type_name::<P>())
        });
        f(typed)
    }

    /// Runs until the queue is exhausted or `deadline` is reached; the
    /// world's clock ends at `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                break;
            }
            self.step();
        }
        if self.time < deadline {
            self.time = deadline;
        }
    }

    /// Runs for `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.time + d;
        self.run_until(deadline);
    }

    /// Runs until the event queue is empty (beware infinite timer loops).
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Event-queue depth and slab telemetry.
    pub fn queue_depth(&self) -> QueueDepthStats {
        self.queue.depth_stats()
    }

    /// Sum of wire sizes over every enqueued delivery — the bytes the
    /// queue would hold if each delivery carried its own copy.
    pub fn msg_bytes_logical(&self) -> u64 {
        self.msg_bytes_logical
    }

    /// Wire bytes of unique payload allocations enqueued: a multicast's
    /// fan-out counts once here but N times in the logical figure, so
    /// `logical / resident` is the payload-sharing ratio.
    pub fn msg_bytes_resident(&self) -> u64 {
        self.msg_bytes_resident
    }

    /// Processes one event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Event { at, kind, .. }) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.time, "time went backwards");
        self.time = at;
        self.events_processed += 1;

        match kind {
            EventKind::Deliver { to, from, msg } => {
                let meta = &self.meta[to.index()];
                if meta.crashed {
                    self.metrics.inc(metrics::SIM_DROPPED_TO_CRASHED);
                    return true;
                }
                if meta.cpu_free_at > at {
                    // Node is busy: the message waits in its input queue.
                    let free = meta.cpu_free_at;
                    self.queue.push(free, EventKind::Deliver { to, from, msg });
                    return true;
                }
                // Hand the payload to the handler by value: the last
                // holder of a shared payload takes it without copying.
                let msg = Arc::try_unwrap(msg).unwrap_or_else(|shared| (*shared).clone());
                self.dispatch(to, at, |p, ctx| p.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, tag } => {
                let meta = &self.meta[node.index()];
                if meta.crashed {
                    return true;
                }
                if meta.cpu_free_at > at {
                    let free = meta.cpu_free_at;
                    self.queue.push(free, EventKind::Timer { node, tag });
                    return true;
                }
                self.dispatch(node, at, |p, ctx| p.on_timer(ctx, tag));
            }
            EventKind::Crash(node) => {
                if !self.meta[node.index()].crashed {
                    self.meta[node.index()].crashed = true;
                    self.metrics.inc(metrics::SIM_CRASHES);
                    self.dispatch(node, at, |p, ctx| p.on_crash(ctx));
                }
            }
            EventKind::Recover(node) => {
                if self.meta[node.index()].crashed {
                    self.meta[node.index()].crashed = false;
                    self.meta[node.index()].incarnation += 1;
                    self.meta[node.index()].cpu_free_at = at;
                    self.metrics.inc(metrics::SIM_RECOVERIES);
                    self.dispatch(node, at, |p, ctx| p.on_recover(ctx));
                }
            }
        }
        true
    }

    fn dispatch<F>(&mut self, node: NodeId, at: SimTime, f: F)
    where
        F: FnOnce(&mut dyn Process<M>, &mut Ctx<'_, M>),
    {
        let mut proc = self.procs[node.index()]
            .take()
            .expect("re-entrant dispatch");
        let mut ctx = Ctx {
            now: at,
            self_id: node,
            charged: SimDuration::ZERO,
            sends: Vec::new(),
            timers: Vec::new(),
            rng: &mut self.rngs[node.index()],
            metrics: &mut self.metrics,
            costs: &self.costs,
        };
        f(proc.as_mut(), &mut ctx);

        let Ctx {
            charged,
            sends,
            timers,
            ..
        } = ctx;

        self.procs[node.index()] = Some(proc);
        // NOTE: a crash during dispatch is impossible (crashes are events),
        // so meta updates after the handler are safe.
        self.meta[node.index()].cpu_free_at = at + charged;
        self.meta[node.index()].busy_total += charged;

        for (targets, msg, offset, resident) in sends {
            let depart = at + offset;
            let size = msg.wire_len() as u64;
            let enqueued = match targets {
                Fanout::One(to) => u64::from(self.route(node, to, depart, msg)),
                Fanout::Many(tos) => tos
                    .into_iter()
                    .map(|to| u64::from(self.route(node, to, depart, Arc::clone(&msg))))
                    .sum(),
            };
            if enqueued > 0 {
                self.msg_bytes_logical += size * enqueued;
                if resident {
                    self.msg_bytes_resident += size;
                }
            }
        }
        for (fire_at, tag) in timers {
            self.queue.push(fire_at, EventKind::Timer { node, tag });
        }
    }

    /// Enqueues one delivery; returns whether it survived partitions
    /// and loss (i.e. whether the queue now holds a reference to `msg`).
    fn route(&mut self, from: NodeId, to: NodeId, depart: SimTime, msg: Arc<M>) -> bool {
        if to == from {
            // Local delivery bypasses the network.
            self.queue.push(depart, EventKind::Deliver { to, from, msg });
            return true;
        }
        let (fi, ti) = (
            self.meta[from.index()].island,
            self.meta[to.index()].island,
        );
        if fi != ti {
            self.metrics.inc(metrics::SIM_PARTITIONED_DROPS);
            return false;
        }
        let link = *self.net.link(from, to);
        if link.loss > 0.0 && self.net_rng.gen::<f64>() < link.loss {
            self.metrics.inc(metrics::SIM_LOST_MESSAGES);
            return false;
        }
        let latency = link.latency.sample(&mut self.net_rng);
        self.metrics.inc(metrics::SIM_MESSAGES_SENT);
        self.queue
            .push(depart + latency, EventKind::Deliver { to, from, msg });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LinkModel;
    use crate::ring::RingLog;

    /// Harness logs stay bounded so soak runs can't grow without limit.
    const LOG_CAP: usize = 1_024;

    /// Echoes every message back to its sender after charging `work`.
    struct Echo {
        work: SimDuration,
        received: RingLog<(SimTime, u64)>,
    }

    impl Process<u64> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            self.received.push((ctx.now(), msg));
            ctx.charge(self.work);
            if msg < 100 {
                ctx.send(from, msg + 1);
            }
        }
        fn name(&self) -> String {
            "echo".into()
        }
    }

    /// Fires a periodic timer, counting invocations.
    struct Ticker {
        period: SimDuration,
        fired: RingLog<SimTime>,
    }

    impl Process<u64> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer(self.period, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
            self.fired.push(ctx.now());
            ctx.set_timer(self.period, 1);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: NodeId, _msg: u64) {}
    }

    fn world(latency_ms: u64) -> World<u64> {
        World::new(
            7,
            NetworkConfig::new(LinkModel::constant(SimDuration::from_millis(latency_ms))),
            CostModel::standard(),
        )
    }

    #[test]
    fn ping_pong_respects_latency() {
        let mut w = world(10);
        let a = w.spawn(
            "a",
            Box::new(Echo {
                work: SimDuration::ZERO,
                received: RingLog::new(LOG_CAP),
            }),
        );
        let b = w.spawn(
            "b",
            Box::new(Echo {
                work: SimDuration::ZERO,
                received: RingLog::new(LOG_CAP),
            }),
        );
        w.inject(a, b, 0);
        w.run_until(SimTime::from_millis(100));
        // b receives 0 at 10ms, a receives 1 at 20ms, ...
        w.with_process::<Echo, _>(b, |p| {
            assert_eq!(p.received.get(0), Some(&(SimTime::from_millis(10), 0)));
            assert_eq!(p.received.get(1), Some(&(SimTime::from_millis(30), 2)));
        });
        w.with_process::<Echo, _>(a, |p| {
            assert_eq!(p.received.get(0), Some(&(SimTime::from_millis(20), 1)));
        });
    }

    #[test]
    fn periodic_timer_fires_on_schedule() {
        let mut w = world(1);
        let t = w.spawn(
            "tick",
            Box::new(Ticker {
                period: SimDuration::from_millis(7),
                fired: RingLog::new(LOG_CAP),
            }),
        );
        w.run_until(SimTime::from_millis(30));
        w.with_process::<Ticker, _>(t, |p| {
            assert_eq!(
                p.fired.iter().copied().collect::<Vec<_>>(),
                vec![
                    SimTime::from_millis(7),
                    SimTime::from_millis(14),
                    SimTime::from_millis(21),
                    SimTime::from_millis(28)
                ]
            );
        });
    }

    #[test]
    fn busy_cpu_delays_subsequent_messages() {
        let mut w = world(10);
        let a = w.spawn(
            "src",
            Box::new(Echo {
                work: SimDuration::ZERO,
                received: RingLog::new(LOG_CAP),
            }),
        );
        let b = w.spawn(
            "busy",
            Box::new(Echo {
                work: SimDuration::from_millis(50),
                received: RingLog::new(LOG_CAP),
            }),
        );
        // Two back-to-back messages; both arrive at t=10ms, but the second
        // must wait for the 50ms of work the first one triggers.
        w.inject(a, b, 200);
        w.inject(a, b, 300);
        w.run_until(SimTime::from_millis(200));
        w.with_process::<Echo, _>(b, |p| {
            assert_eq!(p.received.get(0).unwrap().0, SimTime::from_millis(10));
            assert_eq!(p.received.get(1).unwrap().0, SimTime::from_millis(60));
        });
        assert_eq!(w.busy_total(b), SimDuration::from_millis(100));
    }

    #[test]
    fn crash_drops_messages_and_recover_resumes() {
        let mut w = world(5);
        let a = w.spawn(
            "a",
            Box::new(Echo {
                work: SimDuration::ZERO,
                received: RingLog::new(LOG_CAP),
            }),
        );
        let b = w.spawn(
            "b",
            Box::new(Echo {
                work: SimDuration::ZERO,
                received: RingLog::new(LOG_CAP),
            }),
        );
        w.schedule_crash(SimTime::from_millis(1), b);
        w.inject(a, b, 200); // Arrives at 5ms: dropped (crashed).
        w.schedule_recover(SimTime::from_millis(10), b);
        w.run_until(SimTime::from_millis(8));
        assert!(w.is_crashed(b));
        w.run_until(SimTime::from_millis(12));
        assert!(!w.is_crashed(b));
        w.inject(a, b, 300); // Arrives at 17ms: delivered.
        w.run_until(SimTime::from_millis(30));
        w.with_process::<Echo, _>(b, |p| {
            assert_eq!(p.received.len(), 1);
            assert_eq!(p.received.get(0).unwrap().1, 300);
        });
        assert_eq!(w.metrics().counter(metrics::SIM_DROPPED_TO_CRASHED), 1);
    }

    #[test]
    fn partitions_block_traffic_until_healed() {
        let mut w = world(5);
        let a = w.spawn(
            "a",
            Box::new(Echo {
                work: SimDuration::ZERO,
                received: RingLog::new(LOG_CAP),
            }),
        );
        let b = w.spawn(
            "b",
            Box::new(Echo {
                work: SimDuration::ZERO,
                received: RingLog::new(LOG_CAP),
            }),
        );
        w.set_island(b, 1);
        w.inject(a, b, 1);
        w.run_until(SimTime::from_millis(20));
        w.with_process::<Echo, _>(b, |p| assert!(p.received.is_empty()));
        assert_eq!(w.metrics().counter(metrics::SIM_PARTITIONED_DROPS), 1);

        w.heal_partitions();
        w.inject(a, b, 2);
        w.run_until(SimTime::from_millis(40));
        // The echo chain keeps bouncing after the heal; what matters is
        // that the first delivered message is the post-heal one.
        w.with_process::<Echo, _>(b, |p| {
            assert!(!p.received.is_empty());
            assert_eq!(p.received.get(0).unwrap().1, 2);
        });
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn trace(seed: u64) -> Vec<(SimTime, u64)> {
            let mut w = World::new(
                seed,
                NetworkConfig::new(LinkModel {
                    latency: crate::net::LatencyModel::Exponential(SimDuration::from_millis(10)),
                    loss: 0.1,
                }),
                CostModel::standard(),
            );
            let a = w.spawn(
                "a",
                Box::new(Echo {
                    work: SimDuration::ZERO,
                    received: RingLog::new(LOG_CAP),
                }),
            );
            let b = w.spawn(
                "b",
                Box::new(Echo {
                    work: SimDuration::from_micros(100),
                    received: RingLog::new(LOG_CAP),
                }),
            );
            for i in 0..20 {
                w.inject(a, b, i);
            }
            w.run_until(SimTime::from_secs(5));
            w.with_process::<Echo, _>(b, |p| p.received.iter().copied().collect::<Vec<_>>())
        }
        assert_eq!(trace(123), trace(123));
        assert_ne!(trace(123), trace(456));
    }

    #[test]
    fn utilisation_accounting() {
        let mut w = world(1);
        let b = w.spawn(
            "busy",
            Box::new(Echo {
                work: SimDuration::from_millis(10),
                received: RingLog::new(LOG_CAP),
            }),
        );
        w.inject(b, b, 200); // Self-send: immediate delivery.
        w.run_until(SimTime::from_millis(100));
        let u = w.utilisation(b);
        assert!((0.09..0.11).contains(&u), "utilisation {u}");
    }

    #[test]
    fn run_to_quiescence_drains_queue() {
        let mut w = world(1);
        let a = w.spawn(
            "a",
            Box::new(Echo {
                work: SimDuration::ZERO,
                received: RingLog::new(LOG_CAP),
            }),
        );
        let b = w.spawn(
            "b",
            Box::new(Echo {
                work: SimDuration::ZERO,
                received: RingLog::new(LOG_CAP),
            }),
        );
        w.inject(a, b, 95); // Echo chain stops at 100.
        w.run_to_quiescence();
        assert!(w.events_processed() > 4);
    }
}
