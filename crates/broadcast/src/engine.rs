//! The sans-io total-order broadcast engine.
//!
//! See the crate docs for the protocol sketch.  The engine never performs
//! I/O: every entry point returns a list of [`Action`]s for the host
//! (simulated master, test harness, or a real network shim) to carry out.

use crate::view::{MemberId, View};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Timing configuration, in abstract ticks (the host decides tick length;
/// `sdr-core` ticks every 50 ms of simulated time).
#[derive(Clone, Copy, Debug)]
pub struct TobConfig {
    /// Send a heartbeat every this many ticks.
    pub heartbeat_every: u32,
    /// Suspect a member after this many ticks without hearing from it.
    pub suspect_after: u32,
    /// Retransmit unacknowledged publishes after this many ticks.
    pub resend_after: u32,
}

impl Default for TobConfig {
    fn default() -> Self {
        TobConfig {
            heartbeat_every: 2,
            suspect_after: 8,
            resend_after: 4,
        }
    }
}

/// Wire messages exchanged by group members.
#[derive(Clone, Debug, PartialEq)]
pub enum TobMessage<T> {
    /// Publisher → sequencer: please order this payload.
    Publish {
        /// Publisher rank.
        origin: MemberId,
        /// Publisher-local dedup id.
        publish_id: u64,
        /// The payload.
        payload: T,
    },
    /// Sequencer → all: payload ordered at `seq`.
    Ordered {
        /// View in which the assignment was made.
        view_id: u64,
        /// Assigned sequence number.
        seq: u64,
        /// Original publisher.
        origin: MemberId,
        /// Publisher-local dedup id.
        publish_id: u64,
        /// The payload.
        payload: T,
    },
    /// Member → sequencer: I am missing `[from, to)` — retransmit.
    Nack {
        /// First missing sequence number.
        from_seq: u64,
        /// One past the last missing sequence number.
        to_seq: u64,
    },
    /// Liveness + progress gossip, sent every `heartbeat_every` ticks.
    Heartbeat {
        /// Sender's current view id.
        view_id: u64,
        /// Sender has delivered everything below this.
        delivered_up_to: u64,
        /// Sequencer only: next sequence number it will assign (lets
        /// members detect tail loss); 0 from non-sequencers.
        next_assign: u64,
        /// Sequencer only: everything below this is delivered everywhere
        /// and may be pruned.
        stable: u64,
    },
    /// View-change coordinator → survivors: send me your log.
    StateRequest {
        /// The proposed new view.
        proposed: View,
    },
    /// Survivor → coordinator: my log tail and delivery watermark.
    StateReply {
        /// Id of the proposed view this replies to.
        proposed_id: u64,
        /// Everything still in my log.
        log: Vec<(u64, MemberId, u64, T)>,
        /// I have delivered everything below this.
        delivered_up_to: u64,
    },
    /// "What view are you in?" — sent when a peer's message reveals a
    /// higher view id; the peer answers with [`TobMessage::NewView`].
    ViewProbe,
    /// Coordinator → survivors: install this view with this merged log.
    NewView {
        /// The new view.
        view: View,
        /// Merged log entries members may be missing.
        log: Vec<(u64, MemberId, u64, T)>,
        /// Sequencing continues from here.
        next_assign: u64,
    },
}

/// Instructions returned by the engine for the host to execute.
#[derive(Clone, Debug, PartialEq)]
pub enum Action<T> {
    /// Send `msg` to member `to`.
    Send {
        /// Destination member.
        to: MemberId,
        /// The message.
        msg: TobMessage<T>,
    },
    /// Deliver `payload` (ordered at `seq`, published by `origin`) to the
    /// application.  Deliveries are strictly in `seq` order.
    Deliver {
        /// Global sequence number.
        seq: u64,
        /// Original publisher.
        origin: MemberId,
        /// The payload.
        payload: T,
    },
    /// A new view was installed (membership/roles changed).
    ViewInstalled(View),
}

#[derive(Clone, Debug)]
struct PendingPublish<T> {
    publish_id: u64,
    payload: T,
    sent_tick: u64,
}

#[derive(Clone, Debug)]
struct ViewChange {
    proposed: View,
    /// Members whose state has not arrived yet, in member order.
    waiting: Vec<MemberId>,
    started_tick: u64,
}

/// The total-order broadcast state machine for one group member.
pub struct TotalOrder<T: Clone> {
    me: MemberId,
    config: TobConfig,
    view: View,
    /// Ordered log: seq → (origin, publish_id, payload).
    log: BTreeMap<u64, (MemberId, u64, T)>,
    /// Dedup of ordered publishes: (origin, publish_id) → seq.
    ordered_ids: HashMap<(MemberId, u64), u64>,
    /// Publishes already handed to the application (at-most-once delivery
    /// even across view-change re-assignments).
    delivered_ids: HashSet<(MemberId, u64)>,
    next_deliver: u64,
    /// Sequencer only: next seq to assign.
    next_assign: u64,
    /// Sequencer only: per-member delivery watermarks.
    delivered_watermarks: HashMap<MemberId, u64>,
    /// Sequencer's advertised tail (for gap detection at members).
    seq_next_assign_seen: u64,
    stable: u64,
    pending: Vec<PendingPublish<T>>,
    next_publish_id: u64,
    last_heard: HashMap<MemberId, u64>,
    tick: u64,
    view_change: Option<ViewChange>,
    /// The full static group (heartbeats gossip beyond the current view so
    /// falsely excluded members are always rediscovered).
    initial_members: Vec<MemberId>,
}

impl<T: Clone> TotalOrder<T> {
    /// Creates the engine for member `me` of a fresh `n`-member group.
    pub fn new(me: MemberId, n: usize, config: TobConfig) -> Self {
        let view = View::initial(n);
        let mut last_heard = HashMap::new();
        for &m in &view.members {
            last_heard.insert(m, 0);
        }
        let initial_members = view.members.clone();
        TotalOrder {
            initial_members,
            me,
            config,
            view,
            log: BTreeMap::new(),
            ordered_ids: HashMap::new(),
            delivered_ids: HashSet::new(),
            next_deliver: 0,
            next_assign: 0,
            delivered_watermarks: HashMap::new(),
            seq_next_assign_seen: 0,
            stable: 0,
            pending: Vec::new(),
            next_publish_id: 0,
            last_heard,
            tick: 0,
            view_change: None,
        }
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Whether this member is the current sequencer.
    pub fn is_sequencer(&self) -> bool {
        self.view.sequencer() == self.me
    }

    /// Whether this member is the elected auditor.
    pub fn is_auditor(&self) -> bool {
        self.view.auditor() == self.me
    }

    /// Sequence number of the next message this member will deliver.
    pub fn delivered_up_to(&self) -> u64 {
        self.next_deliver
    }

    /// Number of publishes awaiting ordering.
    pub fn pending_publishes(&self) -> usize {
        self.pending.len()
    }

    /// Submits `payload` for total ordering.
    pub fn broadcast(&mut self, payload: T) -> Vec<Action<T>> {
        let publish_id = self.next_publish_id;
        self.next_publish_id += 1;
        self.pending.push(PendingPublish {
            publish_id,
            payload: payload.clone(),
            sent_tick: self.tick,
        });
        if self.is_sequencer() {
            self.assign(self.me, publish_id, payload)
        } else {
            vec![Action::Send {
                to: self.view.sequencer(),
                msg: TobMessage::Publish {
                    origin: self.me,
                    publish_id,
                    payload,
                },
            }]
        }
    }

    /// Sequencer path: assign the next seq and fan out.
    fn assign(&mut self, origin: MemberId, publish_id: u64, payload: T) -> Vec<Action<T>> {
        if let Some(&seq) = self.ordered_ids.get(&(origin, publish_id)) {
            // Duplicate publish (retransmission): re-send the assignment.
            let (o, p, pl) = self.log.get(&seq).cloned().expect("ordered in log");
            return if origin == self.me {
                vec![]
            } else {
                vec![Action::Send {
                    to: origin,
                    msg: TobMessage::Ordered {
                        view_id: self.view.id,
                        seq,
                        origin: o,
                        publish_id: p,
                        payload: pl,
                    },
                }]
            };
        }
        let seq = self.next_assign;
        self.next_assign += 1;
        self.ordered_ids.insert((origin, publish_id), seq);
        self.log.insert(seq, (origin, publish_id, payload.clone()));

        let mut actions = Vec::new();
        for &m in &self.view.members.clone() {
            if m != self.me {
                actions.push(Action::Send {
                    to: m,
                    msg: TobMessage::Ordered {
                        view_id: self.view.id,
                        seq,
                        origin,
                        publish_id,
                        payload: payload.clone(),
                    },
                });
            }
        }
        actions.extend(self.try_deliver());
        actions
    }

    /// Delivers every consecutive log entry from `next_deliver`.
    fn try_deliver(&mut self) -> Vec<Action<T>> {
        let mut actions = Vec::new();
        while let Some((origin, publish_id, payload)) = self.log.get(&self.next_deliver).cloned() {
            let seq = self.next_deliver;
            self.next_deliver += 1;
            // Completed publishes stop retransmitting.
            if origin == self.me {
                self.pending.retain(|p| p.publish_id != publish_id);
            }
            // At-most-once: a publish re-assigned across a view change must
            // not reach the application twice.
            if !self.delivered_ids.insert((origin, publish_id)) {
                continue;
            }
            actions.push(Action::Deliver {
                seq,
                origin,
                payload,
            });
        }
        actions
    }

    /// Handles an incoming protocol message.
    pub fn on_message(&mut self, from: MemberId, msg: TobMessage<T>) -> Vec<Action<T>> {
        self.last_heard.insert(from, self.tick);
        // False-suspicion repair: a member we excluded is demonstrably
        // alive (benign fault model: crashed members never speak).  The
        // sequencer proposes a view that re-admits it; the rejoiner
        // catches up through the ordinary StateRequest/NewView flow.
        let mut actions = if !self.view.contains(from)
            && self.view.contains(self.me)
            && self.view.sequencer() == self.me
            && self.view_change.is_none()
        {
            self.start_view_change_with(from)
        } else {
            Vec::new()
        };
        // View reconciliation: a peer ahead of us can catch us up; a peer
        // behind us (and still in our view) gets repaired by the
        // sequencer.  This heals dropped NewView messages.
        if let Some(view_id) = message_view_id(&msg) {
            if view_id > self.view.id {
                actions.push(Action::Send {
                    to: from,
                    msg: TobMessage::ViewProbe,
                });
            } else if view_id < self.view.id
                && self.is_sequencer()
                && self.view.contains(from)
            {
                actions.push(self.describe_view_to(from));
            }
        }
        actions.extend(self.handle_message(from, msg));
        actions
    }

    /// Builds a NewView snapshot of the current view for `to`.
    fn describe_view_to(&self, to: MemberId) -> Action<T> {
        let log: Vec<(u64, MemberId, u64, T)> = self
            .log
            .iter()
            .map(|(&s, (o, p, t))| (s, *o, *p, t.clone()))
            .collect();
        Action::Send {
            to,
            msg: TobMessage::NewView {
                view: self.view.clone(),
                log,
                next_assign: self.next_assign.max(self.seq_next_assign_seen),
            },
        }
    }

    fn start_view_change_with(&mut self, rejoiner: MemberId) -> Vec<Action<T>> {
        let mut members = self.view.members.clone();
        members.push(rejoiner);
        self.propose_view(View::new(self.view.id + 1, members))
    }

    /// Coordinates a change to `proposed`: asks every other member for
    /// its state, in member order, and installs the view at once when
    /// there is nobody to ask.
    fn propose_view(&mut self, proposed: View) -> Vec<Action<T>> {
        let waiting: Vec<MemberId> = proposed
            .members
            .iter()
            .copied()
            .filter(|&m| m != self.me)
            .collect();
        let mut actions: Vec<Action<T>> = waiting
            .iter()
            .map(|&to| Action::Send {
                to,
                msg: TobMessage::StateRequest {
                    proposed: proposed.clone(),
                },
            })
            .collect();
        let empty = waiting.is_empty();
        self.view_change = Some(ViewChange {
            proposed,
            waiting,
            started_tick: self.tick,
        });
        if empty {
            actions.extend(self.finish_view_change());
        }
        actions
    }

    fn handle_message(&mut self, from: MemberId, msg: TobMessage<T>) -> Vec<Action<T>> {
        match msg {
            TobMessage::Publish {
                origin,
                publish_id,
                payload,
            } => {
                if !self.is_sequencer() || !self.view.contains(origin) {
                    return vec![];
                }
                self.assign(origin, publish_id, payload)
            }
            TobMessage::Ordered {
                view_id,
                seq,
                origin,
                publish_id,
                payload,
            } => {
                if view_id != self.view.id || from != self.view.sequencer() {
                    return vec![]; // Stale sequencer.
                }
                if seq >= self.next_deliver && !self.log.contains_key(&seq) {
                    self.ordered_ids.insert((origin, publish_id), seq);
                    self.log.insert(seq, (origin, publish_id, payload));
                }
                self.seq_next_assign_seen = self.seq_next_assign_seen.max(seq + 1);
                self.try_deliver()
            }
            TobMessage::Nack { from_seq, to_seq } => {
                if !self.is_sequencer() {
                    return vec![];
                }
                let mut actions = Vec::new();
                for seq in from_seq..to_seq.min(self.next_assign) {
                    if let Some((origin, publish_id, payload)) = self.log.get(&seq).cloned() {
                        actions.push(Action::Send {
                            to: from,
                            msg: TobMessage::Ordered {
                                view_id: self.view.id,
                                seq,
                                origin,
                                publish_id,
                                payload,
                            },
                        });
                    }
                }
                actions
            }
            TobMessage::Heartbeat {
                view_id,
                delivered_up_to,
                next_assign,
                stable,
            } => {
                if view_id != self.view.id {
                    return vec![];
                }
                if self.is_sequencer() {
                    self.delivered_watermarks.insert(from, delivered_up_to);
                }
                if from == self.view.sequencer() {
                    self.seq_next_assign_seen = self.seq_next_assign_seen.max(next_assign);
                    self.stable = self.stable.max(stable.min(self.next_deliver));
                    self.prune_log();
                }
                vec![]
            }
            TobMessage::StateRequest { proposed } => {
                if proposed.id <= self.view.id || !proposed.contains(self.me) {
                    return vec![];
                }
                let log: Vec<(u64, MemberId, u64, T)> = self
                    .log
                    .iter()
                    .map(|(&s, (o, p, t))| (s, *o, *p, t.clone()))
                    .collect();
                vec![Action::Send {
                    to: from,
                    msg: TobMessage::StateReply {
                        proposed_id: proposed.id,
                        log,
                        delivered_up_to: self.next_deliver,
                    },
                }]
            }
            TobMessage::StateReply {
                proposed_id,
                log,
                delivered_up_to: _,
            } => {
                let Some(vc) = self.view_change.as_mut() else {
                    return vec![];
                };
                if vc.proposed.id != proposed_id {
                    return vec![];
                }
                for (seq, origin, publish_id, payload) in log {
                    if seq >= self.next_deliver && !self.log.contains_key(&seq) {
                        self.ordered_ids.insert((origin, publish_id), seq);
                        self.log.insert(seq, (origin, publish_id, payload));
                    }
                }
                vc.waiting.retain(|&m| m != from);
                let done = vc.waiting.is_empty();
                if done {
                    self.finish_view_change()
                } else {
                    vec![]
                }
            }
            TobMessage::ViewProbe => {
                vec![self.describe_view_to(from)]
            }
            TobMessage::NewView {
                view,
                log,
                next_assign,
            } => {
                if view.id <= self.view.id || !view.contains(self.me) {
                    return vec![];
                }
                for (seq, origin, publish_id, payload) in log {
                    if seq >= self.next_deliver && !self.log.contains_key(&seq) {
                        self.ordered_ids.insert((origin, publish_id), seq);
                        self.log.insert(seq, (origin, publish_id, payload));
                    }
                }
                self.install_view(view, next_assign)
            }
        }
    }

    fn install_view(&mut self, view: View, next_assign: u64) -> Vec<Action<T>> {
        self.view = view.clone();
        self.view_change = None;
        self.next_assign = next_assign;
        self.seq_next_assign_seen = self.seq_next_assign_seen.max(next_assign);
        self.delivered_watermarks.clear();
        // Reset suspicion for surviving members.
        self.last_heard = view.members.iter().map(|&m| (m, self.tick)).collect();

        let mut actions = vec![Action::ViewInstalled(view)];
        actions.extend(self.try_deliver());
        // Retransmit in-flight publishes to the (possibly new) sequencer.
        actions.extend(self.retransmit_pending());
        actions
    }

    fn finish_view_change(&mut self) -> Vec<Action<T>> {
        let vc = self.view_change.take().expect("in view change");
        let next_assign = self
            .log
            .keys()
            .next_back()
            .map(|&s| s + 1)
            .unwrap_or(0)
            .max(self.next_assign)
            .max(self.seq_next_assign_seen);
        let log: Vec<(u64, MemberId, u64, T)> = self
            .log
            .iter()
            .map(|(&s, (o, p, t))| (s, *o, *p, t.clone()))
            .collect();

        let mut actions = Vec::new();
        for &m in &vc.proposed.members {
            if m != self.me {
                actions.push(Action::Send {
                    to: m,
                    msg: TobMessage::NewView {
                        view: vc.proposed.clone(),
                        log: log.clone(),
                        next_assign,
                    },
                });
            }
        }
        actions.extend(self.install_view(vc.proposed, next_assign));
        actions
    }

    fn retransmit_pending(&mut self) -> Vec<Action<T>> {
        let seq_member = self.view.sequencer();
        let mut actions = Vec::new();
        let tick = self.tick;
        let me = self.me;
        let mut to_assign: Vec<(u64, T)> = Vec::new();
        for p in &mut self.pending {
            p.sent_tick = tick;
            if seq_member == me {
                to_assign.push((p.publish_id, p.payload.clone()));
            } else {
                actions.push(Action::Send {
                    to: seq_member,
                    msg: TobMessage::Publish {
                        origin: me,
                        publish_id: p.publish_id,
                        payload: p.payload.clone(),
                    },
                });
            }
        }
        for (publish_id, payload) in to_assign {
            actions.extend(self.assign(me, publish_id, payload));
        }
        actions
    }

    fn prune_log(&mut self) {
        let cut = self.stable.min(self.next_deliver);
        let keep = self.log.split_off(&cut);
        for (_, (origin, publish_id, _)) in std::mem::replace(&mut self.log, keep) {
            self.ordered_ids.remove(&(origin, publish_id));
        }
    }

    /// Advances the engine's clock by one tick: heartbeats, gap nacks,
    /// publish retransmission, failure suspicion, and view-change duty.
    pub fn on_tick(&mut self) -> Vec<Action<T>> {
        self.tick += 1;
        let mut actions = Vec::new();

        // Heartbeats.
        if self.tick.is_multiple_of(u64::from(self.config.heartbeat_every)) {
            let stable = if self.is_sequencer() {
                let mut min = self.next_deliver;
                for &m in &self.view.members {
                    if m != self.me {
                        min = min.min(*self.delivered_watermarks.get(&m).unwrap_or(&0));
                    }
                }
                self.stable = min;
                self.prune_log();
                min
            } else {
                0
            };
            let hb = TobMessage::Heartbeat {
                view_id: self.view.id,
                delivered_up_to: self.next_deliver,
                next_assign: if self.is_sequencer() {
                    self.next_assign
                } else {
                    0
                },
                stable,
            };
            // Gossip to the full static group, not just the current view:
            // a falsely excluded member keeps announcing itself and keeps
            // hearing about newer views, so partitions always heal.
            for &m in &self.initial_members {
                if m != self.me {
                    actions.push(Action::Send {
                        to: m,
                        msg: hb.clone(),
                    });
                }
            }
        }

        // Gap detection: the sequencer has advertised assignments past what
        // we hold contiguously.
        if !self.is_sequencer() && self.seq_next_assign_seen > self.next_deliver {
            let first_missing = (self.next_deliver..self.seq_next_assign_seen)
                .find(|s| !self.log.contains_key(s));
            if let Some(from_seq) = first_missing {
                actions.push(Action::Send {
                    to: self.view.sequencer(),
                    msg: TobMessage::Nack {
                        from_seq,
                        to_seq: self.seq_next_assign_seen,
                    },
                });
            }
        }

        // Publish retransmission.
        let resend_cut = self.tick.saturating_sub(u64::from(self.config.resend_after));
        if !self.is_sequencer() {
            let seq_member = self.view.sequencer();
            for p in &mut self.pending {
                if p.sent_tick <= resend_cut {
                    p.sent_tick = self.tick;
                    actions.push(Action::Send {
                        to: seq_member,
                        msg: TobMessage::Publish {
                            origin: self.me,
                            publish_id: p.publish_id,
                            payload: p.payload.clone(),
                        },
                    });
                }
            }
        }

        // Failure suspicion & view change coordination.
        let suspect_cut = self.tick.saturating_sub(u64::from(self.config.suspect_after));
        let suspected: Vec<MemberId> = self
            .view
            .members
            .iter()
            .copied()
            .filter(|&m| {
                m != self.me && *self.last_heard.get(&m).unwrap_or(&0) <= suspect_cut
            })
            .collect();

        if !suspected.is_empty() && self.tick > u64::from(self.config.suspect_after) {
            let survivors: Vec<MemberId> = self
                .view
                .members
                .iter()
                .copied()
                .filter(|m| !suspected.contains(m))
                .collect();
            let coordinator = survivors.first().copied();
            if coordinator == Some(self.me) && self.view_change.is_none() {
                let proposed = View::new(self.view.id + 1, survivors);
                actions.extend(self.propose_view(proposed));
            }
        }

        // View-change timeout: drop non-responders and re-propose.
        if let Some(vc) = &self.view_change {
            if self.tick.saturating_sub(vc.started_tick) > u64::from(self.config.suspect_after) {
                let survivors = vc.proposed.members.iter().copied();
                let survivors = survivors.filter(|m| !vc.waiting.contains(m)).collect();
                let proposed = View::new(vc.proposed.id + 1, survivors);
                actions.extend(self.propose_view(proposed));
            }
        }

        actions
    }
}

/// Extracts the view id advertised by a message, when it carries one.
fn message_view_id<T>(msg: &TobMessage<T>) -> Option<u64> {
    match msg {
        TobMessage::Ordered { view_id, .. } | TobMessage::Heartbeat { view_id, .. } => {
            Some(*view_id)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A tiny lockstep harness: delivers all actions, optionally dropping
    /// messages, and collects per-member delivery logs.
    struct Harness {
        engines: Vec<TotalOrder<String>>,
        delivered: Vec<Vec<(u64, String)>>,
        crashed: Vec<bool>,
        in_flight: VecDeque<(MemberId, MemberId, TobMessage<String>)>,
        drop_next: usize,
    }

    impl Harness {
        fn new(n: usize) -> Self {
            Harness {
                engines: (0..n)
                    .map(|i| TotalOrder::new(MemberId(i as u32), n, TobConfig::default()))
                    .collect(),
                delivered: vec![Vec::new(); n],
                crashed: vec![false; n],
                in_flight: VecDeque::new(),
                drop_next: 0,
            }
        }

        fn apply(&mut self, me: MemberId, actions: Vec<Action<String>>) {
            for a in actions {
                match a {
                    Action::Send { to, msg } => {
                        if self.drop_next > 0 {
                            self.drop_next -= 1;
                            continue;
                        }
                        self.in_flight.push_back((me, to, msg));
                    }
                    Action::Deliver { seq, payload, .. } => {
                        self.delivered[me.index()].push((seq, payload));
                    }
                    Action::ViewInstalled(_) => {}
                }
            }
        }

        fn pump(&mut self) {
            while let Some((from, to, msg)) = self.in_flight.pop_front() {
                if self.crashed[to.index()] {
                    continue;
                }
                let actions = self.engines[to.index()].on_message(from, msg);
                self.apply(to, actions);
            }
        }

        fn tick_all(&mut self) {
            for i in 0..self.engines.len() {
                if self.crashed[i] {
                    continue;
                }
                let actions = self.engines[i].on_tick();
                self.apply(MemberId(i as u32), actions);
            }
            self.pump();
        }

        fn broadcast(&mut self, from: usize, payload: &str) {
            let actions = self.engines[from].broadcast(payload.to_string());
            self.apply(MemberId(from as u32), actions);
            self.pump();
        }
    }

    #[test]
    fn all_members_deliver_in_same_order() {
        let mut h = Harness::new(4);
        h.broadcast(1, "a");
        h.broadcast(2, "b");
        h.broadcast(0, "c");
        h.broadcast(3, "d");
        let reference = h.delivered[0].clone();
        assert_eq!(reference.len(), 4);
        for d in &h.delivered {
            assert_eq!(*d, reference);
        }
    }

    #[test]
    fn sequencer_is_lowest_auditor_is_highest() {
        let h = Harness::new(3);
        assert!(h.engines[0].is_sequencer());
        assert!(!h.engines[2].is_sequencer());
        assert!(h.engines[2].is_auditor());
    }

    #[test]
    fn concurrent_publishes_get_distinct_seqs() {
        let mut h = Harness::new(3);
        for i in 0..10 {
            let from = i % 3;
            h.broadcast(from, &format!("m{i}"));
        }
        let seqs: Vec<u64> = h.delivered[1].iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<u64>>());
        assert_eq!(h.delivered[0], h.delivered[2]);
    }

    #[test]
    fn lost_ordered_message_recovered_by_nack() {
        let mut h = Harness::new(3);
        h.broadcast(0, "first");
        // Drop the next 2 sends (the Ordered fan-out of "second").
        h.drop_next = 2;
        h.broadcast(0, "second");
        h.broadcast(0, "third");
        // Members 1,2 have a gap at seq 1; ticks trigger nacks.
        for _ in 0..6 {
            h.tick_all();
        }
        for d in &h.delivered {
            let payloads: Vec<&str> = d.iter().map(|(_, p)| p.as_str()).collect();
            assert_eq!(payloads, vec!["first", "second", "third"]);
        }
    }

    #[test]
    fn lost_publish_retransmitted() {
        let mut h = Harness::new(3);
        h.drop_next = 1; // Drop the Publish from member 2 to the sequencer.
        h.broadcast(2, "hello");
        assert!(h.delivered[0].is_empty());
        for _ in 0..8 {
            h.tick_all();
        }
        assert_eq!(h.delivered[0][0].1, "hello");
        assert_eq!(h.delivered[2][0].1, "hello");
        assert_eq!(h.engines[2].pending_publishes(), 0);
    }

    #[test]
    fn sequencer_crash_triggers_view_change_and_progress() {
        let mut h = Harness::new(4);
        h.broadcast(0, "before");
        h.crashed[0] = true;
        // Enough ticks for suspicion (suspect_after=8) + view change.
        for _ in 0..20 {
            h.tick_all();
        }
        assert_eq!(h.engines[1].view().sequencer(), MemberId(1));
        assert_eq!(h.engines[1].view().auditor(), MemberId(3));
        assert!(h.engines[1].view().id >= 1);
        assert_eq!(h.engines[2].view(), h.engines[1].view());

        // The group still makes progress.
        h.broadcast(2, "after");
        for _ in 0..4 {
            h.tick_all();
        }
        let p1: Vec<&str> = h.delivered[1].iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(p1, vec!["before", "after"]);
        assert_eq!(h.delivered[1], h.delivered[3]);
    }

    #[test]
    fn non_sequencer_crash_removes_it_from_view() {
        let mut h = Harness::new(4);
        h.crashed[2] = true;
        for _ in 0..20 {
            h.tick_all();
        }
        let v = h.engines[0].view();
        assert!(!v.contains(MemberId(2)));
        assert_eq!(v.sequencer(), MemberId(0));
        assert_eq!(v.auditor(), MemberId(3));
    }

    #[test]
    fn pending_publish_survives_sequencer_crash() {
        let mut h = Harness::new(3);
        // Member 1 publishes but the sequencer crashes before fan-out: drop
        // the publish entirely and crash 0.
        h.drop_next = 1;
        h.broadcast(1, "orphan");
        h.crashed[0] = true;
        for _ in 0..25 {
            h.tick_all();
        }
        // After the view change, member 1 retransmits to the new sequencer
        // (itself) and everyone delivers.
        let p2: Vec<&str> = h.delivered[2].iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(p2, vec!["orphan"]);
    }

    #[test]
    fn cascading_crashes_leave_singleton_view() {
        let mut h = Harness::new(3);
        h.broadcast(0, "x");
        h.crashed[0] = true;
        h.crashed[2] = true;
        for _ in 0..40 {
            h.tick_all();
        }
        let v = h.engines[1].view();
        assert_eq!(v.members, vec![MemberId(1)]);
        assert!(h.engines[1].is_sequencer());
        assert!(h.engines[1].is_auditor());
        // Still operational.
        h.broadcast(1, "alone");
        let p: Vec<&str> = h.delivered[1].iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(p, vec!["x", "alone"]);
    }

    #[test]
    fn no_duplicate_delivery_under_retransmission_storm() {
        let mut h = Harness::new(3);
        h.broadcast(1, "once");
        // Force many redundant retransmissions.
        for _ in 0..10 {
            let acts = h.engines[1].broadcast("again".to_string());
            h.apply(MemberId(1), acts);
            h.pump();
            h.tick_all();
        }
        let firsts = h.delivered[0]
            .iter()
            .filter(|(_, p)| p == "once")
            .count();
        assert_eq!(firsts, 1);
        for d in &h.delivered {
            assert_eq!(d, &h.delivered[0]);
        }
    }

    #[test]
    fn log_pruning_after_stability() {
        let mut h = Harness::new(3);
        for i in 0..20 {
            h.broadcast(0, &format!("m{i}"));
        }
        // Several heartbeat rounds let the sequencer learn watermarks and
        // advertise stability.
        for _ in 0..6 {
            h.tick_all();
        }
        assert!(
            h.engines[0].log.len() < 20,
            "sequencer log should be pruned, has {}",
            h.engines[0].log.len()
        );
    }

    /// The coordinator of a view change asks the survivors for their
    /// state in member order, so the run does not depend on hash order.
    #[test]
    fn view_change_asks_for_state_in_member_order() {
        let mut e: TotalOrder<String> = TotalOrder::new(MemberId(0), 6, TobConfig::default());
        let mut asked = Vec::new();
        // Members 1–4 keep talking; member 5 falls silent and is suspected.
        while asked.is_empty() {
            for m in 1..5 {
                e.on_message(MemberId(m), TobMessage::ViewProbe);
            }
            for a in e.on_tick() {
                if let Action::Send { to, msg: TobMessage::StateRequest { .. } } = a {
                    asked.push(to);
                }
            }
            assert!(e.tick < 20, "no view change started");
        }
        assert_eq!(asked, (1..5).map(MemberId).collect::<Vec<_>>());
    }
}
