//! The deterministic event queue.
//!
//! [`EventQueue`] is a calendar/bucket scheduler built for simulations
//! with hundreds of thousands of live events.  It replaces the seed's
//! monolithic `BinaryHeap<Event<M>>` (kept below as [`BaselineHeap`]
//! for differential tests and benchmarks) while popping in *exactly*
//! the same `(time, seq)` order, so small runs stay byte-identical.
//!
//! Layout:
//!
//! * **Slab** — event payloads live in a free-listed slab; the queue's
//!   internal structures move only 24-byte keys, never the payload.
//! * **Current window** — the events of the window being drained, as a
//!   vector sorted once per window and consumed by index: amortised
//!   O(1) pop.  Pushes landing inside the already-sorted window (e.g.
//!   zero-latency self-sends) go to a tiny overlay heap that is merged
//!   at pop by a single comparison.
//! * **Near wheel** — `NB` buckets of `2^W_SHIFT` µs each (~262 ms of
//!   horizon): O(1) push for the send/deliver hot path.
//! * **Far heap** — long-range timers beyond the wheel horizon fall
//!   back to a binary heap of keys and migrate into the current window
//!   lazily as time advances.

use crate::process::NodeId;
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Bucket width exponent: each wheel bucket spans `2^W_SHIFT` µs.
const W_SHIFT: u32 = 10;
/// Number of wheel buckets (power of two; the wheel spans `NB << W_SHIFT` µs).
const NB: usize = 256;
const NIL: u32 = u32::MAX;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind<M> {
    /// Deliver a message to `to` from `from`.
    ///
    /// The payload is behind an `Arc`: a multicast to N peers enqueues
    /// N pointers to one allocation instead of N deep clones.
    Deliver {
        /// Destination node.
        to: NodeId,
        /// Source node.
        from: NodeId,
        /// The payload (shared across fan-out deliveries).
        msg: Arc<M>,
    },
    /// Fire a timer on `node` with the caller-chosen `tag`.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// Caller-chosen discriminator.
        tag: u64,
    },
    /// Crash a node (fault injection).
    Crash(NodeId),
    /// Recover a crashed node.
    Recover(NodeId),
}

/// A scheduled event.
#[derive(Debug)]
pub struct Event<M> {
    /// When the event fires.
    pub at: SimTime,
    /// Tie-break sequence (insertion order).
    pub seq: u64,
    /// What fires.
    pub kind: EventKind<M>,
}

/// Sort key: `(at, seq)` ascending; `idx` is the slab slot and never
/// influences order (`seq` is unique).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    at: u64,
    seq: u64,
    idx: u32,
}

#[derive(Debug)]
enum Slot<M> {
    Occupied(EventKind<M>),
    Free(u32),
}

/// Queue shape telemetry (see [`EventQueue::depth_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueDepthStats {
    /// Events currently queued.
    pub live: usize,
    /// High-water mark of live events over the queue's lifetime.
    pub peak: usize,
    /// Slab slots allocated (capacity actually touched, a resident-set
    /// proxy for the queue itself).
    pub slots: usize,
}

/// Earliest-first event queue with deterministic tie-breaking.
///
/// Pops in strictly ascending `(at, seq)` order — identical, event for
/// event, to the seed [`BaselineHeap`] scheduler.
#[derive(Debug)]
pub struct EventQueue<M> {
    slots: Vec<Slot<M>>,
    free_head: u32,
    /// The sorted current window, drained by `cur_pos`.
    cur: Vec<Key>,
    cur_pos: usize,
    /// Pushes that landed at or before the current window's end after
    /// it was sorted (same-instant cascades, requeues into the past).
    overlay: BinaryHeap<Reverse<Key>>,
    /// Exclusive µs bound of the current window (multiple of the bucket
    /// width); everything earlier is in `cur`/`overlay` or popped.
    cur_end: u64,
    wheel: Vec<Vec<Key>>,
    wheel_len: usize,
    far: BinaryHeap<Reverse<Key>>,
    next_seq: u64,
    live: usize,
    peak_live: usize,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free_head: NIL,
            cur: Vec::new(),
            cur_pos: 0,
            overlay: BinaryHeap::new(),
            cur_end: 0,
            wheel: (0..NB).map(|_| Vec::new()).collect(),
            wheel_len: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
            live: 0,
            peak_live: 0,
        }
    }

    fn alloc(&mut self, kind: EventKind<M>) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            match std::mem::replace(&mut self.slots[idx as usize], Slot::Occupied(kind)) {
                Slot::Free(next) => self.free_head = next,
                _ => unreachable!("free list points at a live slot"),
            }
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot::Occupied(kind));
            idx
        }
    }

    fn take(&mut self, idx: u32) -> EventKind<M> {
        let slot = std::mem::replace(&mut self.slots[idx as usize], Slot::Free(self.free_head));
        self.free_head = idx;
        match slot {
            Slot::Occupied(kind) => kind,
            _ => unreachable!("queued key points at an empty slot"),
        }
    }

    /// Schedules `kind` at time `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.alloc(kind);
        let key = Key { at: at.0, seq, idx };
        if key.at < self.cur_end {
            self.overlay.push(Reverse(key));
        } else if (key.at >> W_SHIFT) < (self.cur_end >> W_SHIFT) + NB as u64 {
            self.wheel[(key.at >> W_SHIFT) as usize & (NB - 1)].push(key);
            self.wheel_len += 1;
        } else {
            self.far.push(Reverse(key));
        }
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
    }

    /// Advances the window until an event is at the front; false when
    /// the queue is drained.
    fn refill(&mut self) -> bool {
        loop {
            if self.cur_pos < self.cur.len() || !self.overlay.is_empty() {
                return true;
            }
            if self.wheel_len == 0 && self.far.is_empty() {
                return false;
            }
            // Advance to the next non-empty window.  Every wheel entry
            // lies in `[cur_end, cur_end + NB·W)`, which spans exactly
            // one window per bucket, so the scan from the current
            // window's bucket finds the earliest one.
            self.cur.clear();
            self.cur_pos = 0;
            let new_end = if self.wheel_len > 0 {
                let base = self.cur_end >> W_SHIFT;
                let (b, s) = (0..NB as u64)
                    .map(|s| (((base + s) as usize) & (NB - 1), s))
                    .find(|&(b, _)| !self.wheel[b].is_empty())
                    .expect("wheel_len > 0");
                std::mem::swap(&mut self.cur, &mut self.wheel[b]);
                self.wheel_len -= self.cur.len();
                (base + s + 1) << W_SHIFT
            } else {
                // Wheel empty: jump straight to the earliest far event.
                let Reverse(top) = *self.far.peek().expect("far non-empty");
                ((top.at >> W_SHIFT) + 1) << W_SHIFT
            };
            // Far events may predate the chosen window's end (the
            // horizon was shorter when they were pushed): merge them.
            while let Some(Reverse(k)) = self.far.peek() {
                if k.at < new_end {
                    self.cur.push(*k);
                    self.far.pop();
                } else {
                    break;
                }
            }
            self.cur_end = new_end;
            self.cur.sort_unstable();
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<M>> {
        if !self.refill() {
            return None;
        }
        let front = (self.cur_pos < self.cur.len()).then(|| self.cur[self.cur_pos]);
        let key = match (front, self.overlay.peek().map(|r| r.0)) {
            (Some(c), Some(o)) if o < c => {
                self.overlay.pop();
                o
            }
            (Some(c), _) => {
                self.cur_pos += 1;
                c
            }
            (None, Some(o)) => {
                self.overlay.pop();
                o
            }
            (None, None) => unreachable!("refill returned true"),
        };
        let kind = self.take(key.idx);
        self.live -= 1;
        Some(Event {
            at: SimTime(key.at),
            seq: key.seq,
            kind,
        })
    }

    /// Time of the earliest event without removing it (advances
    /// the internal window cursor, hence `&mut`).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.refill() {
            return None;
        }
        let front = (self.cur_pos < self.cur.len()).then(|| self.cur[self.cur_pos].at);
        let over = self.overlay.peek().map(|r| r.0.at);
        Some(SimTime(match (front, over) {
            (Some(c), Some(o)) => c.min(o),
            (Some(c), None) => c,
            (None, Some(o)) => o,
            (None, None) => unreachable!("refill returned true"),
        }))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Queue shape telemetry for memory accounting.
    pub fn depth_stats(&self) -> QueueDepthStats {
        QueueDepthStats {
            live: self.live,
            peak: self.peak_live,
            slots: self.slots.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// The seed scheduler, kept verbatim in shape: one monolithic max-heap
// over full inline entries.  Differential tests assert the bucket queue
// pops in exactly this order; the `sim_100k` bench measures the gap.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct BaselineEntry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for BaselineEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for BaselineEntry<T> {}
impl<T> PartialOrd for BaselineEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for BaselineEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The seed event scheduler: a single `BinaryHeap` whose entries carry
/// the payload inline (every sift moves it).  Retained as the ordering
/// oracle for [`EventQueue`] and as the benchmark baseline.
#[derive(Debug, Default)]
pub struct BaselineHeap<T> {
    heap: BinaryHeap<BaselineEntry<T>>,
    next_seq: u64,
}

impl<T> BaselineHeap<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BaselineHeap {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `item` at time `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(BaselineEntry { at, seq, item });
    }

    /// Removes and returns the earliest `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|e| (e.at, e.seq, e.item))
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(to: u32) -> EventKind<u64> {
        EventKind::Deliver {
            to: NodeId(to),
            from: NodeId(0),
            msg: Arc::new(0),
        }
    }

    fn timer(tag: u64) -> EventKind<u64> {
        EventKind::Timer {
            node: NodeId(0),
            tag,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), deliver(3));
        q.push(SimTime(10), deliver(1));
        q.push(SimTime(20), deliver(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.push(SimTime(42), deliver(i));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), deliver(0));
        assert_eq!(q.peek_time(), Some(SimTime(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn far_future_events_interleave_with_near() {
        let mut q = EventQueue::new();
        // Far beyond the wheel horizon (~262 ms).
        q.push(SimTime(10_000_000), deliver(9));
        q.push(SimTime(5), deliver(1));
        q.push(SimTime(400_000), deliver(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![5, 400_000, 10_000_000]);
    }

    #[test]
    fn push_into_current_window_after_sorting() {
        let mut q = EventQueue::new();
        q.push(SimTime(100), deliver(1));
        q.push(SimTime(200), deliver(2));
        assert_eq!(q.pop().unwrap().at, SimTime(100));
        // The window [0, 1024) is now sorted and half-drained; a push
        // into it must still come out in time order.
        q.push(SimTime(150), deliver(3));
        q.push(SimTime(50), deliver(4));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![50, 150, 200]);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..100u32 {
                q.push(SimTime(round * 1000 + u64::from(i)), deliver(i));
            }
            while q.pop().is_some() {}
        }
        // Slab never grows beyond one round's worth of slots.
        assert!(q.depth_stats().slots <= 100, "slots {}", q.depth_stats().slots);
        assert_eq!(q.depth_stats().peak, 100);
    }

    #[test]
    fn sparse_far_only_queues_jump() {
        let mut q = EventQueue::new();
        for i in 0..4u64 {
            q.push(SimTime(i * 60_000_000), timer(i)); // one per virtual minute
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![0, 60_000_000, 120_000_000, 180_000_000]);
    }

    #[test]
    fn matches_baseline_on_mixed_workload() {
        // A deterministic pseudo-random push/pop interleaving must pop
        // in exactly the baseline's (time, seq) order.
        let mut q = EventQueue::new();
        let mut b = BaselineHeap::new();
        let mut x = 0x1234_5678_u64;
        let mut now = 0u64;
        let mut popped = Vec::new();
        let mut expect = Vec::new();
        for _ in 0..5_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let action = (x >> 33) % 3;
            if action < 2 {
                let delay = (x >> 17) % 2_000_000; // 0..2 s, spans all tiers
                q.push(SimTime(now + delay), deliver(1));
                b.push(SimTime(now + delay), ());
            } else {
                if let Some(e) = q.pop() {
                    now = e.at.0;
                    popped.push((e.at.0, e.seq));
                }
                if let Some((at, seq, ())) = b.pop() {
                    expect.push((at.0, seq));
                }
            }
        }
        while let Some(e) = q.pop() {
            popped.push((e.at.0, e.seq));
        }
        while let Some((at, seq, ())) = b.pop() {
            expect.push((at.0, seq));
        }
        assert_eq!(popped, expect);
    }
}
