//! Property-based tests for the simulator substrate.

use proptest::prelude::*;
use sdr_sim::event::{BaselineHeap, EventKind, EventQueue};
use sdr_sim::{Histogram, LatencyModel, NodeId, SimDuration, SimTime};
use std::sync::Arc;

/// One step of an arbitrary scheduler workload (see the oracle test).
#[derive(Clone, Debug)]
enum QueueOp {
    /// Push a deliver event at now + delay.
    Push(u64),
    /// Push a timer at now + delay.
    PushTimer(u64),
    /// Cancel the n-th armed timer (mod the number armed so far).
    Cancel(usize),
    /// Pop the earliest event (advances "now").
    Pop,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        // Delays span all three tiers: current window (µs), the near
        // wheel (ms), and the far heap (seconds).
        (0u64..2_000_000).prop_map(QueueOp::Push),
        (0u64..2_000_000).prop_map(QueueOp::PushTimer),
        proptest::arbitrary::any::<usize>().prop_map(QueueOp::Cancel),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
    ]
}

proptest! {
    /// The event queue is a stable priority queue: pops come out in
    /// nondecreasing time order, and equal times preserve insertion order.
    #[test]
    fn event_queue_is_stable_priority_queue(
        times in proptest::collection::vec(0u64..1_000, 1..200),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(
                SimTime(t),
                EventKind::Deliver {
                    to: NodeId(0),
                    from: NodeId(0),
                    msg: Arc::new(i as u64),
                },
            );
        }
        let mut popped: Vec<(u64, u64)> = Vec::new();
        while let Some(ev) = q.pop() {
            let EventKind::Deliver { msg, .. } = ev.kind else { unreachable!() };
            popped.push((ev.at.0, *msg));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "insertion order violated on tie");
            }
        }
    }

    /// Differential oracle: for arbitrary interleavings of pushes,
    /// timer cancellations, and pops, the bucket queue yields exactly
    /// the `(time, seq)` sequence of the seed `BinaryHeap` scheduler
    /// (cancelled timers modelled there as a lazy tombstone set, as the
    /// seed world did).
    #[test]
    fn bucket_queue_matches_baseline_heap_with_cancels(
        ops in proptest::collection::vec(queue_op(), 1..400),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut heap: BaselineHeap<Option<u64>> = BaselineHeap::new();
        let mut cancelled: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut armed: Vec<u64> = Vec::new();
        let mut next_timer = 0u64;
        let mut now = 0u64;
        let mut got: Vec<(u64, u64)> = Vec::new();
        let mut want: Vec<(u64, u64)> = Vec::new();

        for op in &ops {
            match op {
                QueueOp::Push(delay) => {
                    let at = SimTime(now + delay);
                    q.push(at, EventKind::Deliver {
                        to: NodeId(0),
                        from: NodeId(0),
                        msg: Arc::new(0),
                    });
                    heap.push(at, None);
                }
                QueueOp::PushTimer(delay) => {
                    let at = SimTime(now + delay);
                    let id = next_timer;
                    next_timer += 1;
                    armed.push(id);
                    q.push(at, EventKind::Timer { node: NodeId(0), tag: 0, id });
                    heap.push(at, Some(id));
                }
                QueueOp::Cancel(n) => {
                    if !armed.is_empty() {
                        let id = armed[n % armed.len()];
                        q.cancel_timer(id);
                        cancelled.insert(id);
                    }
                }
                QueueOp::Pop => {
                    // The baseline pops tombstones silently, exactly as
                    // the seed world's cancelled-set check did.
                    let base = loop {
                        match heap.pop() {
                            Some((_, _, Some(id))) if cancelled.contains(&id) => continue,
                            other => break other,
                        }
                    };
                    let ours = q.pop();
                    match (ours, base) {
                        (Some(ev), Some((at, seq, _))) => {
                            prop_assert_eq!(ev.at, at, "time mismatch");
                            prop_assert_eq!(ev.seq, seq, "seq mismatch");
                            now = ev.at.0;
                            got.push((ev.at.0, ev.seq));
                            want.push((at.0, seq));
                        }
                        (None, None) => {}
                        (a, b) => prop_assert!(false, "pop divergence: {a:?} vs {b:?}"),
                    }
                }
            }
        }
        // Drain both to the end.
        loop {
            let base = loop {
                match heap.pop() {
                    Some((_, _, Some(id))) if cancelled.contains(&id) => continue,
                    other => break other,
                }
            };
            match (q.pop(), base) {
                (Some(ev), Some((at, seq, _))) => {
                    got.push((ev.at.0, ev.seq));
                    want.push((at.0, seq));
                }
                (None, None) => break,
                (a, b) => prop_assert!(false, "drain divergence: {a:?} vs {b:?}"),
            }
        }
        prop_assert_eq!(got, want);
    }

    /// Uniform latency samples always stay within their bounds, and
    /// constant models never vary.
    #[test]
    fn latency_models_respect_bounds(
        lo in 0u64..10_000,
        span in 0u64..10_000,
        seed in any::<u64>(),
    ) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let uni = LatencyModel::Uniform(SimDuration(lo), SimDuration(lo + span));
        for _ in 0..100 {
            let s = uni.sample(&mut rng).as_micros();
            prop_assert!((lo..=lo + span).contains(&s));
        }
        let c = LatencyModel::Constant(SimDuration(lo));
        prop_assert_eq!(c.sample(&mut rng), SimDuration(lo));
    }

    /// Histogram quantiles are monotone in the quantile argument and
    /// bounded by min/max.
    #[test]
    fn histogram_quantiles_monotone(
        values in proptest::collection::vec(0u64..1_000_000, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let (vlo, vhi) = (h.quantile(lo), h.quantile(hi));
        prop_assert!(vlo <= vhi, "quantiles not monotone: q({lo})={vlo} > q({hi})={vhi}");
        let min = *values.iter().min().expect("non-empty");
        let max = *values.iter().max().expect("non-empty");
        prop_assert!((min..=max).contains(&vlo));
        prop_assert!((min..=max).contains(&vhi));
    }

    /// SimTime/SimDuration arithmetic is consistent: (t + d) - t == d and
    /// ordering follows the raw microseconds.
    #[test]
    fn time_arithmetic_consistent(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t0 = SimTime(t);
        let dur = SimDuration(d);
        prop_assert_eq!((t0 + dur) - t0, dur);
        prop_assert_eq!((t0 + dur).since(t0), dur);
        prop_assert!(t0 + dur >= t0);
    }
}
