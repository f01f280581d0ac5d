//! The process (actor) abstraction hosted by a [`crate::World`].

use crate::world::Ctx;
use std::any::Any;
use std::fmt;

/// Identifies a node inside a world (dense index, assigned at spawn).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Message payloads carried by the simulated network.
///
/// `wire_len` feeds the per-byte component of link latency; returning 0 (the
/// default) disables size-dependent delay for that message type.
///
/// `Clone` is required because queued payloads are shared behind `Arc`:
/// a multicast's fan-out deliveries all point at one allocation, and
/// every delivery but the last clones the payload out for the handler.
pub trait Payload: Clone + 'static {
    /// Approximate encoded size in bytes.
    fn wire_len(&self) -> usize {
        0
    }
}

impl Payload for String {}
impl Payload for Vec<u8> {
    fn wire_len(&self) -> usize {
        self.len()
    }
}
impl Payload for u64 {}

/// A simulated node: reacts to messages and timers.
///
/// Handlers receive a [`Ctx`] for sending messages, arming timers, charging
/// virtual CPU work, sampling randomness, and recording metrics.  All state
/// lives inside the implementing type; the world owns the boxed process.
pub trait Process<M: Payload>: Any {
    /// Invoked once when the node is added to the world.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Invoked when a message from `from` is delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// Invoked when a timer armed with `tag` fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _tag: u64) {}

    /// Invoked when the world crashes this node (fault injection).
    fn on_crash(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Invoked when the world recovers this node.
    fn on_recover(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Human-readable label for traces and panics.
    fn name(&self) -> String {
        "process".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let id = NodeId(7);
        assert_eq!(id.to_string(), "n7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn default_payload_sizes() {
        assert_eq!("hello".to_string().wire_len(), 0);
        assert_eq!(vec![0u8; 16].wire_len(), 16);
        assert_eq!(9u64.wire_len(), 0);
    }
}
