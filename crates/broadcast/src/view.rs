//! Membership views over the master group.

use std::fmt;

/// A member's rank within the (fixed) master group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemberId(pub u32);

impl MemberId {
    /// Dense index of this member.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// An installed membership view: which masters are believed alive.
///
/// Roles are a deterministic function of the membership, so every member
/// that installs the view agrees without further messages:
/// the **sequencer** is the lowest-ranked member, the **auditor** the
/// highest-ranked (when the view has at least two members; in a singleton
/// view the survivor plays both roles).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    /// Monotonic view number.
    pub id: u64,
    /// Live members, sorted ascending.
    pub members: Vec<MemberId>,
}

impl View {
    /// Creates the initial view over `n` members (view id 0).
    pub fn initial(n: usize) -> Self {
        View {
            id: 0,
            members: (0..n as u32).map(MemberId).collect(),
        }
    }

    /// Creates a view with the given id and members (sorted internally).
    pub fn new(id: u64, mut members: Vec<MemberId>) -> Self {
        members.sort_unstable();
        members.dedup();
        View { id, members }
    }

    /// The sequencer for this view (lowest rank).
    ///
    /// # Panics
    ///
    /// Panics on an empty view, which the engine never installs.
    pub fn sequencer(&self) -> MemberId {
        *self.members.first().expect("non-empty view")
    }

    /// The auditor elected by this view (highest rank).
    pub fn auditor(&self) -> MemberId {
        *self.members.last().expect("non-empty view")
    }

    /// Whether `m` is in the view.
    pub fn contains(&self, m: MemberId) -> bool {
        self.members.binary_search(&m).is_ok()
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view is empty (never true for installed views).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The view resulting from removing `dead` members (id bumped).
    pub fn without(&self, dead: &[MemberId]) -> View {
        View {
            id: self.id + 1,
            members: self
                .members
                .iter()
                .copied()
                .filter(|m| !dead.contains(m))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_view_roles() {
        let v = View::initial(4);
        assert_eq!(v.id, 0);
        assert_eq!(v.len(), 4);
        assert_eq!(v.sequencer(), MemberId(0));
        assert_eq!(v.auditor(), MemberId(3));
    }

    #[test]
    fn roles_after_failures() {
        let v = View::initial(4).without(&[MemberId(0), MemberId(3)]);
        assert_eq!(v.id, 1);
        assert_eq!(v.sequencer(), MemberId(1));
        assert_eq!(v.auditor(), MemberId(2));
    }

    #[test]
    fn singleton_view_plays_both_roles() {
        let v = View::new(5, vec![MemberId(2)]);
        assert_eq!(v.sequencer(), MemberId(2));
        assert_eq!(v.auditor(), MemberId(2));
    }

    #[test]
    fn membership_queries() {
        let v = View::new(1, vec![MemberId(3), MemberId(1)]);
        assert!(v.contains(MemberId(1)));
        assert!(!v.contains(MemberId(2)));
        assert_eq!(v.members, vec![MemberId(1), MemberId(3)]);
    }

    #[test]
    fn new_dedups() {
        let v = View::new(1, vec![MemberId(1), MemberId(1), MemberId(2)]);
        assert_eq!(v.len(), 2);
    }
}
