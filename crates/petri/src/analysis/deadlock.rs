//! Deadlock detection over the explored state space.

use super::reachability::ReachabilityOptions;
use crate::statespace::{ExploreOptions, StateSpace};
use crate::{Marking, PetriNet, TransitionId};

/// Outcome of a deadlock search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlockReport {
    /// No reachable dead marking exists (within a completely explored state space).
    DeadlockFree,
    /// A reachable dead marking was found, together with a firing sequence leading to it.
    Deadlock {
        /// The dead marking.
        marking: Marking,
        /// A firing sequence from the initial marking reaching it.
        trace: Vec<TransitionId>,
    },
    /// The exploration was truncated, so absence of deadlock could not be proven.
    Unknown,
}

impl DeadlockReport {
    /// Returns `true` if a deadlock was found.
    pub fn has_deadlock(&self) -> bool {
        matches!(self, DeadlockReport::Deadlock { .. })
    }
}

/// Searches for a reachable dead marking (no transition enabled).
///
/// Nets with source transitions can never deadlock because source transitions are always
/// enabled; the search still runs and simply reports [`DeadlockReport::DeadlockFree`] when
/// the explored space is complete.
pub fn find_deadlock(net: &PetriNet, options: ReachabilityOptions) -> DeadlockReport {
    find_deadlock_with(net, &ExploreOptions::from(options))
}

/// [`find_deadlock`] with explicit engine configuration (budgets and guards); guards
/// that never fire leave the verdict unchanged.
pub fn find_deadlock_with(net: &PetriNet, options: &ExploreOptions) -> DeadlockReport {
    find_deadlock_in(net, &StateSpace::explore_with(net, options))
}

/// [`find_deadlock`] on an already-explored state space, so callers that run several
/// analyses over the same bounds (e.g. the `fcpn-serve` `/analyze` endpoint) pay for
/// one exploration instead of one per check. The verdict is the one
/// [`find_deadlock_with`] would produce for the options `space` was explored with.
pub fn find_deadlock_in(net: &PetriNet, space: &StateSpace) -> DeadlockReport {
    // A state with no outgoing edge may simply have had its successors cut off by the
    // exploration budget; confirm it is genuinely dead before reporting it.
    let target = space.dead_states().into_iter().find(|&s| {
        let tokens = space.tokens(s);
        net.transitions().all(|t| !net.is_enabled_at(tokens, t))
    });
    if let Some(target) = target {
        return DeadlockReport::Deadlock {
            marking: space.marking(target),
            trace: space.path_to(target),
        };
    }
    if space.is_complete() {
        DeadlockReport::DeadlockFree
    } else {
        DeadlockReport::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetBuilder;

    #[test]
    fn live_cycle_is_deadlock_free() {
        let mut b = NetBuilder::new("cycle");
        let p1 = b.place("p1", 1);
        let t1 = b.transition("t1");
        let p2 = b.place("p2", 0);
        let t2 = b.transition("t2");
        b.arc_p_t(p1, t1, 1).unwrap();
        b.arc_t_p(t1, p2, 1).unwrap();
        b.arc_p_t(p2, t2, 1).unwrap();
        b.arc_t_p(t2, p1, 1).unwrap();
        let net = b.build().unwrap();
        assert_eq!(
            find_deadlock(&net, ReachabilityOptions::default()),
            DeadlockReport::DeadlockFree
        );
    }

    #[test]
    fn one_shot_chain_deadlocks_with_trace() {
        let mut b = NetBuilder::new("oneshot");
        let start = b.place("start", 1);
        let t1 = b.transition("t1");
        let mid = b.place("mid", 0);
        let t2 = b.transition("t2");
        let end = b.place("end", 0);
        b.arc_p_t(start, t1, 1).unwrap();
        b.arc_t_p(t1, mid, 1).unwrap();
        b.arc_p_t(mid, t2, 1).unwrap();
        b.arc_t_p(t2, end, 1).unwrap();
        let net = b.build().unwrap();
        match find_deadlock(&net, ReachabilityOptions::default()) {
            DeadlockReport::Deadlock { marking, trace } => {
                assert_eq!(trace, vec![t1, t2]);
                assert_eq!(marking.tokens(end), 1);
                assert_eq!(marking.tokens(start), 0);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn truncated_exploration_is_unknown() {
        let mut b = NetBuilder::new("big");
        let start = b.place("start", 1);
        let t1 = b.transition("t1");
        let mid = b.place("mid", 0);
        let t2 = b.transition("t2");
        b.arc_p_t(start, t1, 1).unwrap();
        b.arc_t_p(t1, mid, 1).unwrap();
        b.arc_p_t(mid, t2, 1).unwrap();
        let net = b.build().unwrap();
        let report = find_deadlock(
            &net,
            ReachabilityOptions {
                max_markings: 1,
                max_tokens_per_place: 64,
            },
        );
        // Only the initial marking fits the budget; it is not dead, so the result is
        // inconclusive rather than "deadlock free".
        assert_eq!(report, DeadlockReport::Unknown);
        assert!(!report.has_deadlock());
    }
}
