//! Explicit-state reachability exploration.
//!
//! Reachability is decidable for Petri nets but expensive in general; the explorer here is
//! a budgeted breadth-first construction of the reachability graph, sufficient for the net
//! sizes handled by a quasi-static scheduler and for validating schedules produced by the
//! `fcpn-qss` crate.
//!
//! Every analysis explores through the arena-interned engine
//! ([`StateSpace`](crate::statespace::StateSpace)). [`ReachabilityGraph`] is the output
//! of the pre-engine explorer, retained as [`ReachabilityGraph::explore_naive`]: owned
//! [`Marking`]s and an edge list. It is the reference implementation the property tests
//! compare the engine against, and the baseline the benchmark suite measures speedups
//! over.

use crate::statespace::SliceTable;
use crate::{Marking, PetriNet, TransitionId};
use std::collections::{HashMap, VecDeque};

/// Budget and cut-offs for state-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachabilityOptions {
    /// Maximum number of distinct markings to explore before declaring the result
    /// incomplete.
    pub max_markings: usize,
    /// Markings with any place above this bound are not expanded (they are recorded as
    /// frontier states). This keeps nets with source transitions explorable.
    pub max_tokens_per_place: u64,
}

impl Default for ReachabilityOptions {
    fn default() -> Self {
        ReachabilityOptions {
            max_markings: 100_000,
            max_tokens_per_place: 64,
        }
    }
}

/// An edge of the reachability graph: firing `transition` in marking `from` yields `to`
/// (indices into [`ReachabilityGraph::markings`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachabilityEdge {
    /// Index of the source marking.
    pub from: usize,
    /// Transition fired.
    pub transition: TransitionId,
    /// Index of the target marking.
    pub to: usize,
}

/// The (possibly truncated) reachability graph of a marked net.
///
/// Edges are stored sorted by source marking (the construction is breadth-first, so they
/// come out in that order), which lets [`successors`](ReachabilityGraph::successors)
/// binary-search its row instead of scanning the whole edge list.
///
/// The public fields should be treated as **read-only views**: the accelerated queries
/// rely on construction invariants — `edges` sorted by `from`, and a private hash index
/// over `markings` — that direct mutation would silently invalidate. Build graphs
/// through the `explore_naive*` constructors only.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    /// All distinct markings discovered; index 0 is the initial marking. Read-only:
    /// [`contains`](ReachabilityGraph::contains) / [`index_of`](ReachabilityGraph::index_of)
    /// answer from a hash index built at construction time.
    pub markings: Vec<Marking>,
    /// Firing edges between discovered markings, sorted by `from`. Read-only:
    /// [`successors`](ReachabilityGraph::successors) binary-searches on that order.
    pub edges: Vec<ReachabilityEdge>,
    /// `true` if the whole reachable state space was enumerated within the budget and
    /// token cut-off (no marking was left unexpanded).
    pub complete: bool,
    /// Indices of markings that were discovered but not expanded because of the cut-offs.
    pub frontier: Vec<usize>,
    /// Hash-of-slice lookup backing [`contains`](ReachabilityGraph::contains) /
    /// [`index_of`](ReachabilityGraph::index_of) in O(1).
    index: SliceTable,
}

impl PartialEq for ReachabilityGraph {
    fn eq(&self, other: &Self) -> bool {
        // The lookup table is derived data; two graphs are equal iff their observable
        // parts are.
        self.markings == other.markings
            && self.edges == other.edges
            && self.complete == other.complete
            && self.frontier == other.frontier
    }
}

impl Eq for ReachabilityGraph {}

impl ReachabilityGraph {
    /// The pre-engine breadth-first explorer: clones a [`Marking`] per expansion and
    /// interns through a `HashMap<Marking, usize>`.
    ///
    /// Retained as the reference implementation — `tests/properties.rs` asserts the
    /// engine discovers identical markings, edges and frontiers, and the
    /// `statespace` benchmark measures the engine's speedup against it. Prefer
    /// [`StateSpace::explore`](crate::statespace::StateSpace::explore) everywhere else.
    pub fn explore_naive(net: &PetriNet, options: ReachabilityOptions) -> Self {
        Self::explore_naive_from(net, net.initial_marking().clone(), options)
    }

    /// [`ReachabilityGraph::explore_naive`] from an arbitrary marking.
    pub fn explore_naive_from(
        net: &PetriNet,
        initial: Marking,
        options: ReachabilityOptions,
    ) -> Self {
        let mut markings = Vec::new();
        let mut edges = Vec::new();
        let mut index: HashMap<Marking, usize> = HashMap::new();
        let mut frontier = Vec::new();
        let mut queue = VecDeque::new();
        let mut complete = true;

        index.insert(initial.clone(), 0);
        markings.push(initial);
        queue.push_back(0usize);

        while let Some(current) = queue.pop_front() {
            let marking = markings[current].clone();
            if marking.max_tokens() > options.max_tokens_per_place {
                frontier.push(current);
                complete = false;
                continue;
            }
            for t in net.transitions() {
                if !net.is_enabled(&marking, t) {
                    continue;
                }
                let mut next = marking.clone();
                if net.fire(&mut next, t).is_err() {
                    continue;
                }
                let target = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        if markings.len() >= options.max_markings {
                            complete = false;
                            continue;
                        }
                        let i = markings.len();
                        index.insert(next.clone(), i);
                        markings.push(next);
                        queue.push_back(i);
                        i
                    }
                };
                edges.push(ReachabilityEdge {
                    from: current,
                    transition: t,
                    to: target,
                });
            }
        }

        let index = SliceTable::index_markings(&markings);
        ReachabilityGraph {
            markings,
            edges,
            complete,
            frontier,
            index,
        }
    }

    /// Number of distinct markings discovered.
    pub fn marking_count(&self) -> usize {
        self.markings.len()
    }

    /// Returns `true` if `marking` was discovered during exploration — O(1) via the
    /// interner's hash lookup.
    pub fn contains(&self, marking: &Marking) -> bool {
        self.index_of(marking).is_some()
    }

    /// Index of `marking` in the graph, if discovered — O(1) via the interner's hash
    /// lookup.
    pub fn index_of(&self, marking: &Marking) -> Option<usize> {
        if self
            .markings
            .first()
            .is_some_and(|m| m.len() != marking.len())
        {
            return None;
        }
        self.index
            .find(marking.as_slice(), |id| {
                self.markings[id as usize].as_slice()
            })
            .map(|id| id as usize)
    }

    /// Outgoing edges of the marking at `index` — O(log E + out-degree) thanks to the
    /// sorted edge list.
    pub fn successors(&self, index: usize) -> impl Iterator<Item = &ReachabilityEdge> + '_ {
        let start = self.edges.partition_point(|e| e.from < index);
        self.edges[start..]
            .iter()
            .take_while(move |e| e.from == index)
    }

    /// The largest token count observed in any place across all discovered markings.
    pub fn max_tokens_observed(&self) -> u64 {
        self.markings
            .iter()
            .map(Marking::max_tokens)
            .max()
            .unwrap_or(0)
    }

    /// Indices of markings with no outgoing edge (dead markings), via one O(V + E)
    /// out-degree pass. Only meaningful when the graph is
    /// [`complete`](Self::complete).
    pub fn dead_markings(&self) -> Vec<usize> {
        let mut has_out = vec![false; self.markings.len()];
        for e in &self.edges {
            has_out[e.from] = true;
        }
        has_out
            .into_iter()
            .enumerate()
            .filter(|&(_, out)| !out)
            .map(|(i, _)| i)
            .collect()
    }

    /// Computes, for every marking index, whether a marking enabling `transition` is
    /// reachable from it — one seed scan plus one backward traversal over a reverse
    /// adjacency built on the fly: O(V + E) instead of the former O(V·E) fixpoint.
    pub fn can_eventually_fire(&self, net: &PetriNet, transition: TransitionId) -> Vec<bool> {
        let n = self.markings.len();
        // Reverse CSR by counting sort.
        let mut offsets = vec![0u32; n + 1];
        for e in &self.edges {
            offsets[e.to + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut preds = vec![0u32; self.edges.len()];
        let mut fill = offsets.clone();
        for e in &self.edges {
            preds[fill[e.to] as usize] = e.from as u32;
            fill[e.to] += 1;
        }

        let mut can = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        for (i, m) in self.markings.iter().enumerate() {
            if net.is_enabled(m, transition) {
                can[i] = true;
                stack.push(i);
            }
        }
        while let Some(s) = stack.pop() {
            for &p in &preds[offsets[s] as usize..offsets[s + 1] as usize] {
                if !can[p as usize] {
                    can[p as usize] = true;
                    stack.push(p as usize);
                }
            }
        }
        can
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statespace::StateSpace;
    use crate::NetBuilder;

    fn bounded_cycle() -> PetriNet {
        // p1 -> t1 -> p2 -> t2 -> p1 with one token: two reachable markings.
        let mut b = NetBuilder::new("cycle");
        let p1 = b.place("p1", 1);
        let t1 = b.transition("t1");
        let p2 = b.place("p2", 0);
        let t2 = b.transition("t2");
        b.arc_p_t(p1, t1, 1).unwrap();
        b.arc_t_p(t1, p2, 1).unwrap();
        b.arc_p_t(p2, t2, 1).unwrap();
        b.arc_t_p(t2, p1, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn explores_bounded_cycle_completely() {
        let net = bounded_cycle();
        let g = ReachabilityGraph::explore_naive(&net, ReachabilityOptions::default());
        assert!(g.complete);
        assert_eq!(g.marking_count(), 2);
        assert_eq!(g.edges.len(), 2);
        assert!(g.dead_markings().is_empty());
        assert_eq!(g.max_tokens_observed(), 1);
        assert!(g.contains(net.initial_marking()));
        assert_eq!(g.index_of(net.initial_marking()), Some(0));
    }

    #[test]
    fn engine_and_naive_agree_on_cycle() {
        let net = bounded_cycle();
        let engine = StateSpace::explore(&net, ReachabilityOptions::default());
        let naive = ReachabilityGraph::explore_naive(&net, ReachabilityOptions::default());
        let markings: Vec<Marking> = (0..engine.state_count() as u32)
            .map(|s| engine.marking(s))
            .collect();
        assert_eq!(markings, naive.markings);
        let edges: Vec<ReachabilityEdge> = engine
            .edges()
            .map(|(from, transition, to)| ReachabilityEdge {
                from: from as usize,
                transition,
                to: to as usize,
            })
            .collect();
        assert_eq!(edges, naive.edges);
        assert_eq!(engine.is_complete(), naive.complete);
        assert!(engine.frontier().is_empty() && naive.frontier.is_empty());
    }

    #[test]
    fn lookups_reject_foreign_markings() {
        let net = bounded_cycle();
        let g = ReachabilityGraph::explore_naive(&net, ReachabilityOptions::default());
        assert_eq!(g.index_of(&Marking::from_vec(vec![5, 5])), None);
        assert!(!g.contains(&Marking::from_vec(vec![1, 1, 1])));
    }

    #[test]
    fn respects_marking_budget() {
        let net = bounded_cycle();
        let g = ReachabilityGraph::explore_naive(
            &net,
            ReachabilityOptions {
                max_markings: 1,
                max_tokens_per_place: 64,
            },
        );
        assert!(!g.complete);
        assert_eq!(g.marking_count(), 1);
    }

    #[test]
    fn source_transition_nets_hit_token_cutoff() {
        let mut b = NetBuilder::new("source");
        let t1 = b.transition("t1");
        let p = b.place("p", 0);
        b.arc_t_p(t1, p, 1).unwrap();
        let net = b.build().unwrap();
        let g = ReachabilityGraph::explore_naive(
            &net,
            ReachabilityOptions {
                max_markings: 1000,
                max_tokens_per_place: 5,
            },
        );
        assert!(!g.complete);
        assert!(!g.frontier.is_empty());
        assert!(g.max_tokens_observed() >= 5);
    }

    #[test]
    fn dead_marking_detected() {
        // t1 -> p -> t2, single shot: firing t1 then t2 leads to a dead empty marking
        // only if t1 cannot re-fire; make t1 consume from a one-token place.
        let mut b = NetBuilder::new("oneshot");
        let start = b.place("start", 1);
        let t1 = b.transition("t1");
        let p = b.place("p", 0);
        let t2 = b.transition("t2");
        b.arc_p_t(start, t1, 1).unwrap();
        b.arc_t_p(t1, p, 1).unwrap();
        b.arc_p_t(p, t2, 1).unwrap();
        let net = b.build().unwrap();
        let g = ReachabilityGraph::explore_naive(&net, ReachabilityOptions::default());
        assert!(g.complete);
        assert_eq!(g.dead_markings().len(), 1);
    }

    #[test]
    fn can_eventually_fire_propagates_backwards() {
        let net = bounded_cycle();
        let t2 = net.transition_by_name("t2").unwrap();
        let g = ReachabilityGraph::explore_naive(&net, ReachabilityOptions::default());
        let can = g.can_eventually_fire(&net, t2);
        // From both reachable markings t2 can eventually fire (it is a live cycle).
        assert_eq!(can, vec![true, true]);
    }

    #[test]
    fn successors_row_is_exact() {
        let net = crate::gallery::figure5();
        let g = ReachabilityGraph::explore_naive(
            &net,
            ReachabilityOptions {
                max_markings: 2_000,
                max_tokens_per_place: 4,
            },
        );
        for i in 0..g.marking_count() {
            let via_scan: Vec<_> = g.edges.iter().filter(|e| e.from == i).collect();
            let via_row: Vec<_> = g.successors(i).collect();
            assert_eq!(via_scan, via_row);
        }
    }
}
