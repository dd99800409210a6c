//! The firing fast path: a long-lived token-game cursor for sequential trace execution.
//!
//! [`StateSpace`](super::StateSpace) answers *exhaustive* questions — every reachable
//! marking, every edge. Simulators ask a different question: starting from one marking,
//! fire *this particular* sequence of transitions (an event cascade, a schedule trace, a
//! random walk) and tell me what is enabled along the way. The seed implementation of
//! that loop cloned an owned [`Marking`](crate::Marking) per run, re-scanned every
//! transition of the net per step (allocating a fresh `Vec` of enabled transitions each
//! time) and re-validated ids and marking lengths on every firing — the exact
//! clone-per-state pattern the exploration engine eliminated.
//!
//! [`FiringSession`] is the session-shaped face of the same machinery:
//!
//! * the current marking lives in one flat `u64` token buffer;
//! * firing applies the transition's precomputed delta row in place and maintains the
//!   additive marking hash and the total token count **incrementally** — O(|delta row|)
//!   per firing, no rehash, no full-vector scan;
//! * enabled-set queries walk the candidate bitmask (consumers of marked places plus
//!   always-enabled sources) instead of scanning all transitions, and write into a
//!   caller-owned buffer, so a simulator's cascade loop allocates nothing in steady
//!   state;
//! * [`fire`](FiringSession::fire) / [`undo`](FiringSession::undo) give cheap local
//!   backtracking, and [`checkpoint`](FiringSession::checkpoint) /
//!   [`rollback`](FiringSession::rollback) intern markings into a deduplicating arena
//!   (the engine's hash-of-slice table) for O(places) restores to any saved state.
//!
//! Use `FiringSession` when you execute *one trace at a time* (RTOS simulation, the
//! Table I harness, schedule validation, random testing); use
//! [`StateSpace::explore`](super::StateSpace::explore) when you need the whole graph.
//!
//! # Example
//!
//! ```
//! use fcpn_petri::gallery;
//! use fcpn_petri::statespace::FiringSession;
//!
//! let net = gallery::figure2();
//! let t1 = net.transition_by_name("t1").unwrap();
//! let t2 = net.transition_by_name("t2").unwrap();
//! let mut session = FiringSession::new(&net);
//!
//! let start = session.checkpoint(); // id 0 = the starting marking
//! session.fire(t1).unwrap();
//! session.fire(t1).unwrap();
//! assert!(session.is_enabled(t2));
//! session.fire(t2).unwrap();
//! assert_eq!(session.trace_len(), 3);
//!
//! session.rollback(start); // O(places) restore, undo log cleared
//! assert_eq!(session.marking(), net.initial_marking().clone());
//! ```

use super::engine::{state_cost, NetTables};
use super::interner::{Probe, SliceTable};
use super::{mix, raw_hash, StateId};
use crate::budget::{MemoryBudget, ResourceExhausted};
use crate::{Marking, PetriError, PetriNet, PlaceId, Result, TransitionId};

/// Budget stage reported when interning a checkpoint exceeds the session's budget.
const STAGE_CHECKPOINT: &str = "checkpoint";

/// A reusable token-game cursor: the firing fast path for sequential trace execution.
///
/// Where [`StateSpace`](super::StateSpace) answers *exhaustive* questions (every
/// reachable marking), a session executes *one trace at a time* — an event cascade, a
/// schedule, a random walk — the workload shape of the RTOS simulators and the ATM
/// Table I harness. It holds one current marking in a flat `u64` buffer and supports:
///
/// * [`fire`](Self::fire) / [`undo`](Self::undo) — delta-row firing with incremental
///   hash and token-total maintenance, and exact single-step reversal;
/// * [`is_enabled`](Self::is_enabled) / [`enabled_into`](Self::enabled_into) —
///   enabled-set queries through the candidate bitmask, allocation-free in steady state;
/// * [`checkpoint`](Self::checkpoint) / [`rollback`](Self::rollback) — interned named
///   states with O(places) restore; checkpoint id 0 is always the starting marking.
///
/// The fast path is exactly equivalent to the checked [`PetriNet::fire`] token game —
/// pinned by `tests/firing_session.rs`.
///
/// # Example
///
/// ```
/// use fcpn_petri::gallery;
/// use fcpn_petri::statespace::FiringSession;
///
/// let net = gallery::figure2();
/// let t1 = net.transition_by_name("t1").unwrap();
/// let t2 = net.transition_by_name("t2").unwrap();
/// let mut session = FiringSession::new(&net);
///
/// let start = session.checkpoint(); // id 0 = the starting marking
/// session.fire(t1).unwrap();
/// session.fire(t1).unwrap();
/// assert!(session.is_enabled(t2));
/// session.fire(t2).unwrap();
/// assert_eq!(session.trace_len(), 3);
///
/// session.rollback(start); // O(places) restore, undo log cleared
/// assert_eq!(session.marking(), net.initial_marking().clone());
/// ```
#[derive(Debug, Clone)]
pub struct FiringSession {
    tables: NetTables,
    /// Per-transition total-token effect `Σ delta[p]`, for incremental total tracking.
    token_delta: Vec<i64>,
    transition_count: usize,
    /// Scratch candidate bitmask reused across enabled-set queries.
    mask: Vec<u64>,
    /// Byte budget charged per newly interned checkpoint.
    memory: MemoryBudget,
    places: usize,
    /// The current marking's tokens.
    current: Vec<u64>,
    /// Additive (unfinalized) hash of `current`, maintained incrementally per firing.
    raw: u64,
    /// Total token count of `current`, maintained incrementally per firing.
    total: u64,
    /// Checkpointed markings, stored contiguously with stride `places`.
    arena: Vec<u64>,
    /// Raw hash of each checkpoint, restored verbatim on rollback.
    checkpoint_raw: Vec<u64>,
    /// Total token count of each checkpoint, restored verbatim on rollback.
    checkpoint_total: Vec<u64>,
    /// Deduplicating index over the checkpoint arena.
    table: SliceTable,
    /// Transitions fired since construction or the last rollback, for [`undo`].
    ///
    /// [`undo`]: FiringSession::undo
    log: Vec<u32>,
}

impl FiringSession {
    /// Opens a session on `net` starting from its initial marking.
    pub fn new(net: &PetriNet) -> Self {
        Self::starting_from(net, net.initial_marking())
    }

    /// Opens a session on `net` starting from an arbitrary marking.
    ///
    /// # Panics
    ///
    /// Panics if `marking` does not have one entry per place of `net`.
    pub fn starting_from(net: &PetriNet, marking: &Marking) -> Self {
        assert_eq!(marking.len(), net.place_count(), "marking length mismatch");
        let tables = NetTables::build(net);
        let token_delta: Vec<i64> = net
            .transitions()
            .map(|t| net.delta_row(t).iter().map(|&(_, d)| d).sum())
            .collect();
        let current = marking.as_slice().to_vec();
        let mask = tables.candidate_buffer();
        let mut session = FiringSession {
            tables,
            token_delta,
            transition_count: net.transition_count(),
            mask,
            memory: MemoryBudget::unlimited(),
            places: current.len(),
            raw: raw_hash(&current),
            total: current.iter().fold(0u64, |acc, &k| acc.wrapping_add(k)),
            current,
            arena: Vec::new(),
            checkpoint_raw: Vec::new(),
            checkpoint_total: Vec::new(),
            table: SliceTable::with_capacity(16),
            log: Vec::new(),
        };
        // Checkpoint 0 is always the starting marking (the budget is still unlimited).
        session.checkpoint();
        session
    }

    /// Attaches a [`MemoryBudget`] to the session, charging it per newly interned
    /// checkpoint (the engine's canonical per-state cost).
    ///
    /// The starting marking (checkpoint 0, interned at construction) is never charged.
    /// After a charge fails the session itself stays fully usable: firing, undoing,
    /// rolling back and re-interning already-saved checkpoints are all free; only
    /// new checkpoints keep failing while the budget stays exhausted.
    #[must_use]
    pub fn with_memory(mut self, memory: MemoryBudget) -> Self {
        self.memory = memory;
        self
    }

    /// Number of places of the underlying net.
    pub fn place_count(&self) -> usize {
        self.places
    }

    /// Tokens currently in `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range for the net.
    pub fn tokens_of(&self, place: PlaceId) -> u64 {
        self.current[place.index()]
    }

    /// The current marking as an owned [`Marking`] (one allocation; prefer
    /// [`tokens_of`](Self::tokens_of) and [`total_tokens`](Self::total_tokens) on hot
    /// paths).
    pub fn marking(&self) -> Marking {
        Marking::from_vec(self.current.clone())
    }

    /// Total tokens across all places, maintained incrementally — O(1).
    pub fn total_tokens(&self) -> u64 {
        self.total
    }

    /// Number of firings since construction or the last
    /// [`rollback`](Self::rollback) — the depth [`undo`](Self::undo) can rewind.
    pub fn trace_len(&self) -> usize {
        self.log.len()
    }

    /// Enabledness of `transition` in the current marking (input-arc scan only).
    ///
    /// # Panics
    ///
    /// Panics if `transition` is out of range for the net.
    pub fn is_enabled(&self, transition: TransitionId) -> bool {
        self.tables.enabled(&self.current, transition.index())
    }

    /// Collects the transitions enabled in the current marking into `out` (cleared
    /// first), in transition-index order.
    ///
    /// Only *candidates* — consumers of currently marked places, plus always-enabled
    /// source transitions — are tested, via the same per-place consumer bitmasks the
    /// exploration engine uses; transitions whose every input place is empty are never
    /// touched. Reusing `out` across calls makes a simulator's cascade loop
    /// allocation-free.
    pub fn enabled_into(&mut self, out: &mut Vec<TransitionId>) {
        out.clear();
        self.walk_enabled(|t| {
            out.push(TransitionId::new(t));
            true
        });
    }

    /// The enabled transitions as a fresh vector (allocating convenience over
    /// [`enabled_into`](Self::enabled_into)).
    pub fn enabled_transitions(&mut self) -> Vec<TransitionId> {
        let mut out = Vec::new();
        self.enabled_into(&mut out);
        out
    }

    /// Returns `true` if no transition is enabled in the current marking.
    pub fn is_deadlocked(&mut self) -> bool {
        let mut any_enabled = false;
        self.walk_enabled(|_| {
            any_enabled = true;
            false
        });
        !any_enabled
    }

    /// The one copy of the candidate walk: gathers the consumer bitmask of the marked
    /// places (plus sources), tests each candidate's enabledness in transition-index
    /// order and hands the enabled ones to `visit`, stopping early when `visit` returns
    /// `false`.
    fn walk_enabled(&mut self, mut visit: impl FnMut(usize) -> bool) {
        self.tables.gather_candidates(&self.current, &mut self.mask);
        for (word, &mask_bits) in self.mask.iter().enumerate() {
            let mut bits = mask_bits;
            while bits != 0 {
                let t = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.tables.enabled(&self.current, t) && !visit(t) {
                    return;
                }
            }
        }
    }

    /// Fires `transition`, updating the current marking, its hash and its token total
    /// in place.
    ///
    /// # Errors
    ///
    /// * [`PetriError::UnknownTransition`] if the id is out of range.
    /// * [`PetriError::NotEnabled`] if the transition is not enabled; the marking is
    ///   left unchanged.
    /// * [`PetriError::TokenOverflow`] if an output place would exceed `u64::MAX`
    ///   (mirroring [`PetriNet::fire`]); the marking is left unchanged.
    pub fn fire(&mut self, transition: TransitionId) -> Result<()> {
        let t = transition.index();
        if t >= self.transition_count {
            return Err(PetriError::UnknownTransition(transition));
        }
        if !self.tables.enabled(&self.current, t) {
            return Err(PetriError::NotEnabled(transition));
        }
        if !self.tables.apply_delta_in_place(&mut self.current, t) {
            return Err(PetriError::TokenOverflow(self.overflow_place(t)));
        }
        self.raw = self.raw.wrapping_add(self.tables.hash_shift[t]);
        self.total = self.total.wrapping_add_signed(self.token_delta[t]);
        self.log.push(t as u32);
        Ok(())
    }

    /// Fires a whole sequence, stopping at the first failure (the marking then reflects
    /// the successful prefix, like [`PetriNet::fire_sequence`]).
    ///
    /// # Errors
    ///
    /// Same as [`fire`](Self::fire).
    pub fn fire_sequence(&mut self, sequence: &[TransitionId]) -> Result<()> {
        for &t in sequence {
            self.fire(t)?;
        }
        Ok(())
    }

    /// Reverts the most recent not-yet-undone firing, returning the transition, or
    /// `None` if the trace is empty. The undo log does not reach across a
    /// [`rollback`](Self::rollback).
    pub fn undo(&mut self) -> Option<TransitionId> {
        let t = self.log.pop()? as usize;
        self.tables.revert_delta_in_place(&mut self.current, t);
        self.raw = self.raw.wrapping_sub(self.tables.hash_shift[t]);
        self.total = self
            .total
            .wrapping_add_signed(self.token_delta[t].wrapping_neg());
        Some(TransitionId::new(t))
    }

    /// Interns the current marking into the session's checkpoint arena and returns its
    /// id. Checkpointing the same marking twice returns the same id (the arena
    /// deduplicates through the engine's hash-of-slice table, reusing the incrementally
    /// maintained hash — the marking is never rehashed). Checkpoint id 0 is always the
    /// starting marking.
    ///
    /// # Panics
    ///
    /// Panics if a budget attached via [`with_memory`](Self::with_memory) is exhausted;
    /// budgeted callers use [`try_checkpoint`](Self::try_checkpoint).
    pub fn checkpoint(&mut self) -> StateId {
        self.try_checkpoint()
            .expect("checkpoint exhausted the session budget; use try_checkpoint")
    }

    /// Fallible [`checkpoint`](Self::checkpoint): interning a *new* marking charges the
    /// session's [`MemoryBudget`] first and fails with a typed
    /// [`ResourceExhausted`] when it does not fit — the arena is left exactly as it
    /// was, and re-interning an already-saved marking still succeeds (deduplication is
    /// free).
    ///
    /// # Errors
    ///
    /// [`ResourceExhausted`] (stage `"checkpoint"`) when the budget attached via
    /// [`with_memory`](Self::with_memory) cannot cover the new checkpoint.
    pub fn try_checkpoint(&mut self) -> std::result::Result<StateId, ResourceExhausted> {
        if self.table.needs_growth() {
            self.table.grow();
        }
        let mixed = mix(self.raw);
        let places = self.places;
        let arena = &self.arena;
        match self.table.probe(mixed, &self.current, |id| {
            let start = id as usize * places;
            &arena[start..start + places]
        }) {
            Probe::Found(id) => Ok(id),
            Probe::Vacant(slot) => {
                // Charge *before* growing so exhaustion never leaves a half-interned
                // checkpoint behind; a re-intern of an already-saved marking (the
                // `Found` arm) is free and stays available after exhaustion.
                self.memory.charge(state_cost(places), STAGE_CHECKPOINT)?;
                let id = self.checkpoint_raw.len() as StateId;
                self.arena.extend_from_slice(&self.current);
                self.checkpoint_raw.push(self.raw);
                self.checkpoint_total.push(self.total);
                self.table.insert_at(slot, mixed, id);
                Ok(id)
            }
        }
    }

    /// Number of distinct checkpoints interned so far (at least 1: the start).
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoint_raw.len()
    }

    /// The marking a checkpoint id refers to.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`checkpoint`](Self::checkpoint).
    pub fn checkpoint_marking(&self, id: StateId) -> Marking {
        assert!(
            (id as usize) < self.checkpoint_raw.len(),
            "unknown checkpoint id {id}"
        );
        let start = id as usize * self.places;
        Marking::from_vec(self.arena[start..start + self.places].to_vec())
    }

    /// Restores the current marking (and its hash and token total) to checkpoint `id` —
    /// one O(places) copy. Clears the [`undo`](Self::undo) log: a rollback is a jump,
    /// not a firing.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`checkpoint`](Self::checkpoint).
    pub fn rollback(&mut self, id: StateId) {
        assert!(
            (id as usize) < self.checkpoint_raw.len(),
            "unknown checkpoint id {id}"
        );
        let start = id as usize * self.places;
        self.current
            .copy_from_slice(&self.arena[start..start + self.places]);
        self.raw = self.checkpoint_raw[id as usize];
        self.total = self.checkpoint_total[id as usize];
        self.log.clear();
    }

    /// The place a firing of `t` would overflow (for the error payload; only reachable
    /// within a hair of `u64::MAX` tokens).
    fn overflow_place(&self, t: usize) -> PlaceId {
        for &(p, d) in self.tables.delta(t) {
            if d > 0 {
                let place = PlaceId::new(p as usize);
                if self.tokens_of(place).checked_add(d as u64).is_none() {
                    return place;
                }
            }
        }
        PlaceId::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gallery, NetBuilder};

    #[test]
    fn session_matches_safe_token_game_on_figure2() {
        let net = gallery::figure2();
        let t1 = net.transition_by_name("t1").unwrap();
        let t2 = net.transition_by_name("t2").unwrap();
        let mut session = FiringSession::new(&net);
        let mut marking = net.initial_marking().clone();
        for &t in &[t1, t1, t1, t1, t2, t2] {
            assert_eq!(
                session.enabled_transitions(),
                net.enabled_transitions(&marking)
            );
            session.fire(t).unwrap();
            net.fire(&mut marking, t).unwrap();
            assert_eq!(session.marking(), marking);
            assert_eq!(session.total_tokens(), marking.total_tokens());
        }
    }

    #[test]
    fn fire_rejects_disabled_and_unknown() {
        let net = gallery::figure2();
        let t2 = net.transition_by_name("t2").unwrap();
        let mut session = FiringSession::new(&net);
        assert_eq!(session.fire(t2), Err(PetriError::NotEnabled(t2)));
        let bogus = TransitionId::new(99);
        assert_eq!(
            session.fire(bogus),
            Err(PetriError::UnknownTransition(bogus))
        );
        // Failed firings leave the marking untouched.
        assert_eq!(session.marking(), net.initial_marking().clone());
        assert_eq!(session.trace_len(), 0);
    }

    #[test]
    fn undo_reverts_exactly() {
        let net = gallery::figure4();
        let mut session = FiringSession::new(&net);
        let before = session.marking();
        let enabled = session.enabled_transitions();
        let t = enabled[0];
        session.fire(t).unwrap();
        assert_eq!(session.undo(), Some(t));
        assert_eq!(session.marking(), before);
        assert_eq!(session.total_tokens(), before.total_tokens());
        assert_eq!(session.undo(), None);
    }

    #[test]
    fn checkpoints_deduplicate_and_restore() {
        let net = gallery::figure2();
        let t1 = net.transition_by_name("t1").unwrap();
        let mut session = FiringSession::new(&net);
        assert_eq!(session.checkpoint(), 0); // start is checkpoint 0
        assert_eq!(session.checkpoint_count(), 1);
        session.fire(t1).unwrap();
        let after_one = session.checkpoint();
        assert_eq!(after_one, 1);
        session.fire(t1).unwrap();
        session.rollback(after_one);
        // Same marking interns to the same id.
        assert_eq!(session.checkpoint(), after_one);
        assert_eq!(session.checkpoint_count(), 2);
        assert_eq!(session.checkpoint_marking(0), net.initial_marking().clone());
        // Rollback cleared the undo log.
        assert_eq!(session.trace_len(), 0);
        assert_eq!(session.undo(), None);
    }

    #[test]
    fn pumping_past_the_u8_range_keeps_exact_counts() {
        // A pure source transition pumps one place without bound.
        let mut b = NetBuilder::new("pump");
        let t = b.transition("t");
        let p = b.place("p", 0);
        b.arc_t_p(t, p, 1).unwrap();
        let net = b.build().unwrap();
        let mut session = FiringSession::new(&net);
        for _ in 0..300 {
            session.fire(t).unwrap();
        }
        assert_eq!(session.tokens_of(net.place_by_name("p").unwrap()), 300);
        assert_eq!(session.total_tokens(), 300);
    }

    #[test]
    fn wide_starting_marking_reads_back_exactly() {
        let mut b = NetBuilder::new("wide");
        let _p = b.place("p", 50_000);
        let net = b.build().unwrap();
        let session = FiringSession::new(&net);
        assert_eq!(session.marking(), net.initial_marking().clone());
        assert_eq!(session.total_tokens(), 50_000);
    }

    #[test]
    fn overflow_at_u64_max_is_typed_and_leaves_the_marking() {
        let mut b = NetBuilder::new("full");
        let t = b.transition("t");
        let p = b.place("p", u64::MAX);
        b.arc_t_p(t, p, 1).unwrap();
        let net = b.build().unwrap();
        let mut session = FiringSession::new(&net);
        assert_eq!(session.fire(t), Err(PetriError::TokenOverflow(p)));
        assert_eq!(session.marking(), net.initial_marking().clone());
        assert_eq!(session.trace_len(), 0);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut b = NetBuilder::new("oneshot");
        let start = b.place("start", 1);
        let t = b.transition("t");
        b.arc_p_t(start, t, 1).unwrap();
        let net = b.build().unwrap();
        let mut session = FiringSession::new(&net);
        assert!(!session.is_deadlocked());
        session.fire(net.transition_by_name("t").unwrap()).unwrap();
        assert!(session.is_deadlocked());
        assert!(session.enabled_transitions().is_empty());
    }

    #[test]
    fn exhausted_checkpoint_budget_is_typed_and_leaves_the_session_usable() {
        let net = gallery::figure2();
        let t1 = net.transition_by_name("t1").unwrap();
        // Room for a couple of checkpoints beyond the (uncharged) starting marking.
        let budget = MemoryBudget::with_limit(2 * state_cost(net.place_count()));
        let mut session = FiringSession::new(&net).with_memory(budget.clone());

        session.fire(t1).unwrap();
        let first = session.try_checkpoint().expect("first checkpoint fits");
        session.fire(t1).unwrap();
        session.try_checkpoint().expect("second checkpoint fits");
        session.fire(t1).unwrap();
        let err = session.try_checkpoint().expect_err("third must exhaust");
        assert_eq!(err.stage, "checkpoint");
        assert_eq!(err.limit_bytes, budget.limit_bytes().unwrap());

        // The failed intern left no trace; the session itself keeps working.
        assert_eq!(session.checkpoint_count(), 3);
        session.fire(t1).unwrap();
        assert_eq!(session.undo(), Some(t1));
        session.rollback(first);
        assert_eq!(session.trace_len(), 0);
        // Re-interning an already-saved marking is deduplication, not growth: free.
        assert_eq!(session.try_checkpoint().unwrap(), first);
        // New markings still fail — the budget is sticky, the session is not poisoned.
        session.fire(t1).unwrap();
        session.fire(t1).unwrap();
        assert!(session.try_checkpoint().is_err());
    }

    #[test]
    fn firing_never_charges_the_budget() {
        // A pure source transition pumps one place well past 255 tokens; only new
        // checkpoints draw on the budget, so firing succeeds under a one-byte limit.
        let mut b = NetBuilder::new("pump");
        let t = b.transition("t");
        let p = b.place("p", 0);
        b.arc_t_p(t, p, 1).unwrap();
        let net = b.build().unwrap();
        let budget = MemoryBudget::with_limit(1);
        let mut session = FiringSession::new(&net).with_memory(budget.clone());
        for _ in 0..300 {
            session.fire(t).unwrap();
        }
        assert_eq!(session.total_tokens(), 300);
        assert_eq!(budget.bytes_in_use(), 0);
        assert_eq!(session.undo(), Some(t));
        assert_eq!(session.total_tokens(), 299);
        assert!(session.try_checkpoint().is_err());
    }

    #[test]
    fn empty_net_session_is_dead_but_consistent() {
        let net = NetBuilder::new("empty").build().unwrap();
        let mut session = FiringSession::new(&net);
        assert!(session.is_deadlocked());
        assert_eq!(session.place_count(), 0);
        assert_eq!(session.total_tokens(), 0);
        assert_eq!(session.checkpoint(), 0);
        session.rollback(0);
    }
}
