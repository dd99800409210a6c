//! Token storage: the [`TokenWord`] abstraction over narrow arena words and the
//! [`MarkingArena`] used by analyses that need interned markings without the full graph.
//!
//! # Example
//!
//! ```
//! use fcpn_petri::statespace::MarkingArena;
//!
//! let mut arena = MarkingArena::new(3);
//! let (id, fresh) = arena.intern(&[1, 0, 2]);
//! assert!(fresh);
//! assert_eq!(arena.intern(&[1, 0, 2]), (id, false)); // deduplicated
//! assert_eq!(arena.state(id), &[1, 0, 2]);
//! assert_eq!(arena.find(&[9, 9, 9]), None);
//! ```

use super::interner::{Probe, SliceTable};
use super::{hash_tokens, StateId};

/// A machine word the token arena can be monomorphised over: `u8` or `u64`.
///
/// The explorer stores tokens as `u8` when its bound proves every stored count fits
/// (see [`TokenWidth`](super::TokenWidth)) and as `u64` otherwise; the firing session
/// and every public query serve `u64`.
///
/// All arithmetic is defined on the token *values*, so both widths hash and compare
/// markings identically; the width is an encoding choice, never a semantic one.
pub trait TokenWord: Copy + Eq + Ord + std::fmt::Debug + Send + Sync + 'static {
    /// Largest token count this width can store.
    const MAX_TOKENS: u64;
    /// Width name used by benchmark schemas and diagnostics (`"u8"`, `"u64"`).
    const NAME: &'static str;

    /// Converts from a `u64` token count.
    ///
    /// Callers guarantee `value <= MAX_TOKENS`; the conversion truncates otherwise.
    fn from_u64(value: u64) -> Self;

    /// The token count as a `u64`.
    fn to_u64(self) -> u64;

    /// Applies a transition's per-place net effect, mirroring the `u64` engine's checked
    /// semantics: returns `None` when the result would exceed [`TokenWord::MAX_TOKENS`]
    /// (the engine then drops the edge exactly like the safe path's `TokenOverflow`).
    ///
    /// Negative deltas never underflow for enabled transitions — `|delta|` is at most the
    /// pre-arc weight, which enabledness guarantees is covered.
    fn apply_delta(self, delta: i64) -> Option<Self>;

    /// The wrapping inverse of [`TokenWord::apply_delta`], used to revert a partially
    /// applied delta row after an overflow or to restore the scratch state after probing.
    fn unapply_delta(self, delta: i64) -> Self;
}

impl TokenWord for u8 {
    const MAX_TOKENS: u64 = u8::MAX as u64;
    const NAME: &'static str = "u8";

    #[inline]
    fn from_u64(value: u64) -> Self {
        value as u8
    }

    #[inline]
    fn to_u64(self) -> u64 {
        self as u64
    }

    #[inline]
    fn apply_delta(self, delta: i64) -> Option<Self> {
        if delta >= 0 {
            // `self + delta` cannot overflow u64 (self ≤ MAX_TOKENS, delta ≤ i64::MAX).
            let v = self as u64 + delta as u64;
            if v <= Self::MAX_TOKENS {
                Some(v as u8)
            } else {
                None
            }
        } else {
            Some(((self as u64) - delta.unsigned_abs()) as u8)
        }
    }

    #[inline]
    fn unapply_delta(self, delta: i64) -> Self {
        (self as u64).wrapping_sub(delta as u64) as u8
    }
}

impl TokenWord for u64 {
    const MAX_TOKENS: u64 = u64::MAX;
    const NAME: &'static str = "u64";

    #[inline]
    fn from_u64(value: u64) -> Self {
        value
    }

    #[inline]
    fn to_u64(self) -> u64 {
        self
    }

    #[inline]
    fn apply_delta(self, delta: i64) -> Option<Self> {
        if delta >= 0 {
            self.checked_add(delta as u64)
        } else {
            Some(self - delta.unsigned_abs())
        }
    }

    #[inline]
    fn unapply_delta(self, delta: i64) -> Self {
        self.wrapping_sub(delta as u64)
    }
}

/// Widens a whole arena to the `u64` representation the public query API serves.
/// The `u64` instantiation is the identity and moves the vector without copying.
pub(crate) fn widen_arena<W: TokenWord>(tokens: Vec<W>) -> Vec<u64> {
    // Specialisation by value: for W = u64 the iterator maps through `to_u64` which the
    // optimiser collapses to a no-op copy; the `u8` arena genuinely converts.
    tokens.into_iter().map(TokenWord::to_u64).collect()
}

/// A growable arena of equal-length token vectors addressed by [`StateId`].
///
/// Used directly by analyses that need interned marking storage without the full graph
/// (e.g. the boundedness search), and internally by [`StateSpace`](super::StateSpace).
#[derive(Debug, Clone)]
pub struct MarkingArena {
    places: usize,
    tokens: Vec<u64>,
    table: SliceTable,
}

impl MarkingArena {
    /// Creates an empty arena for markings over `places` places.
    pub fn new(places: usize) -> Self {
        MarkingArena {
            places,
            tokens: Vec::with_capacity(places * 64),
            table: SliceTable::with_capacity(64),
        }
    }

    /// Number of interned markings.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` if no marking has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The token slice of state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`MarkingArena::intern`].
    #[inline]
    pub fn state(&self, id: StateId) -> &[u64] {
        let start = id as usize * self.places;
        &self.tokens[start..start + self.places]
    }

    /// Interns `tokens`, returning the state id and whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` does not have one entry per place.
    pub fn intern(&mut self, tokens: &[u64]) -> (StateId, bool) {
        assert_eq!(tokens.len(), self.places, "marking length mismatch");
        if self.table.needs_growth() {
            self.table.grow();
        }
        let hash = hash_tokens(tokens);
        let places = self.places;
        let arena = &self.tokens;
        match self.table.probe(hash, tokens, |id| {
            let start = id as usize * places;
            &arena[start..start + places]
        }) {
            Probe::Found(id) => (id, false),
            Probe::Vacant(slot) => {
                let id = self.len() as StateId;
                self.tokens.extend_from_slice(tokens);
                self.table.insert_at(slot, hash, id);
                (id, true)
            }
        }
    }

    /// Looks `tokens` up without inserting.
    pub fn find(&self, tokens: &[u64]) -> Option<StateId> {
        if tokens.len() != self.places {
            return None;
        }
        self.table.find(tokens, |id| {
            let start = id as usize * self.places;
            &self.tokens[start..start + self.places]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marking_arena_interns_and_finds() {
        let mut arena = MarkingArena::new(3);
        assert!(arena.is_empty());
        let (a, new_a) = arena.intern(&[1, 0, 2]);
        let (b, new_b) = arena.intern(&[0, 0, 0]);
        let (a2, new_a2) = arena.intern(&[1, 0, 2]);
        assert!(new_a && new_b && !new_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.state(a), &[1, 0, 2]);
        assert_eq!(arena.find(&[0, 0, 0]), Some(b));
        assert_eq!(arena.find(&[9, 9, 9]), None);
        assert_eq!(arena.find(&[1, 0]), None);
    }

    #[test]
    fn interner_survives_growth() {
        let mut arena = MarkingArena::new(2);
        for i in 0..500u64 {
            arena.intern(&[i, i % 7]);
        }
        assert_eq!(arena.len(), 500);
        for i in 0..500u64 {
            let id = arena
                .find(&[i, i % 7])
                .expect("interned marking is findable");
            assert_eq!(arena.state(id), &[i, i % 7]);
        }
    }

    #[test]
    fn token_words_round_trip_and_check_overflow() {
        assert_eq!(u8::from_u64(200).to_u64(), 200);
        assert_eq!(u8::MAX_TOKENS, 255);
        assert_eq!(100u8.apply_delta(55), Some(155u8));
        assert_eq!(200u8.apply_delta(56), None);
        assert_eq!(100u8.apply_delta(-100), Some(0u8));
        assert_eq!(155u8.unapply_delta(55), 100u8);
        assert_eq!(u64::MAX.apply_delta(1), None);
        assert_eq!(5u64.apply_delta(-3), Some(2));
        assert_eq!(2u64.unapply_delta(-3), 5);
    }
}
