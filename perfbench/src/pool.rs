//! The input pool, the seeded random source and the decks that fix each workload's mix.
//!
//! Every workload draws its operations from a *deck*: a fixed multiset of operation
//! kinds, reshuffled with the seeded generator each time it runs out. The mix over a
//! run is therefore exact up to one partial deck, which keeps `ops_per_s` and both
//! latency percentiles steady from seed to seed, while the order still varies.

use std::path::Path;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What an input file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A net in the `fcpn_petri::io::text` format.
    Net,
    /// A labelled transition system in the `Lts::parse` format.
    Lts,
}

/// One pool input, as read from `inputs/`.
#[derive(Debug)]
pub struct Input {
    /// File stem, used as the label in reports.
    pub label: &'static str,
    pub kind: Kind,
    pub text: String,
}

/// The pool, in a fixed order; indices into it identify inputs everywhere else.
pub const POOL: [(&str, Kind); 14] = [
    ("figure2", Kind::Net),
    ("figure3a", Kind::Net),
    ("figure4", Kind::Net),
    ("figure5", Kind::Net),
    ("figure7", Kind::Net),
    ("choice_chain_6", Kind::Net),
    ("choice_chain_10", Kind::Net),
    ("choice_chain_12", Kind::Net),
    ("atm_q2", Kind::Net),
    ("atm_q4", Kind::Net),
    ("marked_ring_8_4", Kind::Lts),
    ("marked_ring_10_5", Kind::Lts),
    ("marked_ring_12_4", Kind::Lts),
    ("cycle_bank_4", Kind::Lts),
];

pub fn load(dir: &Path) -> Result<Vec<Input>, String> {
    POOL.iter()
        .map(|&(label, kind)| {
            let file = dir.join(format!(
                "{label}.{}",
                if kind == Kind::Net { "net" } else { "lts" }
            ));
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            Ok(Input { label, kind, text })
        })
        .collect()
}

pub fn index_of(label: &str) -> usize {
    POOL.iter()
        .position(|&(l, _)| l == label)
        .unwrap_or_else(|| panic!("`{label}` is not in the pool"))
}

/// `text` with the name on its first (`net <name>` / `lts <name>`) line replaced.
pub fn renamed(text: &str, name: &str) -> String {
    let (head, rest) = text.split_once('\n').unwrap_or((text, ""));
    let keyword = head.split_whitespace().next().unwrap_or("net");
    format!("{keyword} {name}\n{rest}")
}

/// The daemon endpoints a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    Schedule,
    Codegen,
    Analyze,
    Synthesize,
}

impl Endpoint {
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Schedule => "/schedule",
            Endpoint::Codegen => "/codegen",
            Endpoint::Analyze => "/analyze",
            Endpoint::Synthesize => "/synthesize",
        }
    }
}

/// A fixed multiset of operation kinds, dealt in seeded shuffles.
#[derive(Debug)]
pub struct Deck<T: Copy> {
    cards: Vec<T>,
    order: Vec<T>,
    pos: usize,
    rng: Rng,
}

impl<T: Copy> Deck<T> {
    /// A deck holding `count` copies of each `(card, count)`.
    pub fn new(weights: &[(T, usize)], rng: Rng) -> Deck<T> {
        let cards: Vec<T> = weights
            .iter()
            .flat_map(|&(card, count)| std::iter::repeat_n(card, count))
            .collect();
        assert!(!cards.is_empty(), "a deck needs at least one card");
        Deck {
            order: Vec::new(),
            pos: 0,
            cards,
            rng,
        }
    }

    pub fn draw(&mut self) -> T {
        if self.pos == self.order.len() {
            self.order.clone_from(&self.cards);
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// A fast 64-bit digest of a response body, so a run can keep every body's identity
/// without keeping the body.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunk of eight"));
        h = (h ^ word)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decks_deal_exact_mixes_in_seeded_order() {
        let weights = [(0u8, 3), (1, 1)];
        let mut a = Deck::new(&weights, Rng::new(7));
        let mut b = Deck::new(&weights, Rng::new(7));
        let dealt: Vec<u8> = (0..8).map(|_| a.draw()).collect();
        assert_eq!(dealt, (0..8).map(|_| b.draw()).collect::<Vec<_>>());
        assert_eq!(dealt.iter().filter(|&&c| c == 1).count(), 2);
    }

    #[test]
    fn renaming_touches_only_the_name_line() {
        assert_eq!(renamed("net a\nplace p\n", "b-1"), "net b-1\nplace p\n");
        assert_eq!(renamed("lts x\nstate s\n", "y"), "lts y\nstate s\n");
    }

    #[test]
    fn digests_see_every_byte() {
        assert_ne!(digest(b"0123456789"), digest(b"0123456788"));
        assert_ne!(digest(b"ab"), digest(b"ab\0"));
    }
}
