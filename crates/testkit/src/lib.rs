//! Shared deterministic schedule generators for the Dimmunix test suites.
//!
//! Three hand-rolled generators used to live as private copies inside the
//! sharded-vs-monolithic proptest, its mixed-rwlock sibling, and the
//! sync/async-equivalence proptest. This crate is their single home:
//!
//! * [`Gen`] — the SplitMix64 case generator every property harness seeds.
//! * [`schedule`] — the engine-level schedule steps (release / acquire /
//!   skip decisions, pre-trained histories, the shared site universe) used
//!   by the sharded-vs-monolithic and mixed-rwlock oracles.
//! * [`script`] — the per-owner lock/unlock scripts plus turn sequences
//!   used by the sync/async-equivalence suite.
//!
//! **Every helper preserves the exact pseudo-random stream of the test it
//! was extracted from** — same constructor seeding, same draw order, same
//! short-circuit skips — so the historical seeds keep exploring the exact
//! schedules they always did. Behavioural changes here invalidate pinned
//! seeds across three suites; treat the draw order as frozen.
//!
//! The build environment has no crates.io access, which is why these are
//! bespoke rather than `proptest`/`rand` (see the PR 1 notes in
//! CHANGES.md).

#![deny(missing_docs)]

pub mod schedule;
pub mod script;

/// Deterministic PRNG (SplitMix64) for generating random cases — and the
/// workspace's one SplitMix64: the `dalvik` model's schedules and the
/// runtime's async-server test draw from it too.
///
/// Extracted verbatim from the core proptest harness: the constructor XORs
/// the seed with the SplitMix64 increment so that small consecutive seeds
/// (0, 1, 2, …) land in well-separated stream positions.
#[derive(Clone, Debug)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Creates a generator for one test case. Equal seeds yield equal
    /// streams, forever.
    pub fn new(seed: u64) -> Self {
        Gen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next raw 64-bit draw (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_stream_is_frozen() {
        // The stream for seed 0 is pinned against a from-scratch SplitMix64:
        // three suites' historical seeds depend on this exact stream. The
        // initial state is seed (0) XOR the golden-ratio increment.
        let mut reference = 0x9e37_79b9_7f4a_7c15u64;
        let mut g = Gen::new(0);
        for _ in 0..8 {
            reference = reference.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = reference;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            assert_eq!(g.next_u64(), z ^ (z >> 31));
        }
        let mut g = Gen::new(7);
        assert_eq!(g.range(0, 10), (Gen::new(7).next_u64() % 10) as usize);
    }

    #[test]
    fn range_is_uniform_enough_and_in_bounds() {
        let mut g = Gen::new(42);
        let mut seen = [false; 6];
        for _ in 0..200 {
            let v = g.range(0, 6);
            assert!(v < 6);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
