//! SplitMix64: the one source of randomness, so a seed fixes every input.

/// Deterministic PRNG; streams for different purposes are forked with
/// [`Rng::fork`] so adding a draw to one stream does not shift another.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for `label` (a workload name, a thread index).
    pub fn fork(&self, label: u64) -> Rng {
        let mut r = Rng(self.0 ^ label.wrapping_mul(0xd134_2543_de82_ef95));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}
