//! A small seeded generator for workload inputs.
//!
//! The benchmark owns its randomness so that the inputs a seed produces
//! depend only on this file, not on any crate of the program under test.

/// SplitMix64: tiny, fast, and good enough for sampling workloads.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// An independent stream for one purpose (`tag`) under one workload
    /// seed, so adding a consumer never shifts another consumer's inputs.
    pub fn stream(seed: u64, tag: u64) -> Self {
        let mut mixer = SplitMix64::new(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64::new(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (multiply-shift; the bias is below 2^-32
    /// for the graph sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample from an empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(mut rng: SplitMix64) -> Vec<u64> {
        (0..4).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        assert_eq!(
            draw(SplitMix64::stream(7, 1)),
            draw(SplitMix64::stream(7, 1))
        );
        assert_ne!(
            draw(SplitMix64::stream(7, 1)),
            draw(SplitMix64::stream(7, 2))
        );
        assert_ne!(
            draw(SplitMix64::stream(7, 1)),
            draw(SplitMix64::stream(8, 1))
        );
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(rng.below(17) < 17);
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
