//! The benchmark's own random numbers: splitmix64 and a table-driven Zipf
//! sampler. Nothing here depends on `vendor/rand`, so a change to the repo's
//! generators or its rand stub cannot move the benchmark's inputs.

/// splitmix64 (Steele, Lea, Flood 2014): 64 bits of state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

/// The splitmix64 output function; also used as the digest finaliser.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// A stream for `seed`, separated by `stream` so that one workload's
    /// generators never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(mix64(seed ^ mix64(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `r` has weight
/// `1 / (r + 1)^s`. Sampling is a binary search of the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        self.at(rng.unit())
    }

    /// The rank at quantile `u` in `[0, 1)`.
    pub fn at(&self, u: f64) -> usize {
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs of splitmix64 seeded with state 0 (Vigna's reference).
        let mut rng = SplitMix64(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn below_stays_in_range_and_zipf_prefers_low_ranks() {
        let mut rng = SplitMix64::new(1, 0);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
        let zipf = Zipf::new(50, 1.05);
        let mut counts = [0u32; 50];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[49]);
    }
}
