//! Small numeric helpers: a seeded RNG, a Zipf sampler and quantiles.

/// SplitMix64: a tiny, seedable, reproducible generator. The benchmark's
/// inputs are functions of `--seed` alone, so every draw comes from here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A Zipf rank in `[0, n)` with exponent `s` in `[0, 1)`: rank `r` is
    /// drawn with weight `(r + 1)^-s`, so rank 0 is the most popular. Uses
    /// the continuous inverse CDF, close to the discrete law and
    /// constant-time for a population that grows as programs are sent.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        let e = 1.0 - s;
        let top = (n as f64 + 1.0).powf(e) - 1.0;
        let r = ((1.0 + self.unit() * top).powf(1.0 / e) - 1.0) as usize;
        r.min(n - 1)
    }
}

/// Mixes two words into a seed (one SplitMix64 step over their combination).
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.rotate_left(32) ^ 0xD1B5_4A32_D192_ED03).next_u64()
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule;
/// `values` need not be sorted. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`: the middle value, or the mean of the two middle
/// values of an even count. Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let n = values.len();
    if n % 2 == 1 || n == 0 {
        return quantile(values, 0.5);
    }
    (quantile(values, 0.5) + quantile(values, 0.5 + 0.5 / n as f64)) / 2.0
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// FNV-1a over bytes: the benchmark's cheap content hash for responses.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let mut rng = Rng::new(7);
        let n = 1000;
        let draws: Vec<usize> = (0..100_000).map(|_| rng.zipf(n, 0.5)).collect();
        assert!(draws.iter().all(|&r| r < n));
        // Weight (r + 1)^-0.5: the top 10 ranks draw about 7.6%, the top
        // quarter about 48%.
        let share = |k: usize| draws.iter().filter(|&&r| r < k).count() as f64 / 1e5;
        assert!((0.07..0.085).contains(&share(10)), "top 10: {}", share(10));
        assert!(
            (0.46..0.50).contains(&share(250)),
            "top 250: {}",
            share(250)
        );
    }

    #[test]
    fn rng_is_reproducible() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(42);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(42);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
    }
}
