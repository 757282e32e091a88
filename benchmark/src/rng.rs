//! The benchmark's own PRNG and Zipf sampler, so the op streams do not
//! change when `fsdl-testkit` does.

/// SplitMix64: expands one `u64` seed into well-mixed words (used to key
/// the xoshiro state and to derive per-purpose sub-seeds).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** (Blackman–Vigna).
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A stream keyed by `seed` and a `stream` tag, so each purpose
    /// (permutation, endpoints, faults) draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut sm = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so every value is
    /// equally likely.
    pub fn below(&mut self, n: u32) -> u32 {
        assert!(n > 0, "empty range");
        let n = u64::from(n);
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as u32;
            }
        }
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u32 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf-skewed sampler over `0..n`: rank `k` has probability
/// proportional to `1/(k+1)^theta`, and ranks map to ids through a seeded
/// permutation, so *which* vertices are hot depends on the seed.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    pub fn new(n: u32, theta: f64, rng: &mut Rng) -> Self {
        assert!(n > 0, "sampler needs at least one id");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0f64;
        for k in 0..n {
            total += 1.0 / f64::from(k + 1).powf(theta);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        let mut perm: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut perm);
        Zipf { cdf, perm }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u);
        self.perm[rank.min(self.perm.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_matches_reference_vector() {
        // State {1, 2, 3, 4}: first outputs of the reference C code.
        let mut r = Rng { s: [1, 2, 3, 4] };
        assert_eq!(r.next_u64(), 11520);
        assert_eq!(r.next_u64(), 0);
        assert_eq!(r.next_u64(), 1509978240);
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = Rng::new(3, 0);
        let zipf = Zipf::new(100, 0.8, &mut rng);
        let mut counts = [0u32; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max > 8 * min.max(1),
            "theta=0.8 should be visibly skewed: {max} vs {min}"
        );
    }
}
