//! Seeded input generation: the benchmark's own deterministic stream and
//! the open-loop arrival schedule. The program never sees the seed, only
//! the inputs made from it.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated per `purpose` so two generators
    /// made from one seed never repeat each other.
    pub fn new(seed: u64, purpose: u64) -> Self {
        let mut s = Self(seed ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Log-uniform in `[lo, hi]` (`0 < lo < hi`).
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws indices `0..n` in passes, each pass a fresh seeded permutation,
/// so every window of `n` draws holds each index exactly once and a
/// workload's mix does not drift with the seed.
#[derive(Debug, Clone)]
pub struct Deck {
    rng: SplitMix64,
    order: Vec<usize>,
    pos: usize,
}

impl Deck {
    /// A deck over `0..n` (`n > 0`).
    pub fn new(rng: SplitMix64, n: usize) -> Self {
        assert!(n > 0, "empty deck");
        Self {
            rng,
            order: (0..n).collect(),
            pos: n,
        }
    }

    /// The next index.
    pub fn draw(&mut self) -> usize {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// Send offsets, in seconds from the start of a phase, of a Poisson
/// arrival process at `rate` per second over `secs` seconds.
pub fn poisson_schedule(rng: &mut SplitMix64, rate: f64, secs: f64) -> Vec<f64> {
    assert!(
        rate > 0.0 && secs > 0.0,
        "rate and duration must be positive"
    );
    let mut at = Vec::with_capacity((rate * secs * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; `1 - u` is in (0, 1].
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= secs {
            return at;
        }
        at.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(&mut SplitMix64::new(65, 1), 4000.0, 2.0);
        let b = poisson_schedule(&mut SplitMix64::new(65, 1), 4000.0, 2.0);
        assert_eq!(a, b);
        let c = poisson_schedule(&mut SplitMix64::new(66, 1), 4000.0, 2.0);
        assert_ne!(a, c);
        let d = poisson_schedule(&mut SplitMix64::new(65, 2), 4000.0, 2.0);
        assert_ne!(a, d, "purposes decorrelate one seed");
    }

    #[test]
    fn poisson_schedule_has_the_offered_rate_and_stays_in_range() {
        let s = poisson_schedule(&mut SplitMix64::new(7, 1), 4000.0, 5.0);
        // 20,000 expected arrivals; the Poisson spread is ~141.
        assert!((s.len() as f64 - 20_000.0).abs() < 800.0, "{}", s.len());
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(s.iter().all(|&t| (0.0..5.0).contains(&t)));
        // Exponential gaps: the mean gap is 1/rate and the coefficient of
        // variation is ~1.
        let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let sd = (gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((m * 4000.0 - 1.0).abs() < 0.05, "mean gap {m}");
        assert!((sd / m - 1.0).abs() < 0.05, "cv {}", sd / m);
    }

    #[test]
    fn deck_deals_every_index_once_per_pass() {
        let mut d = Deck::new(SplitMix64::new(3, 0), 10);
        for _ in 0..3 {
            let mut pass: Vec<usize> = (0..10).map(|_| d.draw()).collect();
            pass.sort_unstable();
            assert_eq!(pass, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn helpers_stay_in_range() {
        let mut r = SplitMix64::new(1, 0);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            let x = r.log_uniform(0.5, 8.0);
            assert!((0.5..=8.0).contains(&x));
        }
        let mut v: Vec<usize> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
