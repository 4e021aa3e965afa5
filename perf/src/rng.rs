//! The benchmark's seeded draw. Every input that varies with `--seed` comes
//! from here, so the same seed always builds the same inputs.

/// xorshift64* — the same generator shape the repository's fuzz sweeps use.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that two uses of
    /// one seed do not replay each other's draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mixed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        Rng(mixed | 1)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A draw in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_other_seed_other_draws() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            let mut order: Vec<usize> = (0..64).collect();
            r.shuffle(&mut order);
            (order, r.below(1000))
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let (order, _) = draw(7, 1);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>(), "a permutation");
    }
}
