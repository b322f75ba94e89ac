//! Seeded stimulus: the benchmark's own xorshift, so the same `--seed`
//! gives the same inputs on every commit and the program under test
//! receives nothing but the generated bits.

/// One lane's stimulus or response: `bits[cycle][port]`.
pub type Bits = Vec<Vec<bool>>;

/// xorshift64*, seeded through splitmix64 so that nearby seeds and
/// streams give unrelated sequences.
pub struct XorShift(u64);

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl XorShift {
    /// Generator number `stream` of run `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        // xorshift must not start at 0
        XorShift(splitmix64(seed ^ splitmix64(stream)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `cycles` rows of `width` uniform random bits.
    pub fn bits(&mut self, cycles: usize, width: usize) -> Bits {
        (0..cycles)
            .map(|_| {
                let mut row = Vec::with_capacity(width);
                while row.len() < width {
                    let word = self.next_u64();
                    let take = (width - row.len()).min(64);
                    row.extend((0..take).map(|b| word >> b & 1 == 1));
                }
                row
            })
            .collect()
    }
}

/// A stable stream number for a named thing (FNV-1a), so that a circuit's
/// stimulus does not depend on which other circuits a workload holds.
pub fn stream_of(name: &str, index: u64) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bits() {
        let a = XorShift::new(1, stream_of("UART", 3)).bits(16, 11);
        let b = XorShift::new(1, stream_of("UART", 3)).bits(16, 11);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.iter().all(|row| row.len() == 11));
    }

    #[test]
    fn seed_and_stream_change_bits() {
        let base = XorShift::new(1, stream_of("UART", 0)).bits(8, 70);
        assert_ne!(base, XorShift::new(2, stream_of("UART", 0)).bits(8, 70));
        assert_ne!(base, XorShift::new(1, stream_of("UART", 1)).bits(8, 70));
        assert_ne!(base, XorShift::new(1, stream_of("SHA", 0)).bits(8, 70));
        // both values occur: not a stuck generator
        let ones = base.iter().flatten().filter(|&&b| b).count();
        assert!(ones > 100 && ones < 460, "{ones} ones of 560");
    }
}
