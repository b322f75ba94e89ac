//! Bit-packed truth tables (look-up tables).
//!
//! A [`Lut`] stores the complete truth table of a Boolean function
//! `f: {0,1}^n -> {0,1}` with row `i`'s value in bit `i % 64` of word
//! `i / 64`. Row index encoding: input `j` of the function is bit `j` of the
//! row index (input 0 = least significant). This matches the convention used
//! across the workspace (cone evaluation, polynomial transforms, NN layers).

use std::fmt;

/// A complete truth table over `inputs ≤ 26` variables.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Lut {
    inputs: u8,
    bits: Vec<u64>,
}

impl Lut {
    /// Maximum supported input count (2^26 rows = 8 MiB per table).
    pub const MAX_INPUTS: u8 = 26;

    /// An all-zero table over `inputs` variables.
    pub fn zeros(inputs: u8) -> Self {
        assert!(inputs <= Self::MAX_INPUTS, "LUT too wide: {inputs}");
        let words = Self::words_for(inputs);
        Lut {
            inputs,
            bits: vec![0; words],
        }
    }

    /// An all-one table over `inputs` variables.
    pub fn ones(inputs: u8) -> Self {
        let mut l = Self::zeros(inputs);
        for w in &mut l.bits {
            *w = !0;
        }
        l.mask_tail();
        l
    }

    fn words_for(inputs: u8) -> usize {
        (1usize << inputs).div_ceil(64)
    }

    /// Zero the bits beyond `2^inputs` in the last word so equality and
    /// popcounts are well defined.
    fn mask_tail(&mut self) {
        let rows = self.num_rows();
        if rows < 64 {
            let mask = (1u64 << rows) - 1;
            self.bits[0] &= mask;
        }
    }

    /// Build from an explicit bit-packed table.
    pub fn from_bits(inputs: u8, bits: Vec<u64>) -> Self {
        assert!(inputs <= Self::MAX_INPUTS);
        assert_eq!(bits.len(), Self::words_for(inputs));
        let mut l = Lut { inputs, bits };
        l.mask_tail();
        l
    }

    /// Build by evaluating `f` on every row (row index = packed inputs).
    pub fn from_fn(inputs: u8, mut f: impl FnMut(u64) -> bool) -> Self {
        let mut l = Self::zeros(inputs);
        for row in 0..l.num_rows() as u64 {
            if f(row) {
                l.set(row, true);
            }
        }
        l
    }

    /// A uniformly random table.
    pub fn random(inputs: u8, rng: &mut impl FnMut() -> u64) -> Self {
        let mut l = Self::zeros(inputs);
        for w in &mut l.bits {
            *w = rng();
        }
        l.mask_tail();
        l
    }

    /// Number of input variables.
    #[inline]
    pub fn inputs(&self) -> u8 {
        self.inputs
    }

    /// Number of rows (`2^inputs`).
    #[inline]
    pub fn num_rows(&self) -> usize {
        1usize << self.inputs
    }

    /// The packed table words.
    #[inline]
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Value of row `row`.
    #[inline]
    pub fn get(&self, row: u64) -> bool {
        debug_assert!((row as usize) < self.num_rows());
        self.bits[(row / 64) as usize] >> (row % 64) & 1 == 1
    }

    /// Set row `row` to `value`.
    #[inline]
    pub fn set(&mut self, row: u64, value: bool) {
        debug_assert!((row as usize) < self.num_rows());
        let w = &mut self.bits[(row / 64) as usize];
        if value {
            *w |= 1 << (row % 64);
        } else {
            *w &= !(1 << (row % 64));
        }
    }

    /// Evaluate on a slice of input bits (`inputs[j]` = variable `j`).
    pub fn eval(&self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.inputs as usize);
        let row: u64 = inputs
            .iter()
            .enumerate()
            .map(|(j, &b)| (b as u64) << j)
            .sum();
        self.get(row)
    }

    /// Number of rows where the function is 1.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Exact combinatorial influence of variable `j`: the fraction of inputs
    /// where flipping `j` flips the output (O'Donnell, Def. 2.13).
    pub fn influence(&self, j: u8) -> f64 {
        assert!(j < self.inputs);
        let rows = self.num_rows() as u64;
        let bit = 1u64 << j;
        let mut flips = 0usize;
        for x in 0..rows {
            if x & bit == 0 && self.get(x) != self.get(x | bit) {
                flips += 1;
            }
        }
        flips as f64 / (rows / 2) as f64
    }

    // ----- standard functions used throughout tests and benches -----

    /// n-input AND.
    pub fn and(n: u8) -> Lut {
        Lut::from_fn(n, |row| row == (1u64 << n) - 1)
    }

    /// n-input OR.
    pub fn or(n: u8) -> Lut {
        Lut::from_fn(n, |row| row != 0)
    }

    /// n-input XOR (parity).
    pub fn xor(n: u8) -> Lut {
        Lut::from_fn(n, |row| row.count_ones() % 2 == 1)
    }

    /// n-input majority (n odd).
    pub fn majority(n: u8) -> Lut {
        Lut::from_fn(n, move |row| row.count_ones() > n as u32 / 2)
    }

    /// 3-input mux: inputs `[s, a, b]` (s = variable 0) computing `s ? b : a`.
    pub fn mux() -> Lut {
        Lut::from_fn(3, |row| {
            let s = row & 1 == 1;
            let a = row >> 1 & 1 == 1;
            let b = row >> 2 & 1 == 1;
            if s {
                b
            } else {
                a
            }
        })
    }
}

impl fmt::Debug for Lut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lut({} vars: ", self.inputs)?;
        let rows = self.num_rows().min(32);
        for r in (0..rows).rev() {
            write!(f, "{}", self.get(r as u64) as u8)?;
        }
        if self.num_rows() > 32 {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_or_xor_tables() {
        let and3 = Lut::and(3);
        assert_eq!(and3.count_ones(), 1);
        assert!(and3.get(0b111));
        let or3 = Lut::or(3);
        assert_eq!(or3.count_ones(), 7);
        let xor3 = Lut::xor(3);
        assert_eq!(xor3.count_ones(), 4);
        assert!(xor3.get(0b001));
        assert!(!xor3.get(0b011));
    }

    #[test]
    fn eval_matches_get() {
        let maj = Lut::majority(3);
        assert!(maj.eval(&[true, true, false]));
        assert!(!maj.eval(&[true, false, false]));
    }

    #[test]
    fn tail_masked_for_small_tables() {
        let l = Lut::ones(3);
        assert_eq!(l.bits()[0], 0xff);
        assert_eq!(l.count_ones(), 8);
        assert_eq!(Lut::zeros(4).count_ones(), 0);
        assert_eq!(Lut::ones(4).count_ones(), 16);
    }

    #[test]
    fn large_table_multiword() {
        let l = Lut::xor(8);
        assert_eq!(l.bits().len(), 4);
        assert_eq!(l.count_ones(), 128);
    }

    #[test]
    fn influence_of_xor_is_one() {
        let x = Lut::xor(5);
        for j in 0..5 {
            assert_eq!(x.influence(j), 1.0);
        }
    }

    #[test]
    fn influence_of_and_is_small() {
        let a = Lut::and(3);
        // flipping x0 matters only when x1=x2=1: 1 of 4 assignments
        assert!((a.influence(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mux_truth_table() {
        let m = Lut::mux();
        // s=1,a=0,b=1 -> 1 (row 0b101)
        assert!(m.get(0b101));
        // s=0,a=0,b=1 -> 0 (row 0b100)
        assert!(!m.get(0b100));
        // s=0,a=1 -> 1 (row 0b010)
        assert!(m.get(0b010));
    }
}
