//! Bit-plane stimulus packing.
//!
//! The pooled-CSR path spends one scalar lane (an `f32`) per stimulus bit.
//! A [`BitTensor`] instead packs 64 stimuli into every machine word: it is
//! the same feature-major layout as `Dense` — feature `f` of lane `l` — but
//! lane `l` lives in bit `l % 64` of word `f * W + l / 64`, where
//! `W = ceil(batch / 64)` words hold one feature's plane.
//!
//! Bits past `batch` in a feature's last word ("the ragged tail") are
//! *unspecified*. Every kernel in [`super::exec`] is lane-wise (AND, OR,
//! XOR, and per-bit ripple-carry popcount counters), so tail garbage can
//! never leak into a valid lane; the unpack paths here simply never read
//! past `batch`.

use c2nn_tensor::Scalar;

/// A feature-major binary matrix with 64 stimulus lanes per word.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitTensor {
    features: usize,
    batch: usize,
    /// Words per feature plane: `ceil(batch / 64)`.
    words: usize,
    data: Vec<u64>,
}

impl BitTensor {
    /// An all-zero tensor of `features × batch` bits.
    pub fn zeros(features: usize, batch: usize) -> Self {
        let words = batch.div_ceil(64);
        BitTensor {
            features,
            batch,
            words,
            data: vec![0; features * words],
        }
    }

    /// Number of features (rows).
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of stimulus lanes (columns).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Words per feature plane (`ceil(batch / 64)`).
    pub fn words_per_feature(&self) -> usize {
        self.words
    }

    /// The backing words, feature-major.
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Mutable backing words, feature-major.
    pub fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// The `W` words of feature `f`'s plane.
    pub fn feature_words(&self, f: usize) -> &[u64] {
        &self.data[f * self.words..(f + 1) * self.words]
    }

    /// Mutable plane of feature `f`.
    pub fn feature_words_mut(&mut self, f: usize) -> &mut [u64] {
        &mut self.data[f * self.words..(f + 1) * self.words]
    }

    /// Reshape in place, reusing the allocation. Contents become
    /// unspecified (callers overwrite every plane they read).
    pub fn resize_to(&mut self, features: usize, batch: usize) {
        self.features = features;
        self.batch = batch;
        self.words = batch.div_ceil(64);
        self.data.resize(features * self.words, 0);
    }

    /// Bit of feature `f`, lane `l`.
    pub fn get_bit(&self, f: usize, l: usize) -> bool {
        debug_assert!(f < self.features && l < self.batch);
        self.data[f * self.words + l / 64] >> (l % 64) & 1 == 1
    }

    /// Set or clear the bit of feature `f`, lane `l`.
    pub fn set_bit(&mut self, f: usize, l: usize, bit: bool) {
        debug_assert!(f < self.features && l < self.batch);
        let w = &mut self.data[f * self.words + l / 64];
        let mask = 1u64 << (l % 64);
        if bit {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Mask selecting the valid lanes of the last word of each plane
    /// (`!0` when the batch fills its words exactly).
    pub fn tail_mask(&self) -> u64 {
        match self.batch % 64 {
            0 => !0,
            r => (1u64 << r) - 1,
        }
    }

    /// Adopt pre-packed backing words (e.g. decoded straight off the
    /// binary wire) without copying. Returns `None` when `data.len()`
    /// does not equal `features * ceil(batch / 64)`. Ragged tail bits are
    /// taken as-is; callers that need the canonical zero-tail form run
    /// [`BitTensor::mask_tails`] afterwards.
    pub fn from_words(features: usize, batch: usize, data: Vec<u64>) -> Option<Self> {
        let words = batch.div_ceil(64);
        if features.checked_mul(words)? != data.len() {
            return None;
        }
        Some(BitTensor {
            features,
            batch,
            words,
            data,
        })
    }

    /// Zero the ragged tail bits of every feature plane, making the
    /// contents canonical (equal tensors compare equal word-for-word; the
    /// wire codecs require this form).
    pub fn mask_tails(&mut self) {
        let mask = self.tail_mask();
        if mask == !0 || self.words == 0 {
            return;
        }
        for f in 0..self.features {
            self.data[f * self.words + self.words - 1] &= mask;
        }
    }

    /// Pack per-lane bit vectors (`lanes[l][f]`, the same shape
    /// `Dense::from_lanes` takes): `lanes.len()` is the batch, every lane
    /// carries one bit per feature.
    pub fn from_lanes(lanes: &[Vec<bool>]) -> Self {
        let batch = lanes.len();
        let features = lanes.first().map_or(0, Vec::len);
        let mut t = BitTensor::zeros(features, batch);
        for (l, lane) in lanes.iter().enumerate() {
            debug_assert_eq!(lane.len(), features);
            for (f, &bit) in lane.iter().enumerate() {
                if bit {
                    t.data[f * t.words + l / 64] |= 1 << (l % 64);
                }
            }
        }
        t
    }

    /// Inverse of [`BitTensor::from_lanes`]: per-lane bit vectors. Never
    /// reads the ragged tail.
    pub fn to_lanes(&self) -> Vec<Vec<bool>> {
        (0..self.batch)
            .map(|l| (0..self.features).map(|f| self.get_bit(f, l)).collect())
            .collect()
    }

    /// Expand every plane to one exact 0/1 scalar per lane, feature-major
    /// (`dst[f * batch + l]`, the `Dense` layout). Never reads the ragged
    /// tail.
    pub fn unpack_scalars<T: Scalar>(&self, dst: &mut [T]) {
        assert_eq!(dst.len(), self.features * self.batch, "scalar block size");
        for (f, row) in dst.chunks_mut(self.batch.max(1)).enumerate() {
            let plane = self.feature_words(f);
            for (l, v) in row.iter_mut().enumerate() {
                *v = if plane[l / 64] >> (l % 64) & 1 == 1 {
                    T::ONE
                } else {
                    T::ZERO
                };
            }
        }
    }

    /// Inverse of [`BitTensor::unpack_scalars`]: overwrite every plane from
    /// a feature-major block of exact 0/1 scalars of this tensor's shape.
    /// Ragged tails come out zero.
    pub fn pack_scalars<T: Scalar>(&mut self, src: &[T]) {
        assert_eq!(src.len(), self.features * self.batch, "scalar block size");
        let rows = src.chunks(self.batch.max(1));
        for (plane, row) in self.data.chunks_mut(self.words.max(1)).zip(rows) {
            for (word, lanes) in plane.iter_mut().zip(row.chunks(64)) {
                *word = lanes
                    .iter()
                    .enumerate()
                    .fold(0, |w, (i, &v)| w | ((v == T::ONE) as u64) << i);
            }
        }
    }

    /// Transpose lane-major packed rows into planes: `words(&rows[l])` is
    /// lane `l`'s `features` bits, 64 per word (bit `f % 64` of word
    /// `f / 64`). The tensor becomes `features × rows.len()` with zero
    /// tails. Works in 64×64 bit blocks, so the cost is one word op per 64
    /// bits moved rather than one per bit. A row shorter than
    /// `ceil(features / 64)` words reads as zero past its end (how a
    /// finished testbench idles).
    pub fn gather_rows<R>(&mut self, features: usize, rows: &[R], words: impl Fn(&R) -> &[u64]) {
        self.resize_to(features, rows.len());
        let mut block = [0u64; 64];
        for (lb, lanes) in rows.chunks(64).enumerate() {
            for fb in 0..features.div_ceil(64) {
                block.fill(0);
                for (slot, row) in block.iter_mut().zip(lanes) {
                    *slot = words(row).get(fb).copied().unwrap_or(0);
                }
                transpose64(&mut block);
                for (j, &plane_word) in block.iter().enumerate().take(features - fb * 64) {
                    self.data[(fb * 64 + j) * self.words + lb] = plane_word;
                }
            }
        }
    }

    /// Inverse of [`BitTensor::gather_rows`]: write lane `l`'s bits back
    /// into `words(&mut rows[l])` (bits past `features` in a row's last
    /// word come out zero; a row too short for a word is not written
    /// there). Never lets the ragged tail reach a row.
    pub fn scatter_rows<R>(&self, rows: &mut [R], words: impl Fn(&mut R) -> &mut [u64]) {
        assert_eq!(rows.len(), self.batch, "one row per lane");
        let mut block = [0u64; 64];
        for (lb, lanes) in rows.chunks_mut(64).enumerate() {
            for fb in 0..self.features.div_ceil(64) {
                block.fill(0);
                for (j, slot) in block.iter_mut().enumerate().take(self.features - fb * 64) {
                    *slot = self.data[(fb * 64 + j) * self.words + lb];
                }
                transpose64(&mut block);
                for (&lane_word, row) in block.iter().zip(lanes.iter_mut()) {
                    if let Some(word) = words(row).get_mut(fb) {
                        *word = lane_word;
                    }
                }
            }
        }
    }

    /// The `batch × features` transpose, tails zero: wire planes
    /// (`ports × cycles`) ⇄ cycle rows (`cycles × ports`).
    pub fn transpose(&self) -> BitTensor {
        let planes: Vec<&[u64]> = (0..self.features).map(|f| self.feature_words(f)).collect();
        let mut t = BitTensor::zeros(0, 0);
        t.gather_rows(self.batch, &planes, |plane| plane);
        t
    }
}

/// In-place transpose of a 64×64 bit matrix (`a[i]` bit `j` ↔ `a[j]` bit
/// `i`): six rounds of swapping off-diagonal sub-blocks, halving the block
/// size each round.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask = 0x0000_0000_ffff_ffffu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = (a[k] >> j ^ a[k + j]) & mask;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}
