//! Property tests for bit-plane packing: pack/unpack must be exact
//! inverses and lane-scatter must be exact for arbitrary feature widths
//! and batch sizes 1..=300 — including ragged batches whose last word is
//! only partially filled — and tail garbage must never leak into a valid
//! lane. The block transposes (`gather_rows` / `scatter_rows`, and
//! `transpose` over them) and the scalar conversions are held to the same
//! per-bit reference.

use c2nn_core::bitplane::BitTensor;
use proptest::prelude::*;

/// Derive lane bit vectors from a flat bool pool so shrinking stays
/// meaningful: lane `l`, feature `f` reads `bits[(l * features + f) % len]`.
fn lanes_from_pool(bits: &[bool], batch: usize, features: usize) -> Vec<Vec<bool>> {
    (0..batch)
        .map(|l| {
            (0..features)
                .map(|f| bits[(l * features + f) % bits.len()])
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, .. ProptestConfig::default() })]

    /// from_lanes → to_lanes is the identity for every width × batch,
    /// every bit pattern.
    #[test]
    fn pack_unpack_roundtrip(
        features in 1usize..48,
        batch in 1usize..=300,
        bits in proptest::collection::vec(any::<bool>(), 1..512),
    ) {
        let lanes = lanes_from_pool(&bits, batch, features);
        let t = BitTensor::from_lanes(&lanes);
        prop_assert_eq!(t.features(), features);
        prop_assert_eq!(t.batch(), batch);
        prop_assert_eq!(t.words_per_feature(), batch.div_ceil(64));
        prop_assert_eq!(t.to_lanes(), lanes);
    }

    /// Scattering single bits to arbitrary (feature, lane) coordinates —
    /// including overwrites — recovers exactly what a scalar shadow model
    /// holds, bit for bit.
    #[test]
    fn lane_scatter_matches_scalar_shadow(
        features in 1usize..24,
        batch in 1usize..=300,
        writes in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<bool>()), 0..200),
    ) {
        let mut t = BitTensor::zeros(features, batch);
        let mut shadow = vec![vec![false; features]; batch];
        for &(f, l, bit) in &writes {
            let f = f as usize % features;
            let l = l as usize % batch;
            t.set_bit(f, l, bit);
            shadow[l][f] = bit;
        }
        for (l, lane) in shadow.iter().enumerate() {
            for (f, &want) in lane.iter().enumerate() {
                prop_assert_eq!(t.get_bit(f, l), want, "feature {} lane {}", f, l);
            }
        }
        prop_assert_eq!(t.to_lanes(), shadow);
    }

    /// Garbage in the ragged tail (bits at and past `batch` in the last
    /// word of each plane) is invisible: after clobbering the raw words
    /// and rewriting only the valid lanes, unpack is still exact.
    #[test]
    fn ragged_tail_garbage_never_leaks(
        features in 1usize..24,
        batch in 1usize..=300,
        garbage in any::<u64>(),
        bits in proptest::collection::vec(any::<bool>(), 1..512),
    ) {
        let lanes = lanes_from_pool(&bits, batch, features);
        let mut t = BitTensor::from_lanes(&lanes);
        // clobber every word, then restore the valid lanes bit by bit
        t.data_mut().fill(garbage);
        for (l, lane) in lanes.iter().enumerate() {
            for (f, &bit) in lane.iter().enumerate() {
                t.set_bit(f, l, bit);
            }
        }
        prop_assert_eq!(t.to_lanes(), lanes);
        // the tail mask itself: exactly the valid lanes of the last word
        let r = batch % 64;
        let want = if r == 0 { !0u64 } else { (1u64 << r) - 1 };
        prop_assert_eq!(t.tail_mask(), want);
    }

    /// The 64×64-block transpose between lane-major packed rows and planes
    /// agrees with the per-bit reference in both directions, for widths
    /// and batches on either side of a word boundary, and never lets tail
    /// garbage reach a row.
    #[test]
    fn row_transposes_match_per_bit_reference(
        features in 1usize..=200,
        batch in 0usize..=200,
        garbage in any::<u64>(),
        bits in proptest::collection::vec(any::<bool>(), 1..512),
    ) {
        let lanes = lanes_from_pool(&bits, batch, features);
        let pack_row = |lane: &Vec<bool>| {
            let mut row = vec![0u64; features.div_ceil(64)];
            for (f, _) in lane.iter().enumerate().filter(|(_, &b)| b) {
                row[f / 64] |= 1 << (f % 64);
            }
            row
        };
        let rows: Vec<Vec<u64>> = lanes.iter().map(pack_row).collect();
        let mut t = BitTensor::zeros(3, 7);
        t.gather_rows(features, &rows, |r| r);
        let want = if batch == 0 {
            BitTensor::zeros(features, 0)
        } else {
            BitTensor::from_lanes(&lanes)
        };
        prop_assert_eq!(&t, &want);

        // dirty the ragged tail, then scatter into rows full of garbage
        let (w, mask) = (t.words_per_feature(), t.tail_mask());
        if mask != !0 {
            for f in 0..features {
                t.data_mut()[f * w + w - 1] |= garbage & !mask;
            }
        }
        let mut back = vec![vec![garbage; features.div_ceil(64)]; batch];
        t.scatter_rows(&mut back, |r| r);
        prop_assert_eq!(back, rows);
    }

    /// `transpose` (wire planes ⇄ cycle rows) is an involution, equals the
    /// naive bit loop, and leaves zero tails whatever the source's tail
    /// holds — for shapes crossing 64 in either dimension, `0 × n` and
    /// `n × 0` included.
    #[test]
    fn transpose_is_an_involution_matching_the_bit_loop(
        features in 0usize..=200,
        batch in 0usize..=200,
        garbage in any::<u64>(),
        bits in proptest::collection::vec(any::<bool>(), 1..512),
    ) {
        let mut t = BitTensor::zeros(features, batch);
        for f in 0..features {
            for l in (0..batch).filter(|l| bits[(l * features + f) % bits.len()]) {
                t.set_bit(f, l, true);
            }
        }
        let canonical = t.clone();
        let (w, mask) = (t.words_per_feature(), t.tail_mask());
        if mask != !0 {
            for f in 0..features {
                t.data_mut()[f * w + w - 1] |= garbage & !mask;
            }
        }
        let tt = t.transpose();
        prop_assert_eq!((tt.features(), tt.batch()), (batch, features));
        let mut naive = BitTensor::zeros(batch, features);
        for f in 0..features {
            for l in (0..batch).filter(|&l| t.get_bit(f, l)) {
                naive.set_bit(l, f, true);
            }
        }
        // word-for-word: every tail bit of the transpose is zero
        prop_assert_eq!(&tt, &naive);
        prop_assert_eq!(tt.transpose(), canonical);
    }

    /// Planes ↔ exact 0/1 scalars (the CSR engine's port conversion) is
    /// the identity and packs to the canonical zero-tail form.
    #[test]
    fn scalar_conversion_roundtrip(
        features in 1usize..24,
        batch in 1usize..=200,
        bits in proptest::collection::vec(any::<bool>(), 1..512),
    ) {
        let lanes = lanes_from_pool(&bits, batch, features);
        let t = BitTensor::from_lanes(&lanes);
        let mut scalars = vec![7.0f32; features * batch];
        t.unpack_scalars(&mut scalars);
        for (l, lane) in lanes.iter().enumerate() {
            for (f, &bit) in lane.iter().enumerate() {
                prop_assert_eq!(scalars[f * batch + l], bit as u8 as f32);
            }
        }
        let mut back = BitTensor::zeros(features, batch);
        back.data_mut().fill(!0);
        back.pack_scalars(&scalars);
        prop_assert_eq!(back, t);
    }
}

/// A row with too few words — how a finished testbench looks to the ragged
/// driver — gathers as an all-zero lane and takes nothing on scatter.
#[test]
fn short_rows_gather_as_zero_and_scatter_nowhere() {
    let features = 70;
    let full = vec![!0u64, 0x3f];
    let rows = vec![full.clone(), Vec::new(), vec![!0u64]];
    let mut t = BitTensor::zeros(0, 0);
    t.gather_rows(features, &rows, |r| r);
    for f in 0..features {
        let lanes: Vec<bool> = (0..3).map(|l| t.get_bit(f, l)).collect();
        assert_eq!(lanes, [true, false, f < 64], "feature {f}");
    }
    let mut back = vec![vec![0; 2], Vec::new(), vec![0]];
    t.scatter_rows(&mut back, |r| r);
    assert_eq!(back, rows);
}
