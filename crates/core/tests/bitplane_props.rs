//! Property tests for bit-plane packing: pack/unpack must be exact
//! inverses and lane-scatter must be exact for arbitrary feature widths
//! and batch sizes 1..=300 — including ragged batches whose last word is
//! only partially filled — and tail garbage must never leak into a valid
//! lane. The block transposes (`gather_rows` / `scatter_rows`, and
//! `transpose` over them) and the scalar conversions are held to the same
//! per-bit reference.
//!
//! The flat program `BitplaneNn::from_compiled` lowers to — identity rows
//! resolved to the planes they name — is held to a layer-by-layer integer
//! evaluation of random small networks: copy chains across layers, outputs
//! aliasing one plane, next state permuting state, constants, inverters,
//! and levels that resolution leaves empty.

use c2nn_core::bitplane::{BitTensor, BitplaneNn, BitplaneSimulator};
use c2nn_core::{Activation2, CompiledNn, NnLayer};
use c2nn_tensor::{Csr, Device};
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

/// Deterministic generator for the random networks below.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n.max(1) as u64) as usize
    }

    /// `k` distinct columns below `m`.
    fn distinct(&mut self, m: usize, k: usize) -> Vec<u32> {
        let mut cols: Vec<u32> = (0..m as u32).collect();
        for i in 0..k {
            let j = i + self.below(m - i);
            cols.swap(i, j);
        }
        cols.truncate(k);
        cols
    }
}

/// One row: `(column, weight)` pairs and a bias.
type Row = (Vec<(u32, i64)>, i64);

fn copy(c: u32) -> Row {
    (vec![(c, 1)], 0)
}

/// A random legal network over `pi` inputs and `sb` state bits with `po ≥ 2`
/// outputs, `depth` layers, and the number of rows that are not copies.
/// Every row is a copy, inverter, constant, gate (threshold layers) or a
/// parity whose value is 0/1 (linear layers: `a + b − 2·(a∧b)` over a
/// copy/copy/AND triple of the layer before). The first `sb` rows of each
/// hidden layer carry the state forward by copies; some layers are all
/// copies, and outputs 0 and 1 copy one column.
fn random_net(
    g: &mut Gen,
    pi: usize,
    sb: usize,
    po: usize,
    depth: usize,
    permute: bool,
) -> (CompiledNn<f32>, usize) {
    let mut width = pi + sb;
    let mut carry: Vec<u32> = (pi as u32..width as u32).collect();
    let mut triples: Vec<[u32; 3]> = Vec::new();
    let (mut layers, mut computed) = (Vec::new(), 0);
    for k in 0..depth {
        let last = k + 1 == depth;
        let activation = if g.below(2) == 0 {
            Activation2::Threshold
        } else {
            Activation2::Linear
        };
        let all_copies = g.below(4) == 0 && width > 0;
        let mut rows: Vec<Row> = Vec::new();
        let mut next_triples = Vec::new();
        let random_row = |g: &mut Gen, computed: &mut usize| -> Row {
            if all_copies {
                return copy(g.below(width) as u32);
            }
            let kind = if width == 0 { 2 } else { g.below(5) };
            let row = match (kind, activation) {
                (0, _) => return copy(g.below(width) as u32),
                (1, _) => (vec![(g.below(width) as u32, -1)], 1),
                (2, _) => (vec![], g.below(2) as i64),
                (_, Activation2::Linear) if !triples.is_empty() => {
                    let [a, b, c] = triples[g.below(triples.len())];
                    match g.below(2) {
                        0 => (vec![(a, 1), (b, 1), (c, -2)], 0),
                        _ => (vec![(a, -1), (b, -1), (c, 2)], 1),
                    }
                }
                (_, Activation2::Linear) => return copy(g.below(width) as u32),
                (_, Activation2::Threshold) if width < 2 => (vec![(0, -1)], 1),
                (_, Activation2::Threshold) => {
                    let n = 2 + g.below(width.min(4) - 1);
                    let srcs = g.distinct(width, n);
                    let n = n as i64;
                    let (w, bias) = [(1, 1 - n), (1, 0), (-1, n), (-1, 1)][g.below(4)];
                    (srcs.into_iter().map(|c| (c, w)).collect(), bias)
                }
            };
            *computed += 1;
            row
        };
        if last {
            let alias = if width == 0 {
                None
            } else {
                Some(g.below(width) as u32)
            };
            for r in 0..po {
                rows.push(match alias {
                    Some(c) if r < 2 => copy(c),
                    _ => random_row(g, &mut computed),
                });
            }
            let perm = g.distinct(sb, sb);
            for &p in &perm {
                rows.push(if permute {
                    copy(carry[p as usize])
                } else {
                    random_row(g, &mut computed)
                });
            }
        } else {
            rows.extend(carry.iter().map(|&c| copy(c)));
            if activation == Activation2::Threshold && !all_copies && width >= 2 {
                for _ in 0..g.below(3) {
                    let pq = g.distinct(width, 2);
                    let at = rows.len() as u32;
                    rows.extend([copy(pq[0]), copy(pq[1])]);
                    rows.push((vec![(pq[0], 1), (pq[1], 1)], -1));
                    computed += 1;
                    next_triples.push([at, at + 1, at + 2]);
                }
            }
            let extra = if g.below(4) == 0 { 300 } else { 1 + g.below(8) };
            for _ in 0..extra {
                rows.push(random_row(g, &mut computed));
            }
        }
        let mut triplets = Vec::new();
        for (r, (ws, _)) in rows.iter().enumerate() {
            triplets.extend(ws.iter().map(|&(c, w)| (r as u32, c, w as f32)));
        }
        layers.push(NnLayer {
            weights: Csr::from_triplets(rows.len(), width, triplets),
            bias: rows.iter().map(|&(_, b)| b as f32).collect(),
            activation,
        });
        width = rows.len();
        carry = (0..sb as u32).collect();
        triples = next_triples;
    }
    let nn = CompiledNn {
        name: "random".into(),
        layers,
        num_primary_inputs: pi,
        num_primary_outputs: po,
        state_init: (0..sb).map(|_| g.below(2) == 1).collect(),
        gate_count: computed,
        lut_size: 2,
    };
    (nn, computed)
}

/// One forward pass per lane, layer by layer in exact integers: threshold
/// rows fire on a positive sum, linear rows must already be 0/1.
fn reference(nn: &CompiledNn<f32>, x: &[bool]) -> Vec<bool> {
    let mut v = x.to_vec();
    for layer in &nn.layers {
        v = (0..layer.weights.rows())
            .map(|r| {
                let sum: i64 = layer
                    .weights
                    .row(r)
                    .map(|(c, w)| w as i64 * v[c as usize] as i64)
                    .sum();
                let pre = sum + layer.bias[r] as i64;
                match layer.activation {
                    Activation2::Threshold => pre > 0,
                    Activation2::Linear => {
                        assert!(pre == 0 || pre == 1, "linear row {r} left 0/1: {pre}");
                        pre == 1
                    }
                }
            })
            .collect();
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// The flat program equals the layered network bit for bit over a few
    /// cycles at lane counts around word boundaries, serial and parallel
    /// alike, and keeps exactly the rows that are not copies.
    #[test]
    fn resolved_program_matches_layered_evaluation(
        seed in any::<u64>(),
        pi in 0usize..4,
        sb in 0usize..5,
        po in 2usize..5,
        depth in 1usize..6,
        permute in any::<bool>(),
    ) {
        let mut g = Gen(seed);
        let (nn, computed) = random_net(&mut g, pi, sb, po, depth, permute);
        let plan = BitplaneNn::from_compiled(&nn).unwrap();
        prop_assert_eq!(plan.op_census().total(), computed);
        prop_assert_eq!(plan.num_layers(), depth);
        prop_assert!(plan.levels() <= depth);
        if computed == 0 {
            prop_assert_eq!(plan.levels(), 0);
        }
        prop_assert!(plan.modeled_word_ops() > 0);
        for lanes in [1usize, 63, 64, 65, 130] {
            let mut state = vec![nn.state_init.clone(); lanes];
            let mut serial = BitplaneSimulator::new(&plan, lanes, Device::Serial);
            let mut parallel = BitplaneSimulator::new(&plan, lanes, Device::Parallel);
            let (mut out_s, mut out_p) = (BitTensor::zeros(0, 0), BitTensor::zeros(0, 0));
            for cycle in 0..3 {
                let inputs: Vec<Vec<bool>> =
                    (0..lanes).map(|_| (0..pi).map(|_| g.below(2) == 1).collect()).collect();
                let mut want = Vec::with_capacity(lanes);
                for (lane, st) in inputs.iter().zip(&mut state) {
                    let y = reference(&nn, &[lane.as_slice(), st.as_slice()].concat());
                    *st = y[po..].to_vec();
                    want.push(y[..po].to_vec());
                }
                let x = BitTensor::from_lanes(&inputs);
                serial.step_packed_into(&x, &mut out_s).unwrap();
                parallel.step_packed_into(&x, &mut out_p).unwrap();
                prop_assert_eq!(out_s.to_lanes(), want, "lanes {} cycle {}", lanes, cycle);
                prop_assert_eq!(&out_s, &out_p, "serial vs parallel, lanes {}", lanes);
                let mut planes = BitTensor::zeros(0, 0);
                serial.read_state(&mut planes);
                prop_assert_eq!(planes.to_lanes(), state.clone(), "state, lanes {}", lanes);
                parallel.read_state(&mut planes);
                prop_assert_eq!(planes.to_lanes(), state.clone());
            }
        }
    }
}
