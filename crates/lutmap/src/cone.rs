//! Cone extraction and bit-parallel truth-table computation.
//!
//! The paper obtains each LUT's truth table with a SAT solver (Fig. 3).
//! For L ≤ 16 exhaustive evaluation is both exact and faster: we simulate
//! the logic cone between the cut leaves and its root for all `2^k` leaf
//! assignments at once, 64 assignments per machine word.

use c2nn_boolfn::Lut;
use c2nn_netlist::{Driver, Net, Netlist};
use std::collections::HashMap;

/// Compute the truth table of `root` as a function of `leaves` by simulating
/// the cone in between. Every path from `root` upward must terminate at a
/// leaf, a constant gate, or a 0-input gate — guaranteed when `leaves` is a
/// legal cut of `root`.
///
/// Table convention: variable `j` is `leaves[j]`, row index bit `j` gives its
/// value (matching [`Lut`]).
pub fn cone_truth_table(nl: &Netlist, drivers: &[Driver], root: Net, leaves: &[Net]) -> Lut {
    let k = leaves.len();
    assert!(k <= 16, "cone too wide for exhaustive evaluation: {k}");
    let rows = 1usize << k;
    let words = rows.div_ceil(64);
    // leaf patterns: bit i of pattern_j = (i >> j) & 1
    let mut values: HashMap<Net, Vec<u64>> = HashMap::new();
    for (j, &leaf) in leaves.iter().enumerate() {
        values.insert(leaf, leaf_pattern(j, words));
    }
    let bits = eval_net(nl, drivers, root, &mut values, words);
    Lut::from_bits(k as u8, bits)
}

/// The canonical truth-table input pattern for variable `j`.
pub fn leaf_pattern(j: usize, words: usize) -> Vec<u64> {
    if j < 6 {
        // within one word: alternating runs of 2^j bits
        let base: u64 = match j {
            0 => 0xAAAA_AAAA_AAAA_AAAA,
            1 => 0xCCCC_CCCC_CCCC_CCCC,
            2 => 0xF0F0_F0F0_F0F0_F0F0,
            3 => 0xFF00_FF00_FF00_FF00,
            4 => 0xFFFF_0000_FFFF_0000,
            5 => 0xFFFF_FFFF_0000_0000,
            _ => unreachable!(),
        };
        vec![base; words]
    } else {
        // whole words alternate in runs of 2^(j-6)
        let run = 1usize << (j - 6);
        (0..words)
            .map(|w| if (w / run) % 2 == 1 { !0u64 } else { 0u64 })
            .collect()
    }
}

fn eval_net(
    nl: &Netlist,
    drivers: &[Driver],
    net: Net,
    values: &mut HashMap<Net, Vec<u64>>,
    words: usize,
) -> Vec<u64> {
    if let Some(v) = values.get(&net) {
        return v.clone();
    }
    let gi = match drivers[net.index()] {
        Driver::Gate(gi) => gi,
        other => {
            panic!("cone reached {net:?} driven by {other:?} without crossing a leaf — illegal cut")
        }
    };
    let gate = &nl.gates[gi];
    let ins: Vec<Vec<u64>> = gate
        .inputs
        .iter()
        .map(|&i| eval_net(nl, drivers, i, values, words))
        .collect();
    let mut out = vec![0u64; words];
    let mut scratch: Vec<u64> = vec![0; gate.inputs.len()];
    for (w, o) in out.iter_mut().enumerate() {
        for (s, iv) in scratch.iter_mut().zip(&ins) {
            *s = iv[w];
        }
        *o = gate.kind.eval_word(&scratch);
    }
    values.insert(net, out.clone());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2nn_netlist::{NetlistBuilder, WordOps};

    #[test]
    fn leaf_patterns_encode_row_bits() {
        for j in 0..10usize {
            let words = (1usize << 10) / 64;
            let p = leaf_pattern(j, words);
            for row in 0..1usize << 10 {
                let bit = p[row / 64] >> (row % 64) & 1 == 1;
                assert_eq!(bit, row >> j & 1 == 1, "var {j} row {row}");
            }
        }
    }

    #[test]
    fn cone_of_full_adder_sum() {
        let mut b = NetlistBuilder::new("fa");
        let a = b.input("a");
        let c = b.input("b");
        let cin = b.input("cin");
        let (sum, carry) = b.adc(&[a], &[c], cin);
        b.output(sum[0], "s");
        b.output(carry, "cout");
        let nl = b.finish().unwrap();
        let drivers = nl.drivers().unwrap();
        let t = cone_truth_table(&nl, &drivers, nl.outputs[0], &[a, c, cin]);
        for row in 0..8u64 {
            let total = (row & 1) + (row >> 1 & 1) + (row >> 2 & 1);
            assert_eq!(t.get(row), total % 2 == 1, "row {row}");
        }
        let tc = cone_truth_table(&nl, &drivers, nl.outputs[1], &[a, c, cin]);
        for row in 0..8u64 {
            let total = (row & 1) + (row >> 1 & 1) + (row >> 2 & 1);
            assert_eq!(tc.get(row), total >= 2, "carry row {row}");
        }
    }

    #[test]
    fn cone_with_constant_inside() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let one = b.one();
        let x = b.xor2(a, one); // = not a
        b.output(x, "y");
        let nl = b.finish().unwrap();
        let drivers = nl.drivers().unwrap();
        let t = cone_truth_table(&nl, &drivers, nl.outputs[0], &[a]);
        assert!(t.get(0));
        assert!(!t.get(1));
    }

    #[test]
    fn wide_cone_multiword() {
        // 8-input parity: table has 256 rows = 4 words
        let mut b = NetlistBuilder::new("p");
        let ins = b.input_word("x", 8);
        let p = b.reduce_xor(&ins);
        b.output(p, "p");
        let nl = b.finish().unwrap();
        let drivers = nl.drivers().unwrap();
        let t = cone_truth_table(&nl, &drivers, nl.outputs[0], &ins);
        for row in 0..256u64 {
            assert_eq!(t.get(row), row.count_ones() % 2 == 1);
        }
    }
}
