//! Parameterized circuit generators for tests, property checks, and the
//! ablation benchmarks: random DAGs, arithmetic arrays, LFSRs, counters.

use c2nn_netlist::{Net, Netlist, NetlistBuilder, WordOps};

/// A deterministic xorshift generator (no external RNG dependency in the
/// library path; benches seed it explicitly).
#[derive(Clone, Debug)]
pub struct XorShift(pub u64);

impl XorShift {
    pub fn gen(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Random combinational DAG: `num_inputs` inputs, `num_gates` random 1–3
/// input gates over earlier signals, `num_outputs` outputs drawn from the
/// deepest signals (so little logic is dead).
pub fn random_dag(num_inputs: usize, num_gates: usize, num_outputs: usize, seed: u64) -> Netlist {
    let mut rng = XorShift(seed | 1);
    let mut b = NetlistBuilder::new(format!("rand_{num_inputs}x{num_gates}"));
    let mut pool: Vec<Net> = b.input_word("x", num_inputs);
    for _ in 0..num_gates {
        let i = pool[rng.gen() as usize % pool.len()];
        let j = pool[rng.gen() as usize % pool.len()];
        let k = pool[rng.gen() as usize % pool.len()];
        let g = match rng.gen() % 7 {
            0 => b.and2(i, j),
            1 => b.or2(i, j),
            2 => b.xor2(i, j),
            3 => b.nand2(i, j),
            4 => b.nor2(i, j),
            5 => b.mux(i, j, k),
            _ => b.not(i),
        };
        pool.push(g);
    }
    let n = pool.len();
    for o in 0..num_outputs {
        let idx = n - 1 - (rng.gen() as usize % (num_gates / 2 + 1)).min(n - 1);
        b.output(pool[idx], &format!("y{o}"));
    }
    b.finish().unwrap()
}

/// Random sequential circuit: a random next-state function over
/// `state_bits` flip-flops plus `num_inputs` inputs.
pub fn random_fsm(
    num_inputs: usize,
    state_bits: usize,
    num_gates: usize,
    num_outputs: usize,
    seed: u64,
) -> Netlist {
    let mut rng = XorShift(seed | 1);
    let mut b = NetlistBuilder::new(format!("rfsm_{state_bits}"));
    let clk = b.clock("clk");
    let ins = b.input_word("x", num_inputs);
    let state = b.fresh_word("s", state_bits);
    let mut pool: Vec<Net> = ins.iter().chain(&state).copied().collect();
    for _ in 0..num_gates {
        let i = pool[rng.gen() as usize % pool.len()];
        let j = pool[rng.gen() as usize % pool.len()];
        let k = pool[rng.gen() as usize % pool.len()];
        let g = match rng.gen() % 6 {
            0 => b.and2(i, j),
            1 => b.or2(i, j),
            2 => b.xor2(i, j),
            3 => b.mux(i, j, k),
            4 => b.xnor2(i, j),
            _ => b.not(i),
        };
        pool.push(g);
    }
    let next: Vec<Net> = (0..state_bits)
        .map(|_| pool[pool.len() - 1 - rng.gen() as usize % (num_gates / 2 + 1)])
        .collect();
    b.connect_ff_word(&next, &state, clk, None, None, 0, rng.gen());
    for o in 0..num_outputs {
        let s = pool[pool.len() - 1 - rng.gen() as usize % (num_gates / 2 + 1)];
        b.output(s, &format!("y{o}"));
    }
    b.finish().unwrap()
}

/// `width × width` array multiplier (combinational), truncated product.
pub fn multiplier(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("mul{width}"));
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let mut acc = b.const_word(0, width);
    for (i, &bi) in c.iter().enumerate() {
        let shifted = b.shl_const(&a, i);
        let gated: Vec<Net> = shifted.iter().map(|&s| b.and2(s, bi)).collect();
        acc = b.add_word(&acc, &gated);
    }
    b.output_word(&acc, "p");
    b.finish().unwrap()
}

/// Fibonacci LFSR over the given taps (bit indices), `width` bits.
pub fn lfsr(width: usize, taps: &[usize]) -> Netlist {
    let mut b = NetlistBuilder::new(format!("lfsr{width}"));
    let clk = b.clock("clk");
    let q = b.fresh_word("q", width);
    let tap_nets: Vec<Net> = taps.iter().map(|&t| q[t]).collect();
    let fb = b.xor_many(&tap_nets);
    let mut next = vec![fb];
    next.extend_from_slice(&q[..width - 1]);
    // nonzero init so it doesn't lock up
    b.connect_ff_word(&next, &q, clk, None, None, 0, 1);
    b.output_word(&q, "q");
    b.finish().unwrap()
}

/// Up-counter with enable.
pub fn counter(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("ctr{width}"));
    let clk = b.clock("clk");
    let en = b.input("en");
    let q = b.fresh_word("q", width);
    let inc = b.inc_word(&q);
    let next = b.mux_word(en, &q, &inc);
    b.connect_ff_word(&next, &q, clk, None, None, 0, 0);
    b.output_word(&q, "q");
    b.finish().unwrap()
}

/// Population count of `width` input bits.
pub fn popcount(width: usize) -> Netlist {
    let out_w = usize::BITS as usize - (width.max(1)).leading_zeros() as usize;
    let mut b = NetlistBuilder::new(format!("popcnt{width}"));
    let ins = b.input_word("x", width);
    let mut acc = b.const_word(0, out_w + 1);
    for &bit in &ins {
        let mut w = vec![bit];
        let zeros = b.const_word(0, out_w);
        w.extend_from_slice(&zeros);
        acc = b.add_word(&acc, &w);
    }
    b.output_word(&acc, "count");
    b.finish().unwrap()
}

/// CRC-32 (IEEE 802.3) bit-serial update circuit: one message bit per
/// cycle into a 32-bit LFSR-style register.
pub fn crc32() -> Netlist {
    const POLY: u32 = 0xEDB8_8320; // reflected 0x04C11DB7
    let mut b = NetlistBuilder::new("crc32");
    let clk = b.clock("clk");
    let bit_in = b.input("bit");
    let init = b.input("init");
    let q = b.fresh_word("crc", 32);
    // feedback = crc[0] ^ bit; shift right; xor POLY where fb set
    let fb = b.xor2(q[0], bit_in);
    let mut next: Vec<Net> = Vec::with_capacity(32);
    for i in 0..32 {
        let shifted = if i == 31 { b.zero() } else { q[i + 1] };
        let bit = if POLY >> i & 1 == 1 {
            b.xor2(shifted, fb)
        } else {
            shifted
        };
        next.push(bit);
    }
    // init loads all-ones (standard CRC-32 preset)
    let ones = b.const_word(u64::MAX, 32);
    let next = b.mux_word(init, &next, &ones);
    b.connect_ff_word(&next, &q, clk, None, None, 0, u64::MAX);
    b.output_word(&q, "crc");
    b.finish().unwrap()
}

/// Transposed-form FIR filter with constant integer taps: `width`-bit
/// samples in, full-precision accumulator chain out.
pub fn fir(width: usize, taps: &[i64]) -> Netlist {
    assert!(!taps.is_empty());
    let acc_w = width + 8; // headroom for the tap sums
    let mut b = NetlistBuilder::new(format!("fir{}", taps.len()));
    let clk = b.clock("clk");
    let x = b.input_word("x", width);
    // constant multiply by shift-add over the tap's binary expansion
    let mul_const = |b: &mut NetlistBuilder, x: &[Net], c: i64| -> Vec<Net> {
        let xw = b.resize_word(x, acc_w);
        let mut acc = b.const_word(0, acc_w);
        let mag = c.unsigned_abs();
        for bit in 0..acc_w.min(63) {
            if mag >> bit & 1 == 1 {
                let sh = b.shl_const(&xw, bit);
                acc = b.add_word(&acc, &sh);
            }
        }
        if c < 0 {
            let zero = b.const_word(0, acc_w);
            b.sub_word(&zero, &acc)
        } else {
            acc
        }
    };
    // transposed form: y = z0; z_i <= z_{i+1} + tap_i * x
    let regs: Vec<Vec<Net>> = (0..taps.len())
        .map(|i| b.fresh_word(&format!("z{i}"), acc_w))
        .collect();
    for (i, &t) in taps.iter().enumerate() {
        let prod = mul_const(&mut b, &x, t);
        let next = if i + 1 < taps.len() {
            b.add_word(&regs[i + 1].clone(), &prod)
        } else {
            prod
        };
        b.connect_ff_word(&next, &regs[i], clk, None, None, 0, 0);
    }
    b.output_word(&regs[0], "y");
    b.finish().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2nn_refsim::CycleSim;

    #[test]
    fn random_dag_is_valid_and_deterministic() {
        let a = random_dag(10, 100, 5, 42);
        let b = random_dag(10, 100, 5, 42);
        assert_eq!(a.gates.len(), b.gates.len());
        a.validate().unwrap();
        assert_eq!(a.inputs.len(), 10);
        assert_eq!(a.outputs.len(), 5);
    }

    #[test]
    fn random_fsm_steps() {
        let nl = random_fsm(4, 8, 60, 3, 7);
        let mut sim = CycleSim::new(&nl).unwrap();
        for t in 0..20u64 {
            let stim: Vec<bool> = (0..4).map(|j| t >> j & 1 == 1).collect();
            let out = sim.step(&stim);
            assert_eq!(out.len(), 3);
        }
    }

    #[test]
    fn multiplier_correct() {
        let nl = multiplier(5);
        let mut sim = CycleSim::new(&nl).unwrap();
        for a in 0..32u64 {
            for c in [0u64, 1, 7, 31] {
                let bits: Vec<bool> = (0..10).map(|j| (a | c << 5) >> j & 1 == 1).collect();
                let out = sim.eval_comb(&bits);
                let got: u64 = out.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum();
                assert_eq!(got, (a * c) & 31, "{a}*{c}");
            }
        }
    }

    #[test]
    fn lfsr_has_long_period() {
        // maximal 8-bit LFSR taps (x^8 + x^6 + x^5 + x^4 + 1)
        let nl = lfsr(8, &[7, 5, 4, 3]);
        let mut sim = CycleSim::new(&nl).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..255 {
            let out = sim.step(&[]);
            let v: u64 = out.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum();
            assert_ne!(v, 0, "LFSR locked up");
            seen.insert(v);
        }
        assert_eq!(seen.len(), 255, "period must be 2^8 - 1");
    }

    #[test]
    fn crc32_matches_reference() {
        let nl = crc32();
        let mut sim = CycleSim::new(&nl).unwrap();
        // canonical check input -> 0xCBF43926
        let data = b"123456789";
        // preset, then shift all bits LSB-first
        sim.step(&[false, true]);
        for &byte in data {
            for k in 0..8 {
                sim.step(&[byte >> k & 1 == 1, false]);
            }
        }
        let out = sim.step(&[false, false]);
        let crc: u32 = out.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum();
        // register holds pre-inversion value one cycle after the last bit;
        // account for the extra idle step by recomputing: the output above
        // reflects the state after all 72 bits, i.e. !crc32.
        assert_eq!(!crc, 0xCBF43926, "CRC register mismatch");
    }

    #[test]
    fn fir_impulse_response_is_taps() {
        let taps = [3i64, -2, 5, 1];
        let nl = fir(4, &taps);
        let mut sim = CycleSim::new(&nl).unwrap();
        // impulse x=1 then zeros: output replays the taps
        let mut outs = Vec::new();
        let width = 4;
        let step = |sim: &mut CycleSim, v: u64| -> i64 {
            let stim: Vec<bool> = (0..width).map(|j| v >> j & 1 == 1).collect();
            let out = sim.step(&stim);
            let raw: u64 = out.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum();
            // sign-extend from acc_w = 12 bits
            ((raw << (64 - 12)) as i64) >> (64 - 12)
        };
        step(&mut sim, 1);
        for _ in 0..taps.len() {
            outs.push(step(&mut sim, 0));
        }
        assert_eq!(outs, taps.to_vec());
    }

    #[test]
    fn fir_superposition() {
        // linearity: response to x=2 is twice the impulse response
        let taps = [1i64, 4, -3];
        let nl = fir(4, &taps);
        let mut sim = CycleSim::new(&nl).unwrap();
        let step = |sim: &mut CycleSim, v: u64| -> i64 {
            let stim: Vec<bool> = (0..4).map(|j| v >> j & 1 == 1).collect();
            let out = sim.step(&stim);
            let raw: u64 = out.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum();
            ((raw << 52) as i64) >> 52
        };
        step(&mut sim, 2);
        let got: Vec<i64> = (0..3).map(|_| step(&mut sim, 0)).collect();
        assert_eq!(got, vec![2, 8, -6]);
    }

    #[test]
    fn popcount_counts() {
        let nl = popcount(9);
        let mut sim = CycleSim::new(&nl).unwrap();
        for x in [0u64, 1, 0b101010101, 0b111111111, 0b100000000] {
            let bits: Vec<bool> = (0..9).map(|j| x >> j & 1 == 1).collect();
            let out = sim.eval_comb(&bits);
            let got: u64 = out.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum();
            assert_eq!(got, x.count_ones() as u64, "x={x:b}");
        }
    }
}
