//! The paper's §IV-A verification, in miniature: compiled networks must be
//! bit-identical to the reference gate-level simulator, for every circuit,
//! LUT size, device, dtype, and merge setting.

use c2nn_core::{compile, compile_as, CompileOptions, CompiledNn, PassId, PassSet, Simulator};
use c2nn_netlist::{Netlist, NetlistBuilder, WordOps};
use c2nn_refsim::CycleSim;
use c2nn_tensor::{Dense, Device};

fn adder(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("add");
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let s = b.add_word(&a, &c);
    b.output_word(&s, "s");
    b.finish().unwrap()
}

fn counter(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("ctr");
    let clk = b.clock("clk");
    let en = b.input("en");
    let ld = b.input("ld");
    let dat = b.input_word("d", width);
    let q = b.fresh_word("q", width);
    let inc = b.inc_word(&q);
    let step = b.mux_word(en, &q, &inc);
    let next = b.mux_word(ld, &step, &dat);
    b.connect_ff_word(&next, &q, clk, None, None, 0, 0);
    b.output_word(&q, "q");
    b.finish().unwrap()
}

fn exhaustive_comb_check(nl: &Netlist, nn: &CompiledNn<f32>) {
    let n = nl.inputs.len();
    assert!(n <= 12);
    let mut sim = CycleSim::new(nl).unwrap();
    for x in 0..1u64 << n {
        let bits: Vec<bool> = (0..n).map(|j| x >> j & 1 == 1).collect();
        let want = sim.eval_comb(&bits);
        let got = nn.eval(&bits);
        assert_eq!(got, want, "x={x:b}");
    }
}

#[test]
fn adder_equivalent_across_l() {
    let nl = adder(4);
    for l in [2, 3, 4, 5, 7, 9, 11] {
        let nn = compile(&nl, CompileOptions::with_l(l)).unwrap();
        exhaustive_comb_check(&nl, &nn);
    }
}

#[test]
fn merge_preserves_function_and_halves_depth() {
    let nl = adder(6);
    let opts = CompileOptions::with_l(3);
    let merged = compile(&nl, opts.with_passes(PassSet::all())).unwrap();
    let unmerged = compile(&nl, opts).unwrap();
    assert!(!opts.passes.contains(PassId::LayerMerge));
    // function identical
    for x in [0u64, 1, 100, 3333, 4095] {
        let bits: Vec<bool> = (0..12).map(|j| x >> j & 1 == 1).collect();
        assert_eq!(merged.eval(&bits), unmerged.eval(&bits), "x={x}");
    }
    // Fig. 5: merged has D+1 layers, unmerged 2D
    let d = merged.num_layers() - 1;
    assert_eq!(unmerged.num_layers(), 2 * d, "unmerged layer count");
    assert!(d >= 2);
}

#[test]
fn sequential_counter_matches_reference_batched() {
    let nl = counter(6);
    let nn = compile(&nl, CompileOptions::with_l(4)).unwrap();
    assert_eq!(nn.state_bits(), 6);
    let batch = 8;
    let mut nn_sim = Simulator::new(&nn, batch, Device::Parallel);
    let mut refs: Vec<CycleSim> = (0..batch).map(|_| CycleSim::new(&nl).unwrap()).collect();
    let mut seed = 42u64;
    for cycle in 0..50 {
        let mut rows = Vec::with_capacity(batch);
        for _ in 0..batch {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let en = seed >> 20 & 1 == 1;
            let ld = seed >> 21 & 0b111 == 0; // occasional load
            let mut row = vec![en, ld];
            for j in 0..6 {
                row.push(seed >> (30 + j) & 1 == 1);
            }
            rows.push(row);
        }
        let x = Dense::<f32>::from_lanes(&rows);
        let y = nn_sim.step(&x);
        let ybits = y.to_lanes();
        for (lane, r) in refs.iter_mut().enumerate() {
            let want = r.step(&rows[lane]);
            assert_eq!(ybits[lane], want, "cycle {cycle} lane {lane}");
        }
    }
}

#[test]
fn integer_network_matches_float() {
    let nl = adder(4);
    let f = compile(&nl, CompileOptions::with_l(5)).unwrap();
    let i = compile_as::<i32>(&nl, CompileOptions::with_l(5)).unwrap();
    assert_eq!(f.connections(), i.connections());
    for x in 0..256u64 {
        let bits: Vec<bool> = (0..8).map(|j| x >> j & 1 == 1).collect();
        assert_eq!(f.eval(&bits), i.eval(&bits), "x={x}");
    }
}

#[test]
fn devices_agree() {
    let nl = counter(5);
    let nn = compile(&nl, CompileOptions::with_l(6)).unwrap();
    let batch = 16;
    let mut a = Simulator::new(&nn, batch, Device::Serial);
    let mut b = Simulator::new(&nn, batch, Device::Parallel);
    let mut seed = 9u64;
    for _ in 0..30 {
        let rows: Vec<Vec<bool>> = (0..batch)
            .map(|l| {
                seed = seed
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(l as u64);
                (0..7).map(|j| seed >> (13 + j) & 1 == 1).collect()
            })
            .collect();
        let x = Dense::<f32>::from_lanes(&rows);
        assert_eq!(a.step(&x).data(), b.step(&x).data());
    }
}

#[test]
fn verilog_pipeline_end_to_end() {
    let src = "
      module alu(input [1:0] op, input [3:0] a, input [3:0] b, output reg [3:0] y, output z);
        always @(*) begin
          case (op)
            2'd0: y = a + b;
            2'd1: y = a - b;
            2'd2: y = a & b;
            default: y = a | b;
          endcase
        end
        assign z = y == 4'd0;
      endmodule";
    let nl = c2nn_verilog::compile(src, "alu").unwrap();
    for l in [3, 7, 11] {
        let nn = compile(&nl, CompileOptions::with_l(l)).unwrap();
        exhaustive_comb_check(&nl, &nn);
    }
}

#[test]
fn stats_are_sane() {
    let nl = counter(8);
    let nn = compile(&nl, CompileOptions::with_l(4)).unwrap();
    assert!(nn.connections() > 0);
    assert!(nn.memory_bytes() > nn.connections() * 4);
    let s = nn.mean_sparsity();
    assert!(s > 0.5 && s <= 1.0, "sparsity {s}");
    assert!(nn.num_layers() >= 2);
    assert_eq!(nn.num_primary_inputs, 10); // en, ld, d[8]
    assert_eq!(nn.num_primary_outputs, 8);
}

#[test]
fn layer_count_shrinks_with_l() {
    // Fig. 6 top: layers ~ O((log2 L)^-1)
    let nl = adder(8);
    let l3 = compile(&nl, CompileOptions::with_l(3))
        .unwrap()
        .num_layers();
    let l11 = compile(&nl, CompileOptions::with_l(11))
        .unwrap()
        .num_layers();
    assert!(l11 < l3, "layers at L=11 ({l11}) < layers at L=3 ({l3})");
}

#[test]
fn connections_grow_with_l() {
    // Fig. 6 bottom: connections ~ O(2^L) (for circuits big enough to split)
    let nl = adder(8);
    let c3 = compile(&nl, CompileOptions::with_l(3))
        .unwrap()
        .connections();
    let c11 = compile(&nl, CompileOptions::with_l(11))
        .unwrap()
        .connections();
    assert!(
        c11 > c3,
        "connections at L=11 ({c11}) should exceed L=3 ({c3})"
    );
}

#[test]
fn serde_roundtrip() {
    let nl = adder(3);
    let nn = compile(&nl, CompileOptions::with_l(3)).unwrap();
    let json = nn.to_json_string();
    let back = CompiledNn::<f32>::from_json_str(&json).unwrap();
    for x in 0..64u64 {
        let bits: Vec<bool> = (0..6).map(|j| x >> j & 1 == 1).collect();
        assert_eq!(nn.eval(&bits), back.eval(&bits));
    }
}

#[test]
fn passthrough_only_circuit() {
    // depth-0 network: outputs are rewired inputs
    let mut b = NetlistBuilder::new("wires");
    let a = b.input_word("a", 3);
    b.output(a[2], "y0");
    b.output(a[0], "y1");
    let nl = b.finish().unwrap();
    let nn = compile(&nl, CompileOptions::with_l(4)).unwrap();
    assert_eq!(nn.eval(&[true, false, false]), vec![false, true]);
    assert_eq!(nn.eval(&[false, false, true]), vec![true, false]);
}

#[test]
fn constant_output_circuit() {
    let mut b = NetlistBuilder::new("k");
    let a = b.input("a");
    let one = b.one();
    let n = b.and2(a, one); // folds to a
    b.output(n, "y");
    b.output(one, "k");
    let nl = b.finish().unwrap();
    let nn = compile(&nl, CompileOptions::with_l(3)).unwrap();
    assert_eq!(nn.eval(&[false]), vec![false, true]);
    assert_eq!(nn.eval(&[true]), vec![true, true]);
}

#[test]
fn random_sequential_circuits_equivalent() {
    let mut seed = 0xfeedu64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for trial in 0..4 {
        let mut b = NetlistBuilder::new(format!("seq{trial}"));
        let clk = b.clock("clk");
        let ins = b.input_word("x", 4);
        let state = b.fresh_word("s", 5);
        let mut pool: Vec<_> = ins.iter().chain(&state).copied().collect();
        for _ in 0..30 {
            let i = pool[rng() as usize % pool.len()];
            let j = pool[rng() as usize % pool.len()];
            let k = pool[rng() as usize % pool.len()];
            let g = match rng() % 5 {
                0 => b.and2(i, j),
                1 => b.or2(i, j),
                2 => b.xor2(i, j),
                3 => b.mux(i, j, k),
                _ => b.not(i),
            };
            pool.push(g);
        }
        let next: Vec<_> = (0..5).map(|_| pool[rng() as usize % pool.len()]).collect();
        b.connect_ff_word(&next, &state, clk, None, None, 0, rng());
        for k in 0..3 {
            let o = pool[rng() as usize % pool.len()];
            b.output(o, &format!("y{k}"));
        }
        let nl = b.finish().unwrap();
        for l in [3, 6] {
            let nn = compile(&nl, CompileOptions::with_l(l)).unwrap();
            let mut nn_sim = Simulator::new(&nn, 1, Device::Serial);
            let mut r = CycleSim::new(&nl).unwrap();
            for cyc in 0..40 {
                let stim: Vec<bool> = (0..4).map(|_| rng() & 1 == 1).collect();
                let x = Dense::<f32>::from_lanes(std::slice::from_ref(&stim));
                let y = nn_sim.step(&x);
                assert_eq!(
                    y.to_lanes()[0],
                    r.step(&stim),
                    "trial {trial} L={l} cyc {cyc}"
                );
            }
        }
    }
}
