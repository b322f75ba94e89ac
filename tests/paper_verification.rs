//! The paper's §IV-A verification, at full scale: for every Table I
//! benchmark circuit and several LUT sizes, the compiled neural network
//! must produce outputs identical to the reference gate-level simulator
//! when driven with the same random stimuli — and the event-driven
//! simulator must agree with both.

use c2nn::circuits::table1_suite;
use c2nn::prelude::*;
use c2nn::refsim::EventSim;
use c2nn::tensor::Dense;

struct Lcg(u64);

impl Lcg {
    fn bit(&mut self) -> bool {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 40 & 1 == 1
    }
}

fn verify_circuit(name: &str, nl: &c2nn::netlist::Netlist, l: usize, cycles: usize, batch: usize) {
    let nn = compile(nl, CompileOptions::with_l(l))
        .unwrap_or_else(|e| panic!("{name} L={l}: compile failed: {e}"));
    let mut nn_sim = Simulator::new(&nn, batch, Device::Serial);
    let mut cycle_refs: Vec<CycleSim> = (0..batch).map(|_| CycleSim::new(nl).unwrap()).collect();
    let mut event_ref = EventSim::new(nl).unwrap();
    let mut rng = Lcg(0xc2 ^ l as u64 ^ name.len() as u64);
    let pi = nn.num_primary_inputs;
    for cycle in 0..cycles {
        let lanes: Vec<Vec<bool>> = (0..batch)
            .map(|_| (0..pi).map(|_| rng.bit()).collect())
            .collect();
        let x = Dense::<f32>::from_lanes(&lanes);
        let got = nn_sim.step(&x).to_lanes();
        for (lane, r) in cycle_refs.iter_mut().enumerate() {
            let want = r.step(&lanes[lane]);
            assert_eq!(
                got[lane], want,
                "{name} L={l}: NN ≠ reference at cycle {cycle}, lane {lane}"
            );
        }
        // event-driven simulator agrees on lane 0
        let ev = event_ref.step(&lanes[0]);
        assert_eq!(
            got[0], ev,
            "{name} L={l}: event sim diverged at cycle {cycle}"
        );
    }
}

#[test]
fn spi_and_uart_exact_at_all_l() {
    for bench in table1_suite() {
        if bench.name != "SPI" && bench.name != "UART" {
            continue;
        }
        let nl = (bench.build)();
        for l in [2, 3, 5, 7, 11] {
            verify_circuit(bench.name, &nl, l, 60, 4);
        }
    }
}

#[test]
fn aes_exact() {
    let nl = c2nn::circuits::aes128();
    for l in [3, 6] {
        verify_circuit("AES", &nl, l, 15, 2);
    }
}

#[test]
fn sha_exact() {
    let nl = c2nn::circuits::sha256();
    for l in [3, 6] {
        verify_circuit("SHA", &nl, l, 15, 2);
    }
}

#[test]
fn riscv_exact() {
    let nl = c2nn::circuits::riscv_interface();
    for l in [3, 6] {
        verify_circuit("RISC-V", &nl, l, 15, 2);
    }
}

#[test]
fn dma_exact() {
    // the small variant keeps test time bounded; the suite's 64-channel
    // build goes through the identical code path
    let nl = c2nn::circuits::dma(4);
    for l in [3, 6] {
        verify_circuit("DMA", &nl, l, 25, 2);
    }
}

#[test]
fn aes_network_encrypts_correctly_end_to_end() {
    use c2nn::circuits::aes::reference;
    let nl = c2nn::circuits::aes128();
    let nn = compile(&nl, CompileOptions::with_l(4)).unwrap();
    let key: [u8; 16] = [
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
        0x0f,
    ];
    let pt: [u8; 16] = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ];
    let pack = |bytes: &[u8]| -> Vec<bool> {
        bytes
            .iter()
            .flat_map(|&b| (0..8).map(move |k| b >> k & 1 == 1))
            .collect()
    };
    let mut sim = Simulator::new(&nn, 1, Device::Serial);
    let mut start = vec![true];
    start.extend(pack(&key));
    start.extend(pack(&pt));
    sim.step(&Dense::<f32>::from_lanes(&[start]));
    let idle = vec![false; 257];
    let mut out = Vec::new();
    for _ in 0..12 {
        out = sim
            .step(&Dense::<f32>::from_lanes(std::slice::from_ref(&idle)))
            .to_lanes()
            .remove(0);
        if out[129] {
            break;
        }
    }
    assert!(out[129], "NN-simulated AES never finished");
    let ct: Vec<u8> = out[..128]
        .chunks(8)
        .map(|c| c.iter().enumerate().map(|(k, &b)| (b as u8) << k).sum())
        .collect();
    assert_eq!(ct, reference::encrypt(key, pt).to_vec());
}

/// Source to model bytes is a function of the source and the options
/// alone, so a model hash can key a registry or a cache. Every `HashMap` in
/// one process is seeded differently, so eight builds see eight hash
/// orders; UART comes through the Verilog frontend, SHA through the
/// netlist builder.
#[test]
fn compile_is_byte_deterministic() {
    type Build = fn() -> c2nn::netlist::Netlist;
    let circuits: [(&str, Build); 2] = [
        ("UART", c2nn::circuits::uart),
        ("SHA", c2nn::circuits::sha256),
    ];
    for (name, build) in circuits {
        let bytes = || {
            compile(&build(), CompileOptions::with_l(4))
                .unwrap()
                .to_json_string()
        };
        let first = bytes();
        for run in 1..8 {
            assert!(
                bytes() == first,
                "{name}: build+compile #{run} differs from #0"
            );
        }
    }
}
