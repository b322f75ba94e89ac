//! Cross-codec differential: every Table I suite circuit on every
//! registered backend, driven over **both** wire codecs (and both
//! stimulus shapes) against a live server, must agree bit-for-bit with
//! the gate-level reference simulator.
//!
//! This is the acceptance gate for the binary codec: the packed wire
//! form is only allowed to change how bits travel, never which bits.

use c2nn_core::compile;
use c2nn_hal::conformance::{compile_configs, suite_workloads};
use c2nn_hal::{BackendRegistry, Choice};
use c2nn_refsim::CycleSim;
use c2nn_serve::scheduler::BatchConfig;
use c2nn_serve::server::{spawn_server, ServerConfig};
use c2nn_serve::{Client, RegistryConfig, WireFormat};
use std::time::Duration;

/// Lockstep cycles per circuit — matches the HAL conformance suite.
const CYCLES: usize = 6;

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

/// Per-cycle input lanes for a circuit, deterministic per (circuit, seed).
fn stimulus(width: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = Lcg(seed);
    (0..CYCLES)
        .map(|_| (0..width).map(|_| rng.bit()).collect())
        .collect()
}

/// `.stim` text for the lanes: one MSB-first line per cycle (input 0 is
/// the last character).
fn stim_text(lanes: &[Vec<bool>]) -> String {
    let mut text = String::new();
    for cycle in lanes {
        for &b in cycle.iter().rev() {
            text.push(if b { '1' } else { '0' });
        }
        text.push('\n');
    }
    text
}

/// The same lanes as packed planes: feature = input index, batch = cycle.
fn stim_planes(lanes: &[Vec<bool>]) -> c2nn_core::BitTensor {
    let width = lanes.first().map_or(0, Vec::len);
    let mut bt = c2nn_core::BitTensor::zeros(width, lanes.len());
    for (c, cycle) in lanes.iter().enumerate() {
        for (f, &b) in cycle.iter().enumerate() {
            bt.set_bit(f, c, b);
        }
    }
    bt
}

#[test]
fn every_backend_and_circuit_is_bit_exact_over_both_wires() {
    let registry = BackendRegistry::global();
    for backend_name in registry.names() {
        let server = spawn_server(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            registry: RegistryConfig {
                byte_budget: usize::MAX,
                batch: BatchConfig {
                    max_batch: 16,
                    max_wait: Duration::from_millis(1),
                    backend: Choice::Named(backend_name.to_string()),
                },
                ..RegistryConfig::default()
            },
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut json = Client::connect(&addr).unwrap();
        let mut binary = Client::connect_wire(&addr, WireFormat::Binary).unwrap();

        // each circuit under every compile configuration backends are
        // held to; a later install replaces the earlier one under its name
        let configs = compile_configs();
        for ((cname, nl), (cfg, opts)) in suite_workloads()
            .iter()
            .flat_map(|w| configs.iter().map(move |c| (w, c)))
        {
            let label = format!("{backend_name}[{cfg}]/{cname}");
            let nn = compile(nl, *opts).unwrap_or_else(|e| panic!("{label}: compile: {e}"));
            server
                .registry()
                .install(cname, nn)
                .unwrap_or_else(|e| panic!("{label}: install: {e}"));

            // gate-level ground truth
            let lanes = stimulus(nl.inputs.len(), 0xC0DEC ^ cname.len() as u64);
            let mut sim = CycleSim::new(nl).unwrap();
            let expected_bits: Vec<Vec<bool>> = lanes.iter().map(|c| sim.step(c)).collect();
            let expected_text: Vec<String> = expected_bits
                .iter()
                .map(|out| {
                    out.iter()
                        .rev()
                        .map(|&b| if b { '1' } else { '0' })
                        .collect()
                })
                .collect();

            // text stimulus over both wires
            let text = stim_text(&lanes);
            let via_json = json
                .sim(cname, &text)
                .unwrap_or_else(|e| panic!("{label}: json sim: {e}"));
            assert_eq!(via_json, expected_text, "{label}: json text vs refsim");
            let via_binary = binary
                .sim(cname, &text)
                .unwrap_or_else(|e| panic!("{label}: binary sim: {e}"));
            assert_eq!(via_binary, expected_text, "{label}: binary text vs refsim");

            // packed stimulus over both wires: the zero-parse hot path
            let planes = stim_planes(&lanes);
            for (wire, client) in [("json", &mut json), ("binary", &mut binary)] {
                let out = client
                    .sim_packed(cname, &planes)
                    .unwrap_or_else(|e| panic!("{label}: {wire} packed sim: {e}"));
                assert_eq!(out.batch(), CYCLES, "{label}: {wire} packed cycles");
                assert_eq!(
                    out.features(),
                    nl.outputs.len(),
                    "{label}: {wire} packed output width"
                );
                for (c, bits) in expected_bits.iter().enumerate() {
                    for (o, &b) in bits.iter().enumerate() {
                        assert_eq!(
                            out.get_bit(o, c),
                            b,
                            "{label}: {wire} packed output {o} cycle {c}"
                        );
                    }
                }
            }
        }
        server.shutdown();
        server.join();
    }
}
