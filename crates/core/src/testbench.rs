//! Testbench stimulus files — the verification workflow the paper's
//! introduction targets ("the different verification benchmarks for ICs
//! have to be processed one after the other... no commercial simulator
//! exploits stimulus parallelism").
//!
//! A `.stim` file is a plain-text testbench: one line per cycle, each line
//! a string of `0`/`1` for the primary inputs (MSB first, matching the
//! waveform reading order), with optional `xN` repeat suffixes, `#`
//! comments, and blank lines. [`run_batch`] executes **many testbenches in
//! one batched simulation**, which is exactly the paper's pitch: one
//! forward pass per cycle advances every testbench at once.
//!
//! ```text
//! # counter testbench: reset, then count 5, then hold
//! 10
//! 01 x5
//! 00 x2
//! ```
//!
//! Text and per-cycle bit vectors ([`Stimulus`], [`BenchResult`]) are the
//! edge shapes files and callers hand over. Past the edge a testbench —
//! stimulus and recorded outputs alike — is one thing, [`CycleRows`].

use crate::bitplane::BitTensor;
use crate::compile::CompiledNn;
use crate::sim::Simulator;
use c2nn_tensor::{Dense, Device, Scalar};

/// A parsed stimulus sequence: per-cycle input bit vectors (LSB-first,
/// i.e. `inputs[j]` is primary input `j`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stimulus {
    pub cycles: Vec<Vec<bool>>,
}

/// Errors from [`parse_stim`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StimError {
    pub message: String,
    pub line: usize,
}

impl std::fmt::Display for StimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stimulus error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for StimError {}

/// Most cycles one testbench may hold, and the largest `xN` repeat: `.stim`
/// text expands, so hostile input must not pick its own allocation size.
const MAX_CYCLES: usize = 1_000_000;

/// One cycle's port bits as text, MSB first (port 0 is the last character).
pub fn bits_to_text(bits: &[bool]) -> String {
    let chars = bits.iter().rev();
    chars.map(|&b| if b { '1' } else { '0' }).collect()
}

/// Inverse of [`bits_to_text`], for line `line` of some text.
fn text_to_bits(text: &str, line: usize) -> Result<Vec<bool>, StimError> {
    let bit = |c| match c {
        '0' => Ok(false),
        '1' => Ok(true),
        other => Err(StimError {
            message: format!("bad bit character '{other}'"),
            line,
        }),
    };
    text.chars().rev().map(bit).collect()
}

/// Parse `.stim` text for a circuit with `num_inputs` primary inputs.
pub fn parse_stim(text: &str, num_inputs: usize) -> Result<Stimulus, StimError> {
    // lines first, expansion after: text that fails anywhere has allocated
    // nothing its repeat counts chose
    let mut runs = Vec::new();
    let mut total = 0;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(bits_str) = parts.next() else {
            continue;
        };
        let repeat = match parts.next() {
            None => 1usize,
            Some(r) => {
                let r = r.strip_prefix('x').ok_or(StimError {
                    message: format!("expected xN repeat, got '{r}'"),
                    line: lineno + 1,
                })?;
                let n: usize = r.parse().map_err(|_| StimError {
                    message: format!("bad repeat count '{r}'"),
                    line: lineno + 1,
                })?;
                // bound the expansion: a hostile `x99999999999` repeat must
                // not allocate the testbench into oblivion
                if n == 0 || n > MAX_CYCLES {
                    return Err(StimError {
                        message: format!("repeat count {n} out of range (1..={MAX_CYCLES})"),
                        line: lineno + 1,
                    });
                }
                n
            }
        };
        if parts.next().is_some() {
            return Err(StimError {
                message: "trailing tokens".into(),
                line: lineno + 1,
            });
        }
        if bits_str.len() != num_inputs {
            return Err(StimError {
                message: format!("expected {num_inputs} input bits, got {}", bits_str.len()),
                line: lineno + 1,
            });
        }
        // each repeat is bounded above, their sum here: three `x1000000`
        // lines are 33 bytes of text
        total += repeat;
        if total > MAX_CYCLES {
            return Err(StimError {
                message: format!("testbench exceeds {MAX_CYCLES} cycles"),
                line: lineno + 1,
            });
        }
        runs.push((text_to_bits(bits_str, lineno + 1)?, repeat));
    }
    let mut cycles = Vec::with_capacity(total);
    for (bits, repeat) in runs {
        cycles.resize(cycles.len() + repeat, bits);
    }
    Ok(Stimulus { cycles })
}

/// Render a stimulus back to `.stim` text (run-length encoded).
pub fn format_stim(stim: &Stimulus) -> String {
    let mut s = String::new();
    let mut i = 0;
    while i < stim.cycles.len() {
        let cur = &stim.cycles[i];
        let mut run = 1;
        while i + run < stim.cycles.len() && stim.cycles[i + run] == *cur {
            run += 1;
        }
        let bits = bits_to_text(cur);
        if run > 1 {
            s.push_str(&format!("{bits} x{run}\n"));
        } else {
            s.push_str(&bits);
            s.push('\n');
        }
        i += run;
    }
    s
}

/// The per-cycle outputs of one testbench (LSB-first bit vectors).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchResult {
    pub cycles: Vec<Vec<bool>>,
}

/// A testbench in memory, stimulus or recorded outputs: one packed row per
/// cycle. Port `p` of cycle `c` is bit `p % 64` of word `p / 64` of row `c`,
/// bits past the last port zero — the row a [`Session`](crate::Session)
/// keeps its state in, so a batch of testbenches crosses into an engine's
/// planes and back by the same 64×64 block transpose
/// ([`BitTensor::gather_rows`] / [`BitTensor::scatter_rows`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleRows(
    /// `features` = cycles, `batch` = ports, tails zero.
    BitTensor,
);

impl CycleRows {
    /// `cycles` all-zero rows of `ports` bits.
    pub fn zeros(cycles: usize, ports: usize) -> Self {
        CycleRows(BitTensor::zeros(cycles, ports))
    }

    /// Pack per-cycle bit vectors (`cycles[c][p]`, what [`Stimulus`] and
    /// [`BenchResult`] hold). The widest cycle sets the port count, so a
    /// malformed testbench is never truncated.
    pub fn from_lanes(cycles: &[Vec<bool>]) -> Self {
        let ports = cycles.iter().map(Vec::len).max().unwrap_or(0);
        let mut rows = CycleRows::zeros(cycles.len(), ports);
        for (c, bits) in cycles.iter().enumerate() {
            for (word, chunk) in rows.row_mut(c).iter_mut().zip(bits.chunks(64)) {
                let packed = chunk.iter().enumerate();
                *word = packed.fold(0, |w, (i, &b)| w | (b as u64) << i);
            }
        }
        rows
    }

    /// Inverse of [`CycleRows::from_lanes`].
    pub fn lanes(&self) -> Vec<Vec<bool>> {
        let ports = self.ports();
        let unpack = |row: &[u64]| {
            let mut bits = Vec::with_capacity(ports);
            for &word in row {
                let n = (ports - bits.len()).min(64);
                bits.extend((0..n).map(|i| word >> i & 1 == 1));
            }
            bits
        };
        (0..self.num_cycles())
            .map(|c| unpack(self.row(c)))
            .collect()
    }

    /// Transpose wire planes (`ports × cycles`, the shape both codecs
    /// carry) into rows.
    pub fn from_planes(planes: &BitTensor) -> Self {
        CycleRows(planes.transpose())
    }

    /// Inverse of [`CycleRows::from_planes`], tails zero (canonical wire
    /// form).
    pub fn to_planes(&self) -> BitTensor {
        self.0.transpose()
    }

    /// Parse one MSB-first bit string per cycle, all of one width (the
    /// shape a text `sim` reply carries; no repeats or comments).
    pub fn from_text<S: AsRef<str>>(lines: &[S]) -> Result<Self, StimError> {
        let parsed = lines.iter().enumerate();
        let cycles = parsed
            .map(|(i, text)| text_to_bits(text.as_ref(), i + 1))
            .collect::<Result<Vec<_>, _>>()?;
        match cycles.iter().position(|c| c.len() != cycles[0].len()) {
            None => Ok(CycleRows::from_lanes(&cycles)),
            Some(i) => Err(StimError {
                message: format!("expected {} bits, got {}", cycles[0].len(), cycles[i].len()),
                line: i + 1,
            }),
        }
    }

    /// Inverse of [`CycleRows::from_text`].
    pub fn to_text(&self) -> Vec<String> {
        self.lanes().iter().map(|bits| bits_to_text(bits)).collect()
    }

    /// Number of cycles.
    pub fn num_cycles(&self) -> usize {
        self.0.features()
    }

    /// Port bits per cycle.
    pub fn ports(&self) -> usize {
        self.0.batch()
    }

    /// Cycle `c`'s packed port bits — empty once the testbench has ended,
    /// which [`BitTensor::gather_rows`] reads as all-zero inputs.
    pub fn row(&self, c: usize) -> &[u64] {
        if c < self.num_cycles() {
            self.0.feature_words(c)
        } else {
            &[]
        }
    }

    /// Mutable [`CycleRows::row`] — empty past the end, so
    /// [`BitTensor::scatter_rows`] records nothing there.
    pub fn row_mut(&mut self, c: usize) -> &mut [u64] {
        if c < self.num_cycles() {
            self.0.feature_words_mut(c)
        } else {
            &mut []
        }
    }
}

impl From<Stimulus> for CycleRows {
    fn from(stim: Stimulus) -> Self {
        CycleRows::from_lanes(&stim.cycles)
    }
}

/// Wire planes (`ports × cycles`), as [`CycleRows::from_planes`].
impl From<BitTensor> for CycleRows {
    fn from(planes: BitTensor) -> Self {
        CycleRows::from_planes(&planes)
    }
}

/// Run many testbenches through one batched simulation: one simulator lane
/// per testbench, one forward pass per cycle across all of them. Shorter
/// testbenches idle (inputs held at zero) until the longest one finishes;
/// their recorded outputs stop at their own length.
pub fn run_batch<T: Scalar>(
    nn: &CompiledNn<T>,
    benches: &[Stimulus],
    device: Device,
) -> Vec<BenchResult> {
    let pi = nn.num_primary_inputs;
    let lanes = benches.len();
    let max_cycles = benches.iter().map(|b| b.cycles.len()).max().unwrap_or(0);
    let mut sim = Simulator::new(nn, lanes, device);
    let mut results: Vec<BenchResult> = benches
        .iter()
        .map(|_| BenchResult { cycles: Vec::new() })
        .collect();
    for c in 0..max_cycles {
        let rows: Vec<Vec<bool>> = benches
            .iter()
            .map(|b| b.cycles.get(c).cloned().unwrap_or_else(|| vec![false; pi]))
            .collect();
        let out = sim.step(&Dense::from_lanes(&rows)).to_lanes();
        for (lane, bench) in benches.iter().enumerate() {
            if c < bench.cycles.len() {
                results[lane].cycles.push(out[lane].clone());
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use c2nn_netlist::{NetlistBuilder, WordOps};

    #[test]
    fn parse_repeats_and_comments() {
        let s = parse_stim("# header comment\n10\n01 x3\n\n00 # inline\n", 2).unwrap();
        assert_eq!(s.cycles.len(), 5);
        // "10" MSB-first → input0 = 0, input1 = 1
        assert_eq!(s.cycles[0], vec![false, true]);
        assert_eq!(s.cycles[1], vec![true, false]);
        assert_eq!(s.cycles[4], vec![false, false]);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_stim("101", 2).is_err()); // wrong width
        assert!(parse_stim("1x", 2).is_err()); // bad char
        assert!(parse_stim("10 y3", 2).is_err()); // bad repeat
        assert!(parse_stim("10 x3 junk", 2).is_err());
    }

    #[test]
    fn the_sum_of_repeats_is_bounded_like_each_repeat() {
        let at_the_bound = format!("1 x{}\n1 x{}\n", MAX_CYCLES - 1, 1);
        assert_eq!(
            parse_stim(&at_the_bound, 1).unwrap().cycles.len(),
            MAX_CYCLES
        );
        let err = parse_stim(&"1 x1000000\n".repeat(3), 1).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (2, "testbench exceeds 1000000 cycles")
        );
        // a defect after the bomb is found before anything expands
        assert_eq!(
            parse_stim("1 x1000000\n1 x1000000 junk\n", 1)
                .unwrap_err()
                .line,
            2
        );
    }

    #[test]
    fn cycle_rows_convert_faithfully_at_every_edge() {
        // 70 ports: rows cross a word; 3 cycles: planes have a ragged tail
        let text = ["1".repeat(70), "0".repeat(69) + "1", "10".repeat(35)];
        let rows = CycleRows::from_text(&text).unwrap();
        assert_eq!((rows.num_cycles(), rows.ports()), (3, 70));
        assert_eq!(rows.to_text(), text);
        let lanes = rows.lanes();
        assert!(lanes[1][0] && !lanes[1][1] && !lanes[2][0] && lanes[2][69]);
        assert_eq!(CycleRows::from_lanes(&lanes), rows);
        assert_eq!(rows.row(1), [1, 0]);
        assert!(rows.row(3).is_empty(), "past the end: nothing to drive");
        // wire planes are the transpose, canonical in both directions
        let planes = rows.to_planes();
        assert_eq!(planes, BitTensor::from_lanes(&lanes));
        assert_eq!(CycleRows::from(planes), rows);
        assert_eq!(CycleRows::from(Stimulus { cycles: lanes }), rows);

        assert_eq!(CycleRows::from_text(&["10", "1x"]).unwrap_err().line, 2);
        assert_eq!(CycleRows::from_text(&["10", "101"]).unwrap_err().line, 2);
        let none = CycleRows::from_text::<&str>(&[]).unwrap();
        assert_eq!((none.num_cycles(), none.ports()), (0, 0));
        // a malformed testbench keeps its widest cycle: nothing is truncated
        assert_eq!(
            CycleRows::from_lanes(&[vec![true], vec![false; 3]]).ports(),
            3
        );
        // rows that end exactly on a word: no partial word, no extra bit
        for ports in [64, 128] {
            let text = ["1".repeat(ports), "01".repeat(ports / 2), "0".repeat(ports)];
            let rows = CycleRows::from_text(&text).unwrap();
            assert_eq!(rows.row(1).len(), ports / 64);
            assert_eq!(rows.to_text(), text, "{ports} ports");
            let lanes = rows.lanes();
            assert!(lanes.iter().all(|bits| bits.len() == ports));
            assert!(lanes[1][0] && !lanes[1][ports - 1], "{ports} ports");
            assert_eq!(CycleRows::from_lanes(&lanes), rows);
        }
    }

    #[test]
    fn format_roundtrips_with_rle() {
        let s = parse_stim("10\n01 x4\n11\n", 2).unwrap();
        let text = format_stim(&s);
        assert_eq!(text, "10\n01 x4\n11\n");
        assert_eq!(parse_stim(&text, 2).unwrap(), s);
    }

    #[test]
    fn batched_testbenches_match_individual_runs() {
        // counter with enable: three testbenches of different lengths
        let mut b = NetlistBuilder::new("ctr");
        let clk = b.clock("clk");
        let en = b.input("en");
        let q = b.fresh_word("q", 4);
        let inc = b.inc_word(&q);
        let next = b.mux_word(en, &q, &inc);
        b.connect_ff_word(&next, &q, clk, None, None, 0, 0);
        b.output_word(&q, "q");
        let nl = b.finish().unwrap();
        let nn = compile(&nl, CompileOptions::with_l(4)).unwrap();

        let tb1 = parse_stim("1 x7\n", 1).unwrap();
        let tb2 = parse_stim("1 x2\n0 x2\n1 x2\n", 1).unwrap();
        let tb3 = parse_stim("0 x3\n", 1).unwrap();
        let batch = run_batch(
            &nn,
            &[tb1.clone(), tb2.clone(), tb3.clone()],
            Device::Serial,
        );
        // each result has its own length
        assert_eq!(batch[0].cycles.len(), 7);
        assert_eq!(batch[1].cycles.len(), 6);
        assert_eq!(batch[2].cycles.len(), 3);
        // batched == run alone
        for (i, tb) in [tb1, tb2, tb3].iter().enumerate() {
            let solo = run_batch(&nn, std::slice::from_ref(tb), Device::Serial);
            assert_eq!(batch[i], solo[0], "testbench {i}");
        }
        // and the counting is right: tb1 counts 0..6
        let vals: Vec<u32> = batch[0]
            .cycles
            .iter()
            .map(|c| c.iter().enumerate().map(|(k, &b)| (b as u32) << k).sum())
            .collect();
        assert_eq!(vals, vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
