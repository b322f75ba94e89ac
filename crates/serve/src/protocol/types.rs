//! Message and report types, wire constants and limits, and the bit-plane
//! conversions both codecs share.

use super::{BinaryCodec, Codec, JsonCodec};
use c2nn_core::{parse_stim, BitTensor, CycleRows, Stimulus};
use std::fmt;
use std::time::Duration;

/// Protocol revision spoken by this build. v2 added optional request
/// deadlines and the typed overload replies (`overloaded`,
/// `deadline_exceeded`) plus the server-level stats block. v3 added
/// execution-backend labels: `backend`/`auto_selected` on every model
/// stats report and the per-backend `backends` rollup in the server
/// block. v4 added the length-prefixed binary wire (magic `0xC2`),
/// per-connection codec sniffing, packed bit-plane stimulus/result
/// payloads on both codecs, the once-framed `model` document in JSON
/// `load` frames, and the per-codec frame counters in the server stats
/// block.
pub const PROTOCOL_VERSION: u32 = 4;

/// Hard upper bound on one frame's length in bytes (models ship inline in
/// `load` frames, so this is generous). This is the default for
/// [`FrameLimits::max_frame`].
pub const MAX_FRAME: usize = 64 << 20;

/// First byte of every binary frame. Deliberately not valid leading UTF-8
/// for a JSON document and not `G` (the HTTP metrics sniff), so one byte
/// settles the codec.
pub const BINARY_MAGIC: u8 = 0xC2;

/// Binary frame-format revision carried in every binary frame header.
pub const BINARY_WIRE_VERSION: u8 = 1;

/// Binary frame header length: magic, version, kind, flags, payload_len.
pub(super) const HEADER_LEN: usize = 8;

/// Framing limits shared by every read path (the client's
/// [`FrameReader`](super::FrameReader) and the server's connection core),
/// so the bounds are enforced in exactly one place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameLimits {
    /// Hard upper bound on one frame's length in bytes.
    pub max_frame: usize,
    /// How long a drain waits for a connection's partial frame to
    /// complete before closing the line anyway.
    pub drain_window: Duration,
}

impl Default for FrameLimits {
    fn default() -> Self {
        FrameLimits {
            max_frame: MAX_FRAME,
            drain_window: Duration::from_millis(250),
        }
    }
}

/// Which codec a frame (or connection) speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// Newline-delimited JSON documents (protocol v1+).
    Json,
    /// Length-prefixed binary frames with bit-plane payloads (v4+).
    Binary,
}

impl WireFormat {
    /// Classify a frame by its first byte: [`BINARY_MAGIC`] means binary,
    /// anything else is JSON (whose frames start with `{`).
    pub fn sniff(first_byte: u8) -> WireFormat {
        if first_byte == BINARY_MAGIC {
            WireFormat::Binary
        } else {
            WireFormat::Json
        }
    }

    /// Stable lower-case label (`"json"` / `"binary"`) used by stats and
    /// the Prometheus `codec` label.
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Json => "json",
            WireFormat::Binary => "binary",
        }
    }

    /// The codec implementation for this wire format.
    pub fn codec(self) -> &'static dyn Codec {
        match self {
            WireFormat::Json => &JsonCodec,
            WireFormat::Binary => &BinaryCodec,
        }
    }
}

impl fmt::Display for WireFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Default for WireFormat {
    /// JSON: what every pre-v4 peer speaks.
    fn default() -> Self {
        WireFormat::Json
    }
}

impl std::str::FromStr for WireFormat {
    type Err = String;

    /// Parse a `--wire` flag value: `json` or `binary`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "json" => Ok(WireFormat::Json),
            "binary" | "bin" => Ok(WireFormat::Binary),
            other => Err(format!("unknown wire format `{other}` (json|binary)")),
        }
    }
}

/// A `sim` request's stimulus, in either wire shape.
#[derive(Clone, Debug, PartialEq)]
pub enum StimPayload {
    /// `.stim` text (one MSB-first input line per cycle, `xN` repeats,
    /// `#` comments) — the only shape pre-v4 clients can send.
    Text(String),
    /// Pre-packed bit planes: feature `f` of cycle `c` is bit `c % 64` of
    /// word `f * W + c / 64` (`features` = primary inputs, `batch` =
    /// cycles). Ragged tail bits must be zero — both codecs mask them on
    /// encode and reject nonzero tails on decode, so the wire form is
    /// canonical and round-trips are identity.
    Packed(BitTensor),
}

impl From<&str> for StimPayload {
    fn from(text: &str) -> Self {
        StimPayload::Text(text.to_owned())
    }
}

impl From<String> for StimPayload {
    fn from(text: String) -> Self {
        StimPayload::Text(text)
    }
}

impl From<BitTensor> for StimPayload {
    fn from(planes: BitTensor) -> Self {
        StimPayload::Packed(planes)
    }
}

/// A `sim` response's per-cycle primary outputs, in either wire shape.
#[derive(Clone, Debug, PartialEq)]
pub enum SimOutputs {
    /// One MSB-first output bit string per cycle (the pre-v4 shape).
    Text(Vec<String>),
    /// Packed bit planes, same layout rules as [`StimPayload::Packed`]
    /// (`features` = primary outputs, `batch` = cycles).
    Packed(BitTensor),
}

impl SimOutputs {
    /// Number of simulated cycles these outputs cover.
    pub fn cycles(&self) -> usize {
        match self {
            SimOutputs::Text(v) => v.len(),
            SimOutputs::Packed(bt) => bt.batch(),
        }
    }

    /// Per-cycle MSB-first output strings, converting packed planes if
    /// necessary (this is the client-side presentation path; servers never
    /// call it).
    pub fn to_strings(&self) -> Vec<String> {
        match self {
            SimOutputs::Text(v) => v.clone(),
            SimOutputs::Packed(bt) => CycleRows::from_planes(bt).to_text(),
        }
    }
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Load a compiled model document into the registry under `name`.
    Load {
        /// registry key for subsequent `sim` requests
        name: String,
        /// the full `c2nn-model` document as opaque bytes (UTF-8 JSON in
        /// practice; the binary codec carries it verbatim, the JSON codec
        /// frames it once as a raw subtree instead of re-escaping it as a
        /// string when the bytes are canonical single-line JSON)
        model: Vec<u8>,
        /// optional deadline, milliseconds from server receipt; past it the
        /// server replies `DeadlineExceeded` instead of doing the work
        deadline_ms: Option<u64>,
    },
    /// Run one testbench against model `model`.
    Sim {
        /// registry key of a previously loaded model
        model: String,
        /// the testbench, as `.stim` text or pre-packed bit planes
        stim: StimPayload,
        /// optional deadline, milliseconds from server receipt; lanes whose
        /// deadline passes before batch dispatch are shed with a typed
        /// `DeadlineExceeded` reply
        deadline_ms: Option<u64>,
    },
    /// Fetch per-model serving counters.
    Stats,
    /// Stop accepting connections and shut the server down.
    Shutdown,
}

/// Per-model serving counters reported by [`Response::Stats`].
#[derive(Clone, Debug, PartialEq)]
pub struct ModelStatsReport {
    /// registry key
    pub name: String,
    /// execution backend serving this model's batches (registry name,
    /// e.g. `pooled-csr`, `bitplane`)
    pub backend: String,
    /// whether the cost model picked the backend
    /// (`--backend auto`) rather than the operator naming it
    pub auto_selected: bool,
    /// model size in bytes (registry accounting)
    pub bytes: u64,
    /// total `sim` requests accepted for this model
    pub requests: u64,
    /// batched simulator runs executed
    pub batches: u64,
    /// total lanes across all batches (== requests that reached a batch)
    pub lanes: u64,
    /// `lanes / batches` — the coalescing win; 1.0 means no coalescing
    pub mean_occupancy: f64,
    /// requests currently queued or in flight
    pub queue_depth: u64,
    /// p50 request latency (enqueue → reply), microseconds (bucket upper
    /// bound)
    pub p50_us: u64,
    /// p99 request latency, microseconds (bucket upper bound)
    pub p99_us: u64,
    /// lanes shed with `DeadlineExceeded` before batch dispatch
    pub deadline_exceeded: u64,
}

c2nn_json::json_struct!(ModelStatsReport {
    name,
    backend,
    auto_selected,
    bytes,
    requests,
    batches,
    lanes,
    mean_occupancy,
    queue_depth,
    p50_us,
    p99_us,
    deadline_exceeded,
});

/// Per-backend selection rollup inside [`ServerStatsReport`]: how many
/// models each execution backend is serving, how many of those the cost
/// model chose, and the request volume they carried.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct BackendSelectionReport {
    /// backend registry name
    pub backend: String,
    /// models currently served on this backend
    pub models: u64,
    /// of those, models the cost model selected (`--backend auto`)
    pub auto_selected: u64,
    /// total `sim` requests accepted across those models
    pub requests: u64,
}

c2nn_json::json_struct!(BackendSelectionReport {
    backend,
    models,
    auto_selected,
    requests,
});

/// Server-wide overload/health counters reported by [`Response::Stats`]
/// beside the per-model reports.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ServerStatsReport {
    /// `sim` requests currently between admission and reply.
    pub inflight: u64,
    /// configured global in-flight budget
    pub max_inflight: u64,
    /// current pressure level: `"nominal"`, `"elevated"`, or `"saturated"`
    pub pressure: String,
    /// is the server draining (refusing all new work)?
    pub draining: bool,
    /// `sim` requests refused with `Overloaded`
    pub rejected_sims: u64,
    /// `load` requests refused with `Overloaded`
    pub rejected_loads: u64,
    /// requests refused with `ShuttingDown` during drain
    pub rejected_draining: u64,
    /// worker-pool epochs that lost a participant to a panic
    pub pool_poisoned_epochs: u64,
    /// chaos injections performed (0 unless `--chaos` armed a schedule)
    pub chaos_injected: u64,
    /// frames carried over the JSON wire (both directions) since start
    pub wire_json_frames: u64,
    /// frames carried over the binary wire (both directions) since start
    pub wire_binary_frames: u64,
    /// per-backend selection rollup over the currently served models
    pub backends: Vec<BackendSelectionReport>,
}

c2nn_json::json_struct!(ServerStatsReport {
    inflight,
    max_inflight,
    pressure,
    draining,
    rejected_sims,
    rejected_loads,
    rejected_draining,
    pool_poisoned_epochs,
    chaos_injected,
    wire_json_frames,
    wire_binary_frames,
    backends,
});

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`]; carries the protocol revision.
    Pong {
        /// [`PROTOCOL_VERSION`] of the server
        version: u32,
    },
    /// Model admitted to the registry.
    Loaded {
        /// registry key
        name: String,
        /// model size counted against the registry byte budget
        bytes: u64,
    },
    /// Testbench results, per-cycle primary outputs.
    SimResult {
        /// per-cycle primary outputs, as MSB-first strings or packed bit
        /// planes (servers answer in the shape the request arrived in)
        outputs: SimOutputs,
        /// cycles simulated (== `outputs.cycles()`)
        cycles: u64,
    },
    /// Reply to [`Request::Stats`].
    Stats {
        /// one report per registered model
        models: Vec<ModelStatsReport>,
        /// server-wide overload/health counters
        server: ServerStatsReport,
    },
    /// Server acknowledges [`Request::Shutdown`], or refuses a new request
    /// because it is draining. Either way: no new work, in-flight work
    /// completes, the connection closes cleanly.
    ShuttingDown,
    /// Admission control refused the request: the in-flight budget is
    /// exhausted (or, for `load`s, pressure is elevated). Retry after the
    /// hinted delay; the connection stays usable.
    Overloaded {
        /// suggested client backoff in milliseconds (always `1..=1000`)
        retry_after_ms: u64,
    },
    /// The request's `deadline_ms` passed before the server could do the
    /// work; the lane was shed without simulating. The connection stays
    /// usable.
    DeadlineExceeded,
    /// The request failed; the connection stays usable.
    Error {
        /// human-readable diagnostic
        message: String,
    },
}

/// Why a frame could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// What went wrong.
    pub message: String,
}

impl ProtocolError {
    pub(super) fn new(message: impl Into<String>) -> Self {
        ProtocolError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

// ---------------------------------------------------------------------------
// Bit-plane conversions
// ---------------------------------------------------------------------------

/// Pack `.stim` text into wire bit planes (`features` = primary inputs,
/// `batch` = cycles), inferring the input width from the first data line.
/// This is the client-side packing path for `--wire binary`.
pub fn stim_text_to_planes(text: &str) -> Result<BitTensor, ProtocolError> {
    let width = text
        .lines()
        .filter_map(|raw| {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                None
            } else {
                line.split_whitespace().next().map(str::len)
            }
        })
        .next()
        .ok_or_else(|| ProtocolError::new("stimulus has no data lines"))?;
    let stim = parse_stim(text, width).map_err(|e| ProtocolError::new(e.to_string()))?;
    Ok(stim_to_planes(&stim))
}

/// Pack a parsed stimulus into wire bit planes: feature `f` of cycle `c`
/// is `stim.cycles[c][f]` (input 0 is the LSB of each `.stim` line).
pub fn stim_to_planes(stim: &Stimulus) -> BitTensor {
    BitTensor::from_lanes(&stim.cycles)
}

/// Validate decoded planes: word count must match the declared shape and
/// ragged tail bits must be zero (the canonical wire form, so
/// encode/decode round-trips are identity).
pub(super) fn planes_from_words(
    features: usize,
    cycles: usize,
    data: Vec<u64>,
) -> Result<BitTensor, ProtocolError> {
    let bt = BitTensor::from_words(features, cycles, data).ok_or_else(|| {
        ProtocolError::new("bit-plane word count does not match features x ceil(cycles/64)")
    })?;
    let w = bt.words_per_feature();
    let tail = bt.tail_mask();
    if w > 0 && tail != !0 {
        for f in 0..bt.features() {
            if bt.feature_words(f)[w - 1] & !tail != 0 {
                return Err(ProtocolError::new("nonzero bits in ragged bit-plane tail"));
            }
        }
    }
    Ok(bt)
}

/// Iterate a tensor's words in wire order with the ragged tail of each
/// plane masked to zero (encoders call this so the wire form is always
/// canonical).
pub(super) fn wire_words(bt: &BitTensor) -> impl Iterator<Item = u64> + '_ {
    let w = bt.words_per_feature();
    let tail = bt.tail_mask();
    bt.data().iter().enumerate().map(move |(i, &word)| {
        if w > 0 && (i + 1) % w == 0 {
            word & tail
        } else {
            word
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stim_text_and_planes_convert_faithfully() {
        let text = "10\n01 x2\n# note\n11\n";
        let planes = stim_text_to_planes(text).unwrap();
        assert_eq!(planes.features(), 2);
        assert_eq!(planes.batch(), 4);
        let stim = parse_stim(text, 2).unwrap();
        assert_eq!(planes.to_lanes(), stim.cycles);
        // MSB-first rendering matches the input reading order
        assert_eq!(
            SimOutputs::Packed(planes).to_strings(),
            vec!["10", "01", "01", "11"]
        );
    }
}
