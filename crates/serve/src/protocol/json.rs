//! The newline-delimited JSON codec (protocol v1+).

use super::types::{planes_from_words, wire_words};
use super::{Codec, ProtocolError, Request, Response, SimOutputs, StimPayload, WireFormat};
use c2nn_core::BitTensor;
use c2nn_json::{Json, ToJson};

fn str_field(v: &Json, name: &str) -> Result<String, ProtocolError> {
    c2nn_json::field::<String>(v, name).map_err(|e| ProtocolError::new(e.to_string()))
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

/// Packed planes as a JSON object: `{"features":F,"cycles":C,"words":[hex]}`
/// (words are lower-case hex strings because JSON numbers are f64-lossy
/// above 2^53).
fn planes_to_json(bt: &BitTensor) -> Json {
    Json::Obj(vec![
        ("features".into(), (bt.features() as u64).to_json()),
        ("cycles".into(), (bt.batch() as u64).to_json()),
        (
            "words".into(),
            Json::Arr(
                wire_words(bt)
                    .map(|w| Json::Str(format!("{w:x}")))
                    .collect(),
            ),
        ),
    ])
}

fn planes_from_json(v: &Json) -> Result<BitTensor, ProtocolError> {
    let field_err = |e: c2nn_json::DecodeError| ProtocolError::new(e.to_string());
    let features: u64 = c2nn_json::field(v, "features").map_err(field_err)?;
    let cycles: u64 = c2nn_json::field(v, "cycles").map_err(field_err)?;
    let words: Vec<String> = c2nn_json::field(v, "words").map_err(field_err)?;
    let data = words
        .iter()
        .map(|s| {
            u64::from_str_radix(s, 16)
                .map_err(|_| ProtocolError::new(format!("bad bit-plane word `{s}`")))
        })
        .collect::<Result<Vec<u64>, _>>()?;
    planes_from_words(features as usize, cycles as usize, data)
}

/// If `model` is canonical single-line JSON (compact re-serialization is
/// byte-identical), return the parsed document so the `load` frame can
/// embed it as a raw subtree instead of re-escaping it as a string.
fn canonical_model_doc(model: &[u8]) -> Option<Json> {
    let text = std::str::from_utf8(model).ok()?;
    let doc = c2nn_json::parse(text).ok()?;
    if doc.to_string_compact() == text {
        Some(doc)
    } else {
        None
    }
}

impl Request {
    /// Serialize to a single-line JSON frame body (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Request::Ping => Json::Obj(vec![("op".into(), "ping".to_json())]),
            Request::Load {
                name,
                model,
                deadline_ms,
            } => {
                let mut fields = vec![
                    ("op".into(), "load".to_json()),
                    ("name".into(), name.to_json()),
                ];
                // frame the model document once (raw subtree) when we can;
                // fall back to the pre-v4 escaped-string field otherwise
                match canonical_model_doc(model) {
                    Some(doc) => fields.push(("model".into(), doc)),
                    None => fields.push((
                        "model_json".into(),
                        String::from_utf8_lossy(model).into_owned().to_json(),
                    )),
                }
                if let Some(d) = deadline_ms {
                    fields.push(("deadline_ms".into(), d.to_json()));
                }
                Json::Obj(fields)
            }
            Request::Sim {
                model,
                stim,
                deadline_ms,
            } => {
                let mut fields = vec![
                    ("op".into(), "sim".to_json()),
                    ("model".into(), model.to_json()),
                ];
                match stim {
                    StimPayload::Text(t) => fields.push(("stim".into(), t.to_json())),
                    StimPayload::Packed(bt) => {
                        fields.push(("stim_packed".into(), planes_to_json(bt)))
                    }
                }
                if let Some(d) = deadline_ms {
                    fields.push(("deadline_ms".into(), d.to_json()));
                }
                Json::Obj(fields)
            }
            Request::Stats => Json::Obj(vec![("op".into(), "stats".to_json())]),
            Request::Shutdown => Json::Obj(vec![("op".into(), "shutdown".to_json())]),
        };
        v.to_string_compact()
    }

    /// Decode a JSON frame body. Never panics.
    pub fn decode(text: &str) -> Result<Request, ProtocolError> {
        let v = c2nn_json::parse(text).map_err(|e| ProtocolError::new(e.to_string()))?;
        let field_err = |e: c2nn_json::DecodeError| ProtocolError::new(e.to_string());
        let op = str_field(&v, "op")?;
        match op.as_str() {
            "ping" => Ok(Request::Ping),
            "load" => {
                let model = match v.get("model") {
                    // v4 once-framed document: re-serialize the subtree
                    Some(doc) => doc.to_string_compact().into_bytes(),
                    None => str_field(&v, "model_json")?.into_bytes(),
                };
                Ok(Request::Load {
                    name: str_field(&v, "name")?,
                    model,
                    deadline_ms: c2nn_json::opt_field(&v, "deadline_ms").map_err(field_err)?,
                })
            }
            "sim" => {
                let stim = match v.get("stim_packed") {
                    Some(p) => StimPayload::Packed(planes_from_json(p)?),
                    None => StimPayload::Text(str_field(&v, "stim")?),
                };
                Ok(Request::Sim {
                    model: str_field(&v, "model")?,
                    stim,
                    deadline_ms: c2nn_json::opt_field(&v, "deadline_ms").map_err(field_err)?,
                })
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::new(format!("unknown op `{other}`"))),
        }
    }
}

impl Response {
    /// Serialize to a single-line JSON frame body (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Response::Pong { version } => Json::Obj(vec![
                ("ok".into(), true.to_json()),
                ("op".into(), "pong".to_json()),
                ("version".into(), version.to_json()),
            ]),
            Response::Loaded { name, bytes } => Json::Obj(vec![
                ("ok".into(), true.to_json()),
                ("op".into(), "loaded".to_json()),
                ("name".into(), name.to_json()),
                ("bytes".into(), bytes.to_json()),
            ]),
            Response::SimResult { outputs, cycles } => {
                let mut fields = vec![
                    ("ok".into(), true.to_json()),
                    ("op".into(), "sim".to_json()),
                ];
                match outputs {
                    SimOutputs::Text(v) => fields.push(("outputs".into(), v.to_json())),
                    SimOutputs::Packed(bt) => {
                        fields.push(("outputs_packed".into(), planes_to_json(bt)))
                    }
                }
                fields.push(("cycles".into(), cycles.to_json()));
                Json::Obj(fields)
            }
            Response::Stats { models, server } => Json::Obj(vec![
                ("ok".into(), true.to_json()),
                ("op".into(), "stats".to_json()),
                ("models".into(), models.to_json()),
                ("server".into(), server.to_json()),
            ]),
            Response::ShuttingDown => Json::Obj(vec![
                ("ok".into(), true.to_json()),
                ("op".into(), "shutdown".to_json()),
            ]),
            Response::Overloaded { retry_after_ms } => Json::Obj(vec![
                ("ok".into(), false.to_json()),
                ("kind".into(), "overloaded".to_json()),
                ("retry_after_ms".into(), retry_after_ms.to_json()),
            ]),
            Response::DeadlineExceeded => Json::Obj(vec![
                ("ok".into(), false.to_json()),
                ("kind".into(), "deadline_exceeded".to_json()),
            ]),
            Response::Error { message } => Json::Obj(vec![
                ("ok".into(), false.to_json()),
                ("error".into(), message.to_json()),
            ]),
        };
        v.to_string_compact()
    }

    /// Decode a JSON frame body. Never panics.
    pub fn decode(text: &str) -> Result<Response, ProtocolError> {
        let v = c2nn_json::parse(text).map_err(|e| ProtocolError::new(e.to_string()))?;
        let ok = v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| ProtocolError::new("missing `ok` field"))?;
        let field_err = |e: c2nn_json::DecodeError| ProtocolError::new(e.to_string());
        if !ok {
            // typed rejections carry a `kind`; untyped failures an `error`
            return match c2nn_json::opt_field::<String>(&v, "kind")
                .map_err(field_err)?
                .as_deref()
            {
                Some("overloaded") => Ok(Response::Overloaded {
                    retry_after_ms: c2nn_json::field(&v, "retry_after_ms").map_err(field_err)?,
                }),
                Some("deadline_exceeded") => Ok(Response::DeadlineExceeded),
                Some(other) => Err(ProtocolError::new(format!(
                    "unknown failure kind `{other}`"
                ))),
                None => Ok(Response::Error {
                    message: str_field(&v, "error")?,
                }),
            };
        }
        let op = str_field(&v, "op")?;
        match op.as_str() {
            "pong" => Ok(Response::Pong {
                version: c2nn_json::field(&v, "version").map_err(field_err)?,
            }),
            "loaded" => Ok(Response::Loaded {
                name: str_field(&v, "name")?,
                bytes: c2nn_json::field(&v, "bytes").map_err(field_err)?,
            }),
            "sim" => {
                let outputs = match v.get("outputs_packed") {
                    Some(p) => SimOutputs::Packed(planes_from_json(p)?),
                    None => SimOutputs::Text(c2nn_json::field(&v, "outputs").map_err(field_err)?),
                };
                Ok(Response::SimResult {
                    outputs,
                    cycles: c2nn_json::field(&v, "cycles").map_err(field_err)?,
                })
            }
            "stats" => Ok(Response::Stats {
                models: c2nn_json::field(&v, "models").map_err(field_err)?,
                // absent from pre-v2 servers → defaults, so old captures decode
                server: c2nn_json::opt_field(&v, "server")
                    .map_err(field_err)?
                    .unwrap_or_default(),
            }),
            "shutdown" => Ok(Response::ShuttingDown),
            other => Err(ProtocolError::new(format!("unknown response op `{other}`"))),
        }
    }
}

/// The newline-delimited JSON codec (protocol v1+).
pub struct JsonCodec;

fn frame_utf8(frame: &[u8]) -> Result<&str, ProtocolError> {
    std::str::from_utf8(frame).map_err(|_| ProtocolError::new("frame is not valid UTF-8"))
}

impl Codec for JsonCodec {
    fn name(&self) -> &'static str {
        WireFormat::Json.name()
    }

    fn wire(&self) -> WireFormat {
        WireFormat::Json
    }

    fn encode_request(&self, req: &Request) -> Vec<u8> {
        let mut out = req.encode().into_bytes();
        out.push(b'\n');
        out
    }

    fn encode_response(&self, resp: &Response) -> Vec<u8> {
        let mut out = resp.encode().into_bytes();
        out.push(b'\n');
        out
    }

    fn decode_request(&self, frame: &[u8]) -> Result<Request, ProtocolError> {
        Request::decode(frame_utf8(frame)?)
    }

    fn decode_response(&self, frame: &[u8]) -> Result<Response, ProtocolError> {
        Response::decode(frame_utf8(frame)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ServerStatsReport;

    #[test]
    fn encoded_frames_are_single_lines() {
        let req = Request::Sim {
            model: "with\nnewline".into(),
            stim: StimPayload::Text("10\n01 x3\n# comment\n".into()),
            deadline_ms: Some(250),
        };
        let body = req.encode();
        assert!(!body.contains('\n'), "{body}");
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    #[test]
    fn deadline_field_is_optional_on_the_wire() {
        // a pre-v2 client frame without deadline_ms still decodes
        let body = r#"{"op":"sim","model":"m","stim":"1\n"}"#;
        assert_eq!(
            Request::decode(body).unwrap(),
            Request::Sim {
                model: "m".into(),
                stim: StimPayload::Text("1\n".into()),
                deadline_ms: None
            }
        );
    }

    #[test]
    fn pre_v2_stats_without_server_block_decodes() {
        let body = r#"{"ok":true,"op":"stats","models":[]}"#;
        match Response::decode(body).unwrap() {
            Response::Stats { models, server } => {
                assert!(models.is_empty());
                assert_eq!(server, ServerStatsReport::default());
            }
            other => panic!("wanted stats, got {other:?}"),
        }
    }

    #[test]
    fn pre_v4_load_with_escaped_model_string_decodes() {
        let body = r#"{"op":"load","name":"m","model_json":"{\"a\":1}"}"#;
        assert_eq!(
            Request::decode(body).unwrap(),
            Request::Load {
                name: "m".into(),
                model: br#"{"a":1}"#.to_vec(),
                deadline_ms: None,
            }
        );
    }

    #[test]
    fn canonical_model_is_framed_once_not_re_escaped() {
        let model = br#"{"format":"c2nn-model","layers":[1,2,3]}"#.to_vec();
        let req = Request::Load {
            name: "m".into(),
            model: model.clone(),
            deadline_ms: None,
        };
        let body = req.encode();
        // the document rides as a raw subtree: no escaped quotes
        assert!(body.contains(r#""model":{"format":"c2nn-model""#), "{body}");
        assert!(!body.contains(r#"\""#), "{body}");
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    #[test]
    fn packed_payloads_roundtrip_identically_on_the_json_wire() {
        let mut bt = BitTensor::zeros(3, 130); // ragged tail: 130 % 64 != 0
        bt.set_bit(0, 0, true);
        bt.set_bit(2, 129, true);
        bt.set_bit(1, 64, true);
        let req = Request::Sim {
            model: "m".into(),
            stim: StimPayload::Packed(bt.clone()),
            deadline_ms: None,
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        let resp = Response::SimResult {
            outputs: SimOutputs::Packed(bt),
            cycles: 130,
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }
}
