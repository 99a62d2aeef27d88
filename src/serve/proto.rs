//! Wire protocol for `pgvn serve`: length-prefixed framing and the
//! request/response JSON schema.
//!
//! A frame is a 4-byte little-endian `u32` payload length followed by
//! that many bytes of UTF-8 JSON, in both directions. Framing errors
//! are split into recoverable ones (an oversized frame is drained and
//! rejected with a structured error response — the connection loop
//! keeps going) and terminal ones (EOF in the middle of a frame means
//! the peer is gone, so the connection closes after a best-effort
//! error response). See `docs/SERVE.md` for the full spec.

use pgvn_core::FaultPlan;
use pgvn_telemetry::json::{parse, JsonValue, JsonWriter};
use std::io::{self, Read, Write};

/// What [`read_frame`] produced.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean end of stream at a frame boundary.
    Eof,
    /// The stop predicate fired while waiting for bytes (server drain).
    Stopped,
}

/// Why [`read_frame`] failed.
#[derive(Debug)]
pub enum FrameError {
    /// End of stream in the middle of a frame — the peer disconnected
    /// mid-request. Terminal for the connection.
    Truncated {
        /// Bytes received of the unfinished section.
        got: usize,
        /// Bytes the section needed.
        want: usize,
    },
    /// The declared payload length exceeds the server ceiling. The
    /// payload has been drained, so the connection stays usable.
    TooLarge {
        /// The declared payload length.
        len: u32,
        /// The server's frame-size ceiling.
        max: u32,
    },
    /// An I/O error other than timeout/interrupt. Terminal.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { got, want } => {
                write!(f, "truncated frame: got {got} of {want} bytes before EOF")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte ceiling")
            }
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

/// How one fixed-size read ended.
enum Progress {
    Done,
    Eof { got: usize },
    Stopped,
}

/// Reads exactly `buf.len()` bytes, tolerating read timeouts (polling
/// `should_stop` on each) and short reads.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    should_stop: &mut dyn FnMut() -> bool,
) -> Result<Progress, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(Progress::Eof { got }),
            Ok(n) => got += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if should_stop() {
                    return Ok(Progress::Stopped);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Progress::Done)
}

/// Reads one length-prefixed frame.
///
/// `should_stop` is polled whenever the underlying read times out
/// (socket connections set a short read timeout so a draining server
/// stays responsive); blocking readers never poll it. An oversized
/// frame is drained to keep the stream aligned and reported as
/// [`FrameError::TooLarge`] — the caller answers with a structured
/// error and keeps reading.
pub fn read_frame(
    r: &mut impl Read,
    max_len: u32,
    should_stop: &mut dyn FnMut() -> bool,
) -> Result<FrameEvent, FrameError> {
    let mut prefix = [0u8; 4];
    match read_full(r, &mut prefix, should_stop)? {
        Progress::Done => {}
        Progress::Eof { got: 0 } => return Ok(FrameEvent::Eof),
        Progress::Eof { got } => return Err(FrameError::Truncated { got, want: 4 }),
        Progress::Stopped => return Ok(FrameEvent::Stopped),
    }
    let len = u32::from_le_bytes(prefix);
    if len > max_len {
        // Drain the payload in chunks so the next frame starts aligned.
        let mut remaining = len as usize;
        let mut chunk = [0u8; 4096];
        while remaining > 0 {
            let take = remaining.min(chunk.len());
            match read_full(r, &mut chunk[..take], should_stop)? {
                Progress::Done => remaining -= take,
                Progress::Eof { got } => {
                    return Err(FrameError::Truncated {
                        got: len as usize - remaining + got,
                        want: len as usize,
                    })
                }
                Progress::Stopped => return Ok(FrameEvent::Stopped),
            }
        }
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    let mut payload = vec![0u8; len as usize];
    match read_full(r, &mut payload, should_stop)? {
        Progress::Done => Ok(FrameEvent::Frame(payload)),
        Progress::Eof { got } => Err(FrameError::Truncated { got, want: len as usize }),
        Progress::Stopped => Ok(FrameEvent::Stopped),
    }
}

/// Writes one length-prefixed frame and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large for u32"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// The request verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOp {
    /// Optimize one routine (the default when `op` is absent).
    Optimize,
    /// Liveness probe; answered inline with `pong`.
    Ping,
    /// Server statistics: queue depth, counters, per-worker context
    /// capacities. Answered inline, never queued behind work.
    Stats,
    /// Graceful drain: stop admitting, finish in-flight work, exit.
    Shutdown,
}

/// One parsed request. Budgets are client *suggestions*; the server
/// clamps them against its [`ServeLimits`] ceilings, and checks the
/// pass sequence against its cap, before any work runs.
///
/// [`ServeLimits`]: crate::serve::ServeLimits
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response. Responses
    /// may arrive out of request order (workers finish independently).
    pub id: u64,
    /// The verb.
    pub op: RequestOp,
    /// Display name for the routine record.
    pub name: String,
    /// Routine source text (mutually exclusive with `gen_seed`).
    pub source: Option<String>,
    /// Generate the routine from the workload generator with this seed
    /// instead of shipping source text.
    pub gen_seed: Option<u64>,
    /// Config preset name (`full|extended|click|sccp|awz|basic`).
    pub config: Option<String>,
    /// Mode override (`optimistic|balanced|pessimistic`).
    pub mode: Option<String>,
    /// Variant override (`practical|complete`).
    pub variant: Option<String>,
    /// Pass-sequence override (e.g. `"gvn,pre,gvn"`). Validated at
    /// request resolution; a malformed spec, or one over the server's
    /// cap, is a `protocol` error.
    pub passes: Option<String>,
    /// Pass-ceiling override (clamped).
    pub budget_passes: Option<u32>,
    /// Deadline override in milliseconds (clamped). Also bounds the
    /// time a request may wait in the admission queue.
    pub budget_ms: Option<u64>,
    /// Touched-work quota override (clamped).
    pub budget_touches: Option<u64>,
    /// Deterministic fault injection (`kind@site`, seed and stickiness
    /// already applied) — the fault-matrix hook.
    pub inject: Option<FaultPlan>,
}

/// Reads an optional unsigned field, rejecting wrong types and values
/// out of `T`'s range (never truncating them).
fn opt_num<T: TryFrom<u64>>(obj: &JsonValue, key: &str) -> Result<Option<T>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .and_then(|n| T::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a number in range")),
    }
}

/// Reads an optional string field, rejecting wrong types.
fn opt_str(obj: &JsonValue, key: &str) -> Result<Option<String>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("field {key:?} must be a string")),
    }
}

/// Parses one frame payload into a [`Request`]. Every failure is the
/// id to answer with and a one-line diagnostic, destined for a
/// `protocol` error response; the connection always survives a parse
/// failure. The id is read first, so every refusal of a JSON object
/// echoes it; a payload that is not one (or whose `id` is malformed)
/// is answered with id 0.
pub fn parse_request(payload: &[u8]) -> Result<Request, (u64, String)> {
    let text =
        std::str::from_utf8(payload).map_err(|e| (0, format!("payload is not UTF-8: {e}")))?;
    let obj = parse(text).map_err(|e| (0, format!("payload is not valid JSON: {e}")))?;
    if !matches!(obj, JsonValue::Obj(_)) {
        return Err((0, "payload must be a JSON object".to_string()));
    }
    let id = opt_num(&obj, "id").map_err(|e| (0, e))?.unwrap_or(0);
    request_fields(&obj, id).map_err(|e| (id, e))
}

/// The fields of a request object after its `id`.
fn request_fields(obj: &JsonValue, id: u64) -> Result<Request, String> {
    if obj.get("rounds").is_some() {
        return Err("field \"rounds\" was replaced by \"passes\", e.g. \"gvn,pre,gvn\"".into());
    }
    let op = match opt_str(obj, "op")?.as_deref() {
        None | Some("optimize") => RequestOp::Optimize,
        Some("ping") => RequestOp::Ping,
        Some("stats") => RequestOp::Stats,
        Some("shutdown") => RequestOp::Shutdown,
        Some(other) => {
            return Err(format!("unknown op {other:?} (expected optimize|ping|stats|shutdown)"))
        }
    };
    let source = opt_str(obj, "routine")?;
    let gen_seed = opt_num(obj, "gen_seed")?;
    if op == RequestOp::Optimize {
        match (&source, gen_seed) {
            (Some(_), Some(_)) => {
                return Err("request has both \"routine\" and \"gen_seed\"; send exactly one".into())
            }
            (None, None) => {
                return Err("optimize request needs \"routine\" text or a \"gen_seed\"".into())
            }
            _ => {}
        }
    }
    let name = opt_str(obj, "name")?.unwrap_or_else(|| format!("req_{id}"));
    let inject = match opt_str(obj, "inject")? {
        None => None,
        Some(spec) => {
            let plan = FaultPlan::parse(&spec).ok_or_else(|| {
                format!(
                    "inject {spec:?}: expected kind@site with kind one of \
                     panic|invariant|budget|verifier-reject and site one of \
                     eval|edges|phipred|rewrite"
                )
            })?;
            let plan = plan.seeded(opt_num(obj, "inject_seed")?.unwrap_or(0));
            let sticky = matches!(obj.get("inject_sticky"), Some(v) if v.as_bool() == Some(true));
            Some(if sticky { plan.sticky() } else { plan })
        }
    };
    Ok(Request {
        id,
        op,
        name,
        source,
        gen_seed,
        config: opt_str(obj, "config")?,
        mode: opt_str(obj, "mode")?,
        variant: opt_str(obj, "variant")?,
        passes: opt_str(obj, "passes")?,
        budget_passes: opt_num(obj, "budget_passes")?,
        budget_ms: opt_num(obj, "budget_ms")?,
        budget_touches: opt_num(obj, "budget_touches")?,
        inject,
    })
}

/// Renders the shared response prefix.
fn response(id: u64, reply: &str) -> JsonWriter {
    let mut w = JsonWriter::object();
    w.field_str("event", "serve_response").field_u64("id", id).field_str("reply", reply);
    w
}

/// A structured error response. `kind` is one of the taxonomy names
/// documented in `docs/SERVE.md`: `protocol`, `over_limit`,
/// `draining`, `internal`.
pub fn error_response(id: u64, kind: &str, detail: &str) -> String {
    let mut w = response(id, "error");
    w.field_str("error", kind).field_str("detail", detail);
    w.finish()
}

/// A successful routine record. The record is rendered as the **last**
/// field so [`extract_record`] can recover its exact bytes — the
/// serve≡batch determinism contract compares these byte-for-byte
/// against `pgvn batch --jobs 1` output.
pub fn record_response(id: u64, record_json: &str) -> String {
    let mut w = response(id, "record");
    w.field_raw("record", record_json);
    w.finish()
}

/// The admission-queue-full response (backpressure made explicit).
pub fn shed_response(id: u64, queue_capacity: usize) -> String {
    let mut w = response(id, "shed");
    w.field_u64("queue_capacity", queue_capacity as u64);
    w.finish()
}

/// The queue-wait-deadline-exceeded response: the request was admitted
/// but its own `budget_ms` elapsed before a worker picked it up.
pub fn expired_response(id: u64, waited_ms: u64) -> String {
    let mut w = response(id, "expired");
    w.field_u64("waited_ms", waited_ms);
    w.finish()
}

/// The `ping` reply.
pub fn pong_response(id: u64) -> String {
    response(id, "pong").finish()
}

/// The `shutdown` acknowledgement (sent before the drain begins).
pub fn shutting_down_response(id: u64) -> String {
    response(id, "shutting_down").finish()
}

/// Slices the embedded routine record back out of a `reply:"record"`
/// response, byte-for-byte as the worker rendered it. Relies on the
/// record being the final field of the envelope.
pub fn extract_record(response: &str) -> Option<&str> {
    let marker = ",\"record\":";
    let start = response.find(marker)? + marker.len();
    let end = response.len().checked_sub(1)?;
    if !response.ends_with('}') {
        return None;
    }
    response.get(start..end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"id\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        let mut never = || false;
        match read_frame(&mut r, 1024, &mut never).unwrap() {
            FrameEvent::Frame(p) => assert_eq!(p, b"{\"id\":1}"),
            other => panic!("unexpected {other:?}"),
        }
        match read_frame(&mut r, 1024, &mut never).unwrap() {
            FrameEvent::Frame(p) => assert!(p.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(read_frame(&mut r, 1024, &mut never).unwrap(), FrameEvent::Eof));
    }

    #[test]
    fn oversized_frames_are_drained_and_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b'x'; 100]).unwrap();
        write_frame(&mut buf, b"after").unwrap();
        let mut r = &buf[..];
        let mut never = || false;
        match read_frame(&mut r, 16, &mut never) {
            Err(FrameError::TooLarge { len: 100, max: 16 }) => {}
            other => panic!("unexpected {other:?}"),
        }
        // The stream is still aligned: the next frame parses.
        match read_frame(&mut r, 16, &mut never).unwrap() {
            FrameEvent::Frame(p) => assert_eq!(p, b"after"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncation_is_terminal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload").unwrap();
        buf.truncate(buf.len() - 4);
        let mut r = &buf[..];
        let mut never = || false;
        match read_frame(&mut r, 1024, &mut never) {
            Err(FrameError::Truncated { got: 8, want: 12 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn request_parse_validates() {
        let ok = parse_request(br#"{"id":7,"routine":"routine f(a){return a;}"}"#).unwrap();
        assert_eq!(ok.id, 7);
        assert_eq!(ok.op, RequestOp::Optimize);
        assert_eq!(ok.name, "req_7");
        let err = |payload: &[u8]| parse_request(payload).unwrap_err();
        assert!(err(&[0xff, 0xfe]).1.contains("UTF-8"));
        assert!(err(b"{nope").1.contains("JSON"));
        let (id, msg) = err(br#"{"id":1}"#);
        assert!(id == 1 && msg.contains("gen_seed"), "{id} {msg}");
        let (id, msg) = err(br#"{"id":4,"op":"evaporate"}"#);
        assert!(id == 4 && msg.contains("unknown op"), "{id} {msg}");
        assert_eq!(err(br#"{"id":"4","op":"evaporate"}"#).0, 0, "a malformed id is not echoed");
        assert_eq!(err(br#"[4]"#).0, 0);
        assert!(parse_request(br#"{"gen_seed":3,"inject":"panic@nowhere"}"#).is_err());
        let plan = parse_request(br#"{"gen_seed":3,"inject":"panic@eval","inject_sticky":true}"#)
            .unwrap()
            .inject
            .unwrap();
        assert!(plan.sticky);
    }

    #[test]
    fn a_one_mib_routine_field_parses_in_linear_time() {
        // Unescaped runs, escapes and multi-byte characters, filling a
        // frame at serve's default 1 MiB limit.
        let line = "routine f(a) { return a; } // \"é\"\n";
        let routine = line.repeat((1 << 20) / (line.len() + 4));
        let mut payload = String::from(r#"{"id":1,"routine":""#);
        pgvn_telemetry::json::escape_into(&routine, &mut payload);
        payload.push_str("\"}");
        assert!(payload.len() <= 1 << 20 && payload.len() > 1 << 19, "{}", payload.len());
        let start = std::time::Instant::now();
        let req = parse_request(payload.as_bytes()).unwrap();
        let took = start.elapsed();
        assert_eq!(req.source.as_deref(), Some(routine.as_str()));
        // A linear parse takes about 20 ms unoptimized; one quadratic in
        // the string length takes minutes.
        assert!(took < std::time::Duration::from_secs(2), "1 MiB request parsed in {took:?}");
    }

    #[test]
    fn out_of_range_numbers_are_protocol_errors() {
        let req = |field: &str, n: u64| {
            parse_request(format!(r#"{{"gen_seed":3,"{field}":{n}}}"#).as_bytes())
        };
        assert_eq!(
            req("budget_passes", u64::from(u32::MAX)).unwrap().budget_passes,
            Some(u32::MAX)
        );
        let (_, err) = req("budget_passes", 1 << 32).unwrap_err();
        assert!(err.contains("\"budget_passes\" must be a number"), "{err}");
        assert_eq!(req("budget_ms", u64::MAX).unwrap().budget_ms, Some(u64::MAX));
        assert!(parse_request(br#"{"gen_seed":3,"budget_passes":"5"}"#).is_err());
    }

    #[test]
    fn record_extraction_recovers_exact_bytes() {
        let record = r#"{"event":"routine","name":"x","status":"classified"}"#;
        let resp = record_response(42, record);
        assert_eq!(extract_record(&resp), Some(record));
        assert!(extract_record(&error_response(1, "protocol", "nope")).is_none());
    }
}
