//! The length-framed request/response protocol.
//!
//! One frame = 4 magic bytes (`SPLC`), a little-endian `u32` payload
//! length, then that many bytes of JSON. The same framing runs on both
//! hops — client ↔ daemon over the Unix socket, and supervisor ↔ worker
//! over the worker's stdin/stdout pipes — so one codec (and one garbage
//! detector) covers the whole system. The JSON uses the workspace's
//! hand-rolled `splice_obs::json` writer/parser; no external crates.
//!
//! Everything here is a *total* parser: malformed magic, oversized
//! lengths, truncated frames and invalid JSON all come back as typed
//! errors the server answers with a `protocol_error` response instead of
//! dying — "protocol garbage" is one of the failure modes the fault
//! suite drills.

use splice_obs::json::{JsonValue, JsonWriter};
use std::io::{self, Read, Write};

/// Frame prefix: a cheap first line of defense against stray writers.
pub const MAGIC: [u8; 4] = *b"SPLC";

/// Frames beyond this are rejected without allocation (the largest real
/// payload — a full example-spec result — is a few KiB).
pub const MAX_FRAME: u32 = 16 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The declared length exceeded [`MAX_FRAME`].
    TooLarge(u32),
    /// EOF in the middle of a frame.
    Truncated,
    /// The payload was not the JSON shape the caller expected.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?} (expected `SPLC`)"),
            FrameError::TooLarge(n) => write!(f, "frame length {n} exceeds the {MAX_FRAME} cap"),
            FrameError::Truncated => f.write_str("connection closed mid-frame"),
            FrameError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` is a clean EOF *at a frame boundary* (the
/// peer closed); EOF anywhere else is [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut magic = [0u8; 4];
    match read_exact_or_eof(r, &mut magic) {
        Ok(true) => {}
        Ok(false) => return Ok(None),
        Err(e) => return Err(FrameError::Io(e)),
    }
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes).map_err(eof_as_truncated)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(eof_as_truncated)?;
    Ok(Some(payload))
}

/// `read_exact`, but a clean EOF before the first byte returns Ok(false).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof mid-frame")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn eof_as_truncated(e: io::Error) -> FrameError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        FrameError::Truncated
    } else {
        FrameError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Job options and verdicts (shared by both protocol hops and the cache).
// ---------------------------------------------------------------------------

/// Per-job pipeline options a client may choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobOptions {
    /// Also generate the mmap-based Linux user-space header.
    pub linux: bool,
    /// Run the model checker after lint.
    pub check: bool,
    /// Treat lint/check warnings as gate failures in the verdict.
    pub deny_warnings: bool,
}

impl JobOptions {
    /// Canonical rendering, part of the content-cache key.
    pub fn canonical(&self) -> String {
        format!(
            "linux={},check={},deny={}",
            u8::from(self.linux),
            u8::from(self.check),
            u8::from(self.deny_warnings)
        )
    }

    fn write(&self, w: &mut JsonWriter) {
        w.key("options").begin_object();
        w.key("linux").boolean(self.linux);
        w.key("check").boolean(self.check);
        w.key("deny_warnings").boolean(self.deny_warnings);
        w.end_object();
    }

    fn parse(v: Option<&JsonValue>) -> JobOptions {
        let flag = |k: &str| matches!(v.and_then(|o| o.get(k)), Some(JsonValue::Bool(true)));
        JobOptions {
            linux: flag("linux"),
            check: flag("check"),
            deny_warnings: flag("deny_warnings"),
        }
    }
}

/// The deterministic outcome of running one spec through the pipeline.
/// This is what the cache stores: everything here is a pure function of
/// (spec bytes, options), never of the worker that computed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobVerdict {
    /// The pipeline ran to completion (the lint/check gates may still
    /// have findings — see `denied`).
    Ok {
        /// Generated hardware file count.
        hw_files: u64,
        /// Generated software file count.
        sw_files: u64,
        /// Total bytes across all generated files.
        bytes: u64,
        /// Lint (errors, warnings).
        lint: (u64, u64),
        /// Check (errors, warnings); zeros when checking was off.
        check: (u64, u64),
        /// The lint/check gates would refuse generation under the job's
        /// `deny_warnings` policy.
        denied: bool,
        /// FNV-64 digest over every generated file (name + text), in
        /// emission order: lets a client verify cached == fresh.
        digest: u64,
    },
    /// The spec was refused by parsing, validation or its bus library's
    /// parameter check; the rendered diagnostics.
    SpecError {
        /// Rendered, path-anchored error strings.
        errors: Vec<String>,
    },
    /// A later phase failed deterministically (e.g. HDL generation).
    Internal {
        /// The phase error message.
        message: String,
    },
}

impl JobVerdict {
    /// Did the pipeline produce usable output under the job's policy?
    pub fn is_ok(&self) -> bool {
        matches!(self, JobVerdict::Ok { denied: false, .. })
    }

    pub(crate) fn write(&self, w: &mut JsonWriter) {
        w.key("verdict").begin_object();
        match self {
            JobVerdict::Ok { hw_files, sw_files, bytes, lint, check, denied, digest } => {
                w.key("outcome").string("ok");
                w.key("hw_files").number_u64(*hw_files);
                w.key("sw_files").number_u64(*sw_files);
                w.key("bytes").number_u64(*bytes);
                w.key("lint_errors").number_u64(lint.0);
                w.key("lint_warnings").number_u64(lint.1);
                w.key("check_errors").number_u64(check.0);
                w.key("check_warnings").number_u64(check.1);
                w.key("denied").boolean(*denied);
                w.key("digest").number_u64(*digest);
            }
            JobVerdict::SpecError { errors } => {
                w.key("outcome").string("spec_error");
                w.key("errors").begin_array();
                for e in errors {
                    w.string(e);
                }
                w.end_array();
            }
            JobVerdict::Internal { message } => {
                w.key("outcome").string("internal");
                w.key("message").string(message);
            }
        }
        w.end_object();
    }

    pub(crate) fn parse(v: &JsonValue) -> Result<JobVerdict, FrameError> {
        let num = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
        match v.get("outcome").and_then(JsonValue::as_str) {
            Some("ok") => Ok(JobVerdict::Ok {
                hw_files: num("hw_files"),
                sw_files: num("sw_files"),
                bytes: num("bytes"),
                lint: (num("lint_errors"), num("lint_warnings")),
                check: (num("check_errors"), num("check_warnings")),
                denied: matches!(v.get("denied"), Some(JsonValue::Bool(true))),
                digest: num("digest"),
            }),
            Some("spec_error") => Ok(JobVerdict::SpecError {
                errors: v
                    .get("errors")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|e| e.as_str().map(str::to_owned))
                    .collect(),
            }),
            Some("internal") => Ok(JobVerdict::Internal {
                message: v
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unknown")
                    .to_owned(),
            }),
            other => Err(FrameError::Malformed(format!("unknown verdict outcome {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Client ↔ daemon messages.
// ---------------------------------------------------------------------------

/// A client request. `id` is chosen by the client and echoed verbatim in
/// the matching response, so clients may pipeline requests freely.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one spec through the generation pipeline.
    Generate {
        /// Client-chosen correlation id.
        id: u64,
        /// The raw spec text.
        spec: String,
        /// Pipeline options (part of the cache key).
        options: JobOptions,
    },
    /// Ask for the supervision/metrics snapshot.
    Status {
        /// Client-chosen correlation id.
        id: u64,
    },
    /// Liveness probe.
    Health {
        /// Client-chosen correlation id.
        id: u64,
    },
    /// Ask the daemon to drain gracefully and exit (same path as
    /// SIGTERM).
    Shutdown {
        /// Client-chosen correlation id.
        id: u64,
    },
}

impl Request {
    /// Render as a frame payload.
    pub fn render(&self) -> Vec<u8> {
        let mut w = JsonWriter::new();
        w.begin_object();
        match self {
            Request::Generate { id, spec, options } => {
                w.key("type").string("generate");
                w.key("id").number_u64(*id);
                w.key("spec").string(spec);
                options.write(&mut w);
            }
            Request::Status { id } => {
                w.key("type").string("status");
                w.key("id").number_u64(*id);
            }
            Request::Health { id } => {
                w.key("type").string("health");
                w.key("id").number_u64(*id);
            }
            Request::Shutdown { id } => {
                w.key("type").string("shutdown");
                w.key("id").number_u64(*id);
            }
        }
        w.end_object();
        w.finish().into_bytes()
    }

    /// Parse a frame payload.
    pub fn parse(payload: &[u8]) -> Result<Request, FrameError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| FrameError::Malformed(format!("payload is not UTF-8: {e}")))?;
        let v = JsonValue::parse(text).map_err(FrameError::Malformed)?;
        let id = v.get("id").and_then(JsonValue::as_u64).unwrap_or(0);
        match v.get("type").and_then(JsonValue::as_str) {
            Some("generate") => {
                let spec = v
                    .get("spec")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| FrameError::Malformed("generate without spec".into()))?
                    .to_owned();
                Ok(Request::Generate { id, spec, options: JobOptions::parse(v.get("options")) })
            }
            Some("status") => Ok(Request::Status { id }),
            Some("health") => Ok(Request::Health { id }),
            Some("shutdown") => Ok(Request::Shutdown { id }),
            other => Err(FrameError::Malformed(format!("unknown request type {other:?}"))),
        }
    }
}

/// Why a job was refused or abandoned (the non-verdict terminal states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobErrorKind {
    /// The worker process died on every attempt.
    Crashed,
    /// The job blew its deadline on every attempt (worker killed).
    Timeout,
    /// The per-spec circuit breaker is open: this spec has been killing
    /// workers and is fast-failed until its cooldown probe succeeds.
    BreakerOpen,
    /// The supervisor itself failed (e.g. workers cannot be spawned).
    Internal,
}

impl JobErrorKind {
    fn as_str(self) -> &'static str {
        match self {
            JobErrorKind::Crashed => "crashed",
            JobErrorKind::Timeout => "timeout",
            JobErrorKind::BreakerOpen => "breaker_open",
            JobErrorKind::Internal => "internal",
        }
    }

    fn parse(s: &str) -> Option<JobErrorKind> {
        Some(match s {
            "crashed" => JobErrorKind::Crashed,
            "timeout" => JobErrorKind::Timeout,
            "breaker_open" => JobErrorKind::BreakerOpen,
            "internal" => JobErrorKind::Internal,
            _ => return None,
        })
    }
}

/// Why a job was shed at admission instead of queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadReason {
    /// The bounded global queue is full.
    QueueFull,
    /// This client already has its per-client budget of jobs in flight.
    ClientLimit,
    /// The daemon is draining for shutdown.
    Draining,
}

impl OverloadReason {
    fn as_str(self) -> &'static str {
        match self {
            OverloadReason::QueueFull => "queue_full",
            OverloadReason::ClientLimit => "client_limit",
            OverloadReason::Draining => "draining",
        }
    }

    fn parse(s: &str) -> Option<OverloadReason> {
        Some(match s {
            "queue_full" => OverloadReason::QueueFull,
            "client_limit" => OverloadReason::ClientLimit,
            "draining" => OverloadReason::Draining,
            _ => return None,
        })
    }
}

/// A daemon response. Every request gets exactly one.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job reached a deterministic verdict.
    Result {
        /// Echo of the request id.
        id: u64,
        /// Served from the content cache (no worker touched it).
        cached: bool,
        /// Worker attempts consumed (1 = first try; 0 for cache hits).
        attempts: u32,
        /// Wall milliseconds from enqueue to response.
        elapsed_ms: u64,
        /// The verdict itself.
        verdict: JobVerdict,
    },
    /// The job terminated without a verdict.
    JobError {
        /// Echo of the request id.
        id: u64,
        /// Failure class.
        kind: JobErrorKind,
        /// Human-readable detail.
        message: String,
        /// Worker attempts consumed.
        attempts: u32,
    },
    /// The job was shed at admission (explicitly — never a silent hang).
    Overloaded {
        /// Echo of the request id.
        id: u64,
        /// Which limit fired.
        reason: OverloadReason,
        /// Queue depth at refusal time.
        queue_depth: u64,
    },
    /// Status snapshot; `body` is a self-describing JSON document.
    Status {
        /// Echo of the request id.
        id: u64,
        /// Rendered status JSON (see `docs/serve.md` for the schema).
        body: String,
    },
    /// Liveness answer.
    Health {
        /// Echo of the request id.
        id: u64,
        /// Worker processes currently alive.
        workers_alive: u64,
        /// The daemon is draining.
        draining: bool,
    },
    /// Drain acknowledged; the daemon exits once in-flight work finishes.
    ShutdownAck {
        /// Echo of the request id.
        id: u64,
    },
    /// The peer sent garbage; the connection closes after this.
    ProtocolError {
        /// What was wrong.
        message: String,
    },
}

impl Response {
    /// The echoed request id (`None` for protocol errors, which may not
    /// have parsed far enough to know one).
    pub fn id(&self) -> Option<u64> {
        match self {
            Response::Result { id, .. }
            | Response::JobError { id, .. }
            | Response::Overloaded { id, .. }
            | Response::Status { id, .. }
            | Response::Health { id, .. }
            | Response::ShutdownAck { id } => Some(*id),
            Response::ProtocolError { .. } => None,
        }
    }

    /// Render as a frame payload.
    pub fn render(&self) -> Vec<u8> {
        let mut w = JsonWriter::new();
        w.begin_object();
        match self {
            Response::Result { id, cached, attempts, elapsed_ms, verdict } => {
                w.key("type").string("result");
                w.key("id").number_u64(*id);
                w.key("cached").boolean(*cached);
                w.key("attempts").number_u64(u64::from(*attempts));
                w.key("elapsed_ms").number_u64(*elapsed_ms);
                verdict.write(&mut w);
            }
            Response::JobError { id, kind, message, attempts } => {
                w.key("type").string("job_error");
                w.key("id").number_u64(*id);
                w.key("kind").string(kind.as_str());
                w.key("message").string(message);
                w.key("attempts").number_u64(u64::from(*attempts));
            }
            Response::Overloaded { id, reason, queue_depth } => {
                w.key("type").string("overloaded");
                w.key("id").number_u64(*id);
                w.key("reason").string(reason.as_str());
                w.key("queue_depth").number_u64(*queue_depth);
            }
            Response::Status { id, body } => {
                w.key("type").string("status");
                w.key("id").number_u64(*id);
                w.key("body").raw(body);
            }
            Response::Health { id, workers_alive, draining } => {
                w.key("type").string("health");
                w.key("id").number_u64(*id);
                w.key("workers_alive").number_u64(*workers_alive);
                w.key("draining").boolean(*draining);
            }
            Response::ShutdownAck { id } => {
                w.key("type").string("shutdown_ack");
                w.key("id").number_u64(*id);
            }
            Response::ProtocolError { message } => {
                w.key("type").string("protocol_error");
                w.key("message").string(message);
            }
        }
        w.end_object();
        w.finish().into_bytes()
    }

    /// Parse a frame payload.
    pub fn parse(payload: &[u8]) -> Result<Response, FrameError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| FrameError::Malformed(format!("payload is not UTF-8: {e}")))?;
        let v = JsonValue::parse(text).map_err(FrameError::Malformed)?;
        let id = v.get("id").and_then(JsonValue::as_u64).unwrap_or(0);
        let str_of = |k: &str| v.get(k).and_then(JsonValue::as_str).unwrap_or("").to_owned();
        let num = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
        match v.get("type").and_then(JsonValue::as_str) {
            Some("result") => Ok(Response::Result {
                id,
                cached: matches!(v.get("cached"), Some(JsonValue::Bool(true))),
                attempts: num("attempts") as u32,
                elapsed_ms: num("elapsed_ms"),
                verdict: JobVerdict::parse(
                    v.get("verdict")
                        .ok_or_else(|| FrameError::Malformed("result without verdict".into()))?,
                )?,
            }),
            Some("job_error") => Ok(Response::JobError {
                id,
                kind: JobErrorKind::parse(&str_of("kind"))
                    .ok_or_else(|| FrameError::Malformed("unknown job_error kind".into()))?,
                message: str_of("message"),
                attempts: num("attempts") as u32,
            }),
            Some("overloaded") => Ok(Response::Overloaded {
                id,
                reason: OverloadReason::parse(&str_of("reason"))
                    .ok_or_else(|| FrameError::Malformed("unknown overload reason".into()))?,
                queue_depth: num("queue_depth"),
            }),
            Some("status") => {
                // Keep the body as raw JSON text: its schema is open-ended.
                let body = v
                    .get("body")
                    .map(render_value)
                    .ok_or_else(|| FrameError::Malformed("status without body".into()))?;
                Ok(Response::Status { id, body })
            }
            Some("health") => Ok(Response::Health {
                id,
                workers_alive: num("workers_alive"),
                draining: matches!(v.get("draining"), Some(JsonValue::Bool(true))),
            }),
            Some("shutdown_ack") => Ok(Response::ShutdownAck { id }),
            Some("protocol_error") => Ok(Response::ProtocolError { message: str_of("message") }),
            other => Err(FrameError::Malformed(format!("unknown response type {other:?}"))),
        }
    }
}

/// Re-render a parsed [`JsonValue`] as text (status bodies survive the
/// round trip as documents, not structs).
fn render_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        JsonValue::Str(s) => splice_obs::json::quote(s),
        JsonValue::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render_value).collect();
            format!("[{}]", inner.join(","))
        }
        JsonValue::Obj(map) => {
            let inner: Vec<String> = map
                .iter()
                .map(|(k, val)| format!("{}:{}", splice_obs::json::quote(k), render_value(val)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

// ---------------------------------------------------------------------------
// Supervisor ↔ worker messages (over the worker's stdin/stdout).
// ---------------------------------------------------------------------------

/// Supervisor → worker: run this job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMsg {
    /// Supervisor-global job number (echoed back; detects stale frames).
    pub job: u64,
    /// The raw spec text.
    pub spec: String,
    /// Pipeline options.
    pub options: JobOptions,
}

impl JobMsg {
    /// Render as a frame payload.
    pub fn render(&self) -> Vec<u8> {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("job").number_u64(self.job);
        w.key("spec").string(&self.spec);
        self.options.write(&mut w);
        w.end_object();
        w.finish().into_bytes()
    }

    /// Parse a frame payload.
    pub fn parse(payload: &[u8]) -> Result<JobMsg, FrameError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| FrameError::Malformed(format!("payload is not UTF-8: {e}")))?;
        let v = JsonValue::parse(text).map_err(FrameError::Malformed)?;
        Ok(JobMsg {
            job: v.get("job").and_then(JsonValue::as_u64).unwrap_or(0),
            spec: v
                .get("spec")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| FrameError::Malformed("job without spec".into()))?
                .to_owned(),
            options: JobOptions::parse(v.get("options")),
        })
    }
}

/// Worker → supervisor.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Sent once after startup: the worker is alive and listening.
    Ready {
        /// The worker's pid (also known to the supervisor via spawn; the
        /// echo catches exec-wrapper surprises).
        pid: u64,
    },
    /// The verdict for job `job`.
    Done {
        /// Echo of [`JobMsg::job`].
        job: u64,
        /// The deterministic outcome.
        verdict: JobVerdict,
    },
}

impl WorkerMsg {
    /// Render as a frame payload.
    pub fn render(&self) -> Vec<u8> {
        let mut w = JsonWriter::new();
        w.begin_object();
        match self {
            WorkerMsg::Ready { pid } => {
                w.key("ready").number_u64(*pid);
            }
            WorkerMsg::Done { job, verdict } => {
                w.key("job").number_u64(*job);
                verdict.write(&mut w);
            }
        }
        w.end_object();
        w.finish().into_bytes()
    }

    /// Parse a frame payload.
    pub fn parse(payload: &[u8]) -> Result<WorkerMsg, FrameError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| FrameError::Malformed(format!("payload is not UTF-8: {e}")))?;
        let v = JsonValue::parse(text).map_err(FrameError::Malformed)?;
        if let Some(pid) = v.get("ready").and_then(JsonValue::as_u64) {
            return Ok(WorkerMsg::Ready { pid });
        }
        let job = v
            .get("job")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| FrameError::Malformed("worker frame without job id".into()))?;
        let verdict = JobVerdict::parse(
            v.get("verdict")
                .ok_or_else(|| FrameError::Malformed("worker frame without verdict".into()))?,
        )?;
        Ok(WorkerMsg::Done { job, verdict })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn garbage_is_rejected_not_crashed_on() {
        let mut r = Cursor::new(b"GET / HTTP/1.1\r\n".to_vec());
        assert!(matches!(read_frame(&mut r), Err(FrameError::BadMagic(_))));

        let mut huge = MAGIC.to_vec();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_frame(&mut Cursor::new(huge)), Err(FrameError::TooLarge(_))));

        let mut trunc = MAGIC.to_vec();
        trunc.extend_from_slice(&100u32.to_le_bytes());
        trunc.extend_from_slice(b"only a little");
        assert!(matches!(read_frame(&mut Cursor::new(trunc)), Err(FrameError::Truncated)));
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Generate {
                id: 7,
                spec: "%device_name d\nwith \"quotes\" and\nnewlines".into(),
                options: JobOptions { linux: true, check: true, deny_warnings: false },
            },
            Request::Status { id: 1 },
            Request::Health { id: 2 },
            Request::Shutdown { id: 3 },
        ];
        for req in reqs {
            assert_eq!(Request::parse(&req.render()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Result {
                id: 9,
                cached: true,
                attempts: 0,
                elapsed_ms: 3,
                verdict: JobVerdict::Ok {
                    hw_files: 4,
                    sw_files: 3,
                    bytes: 12345,
                    lint: (0, 2),
                    check: (0, 0),
                    denied: false,
                    digest: 0xdead_beef,
                },
            },
            Response::Result {
                id: 10,
                cached: false,
                attempts: 1,
                elapsed_ms: 55,
                verdict: JobVerdict::SpecError { errors: vec!["bad.spec:1:1: nope".into()] },
            },
            Response::JobError {
                id: 11,
                kind: JobErrorKind::Timeout,
                message: "deadline 100ms".into(),
                attempts: 3,
            },
            Response::Overloaded { id: 12, reason: OverloadReason::QueueFull, queue_depth: 256 },
            Response::Status { id: 13, body: "{\"queue_depth\":4}".into() },
            Response::Health { id: 14, workers_alive: 4, draining: false },
            Response::ShutdownAck { id: 15 },
            Response::ProtocolError { message: "bad magic".into() },
        ];
        for resp in resps {
            assert_eq!(Response::parse(&resp.render()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn worker_messages_round_trip() {
        let job = JobMsg {
            job: 41,
            spec: "%device_name d\n".into(),
            options: JobOptions { linux: false, check: true, deny_warnings: true },
        };
        assert_eq!(JobMsg::parse(&job.render()).unwrap(), job);

        for msg in [
            WorkerMsg::Ready { pid: 4242 },
            WorkerMsg::Done { job: 41, verdict: JobVerdict::Internal { message: "boom".into() } },
        ] {
            assert_eq!(WorkerMsg::parse(&msg.render()).unwrap(), msg);
        }
    }

    #[test]
    fn options_canonical_form_distinguishes_all_flags() {
        let mut seen = std::collections::HashSet::new();
        for linux in [false, true] {
            for check in [false, true] {
                for deny in [false, true] {
                    let o = JobOptions { linux, check, deny_warnings: deny };
                    assert!(seen.insert(o.canonical()));
                }
            }
        }
    }
}
