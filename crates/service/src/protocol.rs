//! The `helix serve` wire protocol: length-prefixed UTF-8 frames.
//!
//! Every message — request or response — is one *frame*: a `u32` big-endian byte
//! length followed by that many bytes of UTF-8 text. The text itself is a block of
//! `key=value` header lines, then a blank line, then an optional body (the `.hir`
//! program source for `run` requests; responses have no body).
//!
//! The same framing runs over a Unix socket and over the daemon's stdin/stdout
//! batch mode, so a client library and a shell pipe speak the identical protocol.
//! Frames larger than [`MAX_FRAME`] are rejected before allocation.

use std::fmt;
use std::io::{self, Read, Write};

use helix_ir::Value;

/// Upper bound on a single frame's payload, guarding the length-prefix read.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF at a frame
/// boundary; EOF *inside* a frame is an error.
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match reader.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("non-UTF-8 frame: {e}")))?;
    Ok(Some(text))
}

/// Writes one length-prefixed frame and flushes. Header and payload go out as one buffer,
/// in one `write` unless the writer takes only part of it, so a reader does not wake on
/// the length alone.
pub fn write_frame<W: Write>(writer: &mut W, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|l| *l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame payload too large"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    writer.write_all(&frame)?;
    writer.flush()
}

/// What a request asks the daemon to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Compile (or fetch from cache) and execute the body's entry function.
    Run,
    /// Liveness check; answered in FIFO order like any other job.
    Ping,
    /// Report cache and job counters.
    Stats,
    /// Acknowledge, stop accepting jobs, drain the queue, and exit.
    Shutdown,
}

impl Op {
    fn as_str(self) -> &'static str {
        match self {
            Op::Run => "run",
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }
}

/// Fault injection requested by a job (testing hook; see `docs/service.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Fault {
    /// No injected fault.
    #[default]
    None,
    /// Panic inside the worker that claims the given iteration of the parallel loop.
    PanicAt(u64),
}

/// One parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen id echoed on the response so concurrent replies can be matched.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Entry function name (`run` only). Defaults to `main`.
    pub entry: String,
    /// Worker-thread override for the parallel executor.
    pub threads: Option<usize>,
    /// Arguments for the entry function.
    pub args: Vec<Value>,
    /// Per-job iteration budget for the parallel loop.
    pub max_iterations: Option<u64>,
    /// Per-job deadline, measured from the moment the daemon accepts the frame. A job
    /// still queued when its deadline lapses is answered `deadline` without running;
    /// `0` means "already expired" and is useful for testing.
    pub deadline_ms: Option<u64>,
    /// Fault injection.
    pub fault: Fault,
    /// The `.hir` program text (`run` only).
    pub source: String,
}

impl Request {
    /// A minimal request for `op` with the given id.
    pub fn new(op: Op, id: u64) -> Request {
        Request {
            id,
            op,
            entry: "main".to_string(),
            threads: None,
            args: Vec::new(),
            max_iterations: None,
            deadline_ms: None,
            fault: Fault::None,
            source: String::new(),
        }
    }

    /// A `run` request for `source`'s `main` with no arguments.
    pub fn run(id: u64, source: &str) -> Request {
        Request {
            source: source.to_string(),
            ..Request::new(Op::Run, id)
        }
    }

    /// Serializes to frame-payload text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("op={}\n", self.op.as_str()));
        out.push_str(&format!("id={}\n", self.id));
        if self.entry != "main" {
            out.push_str(&format!("entry={}\n", self.entry));
        }
        if let Some(t) = self.threads {
            out.push_str(&format!("threads={t}\n"));
        }
        if !self.args.is_empty() {
            let args: Vec<String> = self.args.iter().map(|v| format_value(*v)).collect();
            out.push_str(&format!("args={}\n", args.join(",")));
        }
        if let Some(m) = self.max_iterations {
            out.push_str(&format!("max_iterations={m}\n"));
        }
        if let Some(d) = self.deadline_ms {
            out.push_str(&format!("deadline_ms={d}\n"));
        }
        if let Fault::PanicAt(i) = self.fault {
            out.push_str(&format!("fault=panic:{i}\n"));
        }
        out.push('\n');
        out.push_str(&self.source);
        out
    }

    /// Parses a frame payload. The error string is safe to echo to the client.
    pub fn parse(payload: &str) -> Result<Request, String> {
        let (headers, body) = split_headers(payload);
        let mut req = Request::new(Op::Ping, 0);
        let mut op = None;
        for line in headers.lines() {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed header line {line:?}"))?;
            match key {
                "op" => {
                    op = Some(match value {
                        "run" => Op::Run,
                        "ping" => Op::Ping,
                        "stats" => Op::Stats,
                        "shutdown" => Op::Shutdown,
                        other => return Err(format!("unknown op {other:?}")),
                    })
                }
                "id" => req.id = parse_u64(key, value)?,
                "entry" => req.entry = value.to_string(),
                "threads" => req.threads = Some(parse_u64(key, value)? as usize),
                "args" => {
                    req.args = value
                        .split(',')
                        .filter(|t| !t.is_empty())
                        .map(parse_value)
                        .collect::<Result<_, _>>()?
                }
                "max_iterations" => req.max_iterations = Some(parse_u64(key, value)?),
                "deadline_ms" => req.deadline_ms = Some(parse_u64(key, value)?),
                "fault" => {
                    let iter = value
                        .strip_prefix("panic:")
                        .ok_or_else(|| format!("unknown fault {value:?} (want panic:<iter>)"))?;
                    req.fault = Fault::PanicAt(parse_u64("fault", iter)?);
                }
                other => return Err(format!("unknown header {other:?}")),
            }
        }
        req.op = op.ok_or_else(|| "missing op header".to_string())?;
        req.source = body.to_string();
        Ok(req)
    }
}

/// Response status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// The job ran to completion.
    Ok,
    /// The job failed (parse/verify error, missing entry, engine fault, deadlock).
    Error,
    /// A worker panicked during the parallel run; the daemon recovered and keeps serving.
    Panic,
    /// The job's deadline lapsed before it was dequeued; it never ran.
    Deadline,
    /// The request frame itself was malformed.
    Protocol,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Error => "error",
            Status::Panic => "panic",
            Status::Deadline => "deadline",
            Status::Protocol => "protocol",
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether the job's prepared image came from the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// Not a `run` request, or the job failed before the cache was consulted.
    #[default]
    NotApplicable,
    /// Served from the content-hash cache (parse/analyze/lower skipped or shared).
    Hit,
    /// Compiled fresh and inserted.
    Miss,
}

impl CacheOutcome {
    fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::NotApplicable => "-",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// One response frame.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Outcome class.
    pub status: Option<Status>,
    /// Cache outcome for `run` jobs.
    pub cache: CacheOutcome,
    /// `parallel` when the job ran on the parallel executor, `sequential` otherwise.
    pub plan: Option<String>,
    /// Formatted return value (`none` when the entry returns nothing).
    pub result: Option<String>,
    /// FNV-1a digest of final program memory (hex), for differential testing.
    pub memory_hash: Option<u64>,
    /// Nanoseconds spent preparing (profile + analyze + transform + lower); `0` on a hit.
    pub prep_ns: Option<u64>,
    /// Nanoseconds spent executing.
    pub exec_ns: Option<u64>,
    /// Human-readable error message (newlines escaped).
    pub error: Option<String>,
    /// Extra `k=v` pairs (the `stats` op reports counters here).
    pub extra: Vec<(String, String)>,
}

impl Response {
    /// A response for `id` with the given status.
    pub fn new(id: u64, status: Status) -> Response {
        Response {
            id,
            status: Some(status),
            ..Response::default()
        }
    }

    /// An error-class response carrying `message`.
    pub fn fail(id: u64, status: Status, message: impl Into<String>) -> Response {
        let mut r = Response::new(id, status);
        r.error = Some(message.into());
        r
    }

    /// Serializes to frame-payload text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("id={}\n", self.id));
        if let Some(s) = self.status {
            out.push_str(&format!("status={}\n", s.as_str()));
        }
        if self.cache != CacheOutcome::NotApplicable {
            out.push_str(&format!("cache={}\n", self.cache.as_str()));
        }
        if let Some(p) = &self.plan {
            out.push_str(&format!("plan={p}\n"));
        }
        if let Some(r) = &self.result {
            out.push_str(&format!("result={r}\n"));
        }
        if let Some(h) = self.memory_hash {
            out.push_str(&format!("memory_hash={h:016x}\n"));
        }
        if let Some(n) = self.prep_ns {
            out.push_str(&format!("prep_ns={n}\n"));
        }
        if let Some(n) = self.exec_ns {
            out.push_str(&format!("exec_ns={n}\n"));
        }
        if let Some(e) = &self.error {
            out.push_str(&format!("error={}\n", escape(e)));
        }
        for (k, v) in &self.extra {
            out.push_str(&format!("{k}={}\n", escape(v)));
        }
        out.push('\n');
        out
    }

    /// Parses a frame payload back into a `Response` (used by clients and tests).
    pub fn parse(payload: &str) -> Result<Response, String> {
        let (headers, _body) = split_headers(payload);
        let mut resp = Response::default();
        for line in headers.lines() {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed header line {line:?}"))?;
            match key {
                "id" => resp.id = parse_u64(key, value)?,
                "status" => {
                    resp.status = Some(match value {
                        "ok" => Status::Ok,
                        "error" => Status::Error,
                        "panic" => Status::Panic,
                        "deadline" => Status::Deadline,
                        "protocol" => Status::Protocol,
                        other => return Err(format!("unknown status {other:?}")),
                    })
                }
                "cache" => {
                    resp.cache = match value {
                        "hit" => CacheOutcome::Hit,
                        "miss" => CacheOutcome::Miss,
                        "-" => CacheOutcome::NotApplicable,
                        other => return Err(format!("unknown cache outcome {other:?}")),
                    }
                }
                "plan" => resp.plan = Some(value.to_string()),
                "result" => resp.result = Some(value.to_string()),
                "memory_hash" => {
                    resp.memory_hash = Some(
                        u64::from_str_radix(value, 16)
                            .map_err(|e| format!("bad memory_hash {value:?}: {e}"))?,
                    )
                }
                "prep_ns" => resp.prep_ns = Some(parse_u64(key, value)?),
                "exec_ns" => resp.exec_ns = Some(parse_u64(key, value)?),
                "error" => resp.error = Some(unescape(value)),
                _ => resp.extra.push((key.to_string(), unescape(value))),
            }
        }
        Ok(resp)
    }
}

/// Formats a [`Value`] the way `args=`/`result=` headers carry it.
pub fn format_value(v: Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
    }
}

fn parse_value(token: &str) -> Result<Value, String> {
    if token.contains(['.', 'e', 'E']) || token == "inf" || token == "-inf" || token == "NaN" {
        token
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|e| format!("bad float arg {token:?}: {e}"))
    } else {
        token
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| format!("bad int arg {token:?}: {e}"))
    }
}

fn parse_u64(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|e| format!("bad {key} value {value:?}: {e}"))
}

fn split_headers(payload: &str) -> (&str, &str) {
    match payload.split_once("\n\n") {
        Some((h, b)) => (h, b),
        None => (payload, ""),
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_encode_and_parse() {
        let mut req = Request::run(42, "module m\nfunc main(0 params, 0 vars) {\n}\n");
        req.entry = "kernel".to_string();
        req.threads = Some(4);
        req.args = vec![Value::Int(-3), Value::Float(1.5)];
        req.max_iterations = Some(1000);
        req.deadline_ms = Some(250);
        req.fault = Fault::PanicAt(7);
        let parsed = Request::parse(&req.encode()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn response_round_trips_including_escaped_error() {
        let mut resp = Response::new(9, Status::Panic);
        resp.cache = CacheOutcome::Hit;
        resp.plan = Some("parallel".to_string());
        resp.memory_hash = Some(0xdead_beef);
        resp.exec_ns = Some(1234);
        resp.error = Some("worker 1 panicked: line one\nline two \\ backslash".to_string());
        resp.extra.push(("cache_hits".to_string(), "3".to_string()));
        let parsed = Response::parse(&resp.encode()).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean_at_boundary() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn a_frame_is_one_write() {
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for payload in ["", "op=ping\nid=1\n\n", &"x".repeat(70_000)] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "{} payload bytes", payload.len());
            let mut cursor = std::io::Cursor::new(w.bytes);
            assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(payload));
        }
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
