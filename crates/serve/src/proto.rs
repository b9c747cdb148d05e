//! The `atlas-serve/2` wire protocol (and its `/1` subset):
//! newline-delimited JSON frames.
//!
//! Every request is one line holding one JSON object; every response is
//! one line holding one JSON object stamped with the schema it speaks.
//! Both directions round-trip through [`Json`] — frames use the store
//! writer's *compact* (single-line) form, [`render_compact`], because its
//! pretty printer spans lines and a frame must not.
//!
//! | Request (`op`) | Fields | Result payload |
//! |---|---|---|
//! | `hello` | `session?` | server identity, protocols, library, generation, budgets |
//! | `ping` | `session?` | `{"pong": true, "generation": n}` |
//! | `open` | `session?` (requested name) | `{"session": name, "generation": 0, ...}` |
//! | `close` | `session` | `{"closed": name, "flushed_shards": n}` |
//! | `edit` | `kind`, `target?`, `seed?`, `session?` | dirty/clean counts, executions, fingerprint |
//! | `specs` | `session?` | the current `atlas-spec/1` artifact, inline |
//! | `fingerprint` | `session?` | the current library fingerprint |
//! | `stats` | `session?` | session, shard-cache, and service counters |
//! | `flush` | `session?` | `{"flushed_shards": n}` |
//! | `shutdown` | — | `{"stopping": true}`, then the stream ends |
//!
//! **Sessions and negotiation.**  `atlas-serve/2` adds the `open`/`close`
//! ops and an optional `"session"` string on every session-scoped
//! request; each open session owns an independent store namespace and
//! provenance chain.  A frame *without* a
//! `"session"` field addresses the daemon's **default session** — which
//! is exactly the `atlas-serve/1` protocol, so a /1 client needs no
//! changes: its requests land on the default session and its responses
//! are stamped `atlas-serve/1`.  Responses to frames that named a
//! session echo the session and are stamped `atlas-serve/2`.  `hello`
//! advertises both protocol ids and the default-session name, which is
//! the whole negotiation: a client that wants sessions sends `open`, one
//! that does not keeps speaking /1.
//!
//! Any request may carry an `"id"` (any JSON value); the response echoes
//! it verbatim, so concurrent clients can correlate.  Errors are
//! structured — `{"ok": false, "error": {"code", "message"}}` — and the
//! codes are a closed set ([`ErrorCode`]).  Malformed JSON, unknown ops,
//! oversized frames, and requests naming unknown (or already-closed)
//! sessions all produce error *responses*, never a dropped connection:
//! the daemon must stay line-synchronized and alive no matter what bytes
//! arrive.

use atlas_ir::MutationKind;
/// The store's single-line renderer, re-exported as the frame encoder.
pub use atlas_store::json::render_compact;
use atlas_store::Json;
use std::io::BufRead;

/// The `/1` protocol identifier: stamped on responses to frames that did
/// not name a session (the backward-compatible default-session subset).
pub const WIRE_SCHEMA: &str = "atlas-serve/1";

/// The `/2` protocol identifier: stamped on responses to frames that
/// named a session (including `open`/`close`).
pub const WIRE_SCHEMA_V2: &str = "atlas-serve/2";

/// The closed set of structured error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not valid JSON.
    BadJson,
    /// The frame exceeded the configured maximum length.
    OversizedFrame,
    /// The frame was valid JSON but not a valid request (not an object,
    /// missing or unknown `op`, ill-typed field).
    BadRequest,
    /// The edit could not be applied (unknown or ineligible target).
    BadEdit,
    /// A store operation failed while serving the request.
    Store,
    /// The request named a session that is not open (never opened, or
    /// already closed).
    UnknownSession,
    /// The service is shutting down; the request was not served.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad-json",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::BadEdit => "bad-edit",
            ErrorCode::Store => "store",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }

    /// Parses the wire spelling back (the client half of the codec).
    pub fn parse(text: &str) -> Option<ErrorCode> {
        match text {
            "bad-json" => Some(ErrorCode::BadJson),
            "oversized-frame" => Some(ErrorCode::OversizedFrame),
            "bad-request" => Some(ErrorCode::BadRequest),
            "bad-edit" => Some(ErrorCode::BadEdit),
            "store" => Some(ErrorCode::Store),
            "unknown-session" => Some(ErrorCode::UnknownSession),
            "shutting-down" => Some(ErrorCode::ShuttingDown),
            _ => None,
        }
    }
}

/// A structured protocol error: a closed code plus a human message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// The error class.
    pub code: ErrorCode,
    /// A human-readable description (never parsed by clients).
    pub message: String,
}

impl WireError {
    /// A new error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for WireError {}

/// One library edit, as carried on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditRequest {
    /// The mutation kind (`rename-local` | `body-edit` | `add-method` |
    /// `signature-change`).
    pub kind: MutationKind,
    /// Explicit `Class.method` target (or a class name for add-method);
    /// `None` picks deterministically by seed.
    pub target: Option<String>,
    /// Mutation seed (target selection + generated names).
    pub seed: u64,
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Identify the server.
    Hello,
    /// Liveness check.
    Ping,
    /// Open a new session (`atlas-serve/2`): the envelope's `session`
    /// field, when present, is the *requested* name; the response carries
    /// the assigned one.
    Open,
    /// Close the session named by the envelope (`atlas-serve/2`): flush
    /// its namespace, then forget it.
    Close,
    /// Apply one library edit and re-infer incrementally.
    Edit(EditRequest),
    /// The current specification artifact, inline.
    Specs,
    /// The current library fingerprint.
    Fingerprint,
    /// Service counters (session, shard cache, worker pool).
    Stats,
    /// Persist the session's dirty shards now.
    Flush,
    /// Flush and stop serving.
    Shutdown,
}

/// A request frame: the operation, the optional correlation id, and the
/// optional session name (`atlas-serve/2`; absent = the default session).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Echoed verbatim in the response (any JSON value).
    pub id: Option<Json>,
    /// The session the request addresses: `None` is the `/1` spelling of
    /// the default session.  For [`Request::Open`] this is the requested
    /// name of the *new* session.
    pub session: Option<String>,
    /// The operation.
    pub request: Request,
}

impl Request {
    /// The wire spelling of the operation (`"op"` in the frame).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Hello => "hello",
            Request::Ping => "ping",
            Request::Open => "open",
            Request::Close => "close",
            Request::Edit(_) => "edit",
            Request::Specs => "specs",
            Request::Fingerprint => "fingerprint",
            Request::Stats => "stats",
            Request::Flush => "flush",
            Request::Shutdown => "shutdown",
        }
    }
}

impl Envelope {
    /// An id-less envelope on the default session.
    pub fn of(request: Request) -> Envelope {
        Envelope {
            id: None,
            session: None,
            request,
        }
    }

    /// An envelope with a correlation id, on the default session.
    pub fn with_id(id: impl Into<Json>, request: Request) -> Envelope {
        Envelope {
            id: Some(id.into()),
            session: None,
            request,
        }
    }

    /// The same envelope addressed to a named session (the `/2` spelling).
    pub fn in_session(mut self, session: impl Into<String>) -> Envelope {
        self.session = Some(session.into());
        self
    }
}

/// A response frame: the echoed id, the echoed session (when the request
/// named one), plus either a result payload or a structured error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's correlation id, echoed verbatim.
    pub id: Option<Json>,
    /// The session echo: `Some` makes this an `atlas-serve/2` frame,
    /// `None` an `atlas-serve/1` frame — the negotiation is per-frame.
    pub session: Option<String>,
    /// The result payload, or the error.
    pub outcome: Result<Json, WireError>,
}

impl Response {
    /// A success response (an `/1` frame until a session is attached).
    pub fn ok(id: Option<Json>, result: Json) -> Response {
        Response {
            id,
            session: None,
            outcome: Ok(result),
        }
    }

    /// An error response (an `/1` frame until a session is attached).
    pub fn err(id: Option<Json>, error: WireError) -> Response {
        Response {
            id,
            session: None,
            outcome: Err(error),
        }
    }

    /// The same response stamped with a session echo — which also stamps
    /// the frame `atlas-serve/2`.
    pub fn in_session(mut self, session: impl Into<String>) -> Response {
        self.session = Some(session.into());
        self
    }
}

/// Parses a mutation-kind name as spelled by `MutationKind`'s `Display`.
pub fn parse_mutation_kind(raw: &str) -> Option<MutationKind> {
    match raw {
        "rename-local" => Some(MutationKind::RenameLocal),
        "body-edit" => Some(MutationKind::BodyEdit),
        "add-method" => Some(MutationKind::AddMethod),
        "signature-change" => Some(MutationKind::SignatureChange),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

/// Encodes a request envelope as one frame (no trailing newline).
pub fn encode_request(envelope: &Envelope) -> String {
    let mut doc = Json::obj();
    if let Some(id) = &envelope.id {
        doc = doc.set("id", id.clone());
    }
    if let Some(session) = &envelope.session {
        doc = doc.set("session", session.as_str());
    }
    doc = match &envelope.request {
        Request::Hello => doc.set("op", "hello"),
        Request::Ping => doc.set("op", "ping"),
        Request::Open => doc.set("op", "open"),
        Request::Close => doc.set("op", "close"),
        Request::Edit(edit) => {
            let mut doc = doc
                .set("op", "edit")
                .set("kind", edit.kind.to_string())
                .set("seed", edit.seed as i64);
            if let Some(target) = &edit.target {
                doc = doc.set("target", target.as_str());
            }
            doc
        }
        Request::Specs => doc.set("op", "specs"),
        Request::Fingerprint => doc.set("op", "fingerprint"),
        Request::Stats => doc.set("op", "stats"),
        Request::Flush => doc.set("op", "flush"),
        Request::Shutdown => doc.set("op", "shutdown"),
    };
    render_compact(&doc)
}

/// Decodes one request frame.
///
/// # Errors
/// Returns a [`WireError`] (`bad-json` or `bad-request`) describing what
/// is wrong with the frame; the error still deserves a response, so the
/// caller pairs it with the frame's `id` when one could be extracted.
pub fn decode_request(line: &str) -> Result<Envelope, WireError> {
    let doc = Json::parse(line)
        .map_err(|e| WireError::new(ErrorCode::BadJson, format!("invalid JSON: {e}")))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(WireError::new(
            ErrorCode::BadRequest,
            "a request frame must be a JSON object",
        ));
    }
    let id = doc.get("id").cloned();
    let session = match doc.get("session") {
        None | Some(Json::Null) => None,
        Some(value) => Some(
            value
                .as_str()
                .ok_or_else(|| WireError::new(ErrorCode::BadRequest, "'session' must be a string"))?
                .to_string(),
        ),
    };
    let Some(op) = doc.get("op").and_then(Json::as_str) else {
        return Err(WireError::new(
            ErrorCode::BadRequest,
            "missing string field 'op'",
        ));
    };
    let request = match op {
        "hello" => Request::Hello,
        "ping" => Request::Ping,
        "open" => Request::Open,
        "close" => Request::Close,
        "edit" => {
            let kind = match doc.get("kind") {
                None => MutationKind::BodyEdit,
                Some(value) => {
                    let name = value.as_str().ok_or_else(|| {
                        WireError::new(ErrorCode::BadRequest, "'kind' must be a string")
                    })?;
                    parse_mutation_kind(name).ok_or_else(|| {
                        WireError::new(
                            ErrorCode::BadRequest,
                            format!("unknown mutation kind '{name}'"),
                        )
                    })?
                }
            };
            let target = match doc.get("target") {
                None | Some(Json::Null) => None,
                Some(value) => Some(
                    value
                        .as_str()
                        .ok_or_else(|| {
                            WireError::new(ErrorCode::BadRequest, "'target' must be a string")
                        })?
                        .to_string(),
                ),
            };
            let seed = match doc.get("seed") {
                None => 0,
                Some(value) => value.as_int().filter(|s| *s >= 0).ok_or_else(|| {
                    WireError::new(
                        ErrorCode::BadRequest,
                        "'seed' must be a non-negative integer",
                    )
                })? as u64,
            };
            Request::Edit(EditRequest { kind, target, seed })
        }
        "specs" => Request::Specs,
        "fingerprint" => Request::Fingerprint,
        "stats" => Request::Stats,
        "flush" => Request::Flush,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                format!("unknown op '{other}'"),
            ))
        }
    };
    Ok(Envelope {
        id,
        session,
        request,
    })
}

/// Best-effort id extraction from a frame that failed to decode as a
/// request: a malformed *request* can still carry a well-formed `id`, and
/// echoing it keeps concurrent clients correlated even through errors.
pub fn salvage_id(line: &str) -> Option<Json> {
    Json::parse(line)
        .ok()
        .and_then(|doc| doc.get("id").cloned())
}

/// Best-effort session extraction from a frame that failed to decode: a
/// malformed request with a well-formed `"session"` string still belongs
/// to that session's serialized stream, so its error response keeps the
/// stream's ordering guarantee.
pub fn salvage_session(line: &str) -> Option<String> {
    Json::parse(line).ok().and_then(|doc| {
        doc.get("session")
            .and_then(Json::as_str)
            .map(str::to_string)
    })
}

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

/// Encodes a response as one frame (no trailing newline).  The schema
/// stamp is the per-frame negotiation: a response carrying a session echo
/// is `atlas-serve/2`, one without is `atlas-serve/1` — so an unmodified
/// /1 client (which never names sessions) only ever sees /1 frames.
pub fn encode_response(response: &Response) -> String {
    let schema = if response.session.is_some() {
        WIRE_SCHEMA_V2
    } else {
        WIRE_SCHEMA
    };
    let mut doc = Json::obj().set("schema", schema);
    if let Some(id) = &response.id {
        doc = doc.set("id", id.clone());
    }
    if let Some(session) = &response.session {
        doc = doc.set("session", session.as_str());
    }
    doc = match &response.outcome {
        Ok(result) => doc.set("ok", true).set("result", result.clone()),
        Err(error) => doc.set("ok", false).set(
            "error",
            Json::obj()
                .set("code", error.code.as_str())
                .set("message", error.message.as_str()),
        ),
    };
    render_compact(&doc)
}

/// Decodes one response frame (the client half of the codec).
///
/// # Errors
/// Returns a [`WireError`] with code `bad-json` when the frame is not
/// valid JSON, and `bad-request` when it is JSON but not a well-formed
/// `atlas-serve/1` or `atlas-serve/2` response.
pub fn decode_response(line: &str) -> Result<Response, WireError> {
    let doc = Json::parse(line)
        .map_err(|e| WireError::new(ErrorCode::BadJson, format!("invalid JSON: {e}")))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(WIRE_SCHEMA) && schema != Some(WIRE_SCHEMA_V2) {
        return Err(WireError::new(
            ErrorCode::BadRequest,
            format!("not an {WIRE_SCHEMA} or {WIRE_SCHEMA_V2} response"),
        ));
    }
    let id = doc.get("id").cloned();
    let session = doc
        .get("session")
        .and_then(Json::as_str)
        .map(str::to_string);
    let stamp = |mut response: Response| {
        response.session = session.clone();
        response
    };
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => {
            let result = doc.get("result").cloned().ok_or_else(|| {
                WireError::new(ErrorCode::BadRequest, "ok response without 'result'")
            })?;
            Ok(stamp(Response::ok(id, result)))
        }
        Some(false) => {
            let error = doc.get("error").ok_or_else(|| {
                WireError::new(ErrorCode::BadRequest, "error response without 'error'")
            })?;
            let code = error
                .get("code")
                .and_then(Json::as_str)
                .and_then(ErrorCode::parse)
                .ok_or_else(|| {
                    WireError::new(ErrorCode::BadRequest, "error response without a known code")
                })?;
            let message = error
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            Ok(stamp(Response::err(id, WireError { code, message })))
        }
        None => Err(WireError::new(
            ErrorCode::BadRequest,
            "response without a boolean 'ok'",
        )),
    }
}

// ---------------------------------------------------------------------------
// Frame reader
// ---------------------------------------------------------------------------

/// One read attempt from a frame stream.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (without the trailing newline).  Blank lines are
    /// reported too; callers skip them.
    Line(String),
    /// The line exceeded the maximum frame length.  The remainder of the
    /// line has been consumed and discarded, so the stream is still
    /// line-synchronized.
    Oversized,
    /// End of stream.
    Eof,
}

/// Reads one newline-delimited frame, enforcing the frame-length bound
/// with bounded memory: an overlong line is drained in fixed-size chunks
/// and reported as [`Frame::Oversized`] instead of being buffered whole.
///
/// # Errors
/// Propagates the underlying I/O error.
pub fn read_frame<R: BufRead>(reader: &mut R, max_frame: usize) -> std::io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    let n = std::io::Read::take(&mut *reader, max_frame as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > max_frame {
        // Drain the rest of the line in bounded chunks to stay
        // line-synchronized without buffering a hostile frame.
        let mut scratch: Vec<u8> = Vec::new();
        loop {
            scratch.clear();
            let n = std::io::Read::take(&mut *reader, 64 * 1024).read_until(b'\n', &mut scratch)?;
            if n == 0 || scratch.last() == Some(&b'\n') {
                break;
            }
        }
        return Ok(Frame::Oversized);
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(Frame::Line(line)),
        // Non-UTF-8 bytes cannot be valid JSON anyway; surface them as a
        // line that will fail `decode_request` with `bad-json`.
        Err(e) => Ok(Frame::Line(
            String::from_utf8_lossy(e.as_bytes()).into_owned(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_is_single_line_and_reparses() {
        let doc = Json::obj()
            .set("s", "line\nbreak \"quoted\" \u{0001}")
            .set("n", -3i64)
            .set("f", 2.0)
            .set("arr", vec![Json::Null, Json::Bool(true), Json::obj()])
            .set("empty", Vec::<Json>::new());
        let line = render_compact(&doc);
        assert!(!line.contains('\n'), "{line:?}");
        assert_eq!(Json::parse(&line).expect("reparse"), doc);
    }

    #[test]
    fn frames_read_back_with_crlf_blank_and_oversize_handling() {
        let text = b"{\"op\":\"ping\"}\r\n\nlong-line-over-the-limit\nnext\n";
        let mut reader = std::io::BufReader::new(&text[..]);
        assert_eq!(
            read_frame(&mut reader, 16).unwrap(),
            Frame::Line("{\"op\":\"ping\"}".to_string())
        );
        assert_eq!(
            read_frame(&mut reader, 16).unwrap(),
            Frame::Line(String::new())
        );
        assert_eq!(read_frame(&mut reader, 16).unwrap(), Frame::Oversized);
        assert_eq!(
            read_frame(&mut reader, 16).unwrap(),
            Frame::Line("next".to_string())
        );
        assert_eq!(read_frame(&mut reader, 16).unwrap(), Frame::Eof);
    }

    #[test]
    fn request_codec_round_trips_the_edit_variant() {
        let envelope = Envelope::with_id(
            7i64,
            Request::Edit(EditRequest {
                kind: MutationKind::SignatureChange,
                target: Some("TreeMap.put".to_string()),
                seed: 42,
            }),
        );
        let line = encode_request(&envelope);
        assert_eq!(decode_request(&line).expect("round trip"), envelope);
    }

    #[test]
    fn v2_frames_round_trip_sessions_and_stamp_schemas() {
        let open = Envelope::with_id(1i64, Request::Open).in_session("workbench");
        assert_eq!(decode_request(&encode_request(&open)).expect("open"), open);
        let close = Envelope::of(Request::Close).in_session("workbench");
        assert_eq!(
            decode_request(&encode_request(&close)).expect("close"),
            close
        );

        // The schema stamp is per-frame: no session echo means /1, a
        // session echo means /2 — and both decode.
        let v1 = Response::ok(Some(Json::Int(1)), Json::obj().set("pong", true));
        assert!(encode_response(&v1).contains(WIRE_SCHEMA));
        assert_eq!(decode_response(&encode_response(&v1)).expect("v1"), v1);
        let v2 = v1.clone().in_session("workbench");
        let line = encode_response(&v2);
        assert!(line.contains(WIRE_SCHEMA_V2));
        assert_eq!(decode_response(&line).expect("v2"), v2);

        // An ill-typed session field is a structured error, and the
        // session of a malformed frame is still salvageable.
        let err = decode_request("{\"op\":\"edit\",\"session\":7}").expect_err("bad session");
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(
            salvage_session("{\"op\":\"conquer\",\"session\":\"s\"}"),
            Some("s".to_string())
        );
        assert_eq!(salvage_session("{"), None);
    }

    #[test]
    fn malformed_requests_yield_structured_errors() {
        let cases: &[(&str, ErrorCode)] = &[
            ("{", ErrorCode::BadJson),
            ("[1,2]", ErrorCode::BadRequest),
            ("{\"id\":1}", ErrorCode::BadRequest),
            ("{\"op\":\"conquer\"}", ErrorCode::BadRequest),
            ("{\"op\":\"edit\",\"kind\":\"warp\"}", ErrorCode::BadRequest),
            ("{\"op\":\"edit\",\"seed\":-1}", ErrorCode::BadRequest),
            ("{\"op\":\"edit\",\"target\":7}", ErrorCode::BadRequest),
        ];
        for (line, code) in cases {
            let err = decode_request(line).expect_err(line);
            assert_eq!(err.code, *code, "{line}: {err}");
        }
        assert_eq!(salvage_id("{\"id\":9}"), Some(Json::Int(9)));
        assert_eq!(salvage_id("{"), None);
    }
}
