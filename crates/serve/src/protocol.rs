//! The wire protocol: newline-delimited JSON objects, one per message.
//!
//! Both hops speak the same frames — clients to the daemon over TCP, and
//! the daemon to its worker children over stdin/stdout pipes — so a worker
//! is just a server with a pipe for a socket. JSON string escapes cover
//! `\n`, which is what makes one-object-per-line a sound framing: a module
//! body full of newlines still arrives as a single line.
//!
//! Everything here is hand-rolled (encoder, tokenizer, object parser), in
//! keeping with the workspace's no-external-dependencies rule; the grammar
//! is restricted to what the protocol needs — one flat object per message
//! with string / integer / boolean / null fields.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use kaleidoscope_exec::CacheDisposition;

/// A request, as carried on the wire.
///
/// The program is given either inline (`module`, textual IR) or by content
/// `fingerprint` (hex, as reported by a previous response) — exactly one
/// must be present, unless `op` selects a control operation (`"health"`),
/// in which case neither is allowed. Everything else is optional.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen id, echoed verbatim on the response.
    pub id: String,
    /// Tenant the request is accounted against (default `"default"`).
    pub tenant: String,
    /// Control operation instead of an analysis (`"health"`); mutually
    /// exclusive with `module`/`fingerprint`.
    pub op: Option<String>,
    /// Inline textual IR.
    pub module: Option<String>,
    /// Content fingerprint of a previously-submitted module (hex).
    pub fingerprint: Option<u64>,
    /// Fingerprint of the tenant's *previous* revision (hex): ask the
    /// worker to warm-start from that revision's solved-state snapshot
    /// (falling back to a cold solve if the snapshot is missing or the
    /// edit is incompatible). Absent = the daemon's per-tenant
    /// auto-lookup applies; explicit `null` is treated as absent.
    pub prev_fingerprint: Option<u64>,
    /// Configuration name (`baseline`, `kd-ctx-pa`, `all`, …); absent =
    /// the full eight-configuration Table-3 matrix.
    pub config: Option<String>,
    /// Include solver counters in the report.
    pub stats: bool,
    /// Per-request solve budget (worklist iterations), capped by the
    /// tenant quota.
    pub budget: Option<usize>,
    /// Ignored. It selected a solver schedule that has since been removed;
    /// it is still decoded and validated so older frames parse.
    pub solver_threads: Option<usize>,
    /// Fault directive for tests (`"kill"`); honored only by workers
    /// started with `--unsafe-faults`.
    pub fault: Option<String>,
}

impl Request {
    /// A minimal request for `module` text under the default tenant.
    pub fn inline(id: &str, module: &str) -> Request {
        Request {
            id: id.to_string(),
            tenant: "default".to_string(),
            op: None,
            module: Some(module.to_string()),
            fingerprint: None,
            prev_fingerprint: None,
            config: None,
            stats: false,
            budget: None,
            solver_threads: None,
            fault: None,
        }
    }

    /// A `{"op":"health"}` control request.
    pub fn health(id: &str) -> Request {
        Request {
            id: id.to_string(),
            tenant: "default".to_string(),
            op: Some("health".to_string()),
            module: None,
            fingerprint: None,
            prev_fingerprint: None,
            config: None,
            stats: false,
            budget: None,
            solver_threads: None,
            fault: None,
        }
    }
}

/// The daemon-side state reported by the `health` operation: lifecycle,
/// per-tenant breaker/shard summaries, and disk-cache recovery counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Lifecycle state: `accepting`, `draining`, or `stopped`.
    pub state: String,
    /// Requests currently being routed.
    pub in_flight: u64,
    /// Requests admitted to a worker shard since startup.
    pub admitted: u64,
    /// Requests shed by admission control since startup.
    pub shed: u64,
    /// Requests rejected with a `draining` response.
    pub draining_rejected: u64,
    /// Requests short-circuited by an open breaker.
    pub breaker_short_circuits: u64,
    /// Shard slots whose breaker is currently open.
    pub breakers_open: u64,
    /// Per-tenant shard summary, rendered as
    /// `tenant:state(served,restarts);...` joined with `|` per tenant
    /// (kept flat so the one-line protocol can carry it).
    pub tenants: String,
    /// `.tmp` orphans removed by disk-cache recovery sweeps.
    pub cache_tmp_swept: u64,
    /// Corrupt artifacts quarantined by disk-cache recovery sweeps.
    pub cache_quarantined: u64,
}

/// A response, as carried on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The analysis ran (possibly degraded) and produced a report.
    Ok {
        /// The request id, echoed.
        id: String,
        /// The rendered report — byte-identical to `kd analyze` output
        /// for the same module, configuration, and effective budget.
        report: String,
        /// The tier actually served: `full`, `fallback`, or
        /// `steensgaard` (the ladder's rungs, worst cell wins).
        tier: String,
        /// Relation to the shared artifact store.
        cache: CacheDisposition,
        /// Module content fingerprint (usable in follow-up requests).
        fingerprint: u64,
        /// Number of degraded configuration cells in the report.
        degraded: u64,
        /// Frontend parse time in milliseconds (header + bodies + `fe/`
        /// cache lookups). Optional: absent from older peers.
        parse_ms: Option<u64>,
        /// Constraint-block recording time in milliseconds (cache misses
        /// only). Optional: absent from older peers.
        gen_ms: Option<u64>,
        /// Functions served from the per-function frontend cache.
        /// Optional: absent from older peers.
        fe_cache_hits: Option<u64>,
    },
    /// The request could not be served at all (parse error, unknown
    /// fingerprint, quota on module size, …).
    Error {
        /// The request id if one was recovered, else `"?"`.
        id: String,
        /// Human-readable reason.
        error: String,
    },
    /// The daemon is draining for shutdown and no longer accepts new
    /// analysis work; in-flight requests still complete. Clients should
    /// fail over, not retry this address.
    Draining {
        /// The request id, echoed.
        id: String,
    },
    /// Answer to a `{"op":"health"}` control request.
    Health {
        /// The request id, echoed.
        id: String,
        /// The daemon-side state snapshot.
        report: HealthReport,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> &str {
        match self {
            Response::Ok { id, .. }
            | Response::Error { id, .. }
            | Response::Draining { id }
            | Response::Health { id, .. } => id,
        }
    }
}

/// Append `s` to `out` as a JSON string literal. Every character that
/// needs an escape is ASCII, so the runs between them are copied whole.
fn push_json_str(out: &mut String, s: &str) {
    // Room for an escape every eight bytes: growing a long frame's string
    // mid-copy would move it to fresh pages.
    out.reserve(s.len() + s.len() / 8 + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Encode a request as one JSON line (no trailing newline).
pub fn encode_request(r: &Request) -> String {
    let mut out = String::from("{\"id\":");
    push_json_str(&mut out, &r.id);
    out.push_str(",\"tenant\":");
    push_json_str(&mut out, &r.tenant);
    if let Some(op) = &r.op {
        out.push_str(",\"op\":");
        push_json_str(&mut out, op);
    }
    if let Some(m) = &r.module {
        out.push_str(",\"module\":");
        push_json_str(&mut out, m);
    }
    if let Some(fp) = r.fingerprint {
        out.push_str(",\"fingerprint\":");
        push_json_str(&mut out, &format!("{fp:016x}"));
    }
    if let Some(fp) = r.prev_fingerprint {
        out.push_str(",\"prev_fingerprint\":");
        push_json_str(&mut out, &format!("{fp:016x}"));
    }
    if let Some(c) = &r.config {
        out.push_str(",\"config\":");
        push_json_str(&mut out, c);
    }
    if r.stats {
        out.push_str(",\"stats\":true");
    }
    if let Some(b) = r.budget {
        let _ = write!(out, ",\"budget\":{b}");
    }
    if let Some(n) = r.solver_threads {
        let _ = write!(out, ",\"solver_threads\":{n}");
    }
    if let Some(f) = &r.fault {
        out.push_str(",\"fault\":");
        push_json_str(&mut out, f);
    }
    out.push('}');
    out
}

/// Encode a response as one JSON line (no trailing newline).
pub fn encode_response(r: &Response) -> String {
    let mut out = String::from("{\"id\":");
    push_json_str(&mut out, r.id());
    match r {
        Response::Ok {
            report,
            tier,
            cache,
            fingerprint,
            degraded,
            parse_ms,
            gen_ms,
            fe_cache_hits,
            ..
        } => {
            out.push_str(",\"status\":\"ok\",\"tier\":");
            push_json_str(&mut out, tier);
            let _ = write!(out, ",\"cache\":\"{}\"", cache.as_str());
            out.push_str(",\"fingerprint\":");
            push_json_str(&mut out, &format!("{fingerprint:016x}"));
            let _ = write!(out, ",\"degraded\":{degraded}");
            if let Some(v) = parse_ms {
                let _ = write!(out, ",\"parse_ms\":{v}");
            }
            if let Some(v) = gen_ms {
                let _ = write!(out, ",\"gen_ms\":{v}");
            }
            if let Some(v) = fe_cache_hits {
                let _ = write!(out, ",\"fe_cache_hits\":{v}");
            }
            out.push_str(",\"report\":");
            push_json_str(&mut out, report);
        }
        Response::Error { error, .. } => {
            out.push_str(",\"status\":\"error\",\"error\":");
            push_json_str(&mut out, error);
        }
        Response::Draining { .. } => {
            out.push_str(",\"status\":\"draining\"");
        }
        Response::Health { report, .. } => {
            out.push_str(",\"status\":\"health\",\"state\":");
            push_json_str(&mut out, &report.state);
            let _ = write!(
                out,
                ",\"in_flight\":{},\"admitted\":{},\"shed\":{},\"draining_rejected\":{}\
                 ,\"breaker_short_circuits\":{},\"breakers_open\":{}",
                report.in_flight,
                report.admitted,
                report.shed,
                report.draining_rejected,
                report.breaker_short_circuits,
                report.breakers_open
            );
            out.push_str(",\"tenants\":");
            push_json_str(&mut out, &report.tenants);
            let _ = write!(
                out,
                ",\"cache_tmp_swept\":{},\"cache_quarantined\":{}",
                report.cache_tmp_swept, report.cache_quarantined
            );
        }
    }
    out.push('}');
    out
}

/// A parsed flat JSON value (the protocol never nests).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Str(String),
}

/// A protocol-level parse failure; the daemon answers these with an
/// `error` response rather than dropping the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed message: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn bad(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// A position in a frame. Characters are read one at a time, except
/// inside strings: `"` and `\` are ASCII, so they never occur within a
/// multi-byte character, and the runs between them are copied whole.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<char> {
        self.s[self.pos..].chars().next()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.pos += 1;
        }
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.next().ok_or_else(|| bad("truncated \\u escape"))?;
            code = code * 16 + d.to_digit(16).ok_or_else(|| bad("bad \\u escape digit"))?;
        }
        Ok(code)
    }

    fn literal(&mut self, word: &str) -> Result<(), ParseError> {
        for expect in word.chars() {
            if self.next() != Some(expect) {
                return Err(bad("bad literal"));
            }
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.next() != Some('"') {
            return Err(bad("expected string"));
        }
        let mut s = String::new();
        loop {
            let rest = &self.s[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            s.push_str(&rest[..run]);
            self.pos += run;
            match self.next() {
                None => return Err(bad("unterminated string")),
                Some('"') => return Ok(s),
                // The run stopped at a backslash.
                Some(_) => match self.next() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some('u') => {
                        let mut code = self.hex4()?;
                        // A character outside the BMP arrives as a UTF-16
                        // surrogate pair: a high surrogate escape, then
                        // the low one. A lone half stays an error.
                        if (0xD800..0xDC00).contains(&code) {
                            let low = match (self.next(), self.next()) {
                                (Some('\\'), Some('u')) => self.hex4()?,
                                _ => return Err(bad("unpaired \\u surrogate")),
                            };
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(bad("unpaired \\u surrogate"));
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        }
                        s.push(char::from_u32(code).ok_or_else(|| bad("bad \\u code point"))?);
                    }
                    other => return Err(bad(format!("bad escape {other:?}"))),
                },
            }
        }
    }
}

/// Parse one flat JSON object into a field map.
fn parse_object(line: &str) -> Result<BTreeMap<String, Value>, ParseError> {
    let mut cur = Cursor {
        s: line.trim(),
        pos: 0,
    };
    let mut fields = BTreeMap::new();

    cur.skip_ws();
    if cur.next() != Some('{') {
        return Err(bad("expected `{`"));
    }
    cur.skip_ws();
    if cur.peek() == Some('}') {
        cur.next();
    } else {
        loop {
            cur.skip_ws();
            let key = cur.string()?;
            cur.skip_ws();
            if cur.next() != Some(':') {
                return Err(bad(format!("expected `:` after key `{key}`")));
            }
            cur.skip_ws();
            let value = match cur.peek() {
                Some('"') => Value::Str(cur.string()?),
                Some('t') => {
                    cur.literal("true")?;
                    Value::Bool(true)
                }
                Some('f') => {
                    cur.literal("false")?;
                    Value::Bool(false)
                }
                Some('n') => {
                    cur.literal("null")?;
                    Value::Null
                }
                Some(c) if c.is_ascii_digit() || c == '-' => {
                    let start = cur.pos;
                    if c == '-' {
                        cur.pos += 1;
                    }
                    while matches!(cur.peek(), Some(c) if c.is_ascii_digit()) {
                        cur.pos += 1;
                    }
                    let num = &cur.s[start..cur.pos];
                    Value::Int(
                        num.parse()
                            .map_err(|_| bad(format!("bad integer `{num}`")))?,
                    )
                }
                other => return Err(bad(format!("unexpected value start {other:?}"))),
            };
            fields.insert(key, value);
            cur.skip_ws();
            match cur.next() {
                Some(',') => continue,
                Some('}') => break,
                other => return Err(bad(format!("expected `,` or `}}`, got {other:?}"))),
            }
        }
    }
    cur.skip_ws();
    if cur.next().is_some() {
        return Err(bad("trailing bytes after object"));
    }
    Ok(fields)
}

fn take_str(fields: &mut BTreeMap<String, Value>, key: &str) -> Result<Option<String>, ParseError> {
    match fields.remove(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(other) => Err(bad(format!(
            "field `{key}` must be a string, got {other:?}"
        ))),
    }
}

fn take_bool(fields: &mut BTreeMap<String, Value>, key: &str) -> Result<bool, ParseError> {
    match fields.remove(key) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(b),
        Some(other) => Err(bad(format!("field `{key}` must be a bool, got {other:?}"))),
    }
}

fn take_uint(fields: &mut BTreeMap<String, Value>, key: &str) -> Result<Option<u64>, ParseError> {
    match fields.remove(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Int(n)) if n >= 0 => Ok(Some(n as u64)),
        Some(other) => Err(bad(format!(
            "field `{key}` must be a non-negative integer, got {other:?}"
        ))),
    }
}

fn parse_fingerprint(hex: &str) -> Result<u64, ParseError> {
    if hex.is_empty() || hex.len() > 16 {
        return Err(bad(format!("bad fingerprint `{hex}`")));
    }
    u64::from_str_radix(hex, 16).map_err(|_| bad(format!("bad fingerprint `{hex}`")))
}

/// Decode a request line. Enforces the inline-xor-fingerprint rule (and
/// the no-program rule for control operations) and rejects unknown fields
/// (protecting against silently-ignored typos).
pub fn decode_request(line: &str) -> Result<Request, ParseError> {
    let mut fields = parse_object(line)?;
    let id = take_str(&mut fields, "id")?.ok_or_else(|| bad("missing `id`"))?;
    let tenant = take_str(&mut fields, "tenant")?.unwrap_or_else(|| "default".to_string());
    let op = take_str(&mut fields, "op")?;
    let module = take_str(&mut fields, "module")?;
    let fingerprint = take_str(&mut fields, "fingerprint")?
        .map(|h| parse_fingerprint(&h))
        .transpose()?;
    let prev_fingerprint = take_str(&mut fields, "prev_fingerprint")?
        .map(|h| parse_fingerprint(&h))
        .transpose()?;
    let config = take_str(&mut fields, "config")?;
    let stats = take_bool(&mut fields, "stats")?;
    let budget = take_uint(&mut fields, "budget")?.map(|n| n as usize);
    let solver_threads = take_uint(&mut fields, "solver_threads")?.map(|n| n as usize);
    let fault = take_str(&mut fields, "fault")?;
    if let Some(unknown) = fields.keys().next() {
        return Err(bad(format!("unknown field `{unknown}`")));
    }
    match &op {
        Some(o) if o != "health" => return Err(bad(format!("unknown op `{o}`"))),
        Some(_) if module.is_some() || fingerprint.is_some() || prev_fingerprint.is_some() => {
            return Err(bad("`op` requests take no `module` or `fingerprint`"))
        }
        Some(_) => {}
        None => match (&module, &fingerprint) {
            (None, None) => return Err(bad("one of `module` or `fingerprint` is required")),
            (Some(_), Some(_)) => {
                return Err(bad("`module` and `fingerprint` are mutually exclusive"))
            }
            _ => {}
        },
    }
    Ok(Request {
        id,
        tenant,
        op,
        module,
        fingerprint,
        prev_fingerprint,
        config,
        stats,
        budget,
        solver_threads,
        fault,
    })
}

/// Decode a response line.
pub fn decode_response(line: &str) -> Result<Response, ParseError> {
    let mut fields = parse_object(line)?;
    let id = take_str(&mut fields, "id")?.ok_or_else(|| bad("missing `id`"))?;
    let status = take_str(&mut fields, "status")?.ok_or_else(|| bad("missing `status`"))?;
    match status.as_str() {
        "ok" => Ok(Response::Ok {
            id,
            report: take_str(&mut fields, "report")?.ok_or_else(|| bad("missing `report`"))?,
            tier: take_str(&mut fields, "tier")?.ok_or_else(|| bad("missing `tier`"))?,
            cache: take_str(&mut fields, "cache")?
                .as_deref()
                .and_then(CacheDisposition::parse)
                .ok_or_else(|| bad("missing or bad `cache`"))?,
            fingerprint: take_str(&mut fields, "fingerprint")?
                .map(|h| parse_fingerprint(&h))
                .transpose()?
                .ok_or_else(|| bad("missing `fingerprint`"))?,
            degraded: take_uint(&mut fields, "degraded")?.unwrap_or(0),
            parse_ms: take_uint(&mut fields, "parse_ms")?,
            gen_ms: take_uint(&mut fields, "gen_ms")?,
            fe_cache_hits: take_uint(&mut fields, "fe_cache_hits")?,
        }),
        "error" => Ok(Response::Error {
            id,
            error: take_str(&mut fields, "error")?.unwrap_or_default(),
        }),
        "draining" => Ok(Response::Draining { id }),
        "health" => Ok(Response::Health {
            id,
            report: HealthReport {
                state: take_str(&mut fields, "state")?.ok_or_else(|| bad("missing `state`"))?,
                in_flight: take_uint(&mut fields, "in_flight")?.unwrap_or(0),
                admitted: take_uint(&mut fields, "admitted")?.unwrap_or(0),
                shed: take_uint(&mut fields, "shed")?.unwrap_or(0),
                draining_rejected: take_uint(&mut fields, "draining_rejected")?.unwrap_or(0),
                breaker_short_circuits: take_uint(&mut fields, "breaker_short_circuits")?
                    .unwrap_or(0),
                breakers_open: take_uint(&mut fields, "breakers_open")?.unwrap_or(0),
                tenants: take_str(&mut fields, "tenants")?.unwrap_or_default(),
                cache_tmp_swept: take_uint(&mut fields, "cache_tmp_swept")?.unwrap_or(0),
                cache_quarantined: take_uint(&mut fields, "cache_quarantined")?.unwrap_or(0),
            },
        }),
        other => Err(bad(format!("unknown status `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_newlines_in_module() {
        let mut r = Request::inline("r-1", "module \"m\" {\n  func @f {\n  }\n}\n");
        r.config = Some("kd-ctx-pa".into());
        r.stats = true;
        r.budget = Some(500);
        r.solver_threads = Some(4);
        let line = encode_request(&r);
        assert!(!line.contains('\n'), "framing: one message per line");
        assert_eq!(decode_request(&line).unwrap(), r);
    }

    #[test]
    fn fingerprint_request_round_trips() {
        let r = Request {
            id: "q".into(),
            tenant: "acme".into(),
            op: None,
            module: None,
            fingerprint: Some(0xDEAD_BEEF_0042),
            prev_fingerprint: None,
            config: None,
            stats: false,
            budget: None,
            solver_threads: None,
            fault: None,
        };
        assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);
    }

    #[test]
    fn prev_fingerprint_round_trips_and_is_rejected_on_ops() {
        let mut r = Request::inline("incr", "module \"m\" {\n}\n");
        r.prev_fingerprint = Some(0x0123_4567_89AB_CDEF);
        assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);
        // Also legal next to `fingerprint` (prev ≠ current revision).
        let decoded =
            decode_request("{\"id\":\"x\",\"fingerprint\":\"ff\",\"prev_fingerprint\":\"fe\"}")
                .unwrap();
        assert_eq!(decoded.fingerprint, Some(0xff));
        assert_eq!(decoded.prev_fingerprint, Some(0xfe));
        // But never on control operations.
        assert!(
            decode_request("{\"id\":\"h\",\"op\":\"health\",\"prev_fingerprint\":\"ff\"}").is_err()
        );
        assert!(
            decode_request("{\"id\":\"x\",\"module\":\"m\",\"prev_fingerprint\":\"zz\"}").is_err()
        );
    }

    #[test]
    fn health_op_round_trips_and_rejects_a_program() {
        let r = Request::health("h-1");
        assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);
        assert!(decode_request("{\"id\":\"h\",\"op\":\"health\",\"module\":\"m\"}").is_err());
        assert!(
            decode_request("{\"id\":\"h\",\"op\":\"flush\"}").is_err(),
            "unknown op"
        );
    }

    #[test]
    fn draining_and_health_responses_round_trip() {
        let draining = Response::Draining { id: "d-1".into() };
        assert_eq!(
            decode_response(&encode_response(&draining)).unwrap(),
            draining
        );
        let health = Response::Health {
            id: "h-1".into(),
            report: HealthReport {
                state: "draining".into(),
                in_flight: 3,
                admitted: 41,
                shed: 7,
                draining_rejected: 2,
                breaker_short_circuits: 5,
                breakers_open: 1,
                tenants: "acme:open(12,4)|default:closed(29,0)".into(),
                cache_tmp_swept: 2,
                cache_quarantined: 1,
            },
        };
        let line = encode_response(&health);
        assert!(!line.contains('\n'));
        assert_eq!(decode_response(&line).unwrap(), health);
    }

    #[test]
    fn solver_threads_zero_round_trips_distinct_from_absent() {
        // `0` explicitly requests the classic schedule; absent defers to
        // the worker's default. The wire must keep those apart.
        let mut r = Request::inline("st", "module \"m\" {\n}\n");
        r.solver_threads = Some(0);
        let decoded = decode_request(&encode_request(&r)).unwrap();
        assert_eq!(decoded.solver_threads, Some(0));
        r.solver_threads = None;
        let decoded = decode_request(&encode_request(&r)).unwrap();
        assert_eq!(decoded.solver_threads, None);
        assert!(decode_request("{\"id\":\"x\",\"module\":\"m\",\"solver_threads\":-1}").is_err());
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            Response::Ok {
                id: "a".into(),
                report: "line one\nline \"two\"\n".into(),
                tier: "full".into(),
                cache: CacheDisposition::Stored,
                fingerprint: 7,
                degraded: 0,
                parse_ms: Some(12),
                gen_ms: Some(3),
                fe_cache_hits: Some(40),
            },
            Response::Ok {
                id: "a2".into(),
                report: "bare".into(),
                tier: "full".into(),
                cache: CacheDisposition::Hit,
                fingerprint: 9,
                degraded: 0,
                parse_ms: None,
                gen_ms: None,
                fe_cache_hits: None,
            },
            Response::Error {
                id: "b".into(),
                error: "boom".into(),
            },
        ] {
            let line = encode_response(&resp);
            assert!(!line.contains('\n'));
            assert_eq!(decode_response(&line).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, why) in [
            ("", "expected `{`"),
            ("{\"id\":\"x\"}", "one of `module` or `fingerprint`"),
            ("{\"module\":\"m\"}", "missing `id`"),
            (
                "{\"id\":\"x\",\"module\":\"m\",\"fingerprint\":\"ff\"}",
                "mutually exclusive",
            ),
            (
                "{\"id\":\"x\",\"module\":\"m\",\"bogus\":1}",
                "unknown field",
            ),
            ("{\"id\":\"x\",\"module\":\"m\"} trailing", "trailing"),
            (
                "{\"id\":\"x\",\"module\":\"m\",\"budget\":-3}",
                "non-negative",
            ),
            ("{\"id\":\"x\",\"fingerprint\":\"zz\"}", "bad fingerprint"),
            ("{\"id\":\"x\",\"module\":\"unterminated", "unterminated"),
        ] {
            let e = decode_request(line).expect_err(line);
            assert!(e.0.contains(why), "`{line}` → `{}` (wanted `{why}`)", e.0);
        }
    }

    #[test]
    fn control_characters_survive_the_wire() {
        let r = Request::inline("c", "weird\u{1}\t\r\nbytes");
        assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);
    }

    /// The char-by-char encoder `push_json_str` replaced, as the reference
    /// for its output.
    fn reference_json_str(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// A seeded string mixing every escape class, plain ASCII runs, DEL
    /// and characters of two, three and four UTF-8 bytes.
    fn seeded_string(rng: &mut kaleidoscope_prng::Rng) -> String {
        const PIECES: &[&str] = &[
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{1}",
            "\u{8}",
            "\u{b}",
            "\u{c}",
            "\u{1b}",
            "\u{1f}",
            "\u{7f}",
            "/",
            "é",
            "€",
            "\u{2028}",
            "\u{fffd}",
            "🦀",
            "\u{10ffff}",
            "module \"m\"",
            "  %1 = load %0",
            "{}",
            ":",
            ",",
            "\\u0041",
        ];
        let len = rng.gen_range(0..40usize);
        (0..len)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    "x".repeat(rng.gen_range(1..200usize))
                } else {
                    PIECES[rng.gen_range(0..PIECES.len())].to_string()
                }
            })
            .collect()
    }

    #[test]
    fn seeded_strings_encode_like_the_reference_and_round_trip() {
        let mut rng = kaleidoscope_prng::Rng::seed_from_u64(0x6a73_6f6e);
        for case in 0..500 {
            let (a, b) = (seeded_string(&mut rng), seeded_string(&mut rng));
            let mut out = String::from("prefix ");
            push_json_str(&mut out, &a);
            assert_eq!(
                out,
                format!("prefix {}", reference_json_str(&a)),
                "case {case}"
            );

            let mut req = Request::inline(&a, &b);
            req.tenant = b.clone();
            let line = encode_request(&req);
            assert!(!line.contains('\n'), "case {case}: framing");
            assert_eq!(
                line,
                format!(
                    "{{\"id\":{},\"tenant\":{},\"module\":{}}}",
                    reference_json_str(&a),
                    reference_json_str(&b),
                    reference_json_str(&b)
                ),
                "case {case}"
            );
            assert_eq!(decode_request(&line).unwrap(), req, "case {case}");
            let resp = Response::Error { id: b, error: a };
            assert_eq!(
                decode_response(&encode_response(&resp)).unwrap(),
                resp,
                "case {case}"
            );
        }
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_character() {
        // What standard encoders (Python's `json.dumps`) write for a
        // character outside the BMP, beside one inside it.
        let line = r#"{"id": "x", "tenant": "\ud83e\udd80 caf\u00e9", "module": "m"}"#;
        assert_eq!(decode_request(line).unwrap().tenant, "\u{1f980} café");
        for lone in [
            r#""\ud83e""#,
            r#""\ud83e x""#,
            r#""\ud83e\u0041""#,
            r#""\udd80""#,
            r#""\udd80\ud83e""#,
        ] {
            let line = format!(r#"{{"id": "x", "tenant": {lone}, "module": "m"}}"#);
            let e = decode_request(&line).expect_err(&line);
            assert!(
                e.0.contains("surrogate") || e.0.contains("code point"),
                "{line}: {e}"
            );
        }
    }
}
