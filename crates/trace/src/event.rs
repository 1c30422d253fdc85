//! The one NDJSON trace schema: [`Event`], written and read through one
//! field list — no external JSON crate.
//!
//! A trace line is a *flat* JSON object (string / integer / boolean
//! values, no nesting). The tracer builds an [`Event`] and writes it with
//! [`Event::to_line`]; [`Event::parse`] reads a line back into one, and
//! reading is the validation: a missing, extra or mistyped field, a float,
//! another schema version or an unknown event is refused by name. Both
//! directions walk the same per-kind field list, so the schema is stated
//! once. The per-run event order is enforced by the one pass over a
//! stream, [`analyze_stream`](crate::analyze::analyze_stream).
//!
//! [`parse_flat_object`] is the object parser underneath; it also reads
//! decimals, which the bench rows of `mp-harness` hold and no trace line
//! may.

use std::collections::HashMap;

use crate::metrics::{Gauge, GAUGE_COUNT};
use crate::phase::{Phase, PHASE_COUNT};

/// The schema version every `run_header` carries; a line of any other
/// version is refused.
pub(crate) const SCHEMA: u64 = 4;

/// A value of a flat JSON object: the three shapes the trace emitter
/// writes, plus the decimals a bench row may hold.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A non-negative integer (every numeric trace field is a count or a
    /// duration).
    Int(u64),
    /// Any other JSON number: a fraction, an exponent or a sign. No trace
    /// event holds one.
    Float(f64),
    /// A JSON boolean.
    Bool(bool),
}

impl Value {
    /// The value's JSON kind, as refusals name it.
    fn kind(&self) -> &'static str {
        match self {
            Value::Str(_) => "a string",
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Bool(_) => "a boolean",
        }
    }
}

/// Parses one flat JSON object (the shape of a trace event and of a bench
/// row). Rejects nested arrays/objects, null, duplicate keys and trailing
/// garbage.
pub fn parse_flat_object(line: &str) -> Result<HashMap<String, Value>, String> {
    let mut chars = line.char_indices().peekable();
    let mut fields = HashMap::new();

    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while chars.next_if(|(_, c)| c.is_ascii_whitespace()).is_some() {}
    };

    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(format!("expected '\"', found {other:?}")),
        }
        let mut out = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, c) = chars.next().ok_or("truncated \\u escape")?;
                            code =
                                code * 16 + c.to_digit(16).ok_or(format!("bad hex digit {c:?}"))?;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("line does not start with '{'".to_string()),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ':')) => {}
                other => return Err(format!("expected ':' after key {key:?}, found {other:?}")),
            }
            skip_ws(&mut chars);
            let value = match chars.peek() {
                Some((_, '"')) => Value::Str(parse_string(&mut chars)?),
                Some((_, 't' | 'f' | '-' | '0'..='9')) => {
                    let mut token = String::new();
                    while let Some((_, c)) = chars
                        .next_if(|(_, c)| c.is_ascii_alphanumeric() || matches!(c, '-' | '+' | '.'))
                    {
                        token.push(c);
                    }
                    let is_number = |extra: &[u8]| {
                        token
                            .bytes()
                            .all(|b| b.is_ascii_digit() || extra.contains(&b))
                    };
                    match token.as_str() {
                        "true" => Value::Bool(true),
                        "false" => Value::Bool(false),
                        digits if is_number(b"") => {
                            Value::Int(digits.parse().map_err(|e| format!("field {key:?}: {e}"))?)
                        }
                        number => match number.parse() {
                            Ok(x) if is_number(b"-+.eE") => Value::Float(x),
                            _ => return Err(format!("field {key:?}: bad literal {number:?}")),
                        },
                    }
                }
                Some((_, '{' | '[')) => {
                    return Err(format!(
                        "field {key:?}: nested values are not part of the schema"
                    ))
                }
                other => return Err(format!("field {key:?}: unexpected value start {other:?}")),
            };
            if fields.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate field {key:?}"));
            }
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some((i, c)) = chars.next() {
        return Err(format!("trailing data {c:?} at byte {i}"));
    }
    Ok(fields)
}

/// One BFS level's worth of time-series data, emitted as a `level_summary`
/// event by the breadth-first engines at the end of every level. Together
/// the events form the per-run time series the `trace_report timeline`
/// subcommand renders.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelSummary {
    /// The BFS level (1-based; level 1 expands the initial state).
    pub level: u64,
    /// Number of frontier entries the level started with.
    pub width: u64,
    /// States first inserted into the visited store during this level.
    pub new_states: u64,
    /// Visited-store hits (revisited successors) during this level.
    pub store_hits: u64,
    /// Peak bytes queued in the frontier so far.
    pub frontier_bytes: u64,
    /// Wall-clock the level took, in microseconds.
    pub duration_us: u64,
}

/// One trace line: the header every event carries, then its kind's fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Sequence number, global across the runs of one tracer.
    pub seq: u64,
    /// Protocol label of the run.
    pub protocol: String,
    /// Strategy (engine) label of the run.
    pub strategy: String,
    /// The event kind and its fields.
    pub body: Body,
}

/// The kinds of trace event, in the order a run emits them: `run_header`,
/// then `progress`, `level_summary` and `resume` events, then one
/// `phase_summary` and the `verdict`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Body {
    /// Run start. The line also carries the schema version, `"schema":4`.
    RunHeader {
        /// Property label of the run.
        property: String,
    },
    /// Periodic or final progress sample.
    Progress {
        /// Microseconds since the run began (at least 1).
        elapsed_us: u64,
        /// States so far.
        states: u64,
        /// Transitions executed so far.
        transitions: u64,
        /// Peak search depth / BFS level so far.
        depth: u64,
        /// Peak gauge values, indexed like [`Gauge::ALL`].
        gauges: [u64; GAUGE_COUNT],
        /// `true` on the sample of the run's tail (written as `final`).
        is_final: bool,
    },
    /// One BFS level of the time series.
    LevelSummary(LevelSummary),
    /// The engine rebuilt its state from a checkpoint manifest.
    Resume {
        /// The last completed BFS level in the manifest.
        level: u64,
        /// The visited-store size after the rebuild.
        states: u64,
    },
    /// Accumulated microseconds per phase, indexed like [`Phase::ALL`]
    /// (written as `<phase>_us`).
    PhaseSummary {
        /// Microseconds per phase.
        phases_us: [u64; PHASE_COUNT],
    },
    /// The run's final verdict.
    Verdict {
        /// The verdict label (`"aborted"` for the `Drop`-flushed tail).
        verdict: String,
        /// `false` when the run ended in the `Drop`-flushed tail.
        clean: bool,
        /// Final state count.
        states: u64,
        /// Final transition count.
        transitions: u64,
        /// Wall-clock of the run, milliseconds.
        elapsed_ms: u64,
    },
}

impl Body {
    /// The event's name, as the `event` field holds it.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Body::RunHeader { .. } => "run_header",
            Body::Progress { .. } => "progress",
            Body::LevelSummary(_) => "level_summary",
            Body::Resume { .. } => "resume",
            Body::PhaseSummary { .. } => "phase_summary",
            Body::Verdict { .. } => "verdict",
        }
    }

    /// The body of the kind named `name`, every field zero, for
    /// [`Event::parse`] to fill.
    fn blank(name: &str) -> Option<Body> {
        let kinds = [
            Body::RunHeader {
                property: String::new(),
            },
            Body::Progress {
                elapsed_us: 0,
                states: 0,
                transitions: 0,
                depth: 0,
                gauges: [0; GAUGE_COUNT],
                is_final: false,
            },
            Body::LevelSummary(LevelSummary::default()),
            Body::Resume {
                level: 0,
                states: 0,
            },
            Body::PhaseSummary {
                phases_us: [0; PHASE_COUNT],
            },
            Body::Verdict {
                verdict: String::new(),
                clean: false,
                states: 0,
                transitions: 0,
                elapsed_ms: 0,
            },
        ];
        kinds.into_iter().find(|body| body.name() == name)
    }
}

/// One direction over an event's fields: [`Writer`] appends each to a
/// line, [`Reader`] takes each out of a parsed one.
trait Fields {
    fn int(&mut self, key: &str, value: &mut u64);
    fn text(&mut self, key: &str, value: &mut String);
    fn flag(&mut self, key: &str, value: &mut bool);
    /// The run header's `schema` field: written as [`SCHEMA`], read back
    /// only when it equals it.
    fn schema(&mut self);
}

impl Event {
    /// Every field after `event`, in line order — the schema, for both
    /// directions.
    fn fields(&mut self, f: &mut impl Fields) {
        f.int("seq", &mut self.seq);
        f.text("protocol", &mut self.protocol);
        f.text("strategy", &mut self.strategy);
        match &mut self.body {
            Body::RunHeader { property } => {
                f.schema();
                f.text("property", property);
            }
            Body::Progress {
                elapsed_us,
                states,
                transitions,
                depth,
                gauges,
                is_final,
            } => {
                f.int("elapsed_us", elapsed_us);
                f.int("states", states);
                f.int("transitions", transitions);
                f.int("depth", depth);
                for (gauge, value) in Gauge::ALL.iter().zip(gauges) {
                    f.int(gauge.name(), value);
                }
                f.flag("final", is_final);
            }
            Body::LevelSummary(level) => {
                f.int("level", &mut level.level);
                f.int("width", &mut level.width);
                f.int("new_states", &mut level.new_states);
                f.int("store_hits", &mut level.store_hits);
                f.int("frontier_bytes", &mut level.frontier_bytes);
                f.int("duration_us", &mut level.duration_us);
            }
            Body::Resume { level, states } => {
                f.int("level", level);
                f.int("states", states);
            }
            Body::PhaseSummary { phases_us } => {
                for (phase, us) in Phase::ALL.iter().zip(phases_us) {
                    f.int(&format!("{}_us", phase.name()), us);
                }
            }
            Body::Verdict {
                verdict,
                clean,
                states,
                transitions,
                elapsed_ms,
            } => {
                f.text("verdict", verdict);
                f.flag("clean", clean);
                f.int("states", states);
                f.int("transitions", transitions);
                f.int("elapsed_ms", elapsed_ms);
            }
        }
    }

    /// The event as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut writer = Writer(format!("{{\"event\":\"{}\"", self.body.name()));
        self.clone().fields(&mut writer);
        writer.0.push('}');
        writer.0
    }

    /// Reads one NDJSON line.
    ///
    /// # Errors
    ///
    /// A message naming what is wrong: a line that is not a flat object, a
    /// float, an unknown event, another schema version, or a missing, extra
    /// or mistyped field.
    pub fn parse(line: &str) -> Result<Event, String> {
        let mut fields = parse_flat_object(line)?;
        let float = fields.iter().filter(|(_, v)| matches!(v, Value::Float(_)));
        if let Some(key) = float.map(|(k, _)| k).min() {
            return Err(format!("field {key:?}: floats are not part of the schema"));
        }
        let name = match fields.remove("event") {
            Some(Value::Str(name)) => name,
            Some(other) => {
                return Err(format!(
                    "field \"event\" must be a string, found {}",
                    other.kind()
                ))
            }
            None => return Err("missing field \"event\"".to_string()),
        };
        let body = Body::blank(&name).ok_or_else(|| format!("unknown event kind {name:?}"))?;
        let mut event = Event {
            seq: 0,
            protocol: String::new(),
            strategy: String::new(),
            body,
        };
        let mut reader = Reader {
            event: &name,
            fields,
            error: None,
        };
        event.fields(&mut reader);
        if let Some(error) = reader.error {
            return Err(error);
        }
        match reader.fields.keys().min() {
            Some(extra) => Err(format!("{name}: unexpected field {extra:?}")),
            None => Ok(event),
        }
    }
}

/// Appends `,"key":value` per field.
struct Writer(String);

impl Writer {
    fn key(&mut self, key: &str) {
        self.0.push_str(",\"");
        self.0.push_str(key);
        self.0.push_str("\":");
    }
}

impl Fields for Writer {
    fn int(&mut self, key: &str, value: &mut u64) {
        self.key(key);
        self.0.push_str(&value.to_string());
    }

    fn text(&mut self, key: &str, value: &mut String) {
        self.key(key);
        self.0.push('"');
        for c in value.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if (c as u32) < 0x20 => self.0.push_str(&format!("\\u{:04x}", c as u32)),
                c => self.0.push(c),
            }
        }
        self.0.push('"');
    }

    fn flag(&mut self, key: &str, value: &mut bool) {
        self.key(key);
        self.0.push_str(if *value { "true" } else { "false" });
    }

    fn schema(&mut self) {
        let mut version = SCHEMA;
        self.int("schema", &mut version);
    }
}

/// Takes each field out of a parsed line, keeping the first refusal.
struct Reader<'a> {
    /// The event's name, for messages.
    event: &'a str,
    fields: HashMap<String, Value>,
    error: Option<String>,
}

impl Reader<'_> {
    /// Removes `key` when its value is of kind `want`, or records why not.
    fn take(&mut self, key: &str, want: &str) -> Option<Value> {
        let refusal = match self.fields.remove(key) {
            Some(value) if value.kind() == want => return Some(value),
            Some(value) => format!(
                "{}: field {key:?} must be {want}, found {}",
                self.event,
                value.kind()
            ),
            None => format!("{}: missing field {key:?}", self.event),
        };
        self.error.get_or_insert(refusal);
        None
    }
}

impl Fields for Reader<'_> {
    fn int(&mut self, key: &str, value: &mut u64) {
        if let Some(Value::Int(n)) = self.take(key, "an integer") {
            *value = n;
        }
    }

    fn text(&mut self, key: &str, value: &mut String) {
        if let Some(Value::Str(s)) = self.take(key, "a string") {
            *value = s;
        }
    }

    fn flag(&mut self, key: &str, value: &mut bool) {
        if let Some(Value::Bool(b)) = self.take(key, "a boolean") {
            *value = b;
        }
    }

    fn schema(&mut self) {
        let mut version = SCHEMA;
        self.int("schema", &mut version);
        if version != SCHEMA {
            let refusal = format!("{}: unsupported schema version {version}", self.event);
            self.error.get_or_insert(refusal);
        }
    }
}
