//! The wire protocol: one JSON object per line, typed on both sides.
//!
//! Frames are encoded with [`ps_base::json::Json::to_compact`] (escaping
//! guarantees one frame is exactly one line) and parsed with
//! [`ps_base::json::Json::parse_located`], so a malformed frame yields a
//! span-carrying [`WireError`] instead of a dead connection.  Every request
//! is a [`Request`]; every response is a [`Response`] carrying either a
//! typed [`Payload`] plus the answering set's epoch and the
//! strategy-independent [`Counters`], or a typed [`WireError`].
//!
//! The grammar is documented operator by operator in `docs/SERVICE.md`;
//! the round-trip property (`decode(encode(x)) == x` for every frame,
//! multi-byte strings included) is pinned by `tests/proto_props.rs`.

use ps_base::json::Json;
use ps_session::{Counters, Epoch};

/// A request frame: an optional client-chosen correlation id (echoed back
/// verbatim in the response) plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Correlation id; the server never interprets it.
    pub id: Option<u64>,
    /// The requested operation.
    pub op: Op,
}

/// A database literal: named relations with attribute lists and rows of
/// symbol names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseSpec {
    /// The relations, in order.
    pub relations: Vec<RelationSpec>,
}

/// One relation of a [`DatabaseSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSpec {
    /// Relation name.
    pub name: String,
    /// Attribute names (the relation scheme, in column order).
    pub attrs: Vec<String>,
    /// Rows of symbol names; every row must match the scheme's arity.
    pub rows: Vec<Vec<String>>,
}

/// The operations of the protocol.  Constraint sets are identified by
/// client-chosen names, not raw handles, so responses are a pure function
/// of the requesting client's own script (see `docs/SERVICE.md`).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Register a named constraint set from PD texts.
    Register {
        /// Set name.
        set: String,
        /// PDs in the concrete syntax (e.g. `"C = A + B"`).
        pds: Vec<String>,
    },
    /// Add one PD to a registered set (bumps its epoch when effective).
    AddPd {
        /// Set name.
        set: String,
        /// The PD text.
        pd: String,
    },
    /// Remove one PD from a registered set (matched modulo orientation).
    RemovePd {
        /// Set name.
        set: String,
        /// The PD text.
        pd: String,
    },
    /// PD implication (Theorems 8/9) of a single goal.
    Implies {
        /// Set name.
        set: String,
        /// Goal PD text.
        goal: String,
    },
    /// Batched PD implication; the batch fans out over the worker pool.
    ImpliesMany {
        /// Set name.
        set: String,
        /// Goal PD texts.
        goals: Vec<String>,
    },
    /// Theorem 12 polynomial consistency of a database literal.
    Consistent {
        /// Set name.
        set: String,
        /// The database.
        database: DatabaseSpec,
    },
    /// Theorem 7 weak-instance satisfiability of a database literal.
    WeakInstance {
        /// Set name.
        set: String,
        /// The database.
        database: DatabaseSpec,
    },
    /// Example e / Theorem 4: connected components of an undirected graph
    /// through partition semantics.
    ConnectedComponents {
        /// Number of vertices (vertices are `0..vertices`).
        vertices: u64,
        /// Edges as `[u, v]` pairs.
        edges: Vec<(u64, u64)>,
    },
    /// Server statistics: uptime, per-operation totals, cumulative
    /// counters.
    Stats,
    /// Drain in-flight work, then exit cleanly.
    Shutdown,
}

impl Op {
    /// The wire name of the operation.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Register { .. } => "register",
            Op::AddPd { .. } => "add_pd",
            Op::RemovePd { .. } => "remove_pd",
            Op::Implies { .. } => "implies",
            Op::ImpliesMany { .. } => "implies_many",
            Op::Consistent { .. } => "consistent",
            Op::WeakInstance { .. } => "weak_instance",
            Op::ConnectedComponents { .. } => "connected_components",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }
}

/// The kind of a [`WireError`] — stable protocol vocabulary, not
/// free-form text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame was not valid JSON; `span` points at the failing byte.
    Parse,
    /// The frame was valid JSON but not a valid request (missing or
    /// ill-typed fields, unknown op, out-of-range graph vertices …).
    Protocol,
    /// A PD or goal text failed to parse; `span` is relative to that text.
    Equation,
    /// A database literal was rejected (arity mismatch, duplicate scheme
    /// attribute …).
    Database,
    /// The named constraint set is not registered on this server.
    UnknownSet,
    /// The name is already bound to a different constraint set.
    SetExists,
    /// The request queue is full — backpressure, retry later.
    Overloaded,
    /// The server is draining after a `shutdown` request.
    ShuttingDown,
    /// A solver-level failure surfaced by the session layer.
    Session,
    /// The frame ran past the server's frame cap (4 MiB) without a
    /// newline; the server discarded input up to the next newline.
    FrameTooLarge,
}

impl ErrorKind {
    /// The wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Equation => "equation",
            ErrorKind::Database => "database",
            ErrorKind::UnknownSet => "unknown_set",
            ErrorKind::SetExists => "set_exists",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Session => "session",
            ErrorKind::FrameTooLarge => "frame_too_large",
        }
    }

    fn from_str(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "parse" => ErrorKind::Parse,
            "protocol" => ErrorKind::Protocol,
            "equation" => ErrorKind::Equation,
            "database" => ErrorKind::Database,
            "unknown_set" => ErrorKind::UnknownSet,
            "set_exists" => ErrorKind::SetExists,
            "overloaded" => ErrorKind::Overloaded,
            "shutting_down" => ErrorKind::ShuttingDown,
            "session" => ErrorKind::Session,
            "frame_too_large" => ErrorKind::FrameTooLarge,
            _ => return None,
        })
    }
}

/// A typed protocol error, carried in an error response (and also the
/// decode-failure type of this module).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong, as stable vocabulary.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// Byte-offset span of the offense, when one exists: into the frame
    /// for [`ErrorKind::Parse`], into the offending PD/goal text for
    /// [`ErrorKind::Equation`].
    pub span: Option<(u64, u64)>,
}

impl WireError {
    /// A spanless error of the given kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
            span: None,
        }
    }

    fn protocol(message: impl Into<String>) -> Self {
        WireError::new(ErrorKind::Protocol, message)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)?;
        if let Some((start, end)) = self.span {
            write!(f, " (bytes {start}..{end})")?;
        }
        Ok(())
    }
}

impl std::error::Error for WireError {}

/// Per-operation server statistics, as reported by the `stats` op.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// Nanoseconds since the server started (the one nondeterministic
    /// field of the protocol).
    pub uptime_ns: u64,
    /// Total frames received, malformed ones included.
    pub requests_total: u64,
    /// Responses answered `ok: true`.
    pub responses_ok: u64,
    /// Responses answered `ok: false`.
    pub responses_err: u64,
    /// Requests per operation name, sorted by name.
    pub per_op: Vec<(String, u64)>,
    /// Sum of the counters of every `ok` response so far.
    pub totals: Counters,
}

/// The typed value of a successful response.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// `register`: the deduplicated PD count of the (possibly pre-existing)
    /// set now bound to the name.
    Registered {
        /// Deduplicated PD count.
        pds: u64,
    },
    /// `add_pd`: whether the set actually grew.
    Added {
        /// `false` if an equal PD was already registered.
        added: bool,
    },
    /// `remove_pd`: whether a PD was actually removed.
    Removed {
        /// `false` if no equal PD was registered.
        removed: bool,
    },
    /// `implies`: the verdict.
    Implies {
        /// Whether the set implies the goal.
        implied: bool,
    },
    /// `implies_many`: one verdict per goal, in request order.
    ImpliesMany {
        /// Verdicts in goal order.
        implied: Vec<bool>,
    },
    /// `consistent`: the Theorem 12 verdict plus the closed system's shape.
    /// It carries no witness; `weak_instance` is the witness op.
    Consistent {
        /// The verdict.
        consistent: bool,
        /// FDs in the closed system the chase ran with (one per
        /// left-hand side).
        fds: u64,
        /// Surviving sum constraints.
        sums: u64,
    },
    /// `weak_instance`: the Theorem 7 verdict, the witness size and how the
    /// Lemma 12.1 repair behind the witness ended.
    WeakInstance {
        /// The verdict.
        satisfiable: bool,
        /// Rows of the repaired weak instance, when constructed.
        weak_instance_rows: Option<u64>,
        /// Whether the repair reached its fixpoint.  `false` (with
        /// `satisfiable` true) means its bridge budget ran out, and then no
        /// witness is returned.
        repair_converged: bool,
        /// Bridging rows the repair inserted.
        bridges: u64,
    },
    /// `connected_components`: one component id per vertex.
    Components {
        /// Component id per vertex `0..vertices`.
        components: Vec<u64>,
    },
    /// `stats`.
    Stats(StatsReport),
    /// `shutdown`: acknowledged; the server drains and exits.
    Shutdown,
}

/// A response frame.  `op` names the operation answered (empty when the
/// frame itself was unparseable); success carries the payload plus the
/// counters (whose `epoch` is the answering set's epoch, also surfaced as
/// the top-level `epoch` field on the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request's correlation id.
    pub id: Option<u64>,
    /// Operation name (`""` for unparseable frames).
    pub op: String,
    /// The typed payload with counters, or the typed error.
    pub result: Result<(Payload, Counters), WireError>,
}

impl Response {
    /// A success response.
    pub fn ok(id: Option<u64>, op: &str, payload: Payload, counters: Counters) -> Self {
        Response {
            id,
            op: op.to_owned(),
            result: Ok((payload, counters)),
        }
    }

    /// An error response.
    pub fn err(id: Option<u64>, op: &str, error: WireError) -> Self {
        Response {
            id,
            op: op.to_owned(),
            result: Err(error),
        }
    }

    /// Whether this response acknowledges a `shutdown` request.
    pub fn is_shutdown_ack(&self) -> bool {
        matches!(self.result, Ok((Payload::Shutdown, _)))
    }
}

// ---------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn counters_to_json(c: &Counters) -> Json {
    Json::obj(vec![
        ("rule_firings", num(c.rule_firings)),
        ("row_visits", num(c.row_visits)),
        ("engine_hits", num(c.engine_hits)),
        ("engine_misses", num(c.engine_misses)),
        ("epoch", num(c.epoch.value())),
    ])
}

fn database_to_json(db: &DatabaseSpec) -> Json {
    let relations = db
        .relations
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::Str(r.name.clone())),
                ("attrs", str_arr(&r.attrs)),
                (
                    "rows",
                    Json::Arr(r.rows.iter().map(|row| str_arr(row)).collect()),
                ),
            ])
        })
        .collect();
    Json::obj(vec![("relations", Json::Arr(relations))])
}

impl Request {
    /// Encodes the request as a JSON tree.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = Vec::new();
        if let Some(id) = self.id {
            pairs.push(("id", num(id)));
        }
        pairs.push(("op", Json::Str(self.op.name().to_owned())));
        match &self.op {
            Op::Register { set, pds } => {
                pairs.push(("set", Json::Str(set.clone())));
                pairs.push(("pds", str_arr(pds)));
            }
            Op::AddPd { set, pd } | Op::RemovePd { set, pd } => {
                pairs.push(("set", Json::Str(set.clone())));
                pairs.push(("pd", Json::Str(pd.clone())));
            }
            Op::Implies { set, goal } => {
                pairs.push(("set", Json::Str(set.clone())));
                pairs.push(("goal", Json::Str(goal.clone())));
            }
            Op::ImpliesMany { set, goals } => {
                pairs.push(("set", Json::Str(set.clone())));
                pairs.push(("goals", str_arr(goals)));
            }
            Op::Consistent { set, database } | Op::WeakInstance { set, database } => {
                pairs.push(("set", Json::Str(set.clone())));
                pairs.push(("database", database_to_json(database)));
            }
            Op::ConnectedComponents { vertices, edges } => {
                pairs.push(("vertices", num(*vertices)));
                pairs.push((
                    "edges",
                    Json::Arr(
                        edges
                            .iter()
                            .map(|&(u, v)| Json::Arr(vec![num(u), num(v)]))
                            .collect(),
                    ),
                ));
            }
            Op::Stats | Op::Shutdown => {}
        }
        Json::obj(pairs)
    }

    /// Encodes the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_compact()
    }

    /// Decodes a request from one wire line.
    pub fn parse_line(line: &str) -> Result<Request, WireError> {
        let json = Json::parse_located(line).map_err(|e| WireError {
            kind: ErrorKind::Parse,
            message: e.message,
            span: Some((e.pos as u64, e.pos as u64)),
        })?;
        Request::from_json(&json)
    }

    /// Decodes a request from a JSON tree.
    pub fn from_json(json: &Json) -> Result<Request, WireError> {
        if !matches!(json, Json::Obj(_)) {
            return Err(WireError::protocol("request frame must be a JSON object"));
        }
        let id = match json.get("id") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| WireError::protocol("`id` must be a non-negative integer"))?,
            ),
        };
        let op_name = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError::protocol("missing or non-string `op`"))?;
        let op = match op_name {
            "register" => Op::Register {
                set: get_str(json, "set")?,
                pds: get_str_arr(json, "pds")?,
            },
            "add_pd" => Op::AddPd {
                set: get_str(json, "set")?,
                pd: get_str(json, "pd")?,
            },
            "remove_pd" => Op::RemovePd {
                set: get_str(json, "set")?,
                pd: get_str(json, "pd")?,
            },
            "implies" => Op::Implies {
                set: get_str(json, "set")?,
                goal: get_str(json, "goal")?,
            },
            "implies_many" => Op::ImpliesMany {
                set: get_str(json, "set")?,
                goals: get_str_arr(json, "goals")?,
            },
            "consistent" => Op::Consistent {
                set: get_str(json, "set")?,
                database: get_database(json)?,
            },
            "weak_instance" => Op::WeakInstance {
                set: get_str(json, "set")?,
                database: get_database(json)?,
            },
            "connected_components" => {
                let vertices = json
                    .get("vertices")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| WireError::protocol("missing or non-integer `vertices`"))?;
                let edges_json = json
                    .get("edges")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError::protocol("missing or non-array `edges`"))?;
                let mut edges = Vec::with_capacity(edges_json.len());
                for edge in edges_json {
                    let pair = edge
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| WireError::protocol("each edge must be a `[u, v]` pair"))?;
                    let u = pair[0]
                        .as_u64()
                        .ok_or_else(|| WireError::protocol("edge endpoints must be integers"))?;
                    let v = pair[1]
                        .as_u64()
                        .ok_or_else(|| WireError::protocol("edge endpoints must be integers"))?;
                    edges.push((u, v));
                }
                Op::ConnectedComponents { vertices, edges }
            }
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            other => {
                return Err(WireError::protocol(format!("unknown op `{other}`")));
            }
        };
        Ok(Request { id, op })
    }
}

fn get_str(json: &Json, key: &str) -> Result<String, WireError> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| WireError::protocol(format!("missing or non-string `{key}`")))
}

fn get_str_arr(json: &Json, key: &str) -> Result<Vec<String>, WireError> {
    let arr = json
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError::protocol(format!("missing or non-array `{key}`")))?;
    arr.iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| WireError::protocol(format!("`{key}` entries must be strings")))
        })
        .collect()
}

fn get_database(json: &Json) -> Result<DatabaseSpec, WireError> {
    let db = json
        .get("database")
        .ok_or_else(|| WireError::protocol("missing `database`"))?;
    let relations_json = db
        .get("relations")
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError::protocol("`database` must have a `relations` array"))?;
    let mut relations = Vec::with_capacity(relations_json.len());
    for rel in relations_json {
        let name = get_str(rel, "name")?;
        let attrs = get_str_arr(rel, "attrs")?;
        let rows_json = rel
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| WireError::protocol("missing or non-array `rows`"))?;
        let mut rows = Vec::with_capacity(rows_json.len());
        for row in rows_json {
            let cells = row
                .as_arr()
                .ok_or_else(|| WireError::protocol("each row must be an array"))?;
            rows.push(
                cells
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| WireError::protocol("row cells must be strings"))
                    })
                    .collect::<Result<Vec<String>, WireError>>()?,
            );
        }
        relations.push(RelationSpec { name, attrs, rows });
    }
    Ok(DatabaseSpec { relations })
}

fn opt_rows(rows: Option<u64>) -> Json {
    match rows {
        Some(n) => num(n),
        None => Json::Null,
    }
}

impl Payload {
    fn to_json(&self) -> Json {
        match self {
            Payload::Registered { pds } => Json::obj(vec![("pds", num(*pds))]),
            Payload::Added { added } => Json::obj(vec![("added", Json::Bool(*added))]),
            Payload::Removed { removed } => Json::obj(vec![("removed", Json::Bool(*removed))]),
            Payload::Implies { implied } => Json::obj(vec![("implied", Json::Bool(*implied))]),
            Payload::ImpliesMany { implied } => Json::obj(vec![(
                "implied",
                Json::Arr(implied.iter().map(|&b| Json::Bool(b)).collect()),
            )]),
            Payload::Consistent {
                consistent,
                fds,
                sums,
            } => Json::obj(vec![
                ("consistent", Json::Bool(*consistent)),
                ("fds", num(*fds)),
                ("sums", num(*sums)),
            ]),
            Payload::WeakInstance {
                satisfiable,
                weak_instance_rows,
                repair_converged,
                bridges,
            } => Json::obj(vec![
                ("satisfiable", Json::Bool(*satisfiable)),
                ("weak_instance_rows", opt_rows(*weak_instance_rows)),
                ("repair_converged", Json::Bool(*repair_converged)),
                ("bridges", num(*bridges)),
            ]),
            Payload::Components { components } => Json::obj(vec![(
                "components",
                Json::Arr(components.iter().map(|&c| num(c)).collect()),
            )]),
            Payload::Stats(report) => Json::obj(vec![
                ("uptime_ns", num(report.uptime_ns)),
                ("requests_total", num(report.requests_total)),
                ("responses_ok", num(report.responses_ok)),
                ("responses_err", num(report.responses_err)),
                (
                    "per_op",
                    Json::Arr(
                        report
                            .per_op
                            .iter()
                            .map(|(op, n)| Json::Arr(vec![Json::Str(op.clone()), num(*n)]))
                            .collect(),
                    ),
                ),
                ("totals", counters_to_json(&report.totals)),
            ]),
            Payload::Shutdown => Json::obj(vec![("draining", Json::Bool(true))]),
        }
    }

    fn from_json(op: &str, value: &Json) -> Result<Payload, WireError> {
        let payload = match op {
            "register" => Payload::Registered {
                pds: get_u64(value, "pds")?,
            },
            "add_pd" => Payload::Added {
                added: get_bool(value, "added")?,
            },
            "remove_pd" => Payload::Removed {
                removed: get_bool(value, "removed")?,
            },
            "implies" => Payload::Implies {
                implied: get_bool(value, "implied")?,
            },
            "implies_many" => {
                let arr = value
                    .get("implied")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError::protocol("missing or non-array `implied`"))?;
                Payload::ImpliesMany {
                    implied: arr
                        .iter()
                        .map(|v| {
                            v.as_bool().ok_or_else(|| {
                                WireError::protocol("`implied` entries must be booleans")
                            })
                        })
                        .collect::<Result<Vec<bool>, WireError>>()?,
                }
            }
            "consistent" => Payload::Consistent {
                consistent: get_bool(value, "consistent")?,
                fds: get_u64(value, "fds")?,
                sums: get_u64(value, "sums")?,
            },
            "weak_instance" => Payload::WeakInstance {
                satisfiable: get_bool(value, "satisfiable")?,
                weak_instance_rows: get_opt_u64(value, "weak_instance_rows")?,
                repair_converged: get_bool(value, "repair_converged")?,
                bridges: get_u64(value, "bridges")?,
            },
            "connected_components" => {
                let arr = value
                    .get("components")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError::protocol("missing or non-array `components`"))?;
                Payload::Components {
                    components: arr
                        .iter()
                        .map(|v| {
                            v.as_u64().ok_or_else(|| {
                                WireError::protocol("`components` entries must be integers")
                            })
                        })
                        .collect::<Result<Vec<u64>, WireError>>()?,
                }
            }
            "stats" => {
                let per_op_json = value
                    .get("per_op")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError::protocol("missing or non-array `per_op`"))?;
                let mut per_op = Vec::with_capacity(per_op_json.len());
                for entry in per_op_json {
                    let pair = entry.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                        WireError::protocol("`per_op` entries must be `[op, count]` pairs")
                    })?;
                    let op_name = pair[0]
                        .as_str()
                        .ok_or_else(|| WireError::protocol("`per_op` names must be strings"))?;
                    let count = pair[1]
                        .as_u64()
                        .ok_or_else(|| WireError::protocol("`per_op` counts must be integers"))?;
                    per_op.push((op_name.to_owned(), count));
                }
                let totals_json = value
                    .get("totals")
                    .ok_or_else(|| WireError::protocol("missing `totals`"))?;
                Payload::Stats(StatsReport {
                    uptime_ns: get_u64(value, "uptime_ns")?,
                    requests_total: get_u64(value, "requests_total")?,
                    responses_ok: get_u64(value, "responses_ok")?,
                    responses_err: get_u64(value, "responses_err")?,
                    per_op,
                    totals: counters_from_json(totals_json)?,
                })
            }
            "shutdown" => Payload::Shutdown,
            other => {
                return Err(WireError::protocol(format!(
                    "cannot decode a payload for op `{other}`"
                )));
            }
        };
        Ok(payload)
    }
}

fn get_bool(json: &Json, key: &str) -> Result<bool, WireError> {
    json.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| WireError::protocol(format!("missing or non-boolean `{key}`")))
}

fn get_u64(json: &Json, key: &str) -> Result<u64, WireError> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError::protocol(format!("missing or non-integer `{key}`")))
}

fn get_opt_u64(json: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| WireError::protocol(format!("`{key}` must be an integer or null"))),
    }
}

fn counters_from_json(json: &Json) -> Result<Counters, WireError> {
    Ok(Counters {
        rule_firings: get_u64(json, "rule_firings")?,
        row_visits: get_u64(json, "row_visits")?,
        engine_hits: get_u64(json, "engine_hits")?,
        engine_misses: get_u64(json, "engine_misses")?,
        epoch: Epoch::new(get_u64(json, "epoch")?),
    })
}

impl Response {
    /// Encodes the response as a JSON tree.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = Vec::new();
        if let Some(id) = self.id {
            pairs.push(("id", num(id)));
        }
        pairs.push(("op", Json::Str(self.op.clone())));
        match &self.result {
            Ok((payload, counters)) => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("epoch", num(counters.epoch.value())));
                pairs.push(("value", payload.to_json()));
                pairs.push(("counters", counters_to_json(counters)));
            }
            Err(error) => {
                pairs.push(("ok", Json::Bool(false)));
                let mut err_pairs = vec![
                    ("kind", Json::Str(error.kind.as_str().to_owned())),
                    ("message", Json::Str(error.message.clone())),
                ];
                if let Some((start, end)) = error.span {
                    err_pairs.push(("span", Json::Arr(vec![num(start), num(end)])));
                }
                pairs.push(("error", Json::obj(err_pairs)));
            }
        }
        Json::obj(pairs)
    }

    /// Encodes the response as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_compact()
    }

    /// Decodes a response from one wire line.
    pub fn parse_line(line: &str) -> Result<Response, WireError> {
        let json = Json::parse_located(line).map_err(|e| WireError {
            kind: ErrorKind::Parse,
            message: e.message,
            span: Some((e.pos as u64, e.pos as u64)),
        })?;
        Response::from_json(&json)
    }

    /// Decodes a response from a JSON tree.
    pub fn from_json(json: &Json) -> Result<Response, WireError> {
        if !matches!(json, Json::Obj(_)) {
            return Err(WireError::protocol("response frame must be a JSON object"));
        }
        let id = match json.get("id") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| WireError::protocol("`id` must be a non-negative integer"))?,
            ),
        };
        let op = get_str(json, "op")?;
        let ok = json
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| WireError::protocol("missing or non-boolean `ok`"))?;
        let result = if ok {
            let value = json
                .get("value")
                .ok_or_else(|| WireError::protocol("missing `value`"))?;
            let counters_json = json
                .get("counters")
                .ok_or_else(|| WireError::protocol("missing `counters`"))?;
            let counters = counters_from_json(counters_json)?;
            let epoch = get_u64(json, "epoch")?;
            if epoch != counters.epoch.value() {
                return Err(WireError::protocol(
                    "top-level `epoch` disagrees with `counters.epoch`",
                ));
            }
            Ok((Payload::from_json(&op, value)?, counters))
        } else {
            let error = json
                .get("error")
                .ok_or_else(|| WireError::protocol("missing `error`"))?;
            let kind_str = get_str(error, "kind")?;
            let kind = ErrorKind::from_str(&kind_str)
                .ok_or_else(|| WireError::protocol(format!("unknown error kind `{kind_str}`")))?;
            let message = get_str(error, "message")?;
            let span = match error.get("span") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    let pair = v.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                        WireError::protocol("`span` must be a `[start, end]` pair")
                    })?;
                    let start = pair[0]
                        .as_u64()
                        .ok_or_else(|| WireError::protocol("`span` bounds must be integers"))?;
                    let end = pair[1]
                        .as_u64()
                        .ok_or_else(|| WireError::protocol("`span` bounds must be integers"))?;
                    Some((start, end))
                }
            };
            Err(WireError {
                kind,
                message,
                span,
            })
        };
        Ok(Response { id, op, result })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        let requests = vec![
            Request {
                id: Some(1),
                op: Op::Register {
                    set: "σ-set".into(),
                    pds: vec!["A = A*B".into(), "C = A+B".into()],
                },
            },
            Request {
                id: None,
                op: Op::Consistent {
                    set: "s".into(),
                    database: DatabaseSpec {
                        relations: vec![RelationSpec {
                            name: "R".into(),
                            attrs: vec!["A".into(), "B".into()],
                            rows: vec![vec!["a".into(), "b".into()]],
                        }],
                    },
                },
            },
            Request {
                id: Some(7),
                op: Op::ConnectedComponents {
                    vertices: 4,
                    edges: vec![(0, 1), (2, 3)],
                },
            },
            Request {
                id: None,
                op: Op::Shutdown,
            },
        ];
        for request in requests {
            let line = request.to_line();
            assert!(!line.contains('\n'), "{line:?}");
            assert_eq!(Request::parse_line(&line).unwrap(), request);
        }
    }

    #[test]
    fn response_frames_round_trip() {
        let counters = Counters {
            rule_firings: 3,
            row_visits: 9,
            engine_hits: 1,
            engine_misses: 2,
            epoch: Epoch::new(4),
        };
        let responses = vec![
            Response::ok(
                Some(2),
                "implies_many",
                Payload::ImpliesMany {
                    implied: vec![true, false],
                },
                counters,
            ),
            Response::ok(
                None,
                "consistent",
                Payload::Consistent {
                    consistent: false,
                    fds: 2,
                    sums: 1,
                },
                Counters::default(),
            ),
            Response::err(
                Some(9),
                "implies",
                WireError {
                    kind: ErrorKind::Equation,
                    message: "parse error".into(),
                    span: Some((3, 5)),
                },
            ),
        ];
        for response in responses {
            let line = response.to_line();
            assert_eq!(Response::parse_line(&line).unwrap(), response);
        }
    }

    #[test]
    fn consistent_answers_carry_no_witness_rows() {
        let response = Response::ok(
            Some(1),
            "consistent",
            Payload::Consistent {
                consistent: true,
                fds: 3,
                sums: 0,
            },
            Counters::default(),
        );
        let line = response.to_line();
        assert!(!line.contains("witness_rows"), "{line}");
        // An older server's answer, which still had the field, decodes to
        // the same payload.
        let older = line.replace("\"sums\":0", "\"sums\":0,\"witness_rows\":7");
        assert_ne!(older, line);
        assert_eq!(Response::parse_line(&older).unwrap(), response);
    }

    #[test]
    fn malformed_frames_carry_a_span() {
        let err = Request::parse_line("{\"op\": nope}").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Parse);
        assert_eq!(err.span, Some((7, 7)));
        let err = Request::parse_line("{\"op\": \"warp\"}").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Protocol);
        assert!(err.message.contains("warp"));
    }
}
