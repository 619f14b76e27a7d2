//! The server core: one mutable [`Session`] behind a resolve/compute split.
//!
//! The session layer is single-threaded by construction — `&mut` interners,
//! cached engines behind handles — so the server runs it on exactly one
//! *writer* thread.  [`ServerCore::resolve`] is the writer half of a
//! request: it parses PDs and goals into the session's interners, applies
//! mutations, and freezes the target set into an `Arc<SetSnapshot>`
//! (PR 7 epoch discipline: stale snapshots are re-frozen, live mutations
//! can never disturb a snapshot already handed out).  The result is either
//! a finished [`Response`] (mutations, errors) or a [`ComputeTask`]: an
//! owned, `Send` bundle of snapshot + parsed inputs that any *reader*
//! thread can finish via [`ServerCore::compute`] without touching the
//! session — batches fan out through the
//! [`ParallelExecutor`] there.
//!
//! ## Counter determinism
//!
//! Every successful response carries [`Counters`].  So that a client's
//! responses are a pure function of its *own* request script (given
//! constraint sets not shared with other clients), the counters charge:
//!
//! * the query's own compute work (chase `row_visits`, one `engine_hits`
//!   per batch — identical to the sequential [`Session`] conventions), and
//! * the *charged* part of any snapshot freeze the query forced: the first
//!   freeze of a set, a re-freeze after an epoch bump, and a re-freeze
//!   extending the engine vocabulary with the query's goals.  Each of
//!   these is determined by the target set's own history.
//!
//! A re-freeze forced only by *global* interner growth (another client
//! interned attributes or symbols since the cached snapshot was taken) is
//! interleaving-dependent, so it is deliberately **uncharged**: the
//! session totals (visible through `stats`) still count it, the response
//! counters do not.

use std::collections::HashMap;
use std::sync::Arc;

use ps_graph::UndirectedGraph;
use ps_lattice::{Equation, LatticeError};
use ps_relation::Database;
use ps_session::{
    ConstraintSetId, Counters, Error as SessionError, ParallelExecutor, Session, SetSnapshot,
};

use crate::proto::{DatabaseSpec, ErrorKind, Op, Payload, Request, Response, WireError};

/// A cached freeze of one named set, plus the interner lengths observed at
/// freeze time (the staleness probe for uncharged re-freezes).
struct CachedSnapshot {
    snapshot: Arc<SetSnapshot>,
    universe_len: usize,
    symbols_len: usize,
    arena_len: usize,
}

/// One named constraint set: the session handle plus the snapshot cache.
struct SetState {
    id: ConstraintSetId,
    cached: Option<CachedSnapshot>,
}

/// The work a reader thread finishes after the writer resolved a request:
/// an owned snapshot plus parsed inputs, nothing borrowed from the session.
pub struct ComputeTask {
    id: Option<u64>,
    op: &'static str,
    base: Counters,
    kind: ComputeKind,
}

enum ComputeKind {
    ImpliesOne {
        snapshot: Arc<SetSnapshot>,
        goal: Equation,
    },
    ImpliesMany {
        snapshot: Arc<SetSnapshot>,
        goals: Vec<Equation>,
    },
    Consistent {
        snapshot: Arc<SetSnapshot>,
        db: Database,
    },
    WeakInstance {
        snapshot: Arc<SetSnapshot>,
        db: Database,
    },
    Components {
        vertices: u64,
        edges: Vec<(u64, u64)>,
    },
}

/// What [`ServerCore::resolve`] produced for a request.
pub enum Step {
    /// The response is final (mutations, registrations, errors, shutdown
    /// acknowledgements).
    Done(Response),
    /// The writer prepared an owned task; finish it on any thread with
    /// [`ServerCore::compute`].
    Compute(ComputeTask),
}

impl Step {
    /// The final response, computing on the current thread if needed — the
    /// sequential reference semantics the concurrent server is pinned to.
    pub fn finish(self, executor: ParallelExecutor) -> Response {
        match self {
            Step::Done(response) => response,
            Step::Compute(task) => ServerCore::compute(task, executor),
        }
    }
}

/// Converts a session-layer failure into a typed wire error (equation
/// parse failures keep their byte span).
fn wire_error(e: SessionError) -> WireError {
    match e {
        SessionError::Lattice(LatticeError::Parse { message, span, .. }) => WireError {
            kind: ErrorKind::Equation,
            message,
            span: Some((span.0 as u64, span.1 as u64)),
        },
        SessionError::Lattice(other) => WireError::new(ErrorKind::Equation, other.to_string()),
        SessionError::Relation(other) => WireError::new(ErrorKind::Database, other.to_string()),
        other => WireError::new(ErrorKind::Session, other.to_string()),
    }
}

/// The single-writer core of the solver service.
///
/// [`ServerCore::handle`] (resolve + compute on one thread) is the
/// sequential reference implementation: the concurrent server's responses
/// for a client whose constraint sets are not shared with other clients
/// are pinned byte-identical to replaying that client's script through
/// `handle` on a fresh core (see `tests/service_concurrent.rs`).
pub struct ServerCore {
    session: Session,
    sets: HashMap<String, SetState>,
    executor: ParallelExecutor,
}

impl ServerCore {
    /// A fresh core whose inline compute path (and anything finished via
    /// [`Step::finish`] with [`ServerCore::executor`]) fans batches out
    /// over `threads` workers.
    pub fn new(threads: usize) -> Self {
        ServerCore {
            session: Session::new(),
            sets: HashMap::new(),
            executor: ParallelExecutor::new(threads),
        }
    }

    /// The executor sized at construction (executors are plain copyable
    /// values; reader threads take their own copy).
    pub fn executor(&self) -> ParallelExecutor {
        self.executor
    }

    /// Cumulative session counters (everything ever charged to the session,
    /// uncharged re-freezes included) — surfaced by the `stats` op.
    pub fn session_totals(&self) -> Counters {
        self.session.counters()
    }

    /// Resolves a request on the writer thread: mutations are applied and
    /// answered, queries are packaged into an owned [`ComputeTask`].
    ///
    /// `stats` is answered by the serving layer (it owns the clock and the
    /// request tallies), so it resolves to a protocol error here.
    pub fn resolve(&mut self, request: &Request) -> Step {
        let id = request.id;
        let op = request.op.name();
        let result = match &request.op {
            Op::Register { set, pds } => self.resolve_register(set, pds),
            Op::AddPd { set, pd } => self.resolve_add_pd(set, pd),
            Op::RemovePd { set, pd } => self.resolve_remove_pd(set, pd),
            Op::Implies { set, goal } => self.resolve_implies(set, std::slice::from_ref(goal)),
            Op::ImpliesMany { set, goals } => self.resolve_implies(set, goals),
            Op::Consistent { set, database } => self.resolve_db_query(set, database, false),
            Op::WeakInstance { set, database } => self.resolve_db_query(set, database, true),
            Op::ConnectedComponents { vertices, edges } => {
                self.resolve_components(*vertices, edges)
            }
            Op::Stats => Err(WireError::protocol_msg(
                "stats is answered by the serving layer, not the solver core",
            )),
            Op::Shutdown => Ok(Resolved::Finished(Payload::Shutdown, Counters::default())),
        };
        match result {
            Ok(Resolved::Finished(payload, counters)) => {
                Step::Done(Response::ok(id, op, payload, counters))
            }
            Ok(Resolved::Pending(base, kind)) => Step::Compute(ComputeTask { id, op, base, kind }),
            Err(error) => Step::Done(Response::err(id, op, error)),
        }
    }

    /// Finishes a resolved query on any thread — the session is not
    /// touched, batches fan out through `executor`.
    pub fn compute(task: ComputeTask, executor: ParallelExecutor) -> Response {
        let ComputeTask { id, op, base, kind } = task;
        let result = match kind {
            ComputeKind::ImpliesOne { snapshot, goal } => executor
                .implies_many_par(&snapshot, &[goal])
                .map(|outcome| {
                    let implied = outcome.value.first().copied().unwrap_or_default();
                    (Payload::Implies { implied }, outcome.counters)
                }),
            ComputeKind::ImpliesMany { snapshot, goals } => {
                executor.implies_many_par(&snapshot, &goals).map(|outcome| {
                    (
                        Payload::ImpliesMany {
                            implied: outcome.value,
                        },
                        outcome.counters,
                    )
                })
            }
            ComputeKind::Consistent { snapshot, db } => executor
                .consistent_many_par(&snapshot, std::slice::from_ref(&db))
                .map(|outcome| {
                    let counters = outcome.counters;
                    let answer = outcome
                        .into_value()
                        .into_iter()
                        .next()
                        .expect("one database in, one answer out");
                    (
                        Payload::Consistent {
                            consistent: answer.consistent,
                            fds: answer.fds.len() as u64,
                            sums: answer.sums.len() as u64,
                        },
                        counters,
                    )
                }),
            ComputeKind::WeakInstance { snapshot, db } => executor
                .weak_instance_many_par(&snapshot, std::slice::from_ref(&db))
                .map(|outcome| {
                    let counters = outcome.counters;
                    let witness = outcome
                        .into_value()
                        .into_iter()
                        .next()
                        .expect("one database in, one witness out");
                    (
                        Payload::WeakInstance {
                            satisfiable: witness.satisfiable,
                            weak_instance_rows: witness.weak_instance.map(|w| w.len() as u64),
                            repair_converged: witness.repair.converged,
                            bridges: witness.repair.bridges as u64,
                        },
                        counters,
                    )
                }),
            ComputeKind::Components { vertices, edges } => compute_components(vertices, &edges),
        };
        match result {
            Ok((payload, counters)) => {
                let mut total = base;
                total += counters;
                Response::ok(id, op, payload, total)
            }
            Err(e) => Response::err(id, op, wire_error(e)),
        }
    }

    /// Resolve + compute on the current thread: the sequential reference
    /// path, used by replay pinning and the in-process benchmark identity.
    pub fn handle(&mut self, request: &Request) -> Response {
        let executor = self.executor;
        self.resolve(request).finish(executor)
    }

    // ------------------------------------------------------------------
    // Writer-half resolution per op.
    // ------------------------------------------------------------------

    fn resolve_register(&mut self, set: &str, pd_texts: &[String]) -> ResolveResult {
        let pds = self.parse_pds(pd_texts)?;
        let id = self.session.register(&pds).map_err(wire_error)?;
        match self.sets.get(set) {
            Some(state) if state.id != id => {
                return Err(WireError::new(
                    ErrorKind::SetExists,
                    format!("set `{set}` is already bound to a different constraint set"),
                ));
            }
            Some(_) => {}
            None => {
                self.sets
                    .insert(set.to_owned(), SetState { id, cached: None });
            }
        }
        let registered = self.session.pds(id).map_err(wire_error)?.len() as u64;
        let counters = Counters {
            epoch: self.session.epoch(id).map_err(wire_error)?,
            ..Counters::default()
        };
        Ok(Resolved::Finished(
            Payload::Registered { pds: registered },
            counters,
        ))
    }

    fn resolve_add_pd(&mut self, set: &str, pd_text: &str) -> ResolveResult {
        let id = self.set_id(set)?;
        let pd = self.session.equation(pd_text).map_err(wire_error)?;
        let outcome = self.session.add_pd(id, pd).map_err(wire_error)?;
        Ok(Resolved::Finished(
            Payload::Added {
                added: outcome.value,
            },
            outcome.counters,
        ))
    }

    fn resolve_remove_pd(&mut self, set: &str, pd_text: &str) -> ResolveResult {
        let id = self.set_id(set)?;
        let pd = self.session.equation(pd_text).map_err(wire_error)?;
        let outcome = self.session.remove_pd(id, pd).map_err(wire_error)?;
        Ok(Resolved::Finished(
            Payload::Removed {
                removed: outcome.value,
            },
            outcome.counters,
        ))
    }

    fn resolve_implies(&mut self, set: &str, goal_texts: &[String]) -> ResolveResult {
        let goals = self.parse_pds(goal_texts)?;
        let (snapshot, base) = self.ensure_snapshot(set, &goals)?;
        let kind = if goal_texts.len() == 1 && goals.len() == 1 {
            ComputeKind::ImpliesOne {
                snapshot,
                goal: goals[0],
            }
        } else {
            ComputeKind::ImpliesMany { snapshot, goals }
        };
        Ok(Resolved::Pending(base, kind))
    }

    fn resolve_db_query(&mut self, set: &str, spec: &DatabaseSpec, weak: bool) -> ResolveResult {
        // Intern the database first so the snapshot freeze (stale or
        // grown-only) covers its symbols; fresh nulls minted against the
        // frozen table then can never collide with database symbols.
        let db = self.build_database(spec)?;
        let (snapshot, base) = self.ensure_snapshot(set, &[])?;
        let kind = if weak {
            ComputeKind::WeakInstance { snapshot, db }
        } else {
            ComputeKind::Consistent { snapshot, db }
        };
        Ok(Resolved::Pending(base, kind))
    }

    fn resolve_components(&mut self, vertices: u64, edges: &[(u64, u64)]) -> ResolveResult {
        // `UndirectedGraph::add_edge` panics on out-of-range vertices, so
        // the protocol boundary validates every endpoint first.
        for &(u, v) in edges {
            if u >= vertices || v >= vertices {
                return Err(WireError::protocol_msg(format!(
                    "edge ({u}, {v}) is out of range for {vertices} vertices"
                )));
            }
        }
        Ok(Resolved::Pending(
            Counters::default(),
            ComputeKind::Components {
                vertices,
                edges: edges.to_vec(),
            },
        ))
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn set_id(&self, set: &str) -> Result<ConstraintSetId, WireError> {
        self.sets.get(set).map(|s| s.id).ok_or_else(|| {
            WireError::new(
                ErrorKind::UnknownSet,
                format!("constraint set `{set}` is not registered"),
            )
        })
    }

    fn parse_pds(&mut self, texts: &[String]) -> Result<Vec<Equation>, WireError> {
        texts
            .iter()
            .map(|t| self.session.equation(t).map_err(wire_error))
            .collect()
    }

    fn build_database(&mut self, spec: &DatabaseSpec) -> Result<Database, WireError> {
        let mut builder = self.session.database();
        for rel in &spec.relations {
            let attrs: Vec<&str> = rel.attrs.iter().map(String::as_str).collect();
            let rows: Vec<Vec<&str>> = rel
                .rows
                .iter()
                .map(|row| row.iter().map(String::as_str).collect())
                .collect();
            let row_refs: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
            builder = builder
                .relation(&rel.name, &attrs, &row_refs)
                .map_err(wire_error)?;
        }
        Ok(builder.build())
    }

    /// Returns a snapshot of the named set covering `goals`, plus the
    /// *charged* freeze counters (see the module docs for the policy:
    /// set-history-driven freezes are charged, global-interner-growth
    /// re-freezes are not).
    fn ensure_snapshot(
        &mut self,
        set: &str,
        goals: &[Equation],
    ) -> Result<(Arc<SetSnapshot>, Counters), WireError> {
        let id = self.set_id(set)?;
        let epoch = self.session.epoch(id).map_err(wire_error)?;
        let zero = Counters {
            epoch,
            ..Counters::default()
        };
        let state = self.sets.get(set).expect("set_id just resolved the name");
        if let Some(cached) = &state.cached {
            let fresh_for_set = cached.snapshot.epoch() == epoch
                && goals.iter().all(|&g| cached.snapshot.covers(g));
            if fresh_for_set {
                let interners_unchanged = cached.universe_len == self.session.universe().len()
                    && cached.symbols_len == self.session.symbols().num_constants()
                    && cached.arena_len == self.session.arena().len();
                if interners_unchanged {
                    return Ok((cached.snapshot.clone(), zero));
                }
                // Grown-only re-freeze: everything the set needs is warm
                // (hits only, zero firings), the interners just moved under
                // it.  Uncharged — the growth came from other clients.
                let snapshot = self
                    .session
                    .snapshot_with_goals(id, goals)
                    .map_err(wire_error)?;
                self.cache_snapshot(set, &snapshot);
                return Ok((snapshot, zero));
            }
        }
        // Charged freeze: first build, epoch-stale rebuild, or goal-
        // vocabulary extension — all determined by the set's own history.
        let before = self.session.counters();
        let snapshot = self
            .session
            .snapshot_with_goals(id, goals)
            .map_err(wire_error)?;
        let after = self.session.counters();
        let charged = Counters {
            rule_firings: after.rule_firings - before.rule_firings,
            row_visits: after.row_visits - before.row_visits,
            engine_hits: after.engine_hits - before.engine_hits,
            engine_misses: after.engine_misses - before.engine_misses,
            epoch,
        };
        self.cache_snapshot(set, &snapshot);
        Ok((snapshot, charged))
    }

    fn cache_snapshot(&mut self, set: &str, snapshot: &Arc<SetSnapshot>) {
        let cached = CachedSnapshot {
            snapshot: snapshot.clone(),
            universe_len: self.session.universe().len(),
            symbols_len: self.session.symbols().num_constants(),
            arena_len: self.session.arena().len(),
        };
        if let Some(state) = self.sets.get_mut(set) {
            state.cached = Some(cached);
        }
    }
}

enum Resolved {
    Finished(Payload, Counters),
    Pending(Counters, ComputeKind),
}

type ResolveResult = Result<Resolved, WireError>;

impl WireError {
    fn protocol_msg(message: impl Into<String>) -> Self {
        WireError::new(ErrorKind::Protocol, message)
    }
}

/// The set-independent connectivity query: built on a throwaway session so
/// reader threads never touch shared state.  Counters follow the session
/// convention (`row_visits` = rows of the Example e relation, epoch 0).
fn compute_components(
    vertices: u64,
    edges: &[(u64, u64)],
) -> Result<(Payload, Counters), SessionError> {
    let mut graph = UndirectedGraph::new(vertices as usize);
    for &(u, v) in edges {
        graph.add_edge(u as usize, v as usize);
    }
    let mut session = Session::new();
    let (relation, encoding) = session.component_relation(&graph, "E");
    let outcome = session.connected_components(&relation, &encoding)?;
    let counters = outcome.counters;
    let components = outcome.value.into_iter().map(|c| c as u64).collect();
    Ok((Payload::Components { components }, counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_session::Epoch;

    fn req(op: Op) -> Request {
        Request { id: Some(1), op }
    }

    fn ok_payload(response: &Response) -> &Payload {
        match &response.result {
            Ok((payload, _)) => payload,
            Err(e) => panic!("expected success, got {e}"),
        }
    }

    #[test]
    fn register_query_mutate_requery_round_trip() {
        let mut core = ServerCore::new(2);
        let r = core.handle(&req(Op::Register {
            set: "s".into(),
            pds: vec!["A = A*B".into(), "C = A+B".into()],
        }));
        assert_eq!(ok_payload(&r), &Payload::Registered { pds: 2 });

        let r = core.handle(&req(Op::Implies {
            set: "s".into(),
            goal: "A + C = C".into(),
        }));
        assert_eq!(ok_payload(&r), &Payload::Implies { implied: true });
        let Ok((_, counters)) = &r.result else {
            unreachable!()
        };
        // First query pays the freeze: engine + closure builds.
        assert_eq!(counters.engine_misses, 2);
        assert!(counters.rule_firings > 0);

        // A warm repeat of the same goal is hit-only.
        let r = core.handle(&req(Op::Implies {
            set: "s".into(),
            goal: "A + C = C".into(),
        }));
        let Ok((_, counters)) = &r.result else {
            unreachable!()
        };
        assert_eq!(counters.engine_misses, 0);
        assert_eq!(counters.rule_firings, 0);
        assert_eq!(counters.engine_hits, 1);

        // Mutation bumps the epoch; the next query re-freezes (charged).
        let r = core.handle(&req(Op::AddPd {
            set: "s".into(),
            pd: "B = B*C".into(),
        }));
        assert_eq!(ok_payload(&r), &Payload::Added { added: true });
        let Ok((_, counters)) = &r.result else {
            unreachable!()
        };
        assert_eq!(counters.epoch, Epoch::new(1));

        let r = core.handle(&req(Op::Implies {
            set: "s".into(),
            goal: "A = A*C".into(),
        }));
        assert_eq!(ok_payload(&r), &Payload::Implies { implied: true });
        let Ok((_, counters)) = &r.result else {
            unreachable!()
        };
        assert_eq!(counters.epoch, Epoch::new(1));
        assert!(counters.engine_misses >= 1, "closure rebuilt after add_pd");
    }

    #[test]
    fn consistency_and_weak_instance_answer_over_the_wire_types() {
        let mut core = ServerCore::new(2);
        core.handle(&req(Op::Register {
            set: "fd".into(),
            pds: vec!["A = A*B".into()],
        }));
        let database = DatabaseSpec {
            relations: vec![crate::proto::RelationSpec {
                name: "R".into(),
                attrs: vec!["A".into(), "B".into()],
                rows: vec![vec!["a".into(), "b1".into()], vec!["a".into(), "b2".into()]],
            }],
        };
        // Theorem 12 (polynomial consistency) and Theorem 7 (weak-instance
        // satisfiability) coincide for PD sets; pin that the two wire ops
        // agree on the same database.
        let consistent = core.handle(&req(Op::Consistent {
            set: "fd".into(),
            database: database.clone(),
        }));
        let weak = core.handle(&req(Op::WeakInstance {
            set: "fd".into(),
            database,
        }));
        let Payload::Consistent { consistent: c, .. } = ok_payload(&consistent) else {
            panic!("wrong payload");
        };
        let Payload::WeakInstance { satisfiable, .. } = ok_payload(&weak) else {
            panic!("wrong payload");
        };
        assert_eq!(c, satisfiable, "Theorem 12 and Theorem 7 agree");
    }

    #[test]
    fn components_match_the_graph_and_validate_edges() {
        let mut core = ServerCore::new(1);
        let r = core.handle(&req(Op::ConnectedComponents {
            vertices: 5,
            edges: vec![(0, 1), (1, 2), (3, 4)],
        }));
        let Payload::Components { components } = ok_payload(&r) else {
            panic!("wrong payload");
        };
        assert_eq!(components.len(), 5);
        assert_eq!(components[0], components[2]);
        assert_eq!(components[3], components[4]);
        assert_ne!(components[0], components[3]);

        let r = core.handle(&req(Op::ConnectedComponents {
            vertices: 2,
            edges: vec![(0, 7)],
        }));
        let Err(e) = &r.result else {
            panic!("out-of-range edge must be rejected");
        };
        assert_eq!(e.kind, ErrorKind::Protocol);
    }

    #[test]
    fn unknown_sets_conflicting_names_and_bad_equations_are_typed() {
        let mut core = ServerCore::new(1);
        let r = core.handle(&req(Op::Implies {
            set: "ghost".into(),
            goal: "A = A".into(),
        }));
        assert!(matches!(&r.result, Err(e) if e.kind == ErrorKind::UnknownSet));

        core.handle(&req(Op::Register {
            set: "a".into(),
            pds: vec!["A = A*B".into()],
        }));
        let r = core.handle(&req(Op::Register {
            set: "a".into(),
            pds: vec!["C = A+B".into()],
        }));
        assert!(matches!(&r.result, Err(e) if e.kind == ErrorKind::SetExists));
        // Re-registering the same content under the same name is idempotent.
        let r = core.handle(&req(Op::Register {
            set: "a".into(),
            pds: vec!["A*B = A".into()],
        }));
        assert_eq!(ok_payload(&r), &Payload::Registered { pds: 1 });

        let r = core.handle(&req(Op::AddPd {
            set: "a".into(),
            pd: "A = ) B".into(),
        }));
        let Err(e) = &r.result else {
            panic!("bad equation must be rejected");
        };
        assert_eq!(e.kind, ErrorKind::Equation);
        assert!(e.span.is_some(), "equation errors carry the parser span");
    }
}
