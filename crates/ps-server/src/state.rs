//! The server core: one mutable [`Session`] behind a resolve/compute split.
//!
//! The session layer is single-threaded by construction — `&mut` interners,
//! cached engines behind handles — so the server runs it on exactly one
//! *writer* thread.  [`ServerCore::resolve`] is the writer half of a
//! request: it parses PDs and goals into the session's interners, applies
//! mutations and answers implication queries, so the result is a finished
//! [`Response`].  Database queries and connectivity are the exception:
//! they resolve to a [`ComputeTask`], an owned, `Send` bundle of parsed
//! inputs (plus, for database queries, the set frozen into an
//! `Arc<SetSnapshot>`) that any *reader* thread can finish via
//! [`ServerCore::compute`] without touching the session.
//!
//! Implication (Theorem 9's ALG) runs on the writer against the set's live
//! engine: answering a goal means extending `V` in place and reading one
//! bit of `≤_E`, which costs less than copying the engine out.  The chase
//! work of `consistent` and `weak_instance` runs on a snapshot.  A set is
//! re-frozen only when its epoch has moved since the cached snapshot was
//! taken; growth of the shared interners never re-freezes it, and reusing
//! the snapshot across that growth is sound because
//!
//! * constants and nulls are disjoint namespaces ([`Symbol::is_null`]), so
//!   a padding null minted from the frozen table can never equal a
//!   constant interned after the freeze;
//! * the chase and the Lemma 12.1 repair read symbol and attribute ids,
//!   never the frozen tables, so a database over newer interners is
//!   chased exactly as it would be against a fresh freeze; and
//! * the server never mints a session null, so the frozen table's null
//!   cursor equals the live one and the padding nulls are the same either
//!   way.
//!
//! ## Counter determinism
//!
//! Every successful response carries [`Counters`], and a client's
//! responses are a pure function of its *own* request script (given
//! constraint sets not shared with other clients):
//!
//! * an implication query reports exactly [`Session::implies_many`]'s
//!   counters: one engine miss when the set's engine is first built, one
//!   hit otherwise, and the rule firings of any build or `V` extension;
//! * a database query reports its own compute work (chase `row_visits`,
//!   one `engine_hits` per database) plus the work of the freeze it forced,
//!   if any: the set's first freeze or a re-freeze after an epoch bump.
//!   Both are determined by the set's own history.
//!
//! [`Symbol::is_null`]: ps_base::Symbol::is_null

use std::collections::HashMap;
use std::sync::Arc;

use ps_graph::UndirectedGraph;
use ps_lattice::{Equation, LatticeError};
use ps_relation::Database;
use ps_session::{
    ConstraintSetId, Counters, Error as SessionError, ParallelExecutor, Session, SetSnapshot,
};

use crate::proto::{DatabaseSpec, ErrorKind, Op, Payload, Request, Response, WireError};

/// One named constraint set: the session handle plus its last freeze.
struct SetState {
    id: ConstraintSetId,
    cached: Option<Arc<SetSnapshot>>,
}

/// The work a reader thread finishes after the writer resolved a request:
/// parsed inputs plus, for a database query, the set's snapshot — nothing
/// borrowed from the session.
pub struct ComputeTask {
    id: Option<u64>,
    op: &'static str,
    base: Counters,
    kind: ComputeKind,
}

enum ComputeKind {
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
    /// The response is final (mutations, registrations, implication,
    /// errors, shutdown acknowledgements).
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

    /// Cumulative session counters: the writer's implication work and
    /// every snapshot freeze, across all clients — surfaced by the `stats`
    /// op.  Reader-side compute counts only in its own response.
    pub fn session_totals(&self) -> Counters {
        self.session.counters()
    }

    /// Resolves a request on the writer thread: mutations and implication
    /// queries are answered, database and connectivity queries are
    /// packaged into an owned [`ComputeTask`].
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
            Op::Implies { set, goal } => {
                self.resolve_implies(set, std::slice::from_ref(goal), |implied| {
                    Payload::Implies {
                        implied: implied[0],
                    }
                })
            }
            Op::ImpliesMany { set, goals } => {
                self.resolve_implies(set, goals, |implied| Payload::ImpliesMany { implied })
            }
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

    /// Answers implication on the writer, against the set's live engine;
    /// `payload` shapes the verdicts for the request's op.
    fn resolve_implies(
        &mut self,
        set: &str,
        goal_texts: &[String],
        payload: fn(Vec<bool>) -> Payload,
    ) -> ResolveResult {
        let goals = self.parse_pds(goal_texts)?;
        let id = self.set_id(set)?;
        let outcome = self.session.implies_many(id, &goals).map_err(wire_error)?;
        Ok(Resolved::Finished(payload(outcome.value), outcome.counters))
    }

    fn resolve_db_query(&mut self, set: &str, spec: &DatabaseSpec, weak: bool) -> ResolveResult {
        let db = self.build_database(spec)?;
        let (snapshot, base) = self.ensure_snapshot(set)?;
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

    /// Returns the named set's snapshot, re-frozen only when the set's
    /// epoch moved since the cached one, plus the counters of that freeze
    /// (zero work on reuse).
    fn ensure_snapshot(&mut self, set: &str) -> Result<(Arc<SetSnapshot>, Counters), WireError> {
        let id = self.set_id(set)?;
        let epoch = self.session.epoch(id).map_err(wire_error)?;
        let state = self
            .sets
            .get_mut(set)
            .expect("set_id just resolved the name");
        if let Some(snapshot) = state.cached.as_ref().filter(|s| s.epoch() == epoch) {
            let zero = Counters {
                epoch,
                ..Counters::default()
            };
            return Ok((snapshot.clone(), zero));
        }
        let before = self.session.counters();
        let snapshot = self.session.snapshot(id).map_err(wire_error)?;
        let after = self.session.counters();
        let freeze = Counters {
            rule_firings: after.rule_firings - before.rule_firings,
            row_visits: after.row_visits - before.row_visits,
            engine_hits: after.engine_hits - before.engine_hits,
            engine_misses: after.engine_misses - before.engine_misses,
            epoch,
        };
        state.cached = Some(snapshot.clone());
        Ok((snapshot, freeze))
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
        // The first query builds the ALG engine only; the Section 6.2
        // closure waits for the first database query.
        assert_eq!(counters.engine_misses, 1);
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

        // Mutation bumps the epoch.
        let r = core.handle(&req(Op::AddPd {
            set: "s".into(),
            pd: "B = B*C".into(),
        }));
        assert_eq!(ok_payload(&r), &Payload::Added { added: true });
        let Ok((_, counters)) = &r.result else {
            unreachable!()
        };
        assert_eq!(counters.epoch, Epoch::new(1));

        // The next implication extends the engine in place: no rebuild.
        let r = core.handle(&req(Op::Implies {
            set: "s".into(),
            goal: "A = A*C".into(),
        }));
        assert_eq!(ok_payload(&r), &Payload::Implies { implied: true });
        let Ok((_, counters)) = &r.result else {
            unreachable!()
        };
        assert_eq!(counters.epoch, Epoch::new(1));
        assert_eq!(counters.engine_misses, 0);
        assert_eq!(counters.engine_hits, 1);

        // The first database query after the mutation builds the closure.
        let r = core.handle(&req(Op::Consistent {
            set: "s".into(),
            database: two_row_database(),
        }));
        let Ok((_, counters)) = &r.result else {
            unreachable!()
        };
        assert_eq!(counters.epoch, Epoch::new(1));
        assert_eq!(counters.engine_misses, 1, "closure built after add_pd");
    }

    fn two_row_database() -> DatabaseSpec {
        DatabaseSpec {
            relations: vec![crate::proto::RelationSpec {
                name: "R".into(),
                attrs: vec!["A".into(), "B".into()],
                rows: vec![vec!["a".into(), "b1".into()], vec!["a".into(), "b2".into()]],
            }],
        }
    }

    #[test]
    fn a_one_goal_implies_many_answers_an_array() {
        let mut core = ServerCore::new(1);
        core.handle(&req(Op::Register {
            set: "s".into(),
            pds: vec!["A = A*B".into()],
        }));
        let r = core.handle(&req(Op::ImpliesMany {
            set: "s".into(),
            goals: vec!["A*B = A".into()],
        }));
        let parsed = Response::parse_line(&r.to_line()).expect("the reply parses");
        assert_eq!(
            ok_payload(&parsed),
            &Payload::ImpliesMany {
                implied: vec![true]
            }
        );
    }

    #[test]
    fn interner_growth_from_another_set_keeps_the_snapshot() {
        let mut core = ServerCore::new(1);
        core.handle(&req(Op::Register {
            set: "a".into(),
            pds: vec!["A = A*B".into()],
        }));
        core.handle(&req(Op::Consistent {
            set: "a".into(),
            database: two_row_database(),
        }));
        let frozen = core.sets["a"].cached.clone().expect("the query froze `a`");

        // Set `b` grows the universe and the arena.
        core.handle(&req(Op::Register {
            set: "b".into(),
            pds: vec!["X = X*Y".into()],
        }));
        let r = core.handle(&req(Op::Implies {
            set: "b".into(),
            goal: "X*Z = X + Z*Y".into(),
        }));
        assert!(r.result.is_ok());

        let totals = core.session_totals();
        let r = core.handle(&req(Op::Consistent {
            set: "a".into(),
            database: two_row_database(),
        }));
        let Ok((_, counters)) = &r.result else {
            panic!("expected success, got {r:?}");
        };
        let cached = core.sets["a"].cached.as_ref().expect("still frozen");
        assert!(Arc::ptr_eq(cached, &frozen), "no re-freeze");
        assert_eq!(core.session_totals(), totals, "no freeze work");
        assert_eq!(counters.engine_misses, 0);
        assert_eq!(counters.rule_firings, 0);
        assert_eq!(counters.engine_hits, 1, "the chase's own closure reuse");
    }

    #[test]
    fn consistency_and_weak_instance_answer_over_the_wire_types() {
        let mut core = ServerCore::new(2);
        core.handle(&req(Op::Register {
            set: "fd".into(),
            pds: vec!["A = A*B".into()],
        }));
        let database = two_row_database();
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
