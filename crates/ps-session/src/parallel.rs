//! Frozen constraint-set snapshots and the scoped parallel executor.
//!
//! The [`crate::Session`] is single-threaded by construction: it owns `&mut`
//! interners and caches engines behind [`crate::ConstraintSetId`].  The
//! paper's decision procedures, however, are embarrassingly parallel at the
//! *query* level — each implication goal or consistency check against a
//! fixed constraint set is independent.  This module supplies the two
//! pieces that unlock that parallelism:
//!
//! * [`SetSnapshot`] — an immutable, `Send + Sync` freeze of one registered
//!   set at its current [`Epoch`]: the fully saturated
//!   [`ImplicationEngine`] (optionally pre-extended with a batch's goal
//!   subterms), the Section 6.2 closed constraint system, and owned copies
//!   of the three interners.  Snapshots are produced by
//!   [`crate::Session::snapshot`] / [`crate::Session::snapshot_with_goals`]
//!   and handed out as `Arc<SetSnapshot>`; mutating the live set afterwards
//!   (copy-on-write: `add_pd` / `remove_pd` re-key the live set and bump its
//!   epoch) can never disturb a snapshot already taken.
//! * [`ParallelExecutor`] — a hand-rolled scoped worker pool over
//!   [`std::thread::scope`] (the vendor tree has no rayon and there is no
//!   registry access; the std scope API is all that is needed): workers
//!   claim chunks of the item range from a shared [`AtomicUsize`] cursor,
//!   keep private per-worker state (a [`FreshSymbols`] null source, a
//!   [`ChaseScratch`] taken from the snapshot's pool and handed back after
//!   the batch, a [`Counters`] accumulator), and their per-item results are
//!   merged back into input order after the join.
//!
//! **Claim size.**  A claim is about a quarter of an even share of the
//! batch, between 1 and 16 items (`claim_len`), so a batch of a few
//! databases is claimed one at a time and every worker gets one whenever
//! the batch has at least as many items as there are workers.
//!
//! **The inline case.**  When only one worker would run — one thread, or a
//! one-item batch, which is what every server compute frame is — the items
//! run on the calling thread with the same per-worker state, and no thread
//! is started.
//!
//! Witness nulls depend on the worker: each worker mints from its own
//! [`FreshSymbols`] source, so in a multi-worker batch the nulls of a
//! database's witness depend on which worker claimed it and what that
//! worker minted before.  Witnesses stay equal up to renaming of nulls
//! (`parallel_props` checks this); verdicts and counters do not depend on
//! the claim order at all.
//!
//! Counter determinism: the strategy-independent counters
//! (`rule_firings`, `row_visits`, `engine_hits`, `engine_misses`) are
//! accumulated *per item* and summed by the order-independent
//! `Counters: AddAssign`, so the merged totals are identical for every
//! thread count — and equal to the sequential run over the same snapshot.
//! `Counters::epoch` on every parallel outcome reports the snapshot's
//! frozen epoch, never the live set's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use ps_base::{FreshSymbols, SymbolTable, Universe};
use ps_core::consistency::{consistent_with_closed, decide_with_closed, ClosedConstraints};
use ps_core::weak_bridge::{witness_from_consistency, SatisfiabilityWitness};
use ps_lattice::{Equation, ImplicationEngine, TermArena};
use ps_relation::{ChaseScratch, Database, Relation};

use crate::session::ConsistencyAnswer;
use crate::{Counters, Epoch, Error, Outcome, Result};

/// Compile-time `Send + Sync` guards: a future `Rc`/`Cell` regression in
/// any type the snapshot layer shares across threads fails right here.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<SetSnapshot>();
    assert_send_sync::<ImplicationEngine>();
    assert_send_sync::<ClosedConstraints>();
    assert_send_sync::<Relation>();
    assert_send_sync::<Database>();
};

/// An immutable freeze of one registered constraint set, shareable across
/// threads (`Arc<SetSnapshot>` is the intended currency).
///
/// A snapshot owns everything a query needs — no `&mut` anywhere:
///
/// * the saturated [`ImplicationEngine`], queried through its read-only
///   [`ImplicationEngine::entails_frozen`] path (a goal term outside the
///   frozen vocabulary `V` surfaces as [`Error::OutsideVocabulary`] instead
///   of silently extending `V`);
/// * the closed constraint system of Section 6.2, chased against through
///   the session's own pipeline (`decide_with_closed` for a verdict,
///   `consistent_with_closed` for a witness), with padding nulls minted
///   from per-worker [`FreshSymbols`] sources instead of the shared table;
/// * copies of the session's `Universe` / `SymbolTable` / `TermArena` at
///   freeze time, so parsing results and databases built against the
///   session before the freeze resolve identically.
///
/// Beside these it keeps a pool of [`ChaseScratch`] buffers that the
/// executor's workers hand back after each batch, so the next batch chases
/// with warm buffers instead of growing them from empty.  The pool holds at
/// most as many scratches as workers ever ran on the snapshot at once; a
/// buffer decides no verdict and no counter, and a cloned snapshot starts
/// with an empty pool.
///
/// The snapshot records the set's [`Epoch`] at freeze time; every outcome
/// computed through it reports that epoch in [`Counters::epoch`].
#[derive(Debug)]
pub struct SetSnapshot {
    epoch: Epoch,
    universe: Universe,
    symbols: SymbolTable,
    arena: TermArena,
    engine: ImplicationEngine,
    closed: ClosedConstraints,
    scratches: Mutex<Vec<ChaseScratch>>,
}

impl Clone for SetSnapshot {
    fn clone(&self) -> Self {
        SetSnapshot::freeze(
            self.epoch,
            self.universe.clone(),
            self.symbols.clone(),
            self.arena.clone(),
            self.engine.clone(),
            self.closed.clone(),
        )
    }
}

impl SetSnapshot {
    /// Assembled by [`crate::Session::snapshot_with_goals`], which warms
    /// (and pre-extends) the live set's cached artifacts first.
    pub(crate) fn freeze(
        epoch: Epoch,
        universe: Universe,
        symbols: SymbolTable,
        arena: TermArena,
        engine: ImplicationEngine,
        closed: ClosedConstraints,
    ) -> Self {
        SetSnapshot {
            epoch,
            universe,
            symbols,
            arena,
            engine,
            closed,
            scratches: Mutex::new(Vec::new()),
        }
    }

    /// A chase scratch for one worker: a pooled one when a batch handed one
    /// back, else an empty one.  A poisoned pool is still a pool of valid
    /// buffers, since every chase clears what it reuses.
    fn take_scratch(&self) -> ChaseScratch {
        let mut pool = self
            .scratches
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        pool.pop().unwrap_or_default()
    }

    /// Hands a worker's chase scratch back to the pool.
    fn give_back(&self, scratch: ChaseScratch) {
        let mut pool = self
            .scratches
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        pool.push(scratch);
    }

    /// The [`Epoch`] the set was frozen at.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The frozen attribute universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The frozen symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The frozen term arena.
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// Whether both sides of `goal` are inside the frozen vocabulary `V`
    /// (i.e. [`SetSnapshot::implies`] can answer it without error).
    pub fn covers(&self, goal: Equation) -> bool {
        self.engine.contains_term(goal.lhs) && self.engine.contains_term(goal.rhs)
    }

    /// Read-only PD implication (Theorems 8/9) against the frozen engine.
    ///
    /// A goal whose subterms were not in `V` at freeze time (register the
    /// batch through [`crate::Session::snapshot_with_goals`] to pre-extend)
    /// is an [`Error::OutsideVocabulary`] — never a silent `false`.
    pub fn implies(&self, goal: Equation) -> Result<bool> {
        self.engine
            .entails_frozen(goal)
            .ok_or_else(|| Error::OutsideVocabulary {
                goal: goal.display(&self.arena, &self.universe),
            })
    }

    /// Theorem 12 polynomial consistency of one database against the frozen
    /// closed system: the chase's verdict exit, as in
    /// [`crate::Session::consistent`], so the answer carries no witness.
    /// `fresh` supplies the padding nulls and `scratch` the reusable chase
    /// buffers — per-worker state in parallel use; pass throwaways
    /// (`snapshot.symbols().fresh_source()`, `ChaseScratch::default()`) for
    /// one-off calls.
    pub fn consistent(
        &self,
        db: &Database,
        fresh: &mut FreshSymbols,
        scratch: &mut ChaseScratch,
    ) -> (ConsistencyAnswer, u64) {
        let verdict = decide_with_closed(db, &self.closed, fresh, scratch);
        let answer = ConsistencyAnswer::polynomial(verdict.consistent, &self.closed);
        (answer, verdict.row_visits as u64)
    }

    /// Theorem 7 weak-instance satisfiability of one database against the
    /// frozen closed system (chase, Lemma 12.1 repair, `I(w)`), with the
    /// same per-worker state contract as [`SetSnapshot::consistent`].
    pub fn weak_instance(
        &self,
        db: &Database,
        fresh: &mut FreshSymbols,
        scratch: &mut ChaseScratch,
    ) -> Result<(SatisfiabilityWitness, u64)> {
        let outcome = consistent_with_closed(db, &self.closed, fresh, scratch);
        let row_visits = outcome.chase.row_visits as u64;
        let witness = witness_from_consistency(outcome, fresh)?;
        Ok((witness, row_visits))
    }
}

/// Private per-worker state: a detached null source, chase buffers taken
/// from the snapshot's pool (and handed back after the batch), and a
/// counter accumulator merged after the join.
struct WorkerState {
    fresh: FreshSymbols,
    scratch: ChaseScratch,
    counters: Counters,
}

/// A scoped worker pool fanning batched snapshot queries out over OS
/// threads.
///
/// The pool is hand-rolled on [`std::thread::scope`]: no external
/// dependency, no `unsafe`, no long-lived threads.  Work distribution is
/// chunked work-stealing over a shared [`AtomicUsize`] cursor — each worker
/// repeatedly claims the next chunk of indices with a relaxed `fetch_add`
/// until the range is drained, so a skewed batch (a few expensive items)
/// cannot strand the other workers the way a static split would.  The
/// chunk shrinks with the batch (see the module docs), and a one-worker
/// batch runs on the calling thread.
///
/// Results are collected per worker as `(index, result)` pairs and merged
/// back into input order after the join; worker [`Counters`] merge by the
/// order-independent sum, making the totals identical for every thread
/// count (pinned by the `parallel_props` test suite).
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    threads: usize,
}

/// The most indices one cursor `fetch_add` claims: big enough to keep
/// contention on the shared cursor negligible, small enough that a skewed
/// tail still spreads over the pool.
const CHUNK: usize = 16;

/// Indices claimed per cursor `fetch_add` for a batch of `items` over
/// `threads` workers: about a quarter of an even share, between 1 and
/// [`CHUNK`].  A small batch is claimed one item at a time, so every worker
/// gets an item whenever `items ≥ threads`; a large one in full chunks.
fn claim_len(items: usize, threads: usize) -> usize {
    (items / (4 * threads.max(1))).clamp(1, CHUNK)
}

impl ParallelExecutor {
    /// A pool of `threads` workers (clamped to at least one).  There is no
    /// global state: executors are plain values, cheap to create per batch.
    pub fn new(threads: usize) -> Self {
        ParallelExecutor {
            threads: threads.max(1),
        }
    }

    /// The worker count this executor fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Generic chunked fan-out: applies `work` to every item, returning the
    /// results in input order plus the merged per-worker counters (epoch
    /// already stamped with the snapshot's frozen epoch).
    ///
    /// With one worker (one thread, or a one-item batch such as every
    /// server compute frame) the items run on the calling thread, in order,
    /// with the same per-worker state a spawned worker would get: no thread
    /// is started.
    fn fan_out<T, R, F>(&self, snapshot: &SetSnapshot, items: &[T], work: F) -> (Vec<R>, Counters)
    where
        T: Sync,
        R: Send,
        F: Fn(&T, &mut WorkerState) -> R + Sync,
    {
        let base = Counters {
            epoch: snapshot.epoch,
            ..Counters::default()
        };
        if items.is_empty() {
            return (Vec::new(), base);
        }
        let new_state = || WorkerState {
            fresh: snapshot.symbols.fresh_source(),
            scratch: snapshot.take_scratch(),
            counters: base,
        };
        let threads = self.threads.min(items.len());
        if threads == 1 {
            let mut state = new_state();
            let values = items.iter().map(|item| work(item, &mut state)).collect();
            snapshot.give_back(state.scratch);
            return (values, state.counters);
        }
        let claim = claim_len(items.len(), threads);
        let cursor = AtomicUsize::new(0);
        let per_worker: Vec<(Vec<(usize, R)>, Counters)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cursor = &cursor;
                    let work = &work;
                    let new_state = &new_state;
                    scope.spawn(move || {
                        let mut state = new_state();
                        let mut out = Vec::new();
                        loop {
                            let start = cursor.fetch_add(claim, Ordering::Relaxed);
                            if start >= items.len() {
                                break;
                            }
                            let end = (start + claim).min(items.len());
                            for (idx, item) in items.iter().enumerate().take(end).skip(start) {
                                out.push((idx, work(item, &mut state)));
                            }
                        }
                        snapshot.give_back(state.scratch);
                        (out, state.counters)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel worker panicked"))
                .collect()
        });

        let mut merged: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        let mut counters = base;
        for (results, worker_counters) in per_worker {
            counters += worker_counters;
            for (idx, result) in results {
                merged[idx] = Some(result);
            }
        }
        let values = merged
            .into_iter()
            .map(|r| r.expect("every index claimed by exactly one worker"))
            .collect();
        (values, counters)
    }

    /// Batched PD implication (Theorems 8/9) over the frozen engine, fanned
    /// out across the pool.
    ///
    /// A serial pre-pass rejects any goal outside the frozen vocabulary
    /// with [`Error::OutsideVocabulary`] *before* spawning workers, so the
    /// fan-out itself is infallible.  Counters: `rule_firings` is always 0
    /// (the engine is frozen; extend at snapshot time via
    /// [`crate::Session::snapshot_with_goals`]), `engine_hits` is 1 — one
    /// batch, one cached-engine reuse, matching the sequential
    /// [`crate::Session::implies_many`] convention — and `epoch` is the
    /// snapshot's.
    pub fn implies_many_par(
        &self,
        snapshot: &Arc<SetSnapshot>,
        goals: &[Equation],
    ) -> Result<Outcome<Vec<bool>>> {
        for &goal in goals {
            if !snapshot.covers(goal) {
                return Err(Error::OutsideVocabulary {
                    goal: goal.display(&snapshot.arena, &snapshot.universe),
                });
            }
        }
        let (values, mut counters) = self.fan_out(snapshot, goals, |&goal, _state| {
            snapshot
                .engine
                .entails_frozen(goal)
                .expect("goal coverage checked before fan-out")
        });
        counters.engine_hits += 1;
        Ok(Outcome::new(values, counters))
    }

    /// Batched Theorem 12 polynomial consistency: each database is chased
    /// to its verdict ([`SetSnapshot::consistent`]) by whichever worker
    /// claims it, with per-worker [`ChaseScratch`] and [`FreshSymbols`].
    ///
    /// Counters: per database, `row_visits` accumulates the chase's visits
    /// and `engine_hits` ticks once (the frozen closure was reused) —
    /// summed across workers the totals equal the sequential loop
    /// `for db in dbs { session.consistent(set, db, Polynomial) }` on a
    /// warm session, independent of thread count.
    pub fn consistent_many_par(
        &self,
        snapshot: &Arc<SetSnapshot>,
        dbs: &[Database],
    ) -> Result<Outcome<Vec<ConsistencyAnswer>>> {
        let (values, counters) = self.fan_out(snapshot, dbs, |db, state| {
            let (answer, row_visits) =
                snapshot.consistent(db, &mut state.fresh, &mut state.scratch);
            state.counters.row_visits += row_visits;
            state.counters.engine_hits += 1;
            answer
        });
        Ok(Outcome::new(values, counters))
    }

    /// Batched Theorem 7 weak-instance satisfiability (chase + Lemma 12.1
    /// repair + `I(w)` per database), same distribution and counter
    /// semantics as [`ParallelExecutor::consistent_many_par`].
    ///
    /// If any database fails witness construction, the error for the
    /// smallest input index is returned (deterministic regardless of which
    /// worker hit it first).
    pub fn weak_instance_many_par(
        &self,
        snapshot: &Arc<SetSnapshot>,
        dbs: &[Database],
    ) -> Result<Outcome<Vec<SatisfiabilityWitness>>> {
        let (results, counters) = self.fan_out(snapshot, dbs, |db, state| {
            let result = snapshot.weak_instance(db, &mut state.fresh, &mut state.scratch);
            if let Ok((_, row_visits)) = &result {
                state.counters.row_visits += row_visits;
                state.counters.engine_hits += 1;
            }
            result.map(|(witness, _)| witness)
        });
        let mut values = Vec::with_capacity(results.len());
        for result in results {
            values.push(result?);
        }
        Ok(Outcome::new(values, counters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ConsistencyMode;
    use crate::Session;

    fn warm_session() -> (Session, crate::ConstraintSetId, Vec<Equation>) {
        let mut session = Session::new();
        let set = session
            .register_texts(&["A = A*B", "B = B*C", "D = A+C"])
            .unwrap();
        let goals = vec![
            session.equation("A = A*C").unwrap(),
            session.equation("C = C*A").unwrap(),
            session.equation("A+D = D").unwrap(),
            session.equation("B = B*D").unwrap(),
        ];
        (session, set, goals)
    }

    #[test]
    fn snapshot_agrees_with_sequential_queries_at_every_thread_count() {
        let (mut session, set, goals) = warm_session();
        let sequential = session.implies_many(set, &goals).unwrap().value;
        let snapshot = session.snapshot_with_goals(set, &goals).unwrap();
        for threads in [1, 2, 4, 8] {
            let pool = ParallelExecutor::new(threads);
            let outcome = pool.implies_many_par(&snapshot, &goals).unwrap();
            assert_eq!(outcome.value, sequential, "threads={threads}");
            assert_eq!(outcome.counters.rule_firings, 0, "frozen engine");
            assert_eq!(outcome.counters.engine_hits, 1, "one batch, one hit");
            assert_eq!(outcome.counters.epoch, snapshot.epoch());
        }
    }

    #[test]
    fn outside_vocabulary_goals_error_instead_of_mutating() {
        let (mut session, set, goals) = warm_session();
        let snapshot = session.snapshot_with_goals(set, &goals[..1]).unwrap();
        // goals[3] mentions D*B, never added to the frozen V.
        let uncovered = goals[3];
        assert!(!snapshot.covers(uncovered));
        let pool = ParallelExecutor::new(2);
        let err = pool
            .implies_many_par(&snapshot, &[goals[0], uncovered])
            .unwrap_err();
        assert!(matches!(err, Error::OutsideVocabulary { .. }));
        assert!(err.to_string().contains("frozen"));
        // The single-query path reports the same error.
        assert!(matches!(
            snapshot.implies(uncovered),
            Err(Error::OutsideVocabulary { .. })
        ));
    }

    #[test]
    fn consistency_fan_out_matches_the_sequential_loop() {
        let (mut session, set, _) = warm_session();
        let dbs: Vec<Database> = (0..6)
            .map(|i| {
                let c2 = format!("c{}", i % 2); // alternate consistent/inconsistent
                session
                    .database()
                    .relation(
                        "R",
                        &["A", "B", "C"],
                        &[&["a", "b", "c0"], &["a", "b", c2.as_str()]],
                    )
                    .unwrap()
                    .build()
            })
            .collect();
        let mut sequential = Vec::new();
        let mut seq_counters = Counters::default();
        // Warm the closure first so the sequential window is hit-only,
        // mirroring what the snapshot freeze pays once.
        let _ = session
            .consistent(set, &dbs[0], ConsistencyMode::Polynomial)
            .unwrap();
        let _ = session.take_counters();
        for db in &dbs {
            let outcome = session
                .consistent(set, db, ConsistencyMode::Polynomial)
                .unwrap();
            sequential.push(outcome.value.consistent);
            seq_counters += outcome.counters;
        }
        let snapshot = session.snapshot(set).unwrap();
        for threads in [1, 2, 4] {
            let pool = ParallelExecutor::new(threads);
            let outcome = pool.consistent_many_par(&snapshot, &dbs).unwrap();
            let verdicts: Vec<bool> = outcome.value.iter().map(|a| a.consistent).collect();
            assert_eq!(verdicts, sequential, "threads={threads}");
            assert_eq!(outcome.counters.row_visits, seq_counters.row_visits);
            assert_eq!(outcome.counters.engine_hits, seq_counters.engine_hits);
            assert_eq!(outcome.counters.rule_firings, 0);
        }
    }

    #[test]
    fn weak_instance_fan_out_produces_witnesses() {
        let (mut session, set, _) = warm_session();
        let sat = session
            .database()
            .relation("R", &["A", "B", "C"], &[&["a", "b", "c"]])
            .unwrap()
            .build();
        let unsat = session
            .database()
            .relation(
                "R",
                &["A", "B", "C"],
                &[&["a", "b", "c"], &["a", "b", "c2"]],
            )
            .unwrap()
            .build();
        let snapshot = session.snapshot(set).unwrap();
        let pool = ParallelExecutor::new(3);
        let outcome = pool
            .weak_instance_many_par(&snapshot, &[sat, unsat])
            .unwrap();
        assert!(outcome.value[0].satisfiable);
        assert!(outcome.value[0].weak_instance.is_some());
        assert!(!outcome.value[1].satisfiable);
        assert!(outcome.counters.row_visits > 0);
    }

    #[test]
    fn workers_hand_their_chase_scratch_back_to_the_snapshot() {
        let (mut session, set, _) = warm_session();
        let db = session
            .database()
            .relation("R", &["A", "B", "C"], &[&["a", "b", "c"]])
            .unwrap()
            .build();
        let snapshot = session.snapshot(set).unwrap();
        let pooled = |s: &SetSnapshot| s.scratches.lock().unwrap().len();
        assert_eq!(pooled(&snapshot), 0);
        let one = ParallelExecutor::new(1);
        for _ in 0..3 {
            let outcome = one
                .consistent_many_par(&snapshot, std::slice::from_ref(&db))
                .unwrap();
            assert!(outcome.value[0].consistent);
            assert_eq!(pooled(&snapshot), 1, "the one scratch is reused");
        }
        let batch = vec![db; 4];
        ParallelExecutor::new(2)
            .weak_instance_many_par(&snapshot, &batch)
            .unwrap();
        assert!((1..=2).contains(&pooled(&snapshot)));
        assert_eq!(pooled(&SetSnapshot::clone(&snapshot)), 0);
    }

    #[test]
    fn claims_shrink_so_small_batches_reach_every_worker() {
        assert_eq!(claim_len(4, 2), 1);
        assert_eq!(claim_len(1000, 2), CHUNK);
        assert_eq!(claim_len(40, 2), 5);
        for items in 1..200 {
            for threads in 1..9 {
                let claim = claim_len(items, threads);
                assert!((1..=CHUNK).contains(&claim));
                if items >= threads {
                    assert!(
                        claim * (threads - 1) < items,
                        "{items} items over {threads} workers leave the last worker nothing"
                    );
                }
            }
        }
    }

    #[test]
    fn a_four_item_batch_spreads_over_both_workers() {
        let (mut session, set, _) = warm_session();
        let snapshot = session.snapshot(set).unwrap();
        let items = [0u32; 4];
        // Each item waits (up to a generous timeout) until two distinct
        // threads have claimed an item, so the second worker cannot find
        // the batch drained by the first.
        let started = std::sync::Mutex::new(std::collections::BTreeSet::new());
        let ready = std::sync::Condvar::new();
        let (ids, _) = ParallelExecutor::new(2).fan_out(&snapshot, &items, |_, _| {
            let id = std::thread::current().id();
            let mut seen = started.lock().unwrap();
            seen.insert(format!("{id:?}"));
            ready.notify_all();
            let timeout = std::time::Duration::from_secs(10);
            drop(ready.wait_timeout_while(seen, timeout, |seen| seen.len() < 2));
            id
        });
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn a_one_item_batch_runs_on_the_calling_thread() {
        let (mut session, set, _) = warm_session();
        let db = session
            .database()
            .relation("R", &["A", "B", "C"], &[&["a", "b", "c"]])
            .unwrap()
            .build();
        let snapshot = session.snapshot(set).unwrap();
        let caller = std::thread::current().id();
        for threads in [1, 4] {
            let pool = ParallelExecutor::new(threads);
            let (ids, counters) = pool.fan_out(&snapshot, &[()], |_, state| {
                state.counters.row_visits += 1;
                std::thread::current().id()
            });
            assert_eq!(ids, vec![caller], "threads={threads}");
            assert_eq!(counters.row_visits, 1);
            assert_eq!(counters.epoch, snapshot.epoch());
            // Answers and counters match the sequential session path.
            let par = pool
                .weak_instance_many_par(&snapshot, std::slice::from_ref(&db))
                .unwrap();
            let seq = session.weak_instance(set, &db).unwrap();
            assert_eq!(par.value[0].satisfiable, seq.value.satisfiable);
            assert_eq!(par.value[0].repair, seq.value.repair);
            assert_eq!(par.counters.row_visits, seq.counters.row_visits);
        }
    }

    #[test]
    fn empty_batches_are_noops_with_the_snapshot_epoch() {
        let (mut session, set, _) = warm_session();
        let pd = session.equation("E = E*A").unwrap();
        session.add_pd(set, pd).unwrap();
        let snapshot = session.snapshot(set).unwrap();
        let pool = ParallelExecutor::new(4);
        let outcome = pool.implies_many_par(&snapshot, &[]).unwrap();
        assert!(outcome.value.is_empty());
        assert_eq!(outcome.counters.epoch, snapshot.epoch());
        assert_eq!(snapshot.epoch(), Epoch::new(1));
    }
}
