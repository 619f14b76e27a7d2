//! The parallel-executor agreement harness: snapshot fan-out pinned to the
//! sequential session.
//!
//! The contract certified here is the one the [`ParallelExecutor`] docs
//! promise:
//!
//! * **Verdict agreement** — for any batch, `implies_many_par` /
//!   `consistent_many_par` / `weak_instance_many_par` over a frozen
//!   [`SetSnapshot`] produce exactly the verdicts of the sequential warm
//!   session, at every thread count.
//! * **Counter determinism** — the merged strategy-independent counters
//!   (`rule_firings`, `row_visits`, `engine_hits`, `engine_misses`) are
//!   identical for 1, 2 and 4 workers, and equal to the sequential loop's
//!   sums: work distribution must never change the amount of work.
//! * **Epoch isolation (copy-on-write)** — a snapshot keeps answering from
//!   its frozen epoch with zero new rule firings while `add_pd` /
//!   `remove_pd` move the live handle on and force it to re-saturate.

use partition_semantics::prelude::*;
use partition_semantics::relation::canonical_chase_rows;
use partition_semantics::session::Session;
use proptest::prelude::*;
use ps_bench::{fanout_consistency_workload, random_word_problem_workload};

/// A consistency witness's rows with nulls renamed to first-occurrence
/// order, so witnesses minted from different null sources compare equal
/// exactly when they agree up to null renaming.
fn canonical_witness(
    answer: &ConsistencyAnswer,
    symbols: &SymbolTable,
) -> Option<Vec<Vec<String>>> {
    let witness = answer.witness.as_ref()?;
    let rows: Vec<Vec<Symbol>> = witness.iter().map(|t| t.values().collect()).collect();
    Some(canonical_chase_rows(&rows, symbols))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Implication fan-out: the frozen engine answers a random goal batch
    /// with the warm sequential verdicts and counters at every pool width.
    #[test]
    fn prop_parallel_implication_agrees_with_sequential(seed in 0u64..5_000) {
        let w = random_word_problem_workload(6, 6, 4, 10, 3, seed);
        let mut session = Session::from_parts(w.universe, SymbolTable::new(), w.arena);
        let set = session.register(&w.equations).unwrap();

        // First pass builds and extends the engine; the second is the warm
        // reference the frozen snapshot must reproduce (hit-only, no new
        // saturation).
        session.implies_many(set, &w.goals).unwrap();
        let warm = session.implies_many(set, &w.goals).unwrap();
        prop_assert_eq!(warm.counters.rule_firings, 0);
        prop_assert_eq!(warm.counters.engine_hits, 1);

        let snapshot = session.snapshot_with_goals(set, &w.goals).unwrap();
        for threads in [1usize, 2, 4] {
            let pool = ParallelExecutor::new(threads);
            let outcome = pool.implies_many_par(&snapshot, &w.goals).unwrap();
            prop_assert_eq!(&outcome.value, &warm.value, "threads={}", threads);
            prop_assert_eq!(outcome.counters.rule_firings, 0, "frozen engine");
            prop_assert_eq!(outcome.counters.engine_hits, warm.counters.engine_hits);
            prop_assert_eq!(outcome.counters.engine_misses, 0);
            prop_assert_eq!(outcome.counters.epoch, snapshot.epoch());
        }
    }

    /// Consistency and weak-instance fan-out: chase verdicts, witnesses and
    /// summed chase counters match the sequential warm loop at every pool
    /// width (per-worker null sources must not change any verdict), and
    /// each consistent witness is the session's up to null renaming.
    #[test]
    fn prop_parallel_consistency_agrees_with_sequential(seed in 0u64..5_000) {
        let w = fanout_consistency_workload(3, 5, 10, seed);
        let mut session = Session::from_parts(w.universe, w.symbols, w.arena);
        let set = session.register(&w.pds).unwrap();

        // Warm the closed system so the sequential window is hit-only,
        // mirroring what the snapshot freeze pays once up front.
        session
            .consistent(set, &w.databases[0], ConsistencyMode::Polynomial)
            .unwrap();
        session.take_counters();
        let mut verdicts = Vec::new();
        let mut witnesses = Vec::new();
        let mut satisfiable = Vec::new();
        let mut sequential = Counters::default();
        for db in &w.databases {
            let outcome = session
                .consistent(set, db, ConsistencyMode::Polynomial)
                .unwrap();
            verdicts.push(outcome.value.consistent);
            witnesses.push(canonical_witness(&outcome.value, session.symbols()));
            sequential += outcome.counters;
            satisfiable.push(session.weak_instance(set, db).unwrap().value.satisfiable);
        }
        prop_assert!(verdicts.iter().any(|&v| !v), "odd databases violate an FD");

        let snapshot = session.snapshot(set).unwrap();
        for threads in [1usize, 2, 4] {
            let pool = ParallelExecutor::new(threads);
            let outcome = pool.consistent_many_par(&snapshot, &w.databases).unwrap();
            let par: Vec<bool> = outcome.value.iter().map(|a| a.consistent).collect();
            prop_assert_eq!(&par, &verdicts, "threads={}", threads);
            let par_witnesses: Vec<_> = outcome
                .value
                .iter()
                .map(|a| canonical_witness(a, snapshot.symbols()))
                .collect();
            prop_assert_eq!(&par_witnesses, &witnesses, "threads={}", threads);
            prop_assert!(witnesses.iter().any(Option::is_some), "even databases are consistent");
            prop_assert_eq!(outcome.counters.row_visits, sequential.row_visits);
            prop_assert_eq!(outcome.counters.engine_hits, sequential.engine_hits);
            prop_assert_eq!(outcome.counters.rule_firings, 0);
            prop_assert_eq!(outcome.counters.epoch, snapshot.epoch());

            let weak = pool.weak_instance_many_par(&snapshot, &w.databases).unwrap();
            let sat: Vec<bool> = weak.value.iter().map(|s| s.satisfiable).collect();
            prop_assert_eq!(&sat, &satisfiable, "threads={}", threads);
        }
    }
}

/// The copy-on-write counter fixture: freeze a snapshot, then mutate the
/// live set out from under it.  The live handle bumps its epoch and pays a
/// real re-saturation on its next query — while the snapshot keeps
/// answering the *original* set's verdicts from the frozen epoch with zero
/// new rule firings.
#[test]
fn snapshot_answers_from_the_frozen_epoch_while_the_live_set_moves_on() {
    let mut session = Session::new();
    let set = session.register_texts(&["A = A*B", "B = B*C"]).unwrap();
    let goals = vec![
        session.equation("A = A*C").unwrap(),
        session.equation("C = C*A").unwrap(),
    ];
    let frozen_verdicts = session.implies_many(set, &goals).unwrap().value;
    assert_eq!(
        frozen_verdicts,
        vec![true, false],
        "A ≤ B ≤ C implies A ≤ C"
    );
    let snapshot = session.snapshot_with_goals(set, &goals).unwrap();
    assert_eq!(snapshot.epoch(), Epoch::new(0));

    // Mutate the live set: add one PD, remove one the engine consumed.
    let added = session.equation("C = C*D").unwrap();
    session.add_pd(set, added).unwrap();
    let removed = session.equation("B = B*C").unwrap();
    session.remove_pd(set, removed).unwrap();
    assert_eq!(session.epoch(set).unwrap().value(), 2);

    // The live handle re-saturates (the removal poisoned its engine) and
    // its verdict flips: without B = B*C, A ≤ C is no longer derivable.
    session.take_counters();
    let live = session.implies(set, goals[0]).unwrap();
    assert!(!live.value, "the live set no longer implies A = A*C");
    assert!(
        live.counters.rule_firings > 0,
        "the live handle pays a real rebuild after the removal"
    );
    assert_eq!(live.counters.epoch.value(), 2);

    // The snapshot is untouched: original verdicts, frozen epoch, and not
    // a single new rule fired anywhere in the batch.
    for threads in [1usize, 4] {
        let pool = ParallelExecutor::new(threads);
        let outcome = pool.implies_many_par(&snapshot, &goals).unwrap();
        assert_eq!(outcome.value, frozen_verdicts, "threads={threads}");
        assert_eq!(outcome.counters.epoch, Epoch::new(0), "frozen epoch");
        assert_eq!(outcome.counters.rule_firings, 0, "no new saturation");
    }
    // Single-query path too.
    assert!(snapshot.implies(goals[0]).unwrap());
}
