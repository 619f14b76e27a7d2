//! The differential mutation harness: live constraint-set edits pinned to
//! fresh registrations.
//!
//! The mutation API ([`Session::add_pd`] / [`Session::remove_pd`]) evolves
//! a registered set in place, re-saturating the cached engine incrementally
//! on additions and invalidating only dependent artifacts on removals.  The
//! contract certified here is threefold:
//!
//! * **Differential agreement** — after a random interleaved
//!   add/remove/query edit script, every decision procedure (`implies`,
//!   `implies_fd`, `identity`, `consistent` in both modes, `weak_instance`)
//!   on the mutated handle answers exactly like the same query against a
//!   *fresh* registration of the equivalent final set.
//! * **Counter proofs** — `add_pd` followed by a query fires strictly fewer
//!   rules than re-registering the grown set cold, and `remove_pd` drops
//!   only the caches that consumed the removed PD (an untouched artifact
//!   survives the epoch bump as a hit).
//! * **Epoch consistency** — a query started against epoch N consults only
//!   artifacts certified at epoch N ([`Counters::epoch`] equals the set's
//!   epoch, and every consulted artifact in
//!   [`Session::artifact_epochs`] reports it too).

use partition_semantics::prelude::*;
use partition_semantics::session::Session;
use proptest::prelude::*;
use ps_bench::{mutation_workload, random_word_problem_workload, EditOp};

/// PD equality as the session sees it: same pair modulo orientation.
fn same_pd(a: Equation, b: Equation) -> bool {
    (a.lhs == b.lhs && a.rhs == b.rhs) || (a.lhs == b.rhs && a.rhs == b.lhs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole differential property: drive a random edit script
    /// against a live handle (queries interleaved, so edits hit warm
    /// caches), then pin every decision procedure's answer on the mutated
    /// handle to a fresh registration of the equivalent final set.
    #[test]
    fn prop_mutated_handle_agrees_with_fresh_registration(seed in 0u64..5_000) {
        let w = mutation_workload(8, 14, 7, 3, 8, 40, seed);
        let mut live = Session::from_parts(w.universe, SymbolTable::new(), w.arena);
        let set = live.register(&w.pool[..w.initial]).unwrap();

        // The reference final set, maintained by hand with the session's
        // own normalized-pair semantics (registration dedupes by pair, so
        // the reference must too).
        let mut current: Vec<Equation> = Vec::new();
        for &pd in &w.pool[..w.initial] {
            if !current.iter().any(|&p| same_pd(p, pd)) {
                current.push(pd);
            }
        }
        for &op in &w.script {
            match op {
                EditOp::Add(i) => {
                    let pd = w.pool[i];
                    let expect_new = !current.iter().any(|&p| same_pd(p, pd));
                    let outcome = live.add_pd(set, pd).unwrap();
                    prop_assert_eq!(outcome.value, expect_new, "add_pd no-op contract");
                    if expect_new {
                        current.push(pd);
                    }
                }
                EditOp::Remove(i) => {
                    let pd = w.pool[i];
                    let expect_present = current.iter().any(|&p| same_pd(p, pd));
                    let outcome = live.remove_pd(set, pd).unwrap();
                    prop_assert_eq!(outcome.value, expect_present, "remove_pd no-op contract");
                    current.retain(|&p| !same_pd(p, pd));
                }
                EditOp::Query(g) => {
                    // Keeps the engine warm mid-script so later additions
                    // exercise incremental re-saturation and later removals
                    // exercise real invalidation.
                    let outcome = live.implies(set, w.goals[g]).unwrap();
                    prop_assert_eq!(outcome.counters.epoch, live.epoch(set).unwrap());
                }
            }
        }
        prop_assert_eq!(live.pds(set).unwrap().len(), current.len());

        // Shared fixtures minted *before* the interners are cloned, so both
        // sessions resolve identical term/attribute/symbol ids.
        let db = live
            .database()
            .relation(
                "R",
                &["A0", "A1", "A2"],
                &[&["x", "y", "z"], &["x", "y2", "z"], &["u", "y", "z2"]],
            )
            .unwrap()
            .build();
        let a0 = live.attribute("A0");
        let a1 = live.attribute("A1");
        let a2 = live.attribute("A2");
        let fd_goals = [fd(&[a0], &[a1]), fd(&[a1], &[a2]), fd(&[a0, a1], &[a2])];

        // A fresh registration of the equivalent final set, in a session
        // cloned from the mutated one (append-only interners make the clone
        // a superset view of the same ids).
        let mut fresh = Session::from_parts(
            live.universe().clone(),
            live.symbols().clone(),
            live.arena().clone(),
        );
        let fresh_set = fresh.register(&current).unwrap();

        // Theorems 8/9: PD implication, every goal.
        for &goal in &w.goals {
            prop_assert_eq!(
                live.implies(set, goal).unwrap().value,
                fresh.implies(fresh_set, goal).unwrap().value,
                "implies diverged after mutation"
            );
        }
        // Section 5.3: FD implication.
        for goal in &fd_goals {
            prop_assert_eq!(
                live.implies_fd(set, goal).unwrap().value,
                fresh.implies_fd(fresh_set, goal).unwrap().value,
                "implies_fd diverged after mutation"
            );
        }
        // Theorem 10: identity recognition (set-independent by definition,
        // pinned anyway as part of the five-procedure sweep).
        for &goal in w.goals.iter().take(3) {
            prop_assert_eq!(
                live.identity(goal).unwrap().value,
                fresh.identity(goal).unwrap().value
            );
        }
        // Theorem 12: polynomial consistency, verdict, closed FDs and chase work.
        let live_poly = live.consistent(set, &db, ConsistencyMode::Polynomial).unwrap();
        let fresh_poly = fresh
            .consistent(fresh_set, &db, ConsistencyMode::Polynomial)
            .unwrap();
        prop_assert_eq!(live_poly.value.consistent, fresh_poly.value.consistent);
        prop_assert_eq!(&live_poly.value.fds, &fresh_poly.value.fds);
        prop_assert_eq!(live_poly.counters.row_visits, fresh_poly.counters.row_visits);
        // Theorem 11: exact CAD+EAP consistency — agreement extends to the
        // typed rejection of non-FPD sets.
        let live_cad = live.consistent(set, &db, ConsistencyMode::ExactCadEap);
        let fresh_cad = fresh.consistent(fresh_set, &db, ConsistencyMode::ExactCadEap);
        match (live_cad, fresh_cad) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.value.consistent, b.value.consistent),
            (Err(Error::CadRequiresFpds { .. }), Err(Error::CadRequiresFpds { .. })) => {}
            (a, b) => prop_assert!(
                false,
                "CAD mode diverged after mutation: live ok={} fresh ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
        // Theorem 7: weak-instance satisfiability.
        let live_weak = live.weak_instance(set, &db).unwrap();
        let fresh_weak = fresh.weak_instance(fresh_set, &db).unwrap();
        prop_assert_eq!(live_weak.value.satisfiable, fresh_weak.value.satisfiable);
        prop_assert_eq!(
            live_weak.value.weak_instance.is_some(),
            fresh_weak.value.weak_instance.is_some()
        );
    }

    /// Re-keying: after mutations, registering a set equal to the mutated
    /// state returns the live handle itself, and the pre-mutation key is
    /// free again for a genuinely new registration.
    #[test]
    fn prop_mutated_sets_still_dedup_against_equal_registrations(seed in 0u64..5_000) {
        let w = mutation_workload(6, 8, 4, 3, 2, 12, seed);
        let mut session = Session::from_parts(w.universe, SymbolTable::new(), w.arena);
        let set = session.register(&w.pool[..w.initial]).unwrap();
        let mut current: Vec<Equation> = Vec::new();
        for &pd in &w.pool[..w.initial] {
            if !current.iter().any(|&p| same_pd(p, pd)) {
                current.push(pd);
            }
        }
        for &op in &w.script {
            match op {
                EditOp::Add(i) => {
                    if session.add_pd(set, w.pool[i]).unwrap().value {
                        current.push(w.pool[i]);
                    }
                }
                EditOp::Remove(i) => {
                    session.remove_pd(set, w.pool[i]).unwrap();
                    current.retain(|&p| !same_pd(p, w.pool[i]));
                }
                EditOp::Query(g) => {
                    session.implies(set, w.goals[g]).unwrap();
                }
            }
        }
        // Equal set (same PDs, shuffled orientation) resolves to the live
        // handle — the mutated set was re-keyed under its current form.
        let flipped: Vec<Equation> = current
            .iter()
            .map(|&p| Equation::new(p.rhs, p.lhs))
            .collect();
        prop_assert_eq!(session.register(&flipped).unwrap(), set);
    }
}

/// Counter fixture (additions): a warm session absorbing one PD via
/// `add_pd` answers the next query batch with strictly fewer rule firings
/// than a cold session registering the grown set from scratch — the
/// incremental path pays only the saturation delta.
#[test]
fn add_pd_then_query_fires_strictly_fewer_rules_than_reregistration() {
    for seed in [2u64, 9, 31] {
        let make = || random_word_problem_workload(6, 6, 5, 6, 3, seed);

        // Warm leg: build the engine on the base set, then grow it live.
        let w = make();
        let (base, extra) = w.equations.split_at(w.equations.len() - 1);
        let mut warm = Session::from_parts(w.universe, SymbolTable::new(), w.arena);
        let set = warm.register(base).unwrap();
        warm.implies_many(set, &w.goals).unwrap();
        let added = warm.add_pd(set, extra[0]).unwrap();
        assert!(added.value, "the held-out PD is new to the set");
        assert_eq!(
            added.counters.epoch.value(),
            1,
            "first mutation bumps to epoch 1"
        );
        let warm_after = warm.implies_many(set, &w.goals).unwrap();
        assert_eq!(
            warm_after.counters.engine_hits, 1,
            "incremental extension reuses the cache (seed {seed})"
        );
        assert_eq!(warm_after.counters.engine_misses, 0);

        // Cold leg: the grown set registered from scratch.
        let w2 = make();
        let mut cold = Session::from_parts(w2.universe, SymbolTable::new(), w2.arena);
        let cold_set = cold.register(&w2.equations).unwrap();
        let cold_answers = cold.implies_many(cold_set, &w2.goals).unwrap();
        assert_eq!(cold_answers.counters.engine_misses, 1);

        assert_eq!(warm_after.value, cold_answers.value, "seed {seed}");
        assert!(
            warm_after.counters.rule_firings < cold_answers.counters.rule_firings,
            "add_pd must pay only the delta (seed {seed}: {} vs {})",
            warm_after.counters.rule_firings,
            cold_answers.counters.rule_firings
        );
    }
}

/// Counter fixture (removals): `remove_pd` drops exactly the caches that
/// consumed the removed PD.  The engine (extended with the PD) rebuilds as
/// a miss; the closure (built before the PD arrived) survives *two* epoch
/// bumps untouched and is re-certified as a hit at the new epoch.
#[test]
fn remove_pd_invalidates_only_dependent_caches() {
    let mut session = Session::new();
    let a = session.equation("A = A*B").unwrap();
    let b = session.equation("B = B*C").unwrap();
    let c = session.equation("C = C*D").unwrap();
    let goal = session.equation("A = A*C").unwrap();
    let db = session
        .database()
        .relation("R", &["A", "B", "C", "D"], &[&["a", "b", "c", "d"]])
        .unwrap()
        .build();
    let set = session.register(&[a, b]).unwrap();

    // Epoch 0: build both artifacts.
    assert_eq!(
        session.implies(set, goal).unwrap().counters.engine_misses,
        1
    );
    let poly = session
        .consistent(set, &db, ConsistencyMode::Polynomial)
        .unwrap();
    assert_eq!(poly.counters.engine_misses, 1, "closure built cold");

    // Epoch 1: add `c`.  The next implication query extends the engine in
    // place (a hit paying only the delta); the closure is not consulted, so
    // it still records only {a, b}.
    assert!(session.add_pd(set, c).unwrap().value);
    assert_eq!(session.epoch(set).unwrap().value(), 1);
    let grown = session.implies(set, goal).unwrap();
    assert_eq!(
        grown.counters.engine_hits, 1,
        "additions extend, not rebuild"
    );
    assert_eq!(grown.counters.engine_misses, 0);
    assert!(
        grown.counters.rule_firings > 0,
        "the incremental delta performs real work"
    );
    assert_eq!(grown.counters.epoch.value(), 1);

    // Epoch 2: remove `c`.  The engine consumed it — dropped and rebuilt
    // as a miss.  The closure never did — it survives the bump and answers
    // as a hit, re-certified at the new epoch.
    assert!(session.remove_pd(set, c).unwrap().value);
    assert_eq!(session.epoch(set).unwrap().value(), 2);
    let rebuilt = session.implies(set, goal).unwrap();
    assert_eq!(
        rebuilt.counters.engine_misses, 1,
        "the engine depended on the removed PD"
    );
    let preserved = session
        .consistent(set, &db, ConsistencyMode::Polynomial)
        .unwrap();
    assert_eq!(
        preserved.counters.engine_hits, 1,
        "the untouched closure survives the epoch bump as a hit"
    );
    assert_eq!(preserved.counters.engine_misses, 0);
    assert_eq!(preserved.counters.epoch.value(), 2);
    assert_eq!(poly.value.consistent, preserved.value.consistent);

    // Both consulted artifacts (and the eagerly re-keyed cache key) now
    // report the current epoch.
    for (name, epoch) in session.artifact_epochs(set).unwrap() {
        assert_eq!(epoch.value(), 2, "artifact {name} left behind");
    }
}

/// Epoch-consistency: a query started against epoch N only consults
/// artifacts certified at N.  Lazily surviving artifacts are allowed to
/// *lag* while unconsulted (that is the laziness), but the moment any query
/// reads them they must report the query's own epoch — so no single answer
/// ever mixes pre- and post-mutation state.
#[test]
fn one_query_never_observes_mixed_epochs() {
    let w = mutation_workload(8, 12, 6, 3, 6, 30, 77);
    let mut session = Session::from_parts(w.universe, SymbolTable::new(), w.arena);
    let set = session.register(&w.pool[..w.initial]).unwrap();
    let db = session
        .database()
        .relation("R", &["A0", "A1"], &[&["x", "y"]])
        .unwrap()
        .build();

    for &op in &w.script {
        match op {
            EditOp::Add(i) => {
                session.add_pd(set, w.pool[i]).unwrap();
            }
            EditOp::Remove(i) => {
                session.remove_pd(set, w.pool[i]).unwrap();
            }
            EditOp::Query(g) => {
                let set_epoch = session.epoch(set).unwrap();
                // Consult both the engine (implication) and the closure
                // (consistency) at this epoch.
                let implication = session.implies(set, w.goals[g]).unwrap();
                let consistency = session
                    .consistent(set, &db, ConsistencyMode::Polynomial)
                    .unwrap();
                assert_eq!(implication.counters.epoch, set_epoch);
                assert_eq!(consistency.counters.epoch, set_epoch);
                // Every artifact either query consulted — the key, the
                // engine, the closure — was certified at exactly this
                // epoch: no mixed-epoch reads.
                for (name, epoch) in session.artifact_epochs(set).unwrap() {
                    if name != "fpds" {
                        assert_eq!(
                            epoch, set_epoch,
                            "artifact {name} consulted at a stale epoch"
                        );
                    }
                }
            }
        }
    }
}

/// The lazy half of the invalidation discipline, observed through
/// [`Session::artifact_epochs`]: a mutation bumps the set's epoch eagerly
/// but leaves unaffected artifacts stamped with their old epoch until a
/// query actually consults (and re-certifies) them.
#[test]
fn surviving_artifacts_lag_until_consulted() {
    let mut session = Session::new();
    let a = session.equation("A = A*B").unwrap();
    let b = session.equation("B = B*C").unwrap();
    let c = session.equation("D = D*A").unwrap();
    let goal = session.equation("A = A*C").unwrap();
    let db = session
        .database()
        .relation("R", &["A", "B", "C"], &[&["a", "b", "c"]])
        .unwrap()
        .build();
    let set = session.register(&[a, b]).unwrap();
    session.implies(set, goal).unwrap();
    session
        .consistent(set, &db, ConsistencyMode::Polynomial)
        .unwrap();

    // Mutation: epoch 1.  The key is maintained eagerly; both artifacts
    // survive (addition poisons nothing) but stay stamped at epoch 0.
    assert!(session.add_pd(set, c).unwrap().value);
    let epochs = session.artifact_epochs(set).unwrap();
    assert!(epochs.contains(&("key", Epoch::new(1))), "{epochs:?}");
    assert!(epochs.contains(&("engine", Epoch::new(0))), "{epochs:?}");
    assert!(epochs.contains(&("closed", Epoch::new(0))), "{epochs:?}");

    // Consulting the engine re-certifies it; the closure still lags.
    session.implies(set, goal).unwrap();
    let epochs = session.artifact_epochs(set).unwrap();
    assert!(epochs.contains(&("engine", Epoch::new(1))), "{epochs:?}");
    assert!(epochs.contains(&("closed", Epoch::new(0))), "{epochs:?}");

    // Consulting the closure catches it up too.
    session
        .consistent(set, &db, ConsistencyMode::Polynomial)
        .unwrap();
    let epochs = session.artifact_epochs(set).unwrap();
    assert!(epochs.contains(&("closed", Epoch::new(1))), "{epochs:?}");
}
