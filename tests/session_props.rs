//! Property tests pinning every [`Session`] query to the corresponding
//! free-function reference, on random workloads from the ps-bench
//! generators.
//!
//! The session layer is a cache-and-ownership shell around the substrate —
//! it must never change an answer.  For each of the five decision
//! procedures we draw a random workload, compute the answer through the
//! hand-threaded free functions, rebuild the same world inside a
//! [`Session`], and require agreement:
//!
//! * Theorems 8/9 — `Session::implies{,_many}` vs [`pd_implies`];
//! * Theorem 12 — `Session::consistent(Polynomial)` vs
//!   [`consistent_with_pds`];
//! * Theorem 11 — `Session::consistent(ExactCadEap)` vs
//!   [`consistent_with_cad_eap`];
//! * Theorem 7 — `Session::weak_instance` vs
//!   [`satisfiable_with_pds`](partition_semantics::core::weak_bridge::satisfiable_with_pds);
//! * Theorem 10 — `Session::identity` vs [`free_order::is_identity`];
//! * Example e — `Session::connected_components` vs
//!   [`components_via_partition_semantics`] and a plain union–find.
//!
//! The final fixture asserts the *point* of the session: a repeated
//! constraint set hits the engine cache, doing strictly fewer rule firings
//! than the same queries answered by two cold sessions.

use partition_semantics::core::weak_bridge::satisfiable_with_pds;
use partition_semantics::graph::components_union_find;
use partition_semantics::lattice::{free_order, DerivedOrder};
use partition_semantics::prelude::*;
use partition_semantics::session::Session;
use proptest::prelude::*;
use ps_bench::{consistency_workload, random_pd_set, random_word_problem_workload};

/// Canonicalizes a component labelling to first-occurrence ids so two
/// labellings compare equal iff they induce the same partition.
fn canonical_components(labels: &[usize]) -> Vec<usize> {
    let mut remap = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = remap.len();
            *remap.entry(l).or_insert(next)
        })
        .collect()
}

/// Clones a consistency workload's database with an extra `Clash` relation
/// that directly violates the FD `A0 → A1`, turning the (consistent by
/// construction) workload into a negative instance.
fn with_fd_clash(db: &Database, universe: &mut Universe, symbols: &mut SymbolTable) -> Database {
    let a0 = universe.attr("A0");
    let a1 = universe.attr("A1");
    let scheme = RelationScheme::new("Clash", vec![a0, a1]);
    let mut clash = Relation::new(scheme.clone());
    let x = symbols.symbol("clash_x");
    let y1 = symbols.symbol("clash_y1");
    let y2 = symbols.symbol("clash_y2");
    for y in [y1, y2] {
        let mut values = vec![x; 2];
        values[scheme.position(a0).unwrap()] = x;
        values[scheme.position(a1).unwrap()] = y;
        clash.insert_values(&values).unwrap();
    }
    let mut out = db.clone();
    out.add(clash);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorems 8/9: `Session::implies_many` (cached engine) agrees with
    /// the free `pd_implies` on every goal of a random word-problem
    /// workload — and both with the naive-fixpoint reference
    /// `DerivedOrder` — and the single-goal form agrees with the batched
    /// form.
    #[test]
    fn prop_session_implication_matches_pd_implies(seed in 0u64..10_000) {
        let w = random_word_problem_workload(5, 4, 4, 6, 3, seed);
        let expected: Vec<bool> = w
            .goals
            .iter()
            .map(|&g| pd_implies(&w.arena, &w.equations, g))
            .collect();
        for (&g, &verdict) in w.goals.iter().zip(&expected) {
            let naive = DerivedOrder::build(&w.arena, &w.equations, &[g.lhs, g.rhs]);
            prop_assert_eq!(naive.entails(g), Some(verdict));
        }

        let mut session = Session::from_parts(w.universe, SymbolTable::new(), w.arena);
        let set = session.register(&w.equations).unwrap();
        let batch = session.implies_many(set, &w.goals).unwrap();
        prop_assert_eq!(&batch.value, &expected);
        // The engine was built exactly once for the whole batch…
        prop_assert_eq!(batch.counters.engine_misses, 1);
        // …and the single-goal form reuses it, still agreeing.
        for (&goal, &reference) in w.goals.iter().zip(expected.iter()) {
            let single = session.implies(set, goal).unwrap();
            prop_assert_eq!(single.value, reference);
            prop_assert_eq!(single.counters.engine_hits, 1);
            prop_assert_eq!(single.counters.engine_misses, 0);
        }
    }

    /// Theorem 12: `Session::consistent(Polynomial)` agrees with the free
    /// `consistent_with_pds` pipeline on a consistent-by-construction
    /// workload *and* on the same workload with an injected FD violation.
    #[test]
    fn prop_session_polynomial_consistency_matches_reference(
        seed in 0u64..10_000,
        relations in 1usize..4,
        rows in 1usize..6,
    ) {
        let mut w = consistency_workload(relations, rows, seed);
        let clashed = with_fd_clash(&w.database, &mut w.universe, &mut w.symbols);
        let reference_ok = consistent_with_pds(
            &w.database, &w.pds, &mut w.arena, &mut w.universe, &mut w.symbols).unwrap();
        let reference_bad = consistent_with_pds(
            &clashed, &w.pds, &mut w.arena, &mut w.universe, &mut w.symbols).unwrap();

        let mut session = Session::from_parts(w.universe, w.symbols, w.arena);
        let set = session.register(&w.pds).unwrap();
        let ok = session
            .consistent(set, &w.database, ConsistencyMode::Polynomial)
            .unwrap();
        prop_assert_eq!(ok.value.consistent, reference_ok.consistent);
        prop_assert_eq!(&ok.value.fds, &reference_ok.fds);
        prop_assert_eq!(ok.value.witness.is_some(), reference_ok.weak_instance.is_some());
        let bad = session
            .consistent(set, &clashed, ConsistencyMode::Polynomial)
            .unwrap();
        prop_assert_eq!(bad.value.consistent, reference_bad.consistent);
        prop_assert!(!bad.value.consistent, "injected clash must be detected");
        // The closure was built once; the second query hit the cache.
        prop_assert_eq!(ok.counters.engine_misses, 1);
        prop_assert_eq!(bad.counters.engine_hits, 1);
    }

    /// Theorem 11: `Session::consistent(ExactCadEap)` agrees with the free
    /// `consistent_with_cad_eap` search (tiny instances — the search is
    /// exponential) on positive and injected-violation databases.
    #[test]
    fn prop_session_cad_consistency_matches_reference(
        seed in 0u64..10_000,
        relations in 1usize..3,
        rows in 1usize..4,
    ) {
        let mut w = consistency_workload(relations, rows, seed);
        let clashed = with_fd_clash(&w.database, &mut w.universe, &mut w.symbols);

        let mut session = Session::from_parts(w.universe, w.symbols, w.arena);
        let set = session.register(&w.pds).unwrap();
        for db in [&w.database, &clashed] {
            let reference = consistent_with_cad_eap(db, &w.fpds).unwrap();
            let outcome = session
                .consistent(set, db, ConsistencyMode::ExactCadEap)
                .unwrap();
            prop_assert_eq!(outcome.value.consistent, reference.consistent);
            prop_assert_eq!(
                outcome.value.witness.is_some(),
                reference.witness.is_some()
            );
            prop_assert_eq!(
                outcome.value.interpretation.is_some(),
                reference.interpretation.is_some()
            );
        }
    }

    /// Theorem 7: `Session::weak_instance` agrees with the free
    /// `satisfiable_with_pds` in verdict and witness shape, and a returned
    /// weak instance satisfies the closed FD set.
    #[test]
    fn prop_session_weak_instance_matches_reference(
        seed in 0u64..10_000,
        relations in 1usize..4,
        rows in 1usize..5,
    ) {
        let mut w = consistency_workload(relations, rows, seed);
        let clashed = with_fd_clash(&w.database, &mut w.universe, &mut w.symbols);
        let reference_ok = satisfiable_with_pds(
            &w.database, &w.pds, &mut w.arena, &mut w.universe, &mut w.symbols,
        ).unwrap();
        let reference_bad = satisfiable_with_pds(
            &clashed, &w.pds, &mut w.arena, &mut w.universe, &mut w.symbols,
        ).unwrap();

        let mut session = Session::from_parts(w.universe, w.symbols, w.arena);
        let set = session.register(&w.pds).unwrap();
        let ok = session.weak_instance(set, &w.database).unwrap();
        prop_assert_eq!(ok.value.satisfiable, reference_ok.satisfiable);
        prop_assert_eq!(
            ok.value.weak_instance.is_some(),
            reference_ok.weak_instance.is_some()
        );
        prop_assert_eq!(
            ok.value.interpretation.is_some(),
            reference_ok.interpretation.is_some()
        );
        if let Some(weak) = &ok.value.weak_instance {
            let fds = session
                .consistent(set, &w.database, ConsistencyMode::Polynomial)
                .unwrap()
                .value
                .fds;
            for fd in &fds {
                prop_assert!(weak.satisfies_fd(fd), "weak instance violates {fd:?}");
            }
        }
        let bad = session.weak_instance(set, &clashed).unwrap();
        prop_assert_eq!(bad.value.satisfiable, reference_bad.satisfiable);
        prop_assert!(!bad.value.satisfiable);
    }

    /// Theorem 10: `Session::identity` agrees with the free-lattice order
    /// on random equations (premises, goals, and hand-built identities).
    #[test]
    fn prop_session_identity_matches_free_order(seed in 0u64..10_000) {
        let w = random_pd_set(4, 5, 4, seed);
        let mut probes = w.equations.clone();
        probes.push(w.goal);
        let mut arena = w.arena;
        // x*(x+y) = x (absorption) over the first goal's sides: a true
        // identity, so the positive branch is exercised too.
        let x = w.goal.lhs;
        let y = w.goal.rhs;
        let xy = arena.join(x, y);
        let lhs = arena.meet(x, xy);
        probes.push(Equation::new(lhs, x));

        let expected: Vec<bool> = probes
            .iter()
            .map(|&pd| free_order::is_identity(&arena, pd))
            .collect();
        let mut session = Session::from_parts(w.universe, SymbolTable::new(), arena);
        for (&pd, &reference) in probes.iter().zip(expected.iter()) {
            prop_assert_eq!(session.identity(pd).unwrap().value, reference);
        }
    }

    /// Example e: `Session::connected_components` agrees with the free
    /// partition-semantics evaluator and with a plain union–find on random
    /// G(n, p) graphs.
    #[test]
    fn prop_session_components_match_references(
        seed in 0u64..10_000,
        n in 1usize..12,
        edge_density in 0usize..4,
    ) {
        let graph = gnp(n, edge_density as f64 * 0.15, seed);
        let mut session = Session::new();
        let (relation, encoding) = session.component_relation(&graph, "G");
        let via_session = session
            .connected_components(&relation, &encoding)
            .unwrap()
            .value;

        let mut arena = TermArena::new();
        let via_free =
            components_via_partition_semantics(&relation, &mut arena, &encoding).unwrap();
        let via_union_find = components_union_find(&graph);

        prop_assert_eq!(
            canonical_components(&via_session),
            canonical_components(&via_free)
        );
        prop_assert_eq!(
            canonical_components(&via_session),
            canonical_components(&via_union_find)
        );
    }
}

/// The cache fixture behind the session's existence: answering two goal
/// batches against one registered set must do strictly fewer rule firings
/// than answering them with two cold sessions (one engine build each).
#[test]
fn warm_session_beats_two_cold_sessions_by_rule_firings() {
    for seed in [3u64, 17, 42] {
        let make = || random_word_problem_workload(6, 8, 5, 12, 3, seed);

        // Warm: one session, one registration, two batches.
        let w = make();
        let (first_goals, second_goals) = w.goals.split_at(6);
        let mut warm = Session::from_parts(w.universe, SymbolTable::new(), w.arena);
        let set = warm.register(&w.equations).unwrap();
        let warm_first = warm.implies_many(set, first_goals).unwrap();
        let warm_second = warm.implies_many(set, second_goals).unwrap();
        assert_eq!(
            warm_first.counters.engine_misses, 1,
            "cold build, seed {seed}"
        );
        assert_eq!(
            warm_second.counters.engine_hits, 1,
            "cache hit, seed {seed}"
        );
        assert_eq!(warm_second.counters.engine_misses, 0);
        let warm_firings = warm.counters().rule_firings;

        // Cold: a fresh session (fresh engine build) per batch.
        let mut cold_firings = 0;
        let mut cold_answers = Vec::new();
        for range in [0..6usize, 6..12] {
            let w = make();
            let mut cold = Session::from_parts(w.universe, SymbolTable::new(), w.arena);
            let set = cold.register(&w.equations).unwrap();
            let outcome = cold.implies_many(set, &w.goals[range]).unwrap();
            assert_eq!(outcome.counters.engine_misses, 1);
            cold_answers.extend(outcome.value);
            cold_firings += cold.counters().rule_firings;
        }

        // Same answers, strictly fewer firings.
        let mut warm_answers = warm_first.value;
        warm_answers.extend(warm_second.value);
        assert_eq!(warm_answers, cold_answers, "seed {seed}");
        assert!(
            warm_firings < cold_firings,
            "warm session must fire strictly fewer rules: {warm_firings} vs \
             {cold_firings} (seed {seed})"
        );

        // Warm-then-mutated: the same warm session absorbs one new PD via
        // `add_pd` and answers the second batch again.  The cached engine
        // is extended in place (a hit paying only the saturation delta),
        // so the grown set still answers strictly cheaper than a cold
        // session registering it from scratch.
        let w = make();
        let new_pd = w.goals[0];
        let added = warm.add_pd(set, new_pd).unwrap().value;
        let warm_mutated = warm.implies_many(set, &w.goals[6..]).unwrap();
        assert_eq!(
            warm_mutated.counters.engine_hits, 1,
            "mutation extends the warm engine instead of rebuilding, seed {seed}"
        );
        assert_eq!(warm_mutated.counters.engine_misses, 0);
        assert_eq!(
            warm_mutated.counters.epoch.value(),
            u64::from(added),
            "an effective mutation bumps the epoch exactly once, seed {seed}"
        );

        let w = make();
        let mut grown = w.equations.clone();
        grown.push(w.goals[0]);
        let mut cold = Session::from_parts(w.universe, SymbolTable::new(), w.arena);
        let cold_set = cold.register(&grown).unwrap();
        let cold_mutated = cold.implies_many(cold_set, &w.goals[6..]).unwrap();
        assert_eq!(warm_mutated.value, cold_mutated.value, "seed {seed}");
        assert!(
            warm_mutated.counters.rule_firings < cold_mutated.counters.rule_firings,
            "the mutated warm session must pay only the delta: {} vs {} \
             (seed {seed})",
            warm_mutated.counters.rule_firings,
            cold_mutated.counters.rule_firings
        );
    }
}

/// The session's chase and Lemma 12.1 repair mint their nulls from the
/// session's own symbol table, so the next `symbols_mut().fresh()` — what
/// the `quickstart` and `fleet_registry` examples feed into
/// `repair_sum_violations` — is distinct from every null of a witness the
/// session already returned.  A session that minted from a detached source
/// without advancing its table would hand the same nulls out twice.
#[test]
fn session_witness_nulls_stay_fresh() {
    let mut session = Session::new();
    let set = session.register_texts(&["C = A+B", "A = A*D"]).unwrap();
    let db = session
        .database()
        .relation(
            "R",
            &["A", "B", "C"],
            &[&["a1", "b1", "c"], &["a2", "b2", "c"]],
        )
        .unwrap()
        .relation("S", &["A", "D"], &[&["a1", "d1"]])
        .unwrap()
        .build();

    let consistent = session
        .consistent(set, &db, ConsistencyMode::Polynomial)
        .unwrap()
        .value;
    let chased = consistent.witness.expect("consistent database");
    let weak = session.weak_instance(set, &db).unwrap().value;
    let repaired = weak.weak_instance.expect("the repair converges");
    assert!(
        repaired.len() > chased.len(),
        "the repair adds bridging rows"
    );

    let nulls: std::collections::HashSet<Symbol> = [&chased, &repaired]
        .iter()
        .flat_map(|w| w.iter().flat_map(|t| t.values()).collect::<Vec<_>>())
        .filter(|s| s.is_null())
        .collect();
    assert!(!nulls.is_empty());
    for _ in 0..nulls.len() {
        let next = session.symbols_mut().fresh();
        assert!(!nulls.contains(&next), "{next} was already handed out");
    }
}
