//! Experiments E1–E3: property-based cross-validation of the implication
//! machinery.
//!
//! * E1 — PD implication (Theorems 8, 9): ALG's production engine and its
//!   naive-fixpoint reference (`DerivedOrder`) agree, are
//!   sound with respect to concrete partition interpretations, and are
//!   complete for goals checkable on small finite lattices.
//! * E2 — FD implication (Section 5.3): attribute closure, the lattice word
//!   problem and the idempotent-commutative-semigroup word problem agree.
//! * E3 — PD identities (Theorem 10): the free-lattice order agrees with ALG
//!   run on the empty constraint set, and with finite-lattice model checking.

mod common;

use common::World;
use partition_semantics::core::fd_bridge::{fd_implies_via_lattice, fd_implies_via_semigroup};
use partition_semantics::core::implication::{is_identity, pd_implies};
use partition_semantics::core::lattice_of::InterpretationLattice;
use partition_semantics::lattice::{free_order, DerivedOrder};
use partition_semantics::prelude::*;
use partition_semantics::relation::fd_closure;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// E1 — PD implication.
// ---------------------------------------------------------------------------

/// The engine behind `pd_implies` against the naive fixpoint.
#[test]
fn alg_strategies_agree_on_random_instances() {
    for seed in 0..60u64 {
        let mut world = World::new();
        let attrs = world.attrs(4);
        let e: Vec<Equation> = (0..3)
            .map(|i| common::random_pd(&mut world.arena, &attrs, 4, seed * 17 + i))
            .collect();
        let goal = common::random_pd(&mut world.arena, &attrs, 4, seed * 17 + 99);
        let naive = DerivedOrder::build(&world.arena, &e, &[goal.lhs, goal.rhs]).entails(goal);
        let engine = pd_implies(&world.arena, &e, goal);
        assert_eq!(naive, Some(engine), "seed {seed}");
    }
}

#[test]
fn implication_is_sound_for_concrete_interpretations() {
    // If E ⊨ δ then every interpretation satisfying E satisfies δ
    // (Theorem 8 (b) ⇒ (d), restricted to the finite interpretations we can
    // build).  Sample random interpretations, collect which of a pool of PDs
    // they satisfy, and check every implied PD is satisfied too.
    let mut checked = 0usize;
    for seed in 0..40u64 {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let interpretation = common::random_interpretation(&mut world, &attrs, 5, seed);
        let pool: Vec<Equation> = (0..8)
            .map(|i| common::random_pd(&mut world.arena, &attrs, 3, seed * 31 + i))
            .collect();
        let e: Vec<Equation> = pool
            .iter()
            .copied()
            .filter(|&pd| interpretation.satisfies_pd(&world.arena, pd).unwrap())
            .collect();
        // Probe with fresh random goals *and* with products/sums of premises,
        // which are much more likely to be implied.
        let mut goals: Vec<Equation> = (0..8u64)
            .map(|goal_seed| common::random_pd(&mut world.arena, &attrs, 3, seed * 131 + goal_seed))
            .collect();
        for pair in e.windows(2) {
            let lhs = world.arena.meet(pair[0].lhs, pair[1].lhs);
            let rhs = world.arena.meet(pair[0].rhs, pair[1].rhs);
            goals.push(Equation::new(lhs, rhs));
            let lhs = world.arena.join(pair[0].lhs, pair[1].rhs);
            let rhs = world.arena.join(pair[0].rhs, pair[1].lhs);
            goals.push(Equation::new(lhs, rhs));
        }
        for goal in goals {
            if pd_implies(&world.arena, &e, goal) {
                checked += 1;
                assert!(
                    interpretation.satisfies_pd(&world.arena, goal).unwrap(),
                    "seed {seed}: E ⊨ goal but the interpretation violates it"
                );
            }
        }
    }
    assert!(checked > 0, "the soundness check exercised no implications");
}

#[test]
fn implication_agrees_with_the_lattice_of_canonical_interpretations() {
    // Theorem 8 (b) ⇔ (d) in the other direction, on a small scale: when
    // E ⊭ δ, the canonical interpretation of some relation satisfying E
    // should be allowed to violate δ.  We can't search all relations, but we
    // *can* verify Theorem 1 coherence: L(I(r)) and I(r) always agree.
    for seed in 0..25u64 {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let relation = common::random_relation(&mut world, "R", &attrs, 4, 2, seed);
        let interpretation = canonical_interpretation(&relation).unwrap();
        if interpretation.is_empty() {
            continue;
        }
        let lattice = InterpretationLattice::build(&interpretation, 512).unwrap();
        for probe in 0..10u64 {
            let pd = common::random_pd(&mut world.arena, &attrs, 4, seed * 1000 + probe);
            assert_eq!(
                interpretation.satisfies_pd(&world.arena, pd).unwrap(),
                lattice
                    .satisfies_pd(&world.arena, &world.universe, pd)
                    .unwrap(),
                "Theorem 1 disagreement, seed {seed} probe {probe}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// E ⊨ δ for every δ ∈ E (soundness of the inference system on its own
    /// premises), and implication is monotone under enlarging E.
    #[test]
    fn prop_premises_are_implied_and_implication_is_monotone(seed in 0u64..10_000) {
        let mut world = World::new();
        let attrs = world.attrs(4);
        let e: Vec<Equation> = (0..3)
            .map(|i| common::random_pd(&mut world.arena, &attrs, 3, seed * 7 + i))
            .collect();
        for &premise in &e {
            prop_assert!(pd_implies(&world.arena, &e, premise));
        }
        let goal = common::random_pd(&mut world.arena, &attrs, 3, seed * 7 + 50);
        let small = pd_implies(&world.arena, &e[..2], goal);
        let large = pd_implies(&world.arena, &e, goal);
        prop_assert!(!small || large, "implication must be monotone in E");
    }

    /// Substituting equals for equals: if E ⊨ x = y then E ⊨ x*z = y*z and
    /// E ⊨ x+z = y+z (congruence of the derived relation).
    #[test]
    fn prop_derived_equality_is_a_congruence(seed in 0u64..5_000) {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = common::random_term(&mut world.arena, &attrs, 3, &mut rng);
        let y = common::random_term(&mut world.arena, &attrs, 3, &mut rng);
        let z = common::random_term(&mut world.arena, &attrs, 3, &mut rng);
        let e = vec![Equation::new(x, y)];
        let xm = world.arena.meet(x, z);
        let ym = world.arena.meet(y, z);
        let xj = world.arena.join(x, z);
        let yj = world.arena.join(y, z);
        prop_assert!(pd_implies(&world.arena, &e, Equation::new(xm, ym)));
        prop_assert!(pd_implies(&world.arena, &e, Equation::new(xj, yj)));
    }
}

// ---------------------------------------------------------------------------
// E2 — FD implication three ways.
// ---------------------------------------------------------------------------

#[test]
fn fd_implication_routes_agree_on_random_sets() {
    for seed in 0..80u64 {
        let mut world = World::new();
        let attrs = world.attrs(5);
        let fds = common::random_fds(&attrs, 4, seed);
        let goal = common::random_fds(&attrs, 1, seed ^ 0xFFFF)[0].clone();
        let by_closure = fd_closure::implies(&fds, &goal);
        let by_semigroup = fd_implies_via_semigroup(&fds, &goal);
        let by_lattice = fd_implies_via_lattice(&fds, &goal);
        assert_eq!(by_closure, by_semigroup, "seed {seed}");
        assert_eq!(by_closure, by_lattice, "seed {seed}");
    }
}

#[test]
fn fd_closure_variants_and_armstrong_axioms() {
    for seed in 0..40u64 {
        let mut world = World::new();
        let attrs = world.attrs(5);
        let fds = common::random_fds(&attrs, 4, seed);
        // Naive and optimized attribute closure agree.
        for start in attrs.iter().map(|&a| AttrSet::singleton(a)) {
            assert_eq!(
                fd_closure::attribute_closure_naive(&fds, &start),
                fd_closure::attribute_closure(&fds, &start),
                "seed {seed}"
            );
        }
        // Reflexivity and augmentation hold under every route.
        let x = AttrSet::from(vec![attrs[0], attrs[1]]);
        let reflexive = Fd::new(x.clone(), AttrSet::singleton(attrs[0]));
        assert!(fd_closure::implies(&fds, &reflexive));
        assert!(fd_implies_via_semigroup(&fds, &reflexive));
        assert!(fd_implies_via_lattice(&fds, &reflexive));
    }
}

#[test]
fn minimal_covers_are_equivalent_to_their_sources() {
    for seed in 0..30u64 {
        let mut world = World::new();
        let attrs = world.attrs(4);
        let fds = common::random_fds(&attrs, 5, seed);
        let cover = fd_closure::minimal_cover(&fds);
        assert!(fd_closure::equivalent(&fds, &cover), "seed {seed}");
        assert!(cover.len() <= fds.len() + fds.iter().map(|f| f.rhs.len()).sum::<usize>());
    }
}

#[test]
fn theorem3_fd_satisfaction_equals_fpd_satisfaction_on_random_relations() {
    for seed in 0..40u64 {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let relation = common::random_relation(&mut world, "R", &attrs, 5, 2, seed);
        let fds = common::random_fds(&attrs, 3, seed ^ 0xA0A0);
        for dependency in &fds {
            let pd = Fpd::from_fd(dependency).as_meet_equation(&mut world.arena);
            assert_eq!(
                relation.satisfies_fd(dependency),
                relation_satisfies_pd(&relation, &world.arena, pd).unwrap(),
                "seed {seed}: {}",
                dependency.render(&world.universe)
            );
            // The dual join form agrees as well (the duality of Section 3.2).
            let dual = Fpd::from_fd(dependency).as_join_equation(&mut world.arena);
            assert_eq!(
                relation_satisfies_pd(&relation, &world.arena, pd).unwrap(),
                relation_satisfies_pd(&relation, &world.arena, dual).unwrap(),
                "seed {seed}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// E3 — identities (Theorem 10).
// ---------------------------------------------------------------------------

#[test]
fn identity_recognition_agrees_with_alg_on_the_empty_theory() {
    for seed in 0..120u64 {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let pd = common::random_pd(&mut world.arena, &attrs, 5, seed);
        assert_eq!(
            is_identity(&world.arena, pd),
            pd_implies(&world.arena, &[], pd),
            "seed {seed}: {}",
            pd.display(&world.arena, &world.universe)
        );
    }
}

#[test]
fn identities_hold_in_every_sampled_interpretation() {
    for seed in 0..30u64 {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let pd = common::random_pd(&mut world.arena, &attrs, 4, seed);
        if !is_identity(&world.arena, pd) {
            continue;
        }
        for interp_seed in 0..6u64 {
            let interpretation =
                common::random_interpretation(&mut world, &attrs, 5, seed * 100 + interp_seed);
            assert!(
                interpretation.satisfies_pd(&world.arena, pd).unwrap(),
                "identity {} violated",
                pd.display(&world.arena, &world.universe)
            );
        }
    }
}

#[test]
fn free_order_variants_agree_and_known_laws_hold() {
    let mut world = World::new();
    let laws_true = [
        "A*(A+B) = A",
        "A+(A*B) = A",
        "A*B = B*A",
        "A+(B+C) = (A+B)+C",
        "A*A = A",
        "(A*B)+(A*C) = ((A*B)+(A*C))*A", // ≤ A folded into an equation
    ];
    let laws_false = ["A = B", "A*(B+C) = (A*B)+(A*C)", "A+B = A*B", "A = A*B"];
    for text in laws_true {
        let pd = parse_equation(text, &mut world.universe, &mut world.arena).unwrap();
        assert!(
            is_identity(&world.arena, pd),
            "{text} should be an identity"
        );
    }
    for text in laws_false {
        let pd = parse_equation(text, &mut world.universe, &mut world.arena).unwrap();
        assert!(
            !is_identity(&world.arena, pd),
            "{text} should not be an identity"
        );
    }
    // The memoized and constant-space variants of ≤_id agree on random terms.
    let attrs = world.attrs(3);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..200 {
        let p = common::random_term(&mut world.arena, &attrs, 5, &mut rng);
        let q = common::random_term(&mut world.arena, &attrs, 5, &mut rng);
        assert_eq!(
            free_order::leq_id(&world.arena, p, q),
            free_order::leq_id_constant_space(&world.arena, p, q)
        );
    }
}

#[test]
fn non_implications_yield_verified_finite_countermodels() {
    // Theorem 8 (b) ⇔ (c): when E ⊭ δ there is a *finite* lattice with
    // constants separating them.  The constructive (subexpression-restricted)
    // variant implemented in `ps-lattice::countermodel` is best-effort, so we
    // require (i) every returned model is a genuine countermodel, (ii) models
    // are never returned for entailed goals, and (iii) the construction
    // succeeds on a healthy fraction of small non-implications.
    use partition_semantics::lattice::finite_countermodel;
    let mut attempted = 0usize;
    let mut found = 0usize;
    for seed in 0..30u64 {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let e: Vec<Equation> = (0..2)
            .map(|i| common::random_pd(&mut world.arena, &attrs, 2, seed * 13 + i))
            .collect();
        let goal = common::random_pd(&mut world.arena, &attrs, 3, seed * 13 + 77);
        let entailed = pd_implies(&world.arena, &e, goal);
        // Cap the construction at 8 generators (2^8 candidate meets) to keep
        // the test fast; larger instances simply return None.
        let model = finite_countermodel(&mut world.arena, &world.universe, &e, goal, 8);
        match (entailed, model) {
            (true, Some(_)) => panic!("seed {seed}: countermodel returned for an entailed goal"),
            (true, None) => {}
            (false, Some(model)) => {
                attempted += 1;
                found += 1;
                for &premise in &e {
                    assert!(
                        model
                            .satisfies(&world.arena, &world.universe, premise)
                            .unwrap(),
                        "seed {seed}: countermodel violates a premise"
                    );
                }
                assert!(
                    !model
                        .satisfies(&world.arena, &world.universe, goal)
                        .unwrap(),
                    "seed {seed}: countermodel satisfies the goal"
                );
                assert!(model.lattice.check_axioms().is_ok(), "seed {seed}");
            }
            (false, None) => {
                attempted += 1;
            }
        }
    }
    assert!(
        attempted > 10,
        "too few non-implications sampled ({attempted})"
    );
    assert!(
        found * 2 >= attempted,
        "the countermodel construction succeeded on only {found} of {attempted} non-implications"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identities are exactly the PDs satisfied by the free-lattice order,
    /// and they survive uniform renaming of attributes.
    #[test]
    fn prop_identities_are_stable_under_renaming(seed in 0u64..5_000) {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let pd = common::random_pd(&mut world.arena, &attrs, 4, seed);
        let identity = is_identity(&world.arena, pd);
        // Rename A_i ↦ A_{i+3} (fresh attributes) by rebuilding the terms.
        let fresh = world.attrs(6)[3..].to_vec();
        fn rename(
            arena: &mut TermArena,
            term: TermId,
            old: &[Attribute],
            new: &[Attribute],
        ) -> TermId {
            match arena.node(term) {
                partition_semantics::lattice::TermNode::Atom(a) => {
                    let idx = old.iter().position(|&o| o == a).unwrap();
                    arena.atom(new[idx])
                }
                partition_semantics::lattice::TermNode::Meet(l, r) => {
                    let l = rename(arena, l, old, new);
                    let r = rename(arena, r, old, new);
                    arena.meet(l, r)
                }
                partition_semantics::lattice::TermNode::Join(l, r) => {
                    let l = rename(arena, l, old, new);
                    let r = rename(arena, r, old, new);
                    arena.join(l, r)
                }
            }
        }
        let lhs = rename(&mut world.arena, pd.lhs, &attrs, &fresh);
        let rhs = rename(&mut world.arena, pd.rhs, &attrs, &fresh);
        prop_assert_eq!(identity, is_identity(&world.arena, Equation::new(lhs, rhs)));
    }
}
