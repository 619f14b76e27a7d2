//! Property-based tests for the uniform word problem for lattices.
//!
//! Five families of properties:
//!
//! 1. the two saturation strategies of algorithm ALG compute the same
//!    entailment relation;
//! 2. with `E = ∅`, ALG agrees with the free-lattice order `≤_id`
//!    (Lemma 8.2 / Lemma 9.2);
//! 3. **soundness against finite models**: if every equation of `E` holds in
//!    a concrete finite lattice under a concrete assignment, then every
//!    equation ALG derives from `E` also holds there (Theorem 8, the
//!    "only lattices that satisfy E matter" direction);
//! 4. the cached [`ImplicationEngine`] — fresh builds, incremental
//!    extension, and batched queries alike — is pinned to the
//!    `NaiveFixpoint` reference strategy on random equation sets;
//! 5. the term/equation printers round-trip through the parser onto the
//!    same hash-consed [`TermId`]s;
//! 6. **full-`Γ` differential**: one engine walked through build, goal-by-goal
//!    extension, `add_equations`, more goals and `retract_equations` holds,
//!    after every step, exactly the `leq` relation that a from-scratch
//!    `NaiveFixpoint` order computes over the same `E` and `V`.

use proptest::prelude::*;
use std::collections::HashMap;

use ps_base::{Attribute, Universe};
use ps_lattice::{
    free_order, parse_equation, parse_term, word_problem, Algorithm, Equation, FiniteLattice,
    ImplicationEngine, TermArena, TermId,
};

/// A small fixed universe of four attributes shared by all generated terms.
fn universe() -> (Universe, Vec<Attribute>) {
    let mut u = Universe::new();
    let attrs = u.attrs(["A", "B", "C", "D"]);
    (u, attrs)
}

/// A strategy producing random term *shapes*: 0 = atom, 1 = meet, 2 = join,
/// encoded as a recursive tree.
#[derive(Debug, Clone)]
enum Shape {
    Atom(u8),
    Meet(Box<Shape>, Box<Shape>),
    Join(Box<Shape>, Box<Shape>),
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    arb_shape_over(4, 3)
}

/// Term shapes over `atoms` attributes, nested up to `depth` levels.
fn arb_shape_over(atoms: u8, depth: u32) -> impl Strategy<Value = Shape> {
    let leaf = (0..atoms).prop_map(Shape::Atom);
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Shape::Meet(Box::new(l), Box::new(r))),
            (inner.clone(), inner).prop_map(|(l, r)| Shape::Join(Box::new(l), Box::new(r))),
        ]
    })
}

fn build(shape: &Shape, attrs: &[Attribute], arena: &mut TermArena) -> TermId {
    match shape {
        Shape::Atom(i) => arena.atom(attrs[*i as usize % attrs.len()]),
        Shape::Meet(l, r) => {
            let lt = build(l, attrs, arena);
            let rt = build(r, attrs, arena);
            arena.meet(lt, rt)
        }
        Shape::Join(l, r) => {
            let lt = build(l, attrs, arena);
            let rt = build(r, attrs, arena);
            arena.join(lt, rt)
        }
    }
}

/// Builds one equation per shape pair.
fn equations_of(
    shapes: &[(Shape, Shape)],
    attrs: &[Attribute],
    arena: &mut TermArena,
) -> Vec<Equation> {
    shapes
        .iter()
        .map(|(l, r)| Equation::new(build(l, attrs, arena), build(r, attrs, arena)))
        .collect()
}

/// The first pair of `engine`'s `V` on which it disagrees with a
/// `NaiveFixpoint` order built from scratch over the same `E` and `V`, or
/// `None` when the whole `Γ` agrees.  Also checks that the firing counter
/// saw every arc exactly once.
fn full_gamma_mismatch(arena: &TermArena, engine: &ImplicationEngine) -> Option<String> {
    let terms = engine.terms();
    let reference = word_problem::DerivedOrder::build(
        arena,
        engine.equations(),
        terms,
        Algorithm::NaiveFixpoint,
    );
    if reference.terms().len() != terms.len() {
        return Some(format!(
            "|V| {} vs reference {}",
            terms.len(),
            reference.terms().len()
        ));
    }
    for &p in terms {
        for &q in terms {
            if engine.leq(p, q) != reference.leq(p, q) {
                return Some(format!("leq({p:?}, {q:?}) differs"));
            }
        }
    }
    if engine.rule_firings() != engine.num_arcs() {
        return Some("rule_firings != num_arcs".to_owned());
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One engine through its whole life cycle — build, goal-by-goal
    /// extension, `add_equations`, more goals, `retract_equations` — holds
    /// the reference `Γ` over its current `V` after every step.  Six
    /// attributes, up to twelve equations and depth-4 goal terms.
    #[test]
    fn engine_walk_matches_naive_fixpoint_on_the_full_gamma(
        base_shapes in prop::collection::vec((arb_shape_over(6, 3), arb_shape_over(6, 3)), 0..9),
        extra_shapes in prop::collection::vec((arb_shape_over(6, 3), arb_shape_over(6, 3)), 1..5),
        first_goals in prop::collection::vec((arb_shape_over(6, 4), arb_shape_over(6, 4)), 1..5),
        later_goals in prop::collection::vec((arb_shape_over(6, 4), arb_shape_over(6, 4)), 1..4),
        retract_picks in prop::collection::vec(0usize..12, 1..4),
    ) {
        let mut u = Universe::new();
        let attrs = u.attrs(["A", "B", "C", "D", "E", "F"]);
        let mut arena = TermArena::new();
        let base = equations_of(&base_shapes, &attrs, &mut arena);
        let extra = equations_of(&extra_shapes, &attrs, &mut arena);
        let first = equations_of(&first_goals, &attrs, &mut arena);
        let later = equations_of(&later_goals, &attrs, &mut arena);

        let mut engine = ImplicationEngine::new(&arena, &base);
        prop_assert_eq!(full_gamma_mismatch(&arena, &engine), None, "after build");
        for (i, goal) in first.iter().enumerate() {
            engine.add_goal_terms(&arena, &[goal.lhs, goal.rhs]);
            prop_assert_eq!(full_gamma_mismatch(&arena, &engine), None, "after goal {}", i);
        }
        engine.add_equations(&arena, &extra);
        prop_assert_eq!(full_gamma_mismatch(&arena, &engine), None, "after add_equations");
        for (i, goal) in later.iter().enumerate() {
            engine.add_goal_terms(&arena, &[goal.lhs, goal.rhs]);
            prop_assert_eq!(full_gamma_mismatch(&arena, &engine), None, "after later goal {}", i);
        }
        let live = engine.equations().to_vec();
        let removed: Vec<Equation> = retract_picks.iter().map(|&k| live[k % live.len()]).collect();
        engine.retract_equations(&arena, &removed);
        prop_assert_eq!(full_gamma_mismatch(&arena, &engine), None, "after retract");
        engine.add_goal_terms(&arena, &[later[0].lhs, later[0].rhs]);
        prop_assert_eq!(full_gamma_mismatch(&arena, &engine), None, "after retract + goal");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn naive_and_worklist_agree(
        eq_shapes in prop::collection::vec((arb_shape(), arb_shape()), 0..4),
        goal in (arb_shape(), arb_shape()),
    ) {
        let (_, attrs) = universe();
        let mut arena = TermArena::new();
        let equations: Vec<Equation> = eq_shapes
            .iter()
            .map(|(l, r)| Equation::new(build(l, &attrs, &mut arena), build(r, &attrs, &mut arena)))
            .collect();
        let goal = Equation::new(build(&goal.0, &attrs, &mut arena), build(&goal.1, &attrs, &mut arena));
        let naive = word_problem::entails(&arena, &equations, goal, Algorithm::NaiveFixpoint);
        let fast = word_problem::entails(&arena, &equations, goal, Algorithm::Worklist);
        prop_assert_eq!(naive, fast);
    }

    #[test]
    fn empty_e_matches_the_free_order(lhs in arb_shape(), rhs in arb_shape()) {
        let (_, attrs) = universe();
        let mut arena = TermArena::new();
        let l = build(&lhs, &attrs, &mut arena);
        let r = build(&rhs, &attrs, &mut arena);
        for algo in [Algorithm::NaiveFixpoint, Algorithm::Worklist] {
            prop_assert_eq!(
                word_problem::entails_leq(&arena, &[], l, r, algo),
                free_order::leq_id(&arena, l, r)
            );
        }
    }

    #[test]
    fn derived_equations_hold_in_finite_models_satisfying_e(
        term_shapes in prop::collection::vec(arb_shape(), 2..6),
        goal_pair in (0usize..6, 0usize..6),
        assignment_seed in prop::collection::vec(0usize..5, 4),
        lattice_choice in 0usize..3,
    ) {
        let (u, attrs) = universe();
        let mut arena = TermArena::new();
        let lattice = match lattice_choice {
            0 => FiniteLattice::m3(),
            1 => FiniteLattice::n5(),
            _ => FiniteLattice::chain(5),
        };
        // A concrete assignment of lattice elements to the four attributes.
        let assignment: HashMap<Attribute, usize> = attrs
            .iter()
            .zip(assignment_seed.iter())
            .map(|(&a, &v)| (a, v % lattice.len()))
            .collect();
        // Build terms and evaluate them in the model.
        let terms: Vec<TermId> = term_shapes.iter().map(|s| build(s, &attrs, &mut arena)).collect();
        let values: Vec<usize> = terms
            .iter()
            .map(|&t| lattice.evaluate(&arena, t, &assignment, &u).unwrap())
            .collect();
        // E consists of every equation between generated terms that happens
        // to hold in the model, so the model satisfies E by construction.
        let mut equations = Vec::new();
        for i in 0..terms.len() {
            for j in (i + 1)..terms.len() {
                if values[i] == values[j] {
                    equations.push(Equation::new(terms[i], terms[j]));
                }
            }
        }
        // Pick a goal among the generated terms; if ALG derives it from E it
        // must hold in the model (soundness).
        let gi = goal_pair.0 % terms.len();
        let gj = goal_pair.1 % terms.len();
        let goal = Equation::new(terms[gi], terms[gj]);
        for algo in [Algorithm::NaiveFixpoint, Algorithm::Worklist] {
            if word_problem::entails(&arena, &equations, goal, algo) {
                prop_assert!(
                    lattice.satisfies(&arena, goal, &assignment, &u).unwrap(),
                    "ALG derived an equation that fails in a model satisfying E"
                );
            }
        }
    }

    #[test]
    fn engine_fresh_build_matches_naive_fixpoint(
        eq_shapes in prop::collection::vec((arb_shape(), arb_shape()), 0..4),
        goal_shapes in prop::collection::vec((arb_shape(), arb_shape()), 1..5),
    ) {
        let (_, attrs) = universe();
        let mut arena = TermArena::new();
        let equations: Vec<Equation> = eq_shapes
            .iter()
            .map(|(l, r)| Equation::new(build(l, &attrs, &mut arena), build(r, &attrs, &mut arena)))
            .collect();
        let goals: Vec<Equation> = goal_shapes
            .iter()
            .map(|(l, r)| Equation::new(build(l, &attrs, &mut arena), build(r, &attrs, &mut arena)))
            .collect();
        let mut engine = ImplicationEngine::new(&arena, &equations);
        for &goal in &goals {
            let reference = word_problem::entails(&arena, &equations, goal, Algorithm::NaiveFixpoint);
            prop_assert_eq!(engine.entails_goal(&arena, goal), reference);
        }
        // The engine's arc count over the final V matches a reference order
        // built over the same V, and its firing counter saw every arc once.
        let goal_terms: Vec<TermId> = goals.iter().flat_map(|g| [g.lhs, g.rhs]).collect();
        let order = word_problem::DerivedOrder::build(
            &arena, &equations, &goal_terms, Algorithm::NaiveFixpoint,
        );
        prop_assert_eq!(engine.num_arcs(), order.num_arcs());
        prop_assert_eq!(engine.rule_firings(), engine.num_arcs());
    }

    #[test]
    fn engine_incremental_and_batched_queries_match_naive_fixpoint(
        eq_shapes in prop::collection::vec((arb_shape(), arb_shape()), 0..4),
        goal_shapes in prop::collection::vec((arb_shape(), arb_shape()), 1..5),
    ) {
        let (_, attrs) = universe();
        let mut arena = TermArena::new();
        let equations: Vec<Equation> = eq_shapes
            .iter()
            .map(|(l, r)| Equation::new(build(l, &attrs, &mut arena), build(r, &attrs, &mut arena)))
            .collect();
        let goals: Vec<Equation> = goal_shapes
            .iter()
            .map(|(l, r)| Equation::new(build(l, &attrs, &mut arena), build(r, &attrs, &mut arena)))
            .collect();
        let reference: Vec<bool> = goals
            .iter()
            .map(|&g| word_problem::entails(&arena, &equations, g, Algorithm::NaiveFixpoint))
            .collect();
        // Batched: one engine, one V extension covering every goal.
        let mut batched = ImplicationEngine::new(&arena, &equations);
        prop_assert_eq!(batched.entails_many(&arena, &goals), reference.clone());
        // Incremental: extend V goal by goal; earlier verdicts must survive
        // later extensions (Lemma 9.2: enlarging V never changes Γ on old
        // terms).
        let mut incremental = ImplicationEngine::new(&arena, &equations);
        for (i, &goal) in goals.iter().enumerate() {
            prop_assert_eq!(incremental.entails_goal(&arena, goal), reference[i]);
            for j in 0..=i {
                prop_assert_eq!(incremental.entails(goals[j]), Some(reference[j]));
            }
        }
        // Both routes land in the same closure.
        prop_assert_eq!(incremental.num_arcs(), batched.num_arcs());
        // And the reference batched entry point agrees as well.
        let module_batched =
            word_problem::entails_many(&arena, &equations, &goals, Algorithm::Worklist);
        prop_assert_eq!(module_batched, reference);
    }

    #[test]
    fn display_and_parse_round_trip_to_the_same_hash_consed_terms(
        lhs in arb_shape(),
        rhs in arb_shape(),
    ) {
        let (mut u, attrs) = universe();
        let mut arena = TermArena::new();
        let l = build(&lhs, &attrs, &mut arena);
        let r = build(&rhs, &attrs, &mut arena);
        // Term round trip: display inserts only the parentheses needed for
        // the output to re-parse, and hash-consing maps the re-parse onto
        // the *same* TermId.
        let l_text = arena.display(l, &u);
        let reparsed = parse_term(&l_text, &mut u, &mut arena).unwrap();
        prop_assert_eq!(reparsed, l, "{}", l_text);
        // Equation round trip.
        let eq = Equation::new(l, r);
        let eq_text = eq.display(&arena, &u);
        let reparsed_eq = parse_equation(&eq_text, &mut u, &mut arena).unwrap();
        prop_assert_eq!(reparsed_eq, eq, "{}", eq_text);
    }

    #[test]
    fn identities_hold_in_every_finite_model(lhs in arb_shape(), rhs in arb_shape()) {
        // If e = e' is recognized as an identity (Theorem 10 machinery), it
        // must hold in every finite lattice under every assignment.
        let (u, attrs) = universe();
        let mut arena = TermArena::new();
        let l = build(&lhs, &attrs, &mut arena);
        let r = build(&rhs, &attrs, &mut arena);
        if free_order::eq_id(&arena, l, r) {
            let eq = Equation::new(l, r);
            for lattice in [FiniteLattice::m3(), FiniteLattice::n5(), FiniteLattice::chain(4)] {
                prop_assert!(lattice.satisfies_identity(&arena, eq, &u).unwrap());
            }
        }
    }
}
