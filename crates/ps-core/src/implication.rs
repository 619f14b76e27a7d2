//! Implication of partition dependencies (Section 5).
//!
//! Theorem 8 identifies five statements; in particular
//! `E ⊨_rel δ  ⇔  E ⊨_lat δ`, so PD implication over (finite or infinite)
//! relations is exactly the uniform word problem for lattices, decided in
//! polynomial time by algorithm ALG (Theorem 9).  This module is the façade
//! the rest of the workspace uses:
//!
//! * [`pd_implies`] — does `E` imply a PD?  (One engine, built per call.)
//! * [`pd_implies_fpd`] — convenience for FPD goals;
//! * [`pd_implies_with`] / [`pd_implies_fpd_with`] — the same questions
//!   answered by a cached [`ImplicationEngine`], for callers with many goals
//!   over one constraint set;
//! * [`is_identity`] — Theorem 10's special case `E = ∅`, decided by the
//!   free-lattice order;
//! * [`atom_order_closure`] / [`atom_order_closure_with`] — all consequences
//!   of the form `A ≤ B` between attributes as a hash set, the building
//!   block of the Section 6.2 consistency pipeline.

use std::collections::HashSet;

use ps_base::Attribute;
use ps_lattice::{
    free_order, word_problem, Equation, ImplicationEngine, TermArena, TermId, TermNode,
};

use crate::dependency::Fpd;

/// Does the set of PDs `e` imply the PD `goal`?  (Theorems 8 and 9.)
///
/// Builds a fresh [`ImplicationEngine`] per call; when testing many goals
/// against the same `e`, build one engine and use [`pd_implies_with`]
/// instead.
pub fn pd_implies(arena: &TermArena, e: &[Equation], goal: Equation) -> bool {
    word_problem::entails(arena, e, goal)
}

/// Does the engine's constraint set imply the PD `goal`?  The cached variant
/// of [`pd_implies`]: the engine's saturated closure is reused, growing only
/// by the goal's own subterms.
pub fn pd_implies_with(engine: &mut ImplicationEngine, arena: &TermArena, goal: Equation) -> bool {
    engine.entails_goal(arena, goal)
}

/// Does the set of PDs `e` imply the FPD `goal`?
pub fn pd_implies_fpd(arena: &mut TermArena, e: &[Equation], goal: &Fpd) -> bool {
    let goal_equation = goal.as_meet_equation(arena);
    word_problem::entails(arena, e, goal_equation)
}

/// Does the engine's constraint set imply the FPD `goal`?  The cached
/// variant of [`pd_implies_fpd`].
pub fn pd_implies_fpd_with(
    engine: &mut ImplicationEngine,
    arena: &mut TermArena,
    goal: &Fpd,
) -> bool {
    let goal_equation = goal.as_meet_equation(arena);
    engine.entails_goal(arena, goal_equation)
}

/// Is the PD an identity — true in every partition interpretation
/// (equivalently, in every lattice with constants)?  Decided by the
/// free-lattice order of Theorem 10, without running ALG.
pub fn is_identity(arena: &TermArena, pd: Equation) -> bool {
    free_order::is_identity(arena, pd)
}

/// All pairs of attributes `(A, B)` with `A ≤ B` derivable from `e`
/// (including any attribute of `extra_attributes` even if it does not occur
/// in `e`).  This is the closure `E⁺` restricted to atoms used by the
/// consistency test of Section 6.2, returned as a hash set so callers can
/// test membership in O(1) instead of scanning.
pub fn atom_order_closure(
    arena: &mut TermArena,
    e: &[Equation],
    extra_attributes: &[Attribute],
) -> HashSet<(Attribute, Attribute)> {
    let mut engine = ImplicationEngine::new(arena, e);
    atom_order_closure_with(&mut engine, arena, extra_attributes)
}

/// The cached variant of [`atom_order_closure`]: reads the atom consequences
/// out of an existing [`ImplicationEngine`], extending its `V` with
/// `extra_attributes` first.
pub fn atom_order_closure_with(
    engine: &mut ImplicationEngine,
    arena: &mut TermArena,
    extra_attributes: &[Attribute],
) -> HashSet<(Attribute, Attribute)> {
    let extra_terms: Vec<_> = extra_attributes.iter().map(|&a| arena.atom(a)).collect();
    engine.add_goal_terms(arena, &extra_terms);
    atom_pairs(arena, engine.atom_consequences(arena))
}

/// Maps `(atom term, atom term)` pairs to their attributes.
pub(crate) fn atom_pairs(
    arena: &TermArena,
    consequences: Vec<(TermId, TermId)>,
) -> HashSet<(Attribute, Attribute)> {
    consequences
        .into_iter()
        .map(|(p, q)| {
            let lhs = match arena.node(p) {
                TermNode::Atom(a) => a,
                _ => unreachable!("atom_consequences returns atoms"),
            };
            let rhs = match arena.node(q) {
                TermNode::Atom(a) => a,
                _ => unreachable!("atom_consequences returns atoms"),
            };
            (lhs, rhs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_base::{AttrSet, Universe};
    use ps_lattice::{parse_equation, DerivedOrder};

    #[test]
    fn implication_of_fpds_matches_fd_intuition() {
        let mut universe = Universe::new();
        let mut arena = TermArena::new();
        let e = vec![
            parse_equation("A = A*B", &mut universe, &mut arena).unwrap(),
            parse_equation("B = B*C", &mut universe, &mut arena).unwrap(),
        ];
        let a = universe.lookup("A").unwrap();
        let c = universe.lookup("C").unwrap();
        let goal = Fpd::new(AttrSet::singleton(a), AttrSet::singleton(c));
        assert!(pd_implies_fpd(&mut arena, &e, &goal));
        let converse = Fpd::new(AttrSet::singleton(c), AttrSet::singleton(a));
        assert!(!pd_implies_fpd(&mut arena, &e, &converse));
    }

    #[test]
    fn sum_dependencies_entail_their_component_inequalities() {
        let mut universe = Universe::new();
        let mut arena = TermArena::new();
        let e = vec![parse_equation("C = A + B", &mut universe, &mut arena).unwrap()];
        let goal = parse_equation("A + C = C", &mut universe, &mut arena).unwrap();
        assert!(pd_implies(&arena, &e, goal));
    }

    #[test]
    fn identities_are_recognized_without_constraints() {
        let mut universe = Universe::new();
        let mut arena = TermArena::new();
        let absorption = parse_equation("A*(A+B) = A", &mut universe, &mut arena).unwrap();
        let distributivity =
            parse_equation("A*(B+C) = (A*B)+(A*C)", &mut universe, &mut arena).unwrap();
        assert!(is_identity(&arena, absorption));
        assert!(!is_identity(&arena, distributivity));
        // Identity recognition agrees with ALG on the empty constraint set.
        assert!(pd_implies(&arena, &[], absorption));
        assert!(!pd_implies(&arena, &[], distributivity));
    }

    #[test]
    fn cached_engine_variants_agree_with_the_naive_fixpoint() {
        let mut universe = Universe::new();
        let mut arena = TermArena::new();
        let e = vec![
            parse_equation("A = A*B", &mut universe, &mut arena).unwrap(),
            parse_equation("B = B*C", &mut universe, &mut arena).unwrap(),
        ];
        let goals = vec![
            parse_equation("A = A*C", &mut universe, &mut arena).unwrap(),
            parse_equation("C = C*A", &mut universe, &mut arena).unwrap(),
            parse_equation("A*(A+B) = A", &mut universe, &mut arena).unwrap(),
        ];
        let mut engine = ImplicationEngine::new(&arena, &e);
        for &goal in &goals {
            let reference = DerivedOrder::build(&arena, &e, &[goal.lhs, goal.rhs]);
            let expected = reference.entails(goal).unwrap();
            assert_eq!(pd_implies_with(&mut engine, &arena, goal), expected);
            assert_eq!(pd_implies(&arena, &e, goal), expected);
        }
        let a = universe.lookup("A").unwrap();
        let c = universe.lookup("C").unwrap();
        let fpd = Fpd::new(AttrSet::singleton(a), AttrSet::singleton(c));
        assert_eq!(
            pd_implies_fpd_with(&mut engine, &mut arena, &fpd),
            pd_implies_fpd(&mut arena, &e, &fpd),
        );
        let closure_cached = atom_order_closure_with(&mut engine, &mut arena, &[a, c]);
        let closure_rebuilt = atom_order_closure(&mut arena, &e, &[a, c]);
        assert_eq!(closure_cached, closure_rebuilt);
        let atoms = [arena.atom(a), arena.atom(c)];
        let reference = DerivedOrder::build(&arena, &e, &atoms);
        assert_eq!(
            closure_cached,
            atom_pairs(&arena, reference.atom_consequences(&arena))
        );
    }

    #[test]
    fn atom_order_closure_collects_attribute_consequences() {
        let mut universe = Universe::new();
        let mut arena = TermArena::new();
        let e = vec![
            parse_equation("A = A*B", &mut universe, &mut arena).unwrap(),
            parse_equation("C = A + B", &mut universe, &mut arena).unwrap(),
        ];
        let a = universe.lookup("A").unwrap();
        let b = universe.lookup("B").unwrap();
        let c = universe.lookup("C").unwrap();
        let d = universe.attr("D");
        let closure = atom_order_closure(&mut arena, &e, &[a, b, c, d]);
        assert!(closure.contains(&(a, b)));
        assert!(closure.contains(&(a, c)));
        assert!(closure.contains(&(b, c)));
        assert!(!closure.contains(&(c, a)));
        assert!(!closure.iter().any(|&(x, y)| x == d || y == d));
    }
}
