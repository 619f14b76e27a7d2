//! Bridging functional dependencies and partition dependencies.
//!
//! Theorem 3 of the paper connects the two worlds:
//!
//! * if an interpretation satisfies `X = X·Y` then its canonical relation
//!   `R(I)` satisfies the FD `X → Y`;
//! * a relation `r` satisfies `X → Y` iff its canonical interpretation
//!   `I(r)` satisfies `X = X·Y`.
//!
//! Consequently (Section 5.3) FD implication embeds into PD implication, and
//! the embedding is exercised by [`fd_implies_via_lattice`] and benchmarked
//! as experiment E2.

use ps_lattice::{word_problem, ImplicationEngine, TermArena};
use ps_relation::Fd;

use crate::dependency::{equations_of_fpds, fpds_of_fds, Fpd};

/// Decides FD implication by translating the FDs into FPD equations and
/// running the lattice word-problem algorithm (Theorem 8 + Section 5.3).
///
/// Semantically equivalent to [`ps_relation::fd_closure::implies`]; the
/// equivalence is asserted by property tests and measured by experiment E2.
/// Builds one engine per goal — for a batch of goals over one FD set, use
/// [`fd_implies_many_via_lattice`].
pub fn fd_implies_via_lattice(fds: &[Fd], goal: &Fd) -> bool {
    let mut arena = TermArena::new();
    let equations = equations_of_fpds(&fpds_of_fds(fds), &mut arena);
    let goal_equation = Fpd::from_fd(goal).as_meet_equation(&mut arena);
    word_problem::entails(&arena, &equations, goal_equation)
}

/// Batched FD implication through the lattice route: the FD set is
/// translated once, one [`ImplicationEngine`] is built and saturated once,
/// and every goal is answered from the cached closure (growing `V` only by
/// each goal's own meet equation).
pub fn fd_implies_many_via_lattice(fds: &[Fd], goals: &[Fd]) -> Vec<bool> {
    let mut arena = TermArena::new();
    let equations = equations_of_fpds(&fpds_of_fds(fds), &mut arena);
    let goal_equations: Vec<_> = goals
        .iter()
        .map(|goal| Fpd::from_fd(goal).as_meet_equation(&mut arena))
        .collect();
    let mut engine = ImplicationEngine::new(&arena, &equations);
    engine.entails_many(&arena, &goal_equations)
}

/// Decides FD implication by translating into the idempotent-commutative-
/// semigroup word problem (the other identification made in Section 5.3).
pub fn fd_implies_via_semigroup(fds: &[Fd], goal: &Fd) -> bool {
    let equations: Vec<ps_lattice::semigroup::WordEquation> = fds
        .iter()
        .map(|fd| ps_lattice::semigroup::WordEquation::from_fd(fd.lhs.clone(), fd.rhs.clone()))
        .collect();
    let goal_eq = ps_lattice::semigroup::WordEquation::from_fd(goal.lhs.clone(), goal.rhs.clone());
    ps_lattice::semigroup::entails(&equations, &goal_eq)
}

/// The reverse reduction of Section 5.3: the uniform word problem for
/// idempotent commutative semigroups reduces to FD implication, because the
/// word equation `X = Y` is equivalent to the pair of equations `X = X·Y` and
/// `Y = Y·X` (Example f), i.e. to the FDs `X → Y` and `Y → X`.
///
/// Cross-validated against [`ps_lattice::semigroup::entails`] in tests.
pub fn semigroup_entails_via_fds(
    equations: &[ps_lattice::semigroup::WordEquation],
    goal: &ps_lattice::semigroup::WordEquation,
) -> bool {
    let fds: Vec<Fd> = equations
        .iter()
        .flat_map(|eq| {
            [
                Fd::new(eq.lhs.clone(), eq.rhs.clone()),
                Fd::new(eq.rhs.clone(), eq.lhs.clone()),
            ]
        })
        .collect();
    let forward = Fd::new(goal.lhs.clone(), goal.rhs.clone());
    let backward = Fd::new(goal.rhs.clone(), goal.lhs.clone());
    ps_relation::fd_closure::implies(&fds, &forward)
        && ps_relation::fd_closure::implies(&fds, &backward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_base::Universe;
    use ps_relation::{fd, fd_closure};

    fn attrs(n: usize) -> Vec<ps_base::Attribute> {
        let mut u = Universe::new();
        let names: Vec<String> = (0..n).map(|i| format!("A{i}")).collect();
        u.attrs(names.iter().map(String::as_str))
    }

    #[test]
    fn lattice_route_agrees_with_closure_on_chains() {
        let a = attrs(4);
        let fds = vec![fd(&[a[0]], &[a[1]]), fd(&[a[1]], &[a[2]])];
        let cases = vec![
            fd(&[a[0]], &[a[2]]),
            fd(&[a[0]], &[a[1], a[2]]),
            fd(&[a[2]], &[a[0]]),
            fd(&[a[0], a[3]], &[a[2]]),
            fd(&[a[3]], &[a[0]]),
        ];
        for goal in &cases {
            let by_closure = fd_closure::implies(&fds, goal);
            assert_eq!(by_closure, fd_implies_via_lattice(&fds, goal), "{goal}");
            assert_eq!(by_closure, fd_implies_via_semigroup(&fds, goal), "{goal}");
        }
        // The batched engine route answers the whole case list at once.
        let expected: Vec<bool> = cases
            .iter()
            .map(|goal| fd_closure::implies(&fds, goal))
            .collect();
        assert_eq!(fd_implies_many_via_lattice(&fds, &cases), expected);
    }

    #[test]
    fn augmentation_and_pseudotransitivity() {
        // Armstrong's axioms are reproduced by the lattice route.
        let a = attrs(5);
        let fds = vec![fd(&[a[0]], &[a[1]]), fd(&[a[1], a[2]], &[a[3]])];
        // Pseudo-transitivity: A→B, BC→D implies AC→D.
        let goal = fd(&[a[0], a[2]], &[a[3]]);
        assert!(fd_implies_via_lattice(&fds, &goal));
        assert!(fd_implies_via_semigroup(&fds, &goal));
        assert!(fd_closure::implies(&fds, &goal));
        // But AC→E does not follow.
        let bad = fd(&[a[0], a[2]], &[a[4]]);
        assert!(!fd_implies_via_lattice(&fds, &bad));
        assert!(!fd_implies_via_semigroup(&fds, &bad));
    }

    #[test]
    fn reflexivity_is_reproduced() {
        let a = attrs(2);
        let goal = fd(&[a[0], a[1]], &[a[0]]);
        assert!(fd_implies_via_lattice(&[], &goal));
        assert!(fd_implies_via_semigroup(&[], &goal));
    }

    #[test]
    fn reverse_reduction_agrees_with_the_direct_semigroup_solver() {
        use ps_lattice::semigroup::{entails, WordEquation};
        let a = attrs(4);
        let set = |xs: &[ps_base::Attribute]| xs.iter().copied().collect::<ps_base::AttrSet>();
        let cases: Vec<(Vec<WordEquation>, WordEquation)> = vec![
            // AB = C, C = D  ⊢  AB = D
            (
                vec![
                    WordEquation::new(set(&[a[0], a[1]]), set(&[a[2]])),
                    WordEquation::new(set(&[a[2]]), set(&[a[3]])),
                ],
                WordEquation::new(set(&[a[0], a[1]]), set(&[a[3]])),
            ),
            // A = AB  ⊬  B = AB
            (
                vec![WordEquation::new(set(&[a[0]]), set(&[a[0], a[1]]))],
                WordEquation::new(set(&[a[1]]), set(&[a[0], a[1]])),
            ),
            // Idempotence-style goal with no premises.
            (vec![], WordEquation::new(set(&[a[0], a[0]]), set(&[a[0]]))),
            // Symmetric merge: AB = CD ⊢ ABC = ABD.
            (
                vec![WordEquation::new(set(&[a[0], a[1]]), set(&[a[2], a[3]]))],
                WordEquation::new(set(&[a[0], a[1], a[2]]), set(&[a[0], a[1], a[3]])),
            ),
        ];
        for (equations, goal) in cases {
            assert_eq!(
                entails(&equations, &goal),
                semigroup_entails_via_fds(&equations, &goal),
            );
        }
    }
}
