//! Finite countermodel construction for non-implications (the proof of
//! Theorem 8, (c) ⇒ (b)).
//!
//! When `E ⊭ e = e′`, the paper (adapting Dean's argument for free lattices)
//! exhibits a *finite* lattice satisfying `E` and violating `e = e′`: take
//! the quotient lattice `L_E`, restrict to the sublattice `L_H` generated by
//! finite meets of (classes of) bounded-complexity expressions, and observe
//! that `L_H` is finite and still separates `e` from `e′`.
//!
//! [`finite_countermodel`] is a faithful, best-effort implementation of that
//! construction with `H` instantiated as the subexpression set of the
//! instance: it builds every meet of a non-empty subset of subexpressions
//! (plus the join of all attributes, the top of `L_H`), orders the quotient
//! by the derived relation `≤_E` computed by algorithm ALG, and materializes
//! the result as an explicit [`FiniteLattice`] with constants.  Because the
//! paper's `H` ranges over *all* bounded-complexity expressions (not just
//! subexpressions), the restricted candidate set occasionally fails to be
//! closed under joins; in that case the function returns `None` rather than
//! an unsound model.  Whenever it returns `Some`, the result is a verified
//! countermodel: it satisfies every equation of `E` and violates the goal.

use std::collections::{HashMap, HashSet};

use ps_base::Attribute;

use crate::{Equation, FiniteLattice, ImplicationEngine, TermArena, TermId, TermNode};

/// A finite lattice with constants witnessing `E ⊭ goal`.
#[derive(Debug, Clone)]
pub struct Countermodel {
    /// The finite lattice.
    pub lattice: FiniteLattice,
    /// The element named by each attribute occurring in the instance.
    pub assignment: HashMap<Attribute, usize>,
    /// One representative term per lattice element (useful for display).
    pub representatives: Vec<TermId>,
}

impl Countermodel {
    /// Whether the countermodel satisfies an equation (as a lattice with
    /// constants, Section 2.2).
    pub fn satisfies(
        &self,
        arena: &TermArena,
        universe: &ps_base::Universe,
        equation: Equation,
    ) -> crate::Result<bool> {
        self.lattice
            .satisfies(arena, equation, &self.assignment, universe)
    }
}

/// Attempts to build a finite countermodel for `E ⊭ goal` (Theorem 8's
/// finite-controllability argument).
///
/// Returns `None` when
/// * the instance has more than `max_generators` distinct subexpressions
///   (the construction is exponential in that number) — and regardless of
///   `max_generators`, more than 63 generators is always rejected, since the
///   subset masks are 64-bit (a `max_generators >= 64` used to overflow the
///   `1 << generators.len()` shift),
/// * `E ⊨ goal` (no countermodel exists), or
/// * the subexpression-restricted candidate set fails to form a lattice
///   (see the module documentation).
///
/// Any returned model has been verified to satisfy every equation of `E` and
/// to violate `goal`.
pub fn finite_countermodel(
    arena: &mut TermArena,
    universe: &ps_base::Universe,
    equations: &[Equation],
    goal: Equation,
    max_generators: usize,
) -> Option<Countermodel> {
    // ------------------------------------------------------------------
    // 1. H = subexpressions of E and the goal.
    // ------------------------------------------------------------------
    let mut generators: Vec<TermId> = Vec::new();
    {
        let mut seen: HashSet<TermId> = HashSet::new();
        let mut push_subterms = |root: TermId, generators: &mut Vec<TermId>| {
            for t in arena.subterms(root) {
                if seen.insert(t) {
                    generators.push(t);
                }
            }
        };
        for eq in equations {
            push_subterms(eq.lhs, &mut generators);
            push_subterms(eq.rhs, &mut generators);
        }
        push_subterms(goal.lhs, &mut generators);
        push_subterms(goal.rhs, &mut generators);
    }
    if generators.is_empty() || generators.len() > max_generators {
        return None;
    }

    // The attributes occurring in the instance.
    let attributes: Vec<Attribute> = {
        let mut out: Vec<Attribute> = Vec::new();
        for &g in &generators {
            if let TermNode::Atom(a) = arena.node(g) {
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        }
        out
    };

    // ------------------------------------------------------------------
    // 2. Candidate elements: meets of non-empty subsets of H, plus the join
    //    of all attributes (the top of L_H).
    // ------------------------------------------------------------------
    let mut candidates: Vec<TermId> = Vec::new();
    let mut candidate_set: HashSet<TermId> = HashSet::new();
    // The subset masks are 64-bit, so the shift below is only defined for
    // fewer than 64 generators; `checked_shl` turns a `max_generators >= 64`
    // call into a clean `None` instead of a shift-overflow panic (debug) or
    // a wrapped, silently wrong mask (release).
    let mask_limit: u64 = 1u64.checked_shl(u32::try_from(generators.len()).ok()?)?;
    let mut meet_of_mask: Vec<Option<TermId>> = vec![None; mask_limit as usize];
    for mask in 1..mask_limit {
        let lowest = mask.trailing_zeros() as usize;
        let rest = mask & (mask - 1);
        let term = if rest == 0 {
            generators[lowest]
        } else {
            let prefix = meet_of_mask[rest as usize].expect("smaller masks built first");
            arena.meet(prefix, generators[lowest])
        };
        meet_of_mask[mask as usize] = Some(term);
        if candidate_set.insert(term) {
            candidates.push(term);
        }
    }
    let top = {
        let mut atoms = attributes.iter();
        let first = arena.atom(*atoms.next()?);
        atoms.fold(first, |acc, &a| {
            let atom = arena.atom(a);
            arena.join(acc, atom)
        })
    };
    if candidate_set.insert(top) {
        candidates.push(top);
    }

    // ------------------------------------------------------------------
    // 3. The derived order ≤_E over the candidates (algorithm ALG).
    // ------------------------------------------------------------------
    let order = ImplicationEngine::with_goal_terms(arena, equations, &candidates);
    // Every queried term is a candidate, and all candidates were added as
    // goal terms, so `None` (term outside V) would be a construction bug
    // here — surface it instead of conflating it with `false`.
    let leq = |p: TermId, q: TermId| {
        order
            .leq(p, q)
            .expect("candidates are in V by construction")
    };

    // Quotient by mutual ≤_E.
    let mut representatives: Vec<TermId> = Vec::new();
    let mut class_of: HashMap<TermId, usize> = HashMap::new();
    for &candidate in &candidates {
        let class = representatives
            .iter()
            .position(|&r| leq(candidate, r) && leq(r, candidate));
        match class {
            Some(idx) => {
                class_of.insert(candidate, idx);
            }
            None => {
                class_of.insert(candidate, representatives.len());
                representatives.push(candidate);
            }
        }
    }

    // ------------------------------------------------------------------
    // 4. Materialize the finite lattice; bail out if the restricted candidate
    //    set is not a lattice.
    // ------------------------------------------------------------------
    let n = representatives.len();
    let lattice =
        FiniteLattice::from_leq(n, |i, j| leq(representatives[i], representatives[j])).ok()?;

    let mut assignment: HashMap<Attribute, usize> = HashMap::new();
    for &a in &attributes {
        // Every attribute's atom was interned while collecting candidates,
        // so both lookups succeed; `?` (not a panic) covers the impossible.
        let atom = arena.atom_of(a)?;
        assignment.insert(a, *class_of.get(&atom)?);
    }

    let model = Countermodel {
        lattice,
        assignment,
        representatives,
    };

    // ------------------------------------------------------------------
    // 5. Verify: the model must satisfy E and violate the goal.
    // ------------------------------------------------------------------
    for &eq in equations {
        if !model.satisfies(arena, universe, eq).ok()? {
            return None;
        }
    }
    if model.satisfies(arena, universe, goal).ok()? {
        return None;
    }
    Some(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_equation;
    use crate::word_problem;
    use ps_base::Universe;

    fn build(texts: &[&str], goal: &str) -> (Universe, TermArena, Vec<Equation>, Equation) {
        let mut universe = Universe::new();
        let mut arena = TermArena::new();
        let equations = texts
            .iter()
            .map(|t| parse_equation(t, &mut universe, &mut arena).unwrap())
            .collect();
        let goal = parse_equation(goal, &mut universe, &mut arena).unwrap();
        (universe, arena, equations, goal)
    }

    #[test]
    fn distributivity_gets_a_countermodel() {
        let (universe, mut arena, equations, goal) = build(&[], "A*(B+C) = (A*B)+(A*C)");
        assert!(!word_problem::entails(&arena, &equations, goal));
        let model = finite_countermodel(&mut arena, &universe, &equations, goal, 12)
            .expect("the free modular-ish quotient separates the two sides");
        assert!(!model.satisfies(&arena, &universe, goal).unwrap());
        assert!(!model.lattice.is_distributive() || model.lattice.len() <= 2);
    }

    #[test]
    fn simple_fd_non_implications_get_countermodels() {
        let (universe, mut arena, equations, goal) = build(&["A = A*B"], "B = B*A");
        assert!(!word_problem::entails(&arena, &equations, goal));
        let model = finite_countermodel(&mut arena, &universe, &equations, goal, 12)
            .expect("A ≤ B without B ≤ A is realizable in a two-element chain");
        // The model satisfies the premise and violates the goal, and the
        // constants for A and B denote different elements.
        for &eq in &equations {
            assert!(model.satisfies(&arena, &universe, eq).unwrap());
        }
        assert!(!model.satisfies(&arena, &universe, goal).unwrap());
        let a = universe.lookup("A").unwrap();
        let b = universe.lookup("B").unwrap();
        assert_ne!(model.assignment[&a], model.assignment[&b]);
    }

    #[test]
    fn entailed_goals_have_no_countermodel() {
        let (universe, mut arena, equations, goal) = build(&["A = A*B", "B = B*C"], "A = A*C");
        assert!(word_problem::entails(&arena, &equations, goal));
        assert!(finite_countermodel(&mut arena, &universe, &equations, goal, 12).is_none());
    }

    #[test]
    fn max_generators_64_does_not_overflow_the_subset_mask() {
        // Regression: `1u64 << generators.len()` used to panic (debug) or
        // wrap (release) once the generator count reached 64, which a caller
        // could trigger simply by passing `max_generators = 64`.
        let mut universe = Universe::new();
        let mut arena = TermArena::new();
        // Exactly 64 distinct subexpressions: 32 atoms, the 31 meets of the
        // left-associated chain, and one join.
        let atoms: Vec<_> = (0..32)
            .map(|i| {
                let a = universe.attr(&format!("A{i}"));
                arena.atom(a)
            })
            .collect();
        let meet_chain = atoms[1..]
            .iter()
            .fold(atoms[0], |acc, &t| arena.meet(acc, t));
        let join = arena.join(atoms[0], atoms[1]);
        let goal = Equation::new(meet_chain, join);
        // 64 distinct subexpressions ⇒ the mask would need a 1 << 64 shift.
        let result = finite_countermodel(&mut arena, &universe, &[], goal, 64);
        // No panic, no wrap: the oversized instance is rejected cleanly.
        assert!(result.is_none());
    }

    #[test]
    fn oversized_instances_are_rejected() {
        let (universe, mut arena, equations, goal) =
            build(&["A*(B+(C*(D+E))) = A", "B = (A+C)*(D+E)"], "A = B");
        assert!(finite_countermodel(&mut arena, &universe, &equations, goal, 4).is_none());
    }

    #[test]
    fn sum_goal_countermodel_respects_constants() {
        // C = A + B does not follow from A ≤ C and B ≤ C alone.
        let (universe, mut arena, equations, goal) = build(&["A = A*C", "B = B*C"], "C = A+B");
        assert!(!word_problem::entails(&arena, &equations, goal));
        if let Some(model) = finite_countermodel(&mut arena, &universe, &equations, goal, 12) {
            for &eq in &equations {
                assert!(model.satisfies(&arena, &universe, eq).unwrap());
            }
            assert!(!model.satisfies(&arena, &universe, goal).unwrap());
        } else {
            panic!("expected a countermodel for C = A+B");
        }
    }
}
