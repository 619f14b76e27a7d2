//! Finite countermodels for non-implications (the proof of Theorem 8,
//! (c) ⇒ (b), through Lemma 9.2).
//!
//! When `E ⊭ e = e′`, some finite lattice with constants satisfies `E` and
//! separates `e` from `e′`.  [`finite_countermodel`] reads that lattice off
//! the order `≤_E` that algorithm ALG derives over the subexpression set `V`
//! of `E` and the goal:
//!
//! * A down-set `D ⊆ V` of `(V, ≤_E)` is *closed* if `x+y ∈ D` whenever
//!   `x, y ∈ D` and `x+y ∈ V`.  Closed down-sets are closed under
//!   intersection, so they form a finite lattice `L`: meet is `∩`, and join
//!   is the closure of `∪`.  Each attribute `A` denotes `↓A`.
//! * Let `h` evaluate a term in `L`.  Then `h(t) = ↓t` for every `t ∈ V`.
//!   For a meet `l*r`, `↓(l*r) = ↓l ∩ ↓r` by rules 3 and 4 plus
//!   transitivity.  For a join `l+r`, `↓(l+r)` is a closed down-set (rule 2)
//!   that contains `l` and `r` (rule 5), and every closed down-set containing
//!   both contains `l+r`, so it is the closure of `↓l ∪ ↓r`.
//! * Rule 6 gives `↓l = ↓r` for each `l = r` in `E`, so `L ⊨ E`.  If
//!   `u ≰_E v`, then `u ∈ ↓u ∖ ↓v`, so `L` violates `u = v`.
//!
//! The construction therefore succeeds on *every* non-implication.  The
//! model is one bitset per term of `V` — the engine's `pred` rows — plus the
//! joins of `V`; nothing is interned into the arena.

use std::collections::HashMap;

use ps_base::{Attribute, Universe};

use crate::{BitMatrix, Equation, ImplicationEngine, LatticeError, TermArena, TermId, TermNode};

/// The lattice of closed down-sets of `(V, ≤_E)` with constants, witnessing
/// `E ⊭ goal`.
#[derive(Debug, Clone)]
pub struct Countermodel {
    /// Row `i` is `↓t` for the `i`-th term `t` of `V` in the engine's dense
    /// order; bit `i` of a down-set stands for that term.
    down: BitMatrix,
    /// Each join `c = l+r` of `V`, as dense indices `(c, l, r)`.
    joins: Vec<(usize, usize, usize)>,
    /// The dense index of each attribute's atom: `A` denotes `↓A`.
    atoms: HashMap<Attribute, usize>,
    /// A goal side `u` and the other side `v` with `u ≰_E v`.
    separated: (TermId, TermId),
}

impl Countermodel {
    /// Whether the countermodel satisfies an equation (as a lattice with
    /// constants, Section 2.2).  An attribute outside `V` has no value:
    /// [`LatticeError::UnassignedAttribute`].
    pub fn satisfies(
        &self,
        arena: &TermArena,
        universe: &Universe,
        equation: Equation,
    ) -> crate::Result<bool> {
        Ok(self.evaluate(arena, universe, equation.lhs)?
            == self.evaluate(arena, universe, equation.rhs)?)
    }

    /// The size of `V`, the poset whose closed down-sets make up the model.
    pub fn num_terms(&self) -> usize {
        self.down.dim()
    }

    /// The separated goal sides `(u, v)`: `u ≰_E v`, so `u` lies in the
    /// value of `u` but not in the value of `v`.
    pub fn separated(&self) -> (TermId, TermId) {
        self.separated
    }

    /// The value of `term` in the model: a closed down-set, as bit words
    /// over the dense order of `V`.
    fn evaluate(
        &self,
        arena: &TermArena,
        universe: &Universe,
        term: TermId,
    ) -> crate::Result<Vec<u64>> {
        match arena.node(term) {
            TermNode::Atom(a) => match self.atoms.get(&a) {
                Some(&i) => Ok(self.down.row(i).to_vec()),
                None => Err(LatticeError::UnassignedAttribute(
                    universe.name(a).unwrap_or("<unknown>").to_owned(),
                )),
            },
            TermNode::Meet(l, r) => {
                let mut d = self.evaluate(arena, universe, l)?;
                let e = self.evaluate(arena, universe, r)?;
                d.iter_mut().zip(e).for_each(|(x, y)| *x &= y);
                Ok(d)
            }
            TermNode::Join(l, r) => {
                let mut d = self.evaluate(arena, universe, l)?;
                let e = self.evaluate(arena, universe, r)?;
                d.iter_mut().zip(e).for_each(|(x, y)| *x |= y);
                self.close(&mut d);
                Ok(d)
            }
        }
    }

    /// Closes a down-set under the joins of `V`: while some `x+y ∈ V` has
    /// `x, y ∈ d` but not `x+y ∈ d`, adds `↓(x+y)`.
    fn close(&self, d: &mut [u64]) {
        let has = |d: &[u64], i: usize| (d[i / 64] >> (i % 64)) & 1 == 1;
        let mut grew = true;
        while grew {
            grew = false;
            for &(c, l, r) in &self.joins {
                if has(d, l) && has(d, r) && !has(d, c) {
                    d.iter_mut()
                        .zip(self.down.row(c))
                        .for_each(|(x, &y)| *x |= y);
                    grew = true;
                }
            }
        }
    }
}

/// The countermodel for `E ⊭ goal`, where `E` is the engine's constraint
/// set: the lattice of closed down-sets of `(V, ≤_E)` (see the module
/// documentation).
///
/// Extends `V` with the goal's subterms first, as
/// [`ImplicationEngine::entails_goal`] does.  Returns `None` exactly when
/// `E ⊨ goal`.
pub fn finite_countermodel(
    engine: &mut ImplicationEngine,
    arena: &TermArena,
    goal: Equation,
) -> Option<Countermodel> {
    if engine.entails_goal(arena, goal) {
        return None;
    }
    let forward = !engine
        .leq(goal.lhs, goal.rhs)
        .expect("goal terms were just added to V");
    let separated = if forward {
        (goal.lhs, goal.rhs)
    } else {
        (goal.rhs, goal.lhs)
    };
    let terms = engine.terms();
    let dense: HashMap<TermId, usize> = terms.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let mut joins = Vec::new();
    let mut atoms = HashMap::new();
    for (i, &t) in terms.iter().enumerate() {
        match arena.node(t) {
            TermNode::Atom(a) => {
                atoms.insert(a, i);
            }
            TermNode::Join(l, r) => joins.push((i, dense[&l], dense[&r])),
            TermNode::Meet(..) => {}
        }
    }
    Some(Countermodel {
        down: engine.down_sets().clone(),
        joins,
        atoms,
        separated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_equation;
    use crate::word_problem;

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

    /// The countermodel for `E ⊭ goal`, checked to satisfy `E` and to
    /// violate the goal.
    fn verified(
        universe: &Universe,
        arena: &TermArena,
        equations: &[Equation],
        goal: Equation,
    ) -> Countermodel {
        assert!(!word_problem::entails(arena, equations, goal));
        let mut engine = ImplicationEngine::new(arena, equations);
        let model =
            finite_countermodel(&mut engine, arena, goal).expect("every non-implication has one");
        for &eq in equations {
            assert!(model.satisfies(arena, universe, eq).unwrap());
        }
        assert!(!model.satisfies(arena, universe, goal).unwrap());
        model
    }

    #[test]
    fn distributivity_gets_a_countermodel() {
        let (universe, arena, equations, goal) = build(&[], "A*(B+C) = (A*B)+(A*C)");
        let model = verified(&universe, &arena, &equations, goal);
        // (A*B)+(A*C) ≤ A*(B+C) is an identity, so the other way fails.
        assert_eq!(model.separated(), (goal.lhs, goal.rhs));
    }

    #[test]
    fn simple_fd_non_implications_get_countermodels() {
        let (mut universe, mut arena, equations, goal) = build(&["A = A*B"], "B = B*A");
        let model = verified(&universe, &arena, &equations, goal);
        // A ≤ B without B ≤ A: the constants for A and B differ.
        let a_is_b = parse_equation("A = B", &mut universe, &mut arena).unwrap();
        assert!(!model.satisfies(&arena, &universe, a_is_b).unwrap());
    }

    #[test]
    fn entailed_goals_have_no_countermodel() {
        let (_, arena, equations, goal) = build(&["A = A*B", "B = B*C"], "A = A*C");
        let mut engine = ImplicationEngine::new(&arena, &equations);
        assert!(finite_countermodel(&mut engine, &arena, goal).is_none());
    }

    #[test]
    fn a_64_subterm_instance_gets_a_verified_countermodel() {
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
        let model = verified(&universe, &arena, &[], goal);
        assert_eq!(model.num_terms(), 64);
        assert_eq!(model.separated(), (join, meet_chain));
    }

    #[test]
    fn sum_goal_countermodel_respects_constants() {
        // C = A + B does not follow from A ≤ C and B ≤ C alone.
        let (universe, arena, equations, goal) = build(&["A = A*C", "B = B*C"], "C = A+B");
        verified(&universe, &arena, &equations, goal);
    }

    #[test]
    fn joins_outside_v_close_to_a_fixpoint() {
        // A+B is not in V.  Closing ↓A ∪ ↓B adds ↓(B+G) ∋ Z first, and only
        // then does the earlier join A+Z apply, adding H.  E ⊨ H = A+B, so
        // the model must satisfy it.
        let (mut universe, mut arena, equations, goal) =
            build(&["H = A+Z", "Z = B+G", "G = G*A"], "A = B");
        let model = verified(&universe, &arena, &equations, goal);
        let consequence = parse_equation("H = A+B", &mut universe, &mut arena).unwrap();
        assert!(word_problem::entails(&arena, &equations, consequence));
        assert!(model.satisfies(&arena, &universe, consequence).unwrap());
    }

    #[test]
    fn attributes_outside_v_have_no_value() {
        let (mut universe, mut arena, equations, goal) = build(&["A = A*B"], "B = A");
        let model = verified(&universe, &arena, &equations, goal);
        let foreign = parse_equation("A = D", &mut universe, &mut arena).unwrap();
        assert_eq!(
            model.satisfies(&arena, &universe, foreign),
            Err(LatticeError::UnassignedAttribute("D".into()))
        );
    }

    #[test]
    fn every_term_of_v_denotes_its_down_set() {
        // h(t) = ↓t on the engine's fixture suite: for all u, v ∈ V,
        // h(u) = h(u*v) exactly when u ≤_E v.
        let (mut universe, mut arena, equations, _) =
            build(&["A=A*B", "C=B+D", "D=D*(A+C)", "E=A*C"], "A=A*C");
        let goals: Vec<Equation> = [
            "A=A*C",
            "B=B*C",
            "D=D*C",
            "E=E*B",
            "A+D=C+A",
            "E=A",
            "A*(A+B)=A",
        ]
        .iter()
        .map(|t| parse_equation(t, &mut universe, &mut arena).unwrap())
        .collect();
        let mut engine = ImplicationEngine::new(&arena, &equations);
        let roots: Vec<TermId> = goals.iter().flat_map(|g| [g.lhs, g.rhs]).collect();
        engine.add_goal_terms(&arena, &roots);
        let mut checked = 0;
        for &goal in &goals {
            let Some(model) = finite_countermodel(&mut engine, &arena, goal) else {
                continue;
            };
            let terms = engine.terms().to_vec();
            for &u in &terms {
                for &v in &terms {
                    let meet = arena.meet(u, v);
                    assert_eq!(
                        model
                            .satisfies(&arena, &universe, Equation::new(u, meet))
                            .unwrap(),
                        engine.leq(u, v).unwrap(),
                        "{} ≤ {}",
                        arena.display(u, &universe),
                        arena.display(v, &universe)
                    );
                }
            }
            checked += 1;
        }
        assert!(checked > 0, "the suite has a non-implication");
    }
}
