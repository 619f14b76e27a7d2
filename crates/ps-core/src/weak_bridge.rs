//! Partition interpretations and weak instances (Section 4.3, Theorems 6
//! and 7).
//!
//! * Theorem 6a: there is an interpretation satisfying a database `d` and a
//!   set of FPDs `E` iff there is a weak instance for `d` satisfying the
//!   corresponding FDs `E_F`.
//! * Theorem 6b: additionally requiring CAD and EAP corresponds to requiring
//!   `w[A] = d[A]` for every attribute.
//! * Theorem 7: the same equivalence holds for arbitrary PDs `E`, with
//!   "the weak instance satisfies `E`" interpreted via Definition 7.
//!
//! The constructive halves of those proofs are implemented here: an
//! interpretation is turned into a weak instance via the canonical relation
//! `R(I)`, and a weak instance into an interpretation via the canonical
//! interpretation `I(w)`.

use ps_base::{NullSource, SymbolTable, Universe};
use ps_lattice::{Equation, TermArena};
use ps_relation::{chase_fds_over_with, ChaseScratch, Database, Relation};

use crate::canonical::{canonical_interpretation, canonical_relation};
use crate::consistency::{consistent_with_pds, repair_sum_violations, ConsistencyOutcome};
use crate::dependency::{fds_of_fpds, Fpd};
use crate::{PartitionInterpretation, Result};

/// Builds a partition interpretation satisfying `d` from a weak instance `w`
/// for `d` (the "⇐" directions of Theorems 6 and 7): simply `I(w)`.
pub fn interpretation_from_weak_instance(
    weak_instance: &Relation,
) -> Result<PartitionInterpretation> {
    canonical_interpretation(weak_instance)
}

/// Builds a weak instance for `d` from an interpretation satisfying `d`
/// (the "⇒" directions of Theorems 6 and 7): the canonical relation `R(I)`.
pub fn weak_instance_from_interpretation(
    interpretation: &PartitionInterpretation,
    symbols: &mut SymbolTable,
) -> Result<Relation> {
    canonical_relation(interpretation, symbols, "weak_instance")
}

/// Theorem 6a, decision form: is there an interpretation satisfying `d` and
/// the FPDs `E`?  Equivalent to the existence of a weak instance for `d`
/// satisfying `E_F`, which the chase decides in polynomial time.
pub fn satisfiable_with_fpds(
    db: &Database,
    fpds: &[Fpd],
    symbols: &mut SymbolTable,
) -> Result<SatisfiabilityWitness> {
    let fds = fds_of_fpds(fpds);
    let attrs = db.all_attributes();
    let outcome = chase_fds_over_with(db, &attrs, &fds, symbols, &mut ChaseScratch::default());
    if !outcome.consistent {
        return Ok(SatisfiabilityWitness::unsatisfiable());
    }
    let weak_instance = outcome
        .weak_instance("weak_instance", &attrs)
        .expect("consistent chase produces rows");
    let interpretation = interpretation_from_weak_instance(&weak_instance)?;
    Ok(SatisfiabilityWitness {
        satisfiable: true,
        weak_instance: Some(weak_instance),
        interpretation: Some(interpretation),
    })
}

/// Theorem 7, decision form: is there an interpretation satisfying `d` and
/// an arbitrary set of PDs `e`?
///
/// Routes through the Section 6.2 consistency pipeline (which builds one
/// cached implication engine per normalized constraint set), then upgrades
/// the chase's weak instance with the Lemma 12.1 sum-constraint repair
/// before converting it into an interpretation via `I(w)`.
///
/// The `satisfiable` verdict comes from the chase alone (Lemma 12.1:
/// consistency is governed by the FD part `F`; sum constraints are always
/// repairable).  The paper's repair may need ω iterations, so the bounded
/// repair run here can stop short of a fixpoint — in that rare case the
/// verdict stands but no witnesses are returned, rather than handing out a
/// weak instance (and `I(w)`) that still violates a sum constraint.
pub fn satisfiable_with_pds(
    db: &Database,
    pds: &[Equation],
    arena: &mut TermArena,
    universe: &mut Universe,
    symbols: &mut SymbolTable,
) -> Result<SatisfiabilityWitness> {
    let outcome = consistent_with_pds(db, pds, arena, universe, symbols)?;
    witness_from_consistency(outcome, symbols)
}

/// The witness-construction tail of [`satisfiable_with_pds`]: upgrades a
/// [`ConsistencyOutcome`] into the Theorem 7 decision + witness forms (sum
/// repair bounded at 64 rounds, then `I(w)`).  Shared by the free function
/// above, by the session layer and by its snapshots, which produce the
/// outcome from a cached closed constraint system.  The repair mints its
/// fresh entries from `nulls`.
pub fn witness_from_consistency(
    outcome: ConsistencyOutcome,
    nulls: &mut impl NullSource,
) -> Result<SatisfiabilityWitness> {
    if !outcome.consistent {
        return Ok(SatisfiabilityWitness::unsatisfiable());
    }
    let chased = outcome
        .weak_instance
        .expect("consistent chase produces rows");
    let (weak_instance, converged) =
        repair_sum_violations(&chased, &outcome.fds, &outcome.sums, nulls, 64);
    if !converged {
        return Ok(SatisfiabilityWitness {
            satisfiable: true,
            weak_instance: None,
            interpretation: None,
        });
    }
    let interpretation = interpretation_from_weak_instance(&weak_instance)?;
    Ok(SatisfiabilityWitness {
        satisfiable: true,
        weak_instance: Some(weak_instance),
        interpretation: Some(interpretation),
    })
}

/// The result of a satisfiability test, carrying the constructed witnesses.
#[derive(Debug, Clone)]
pub struct SatisfiabilityWitness {
    /// Whether a satisfying interpretation (equivalently weak instance)
    /// exists.
    pub satisfiable: bool,
    /// A weak instance witnessing satisfiability.
    pub weak_instance: Option<Relation>,
    /// The interpretation `I(w)` constructed from the weak instance.
    pub interpretation: Option<PartitionInterpretation>,
}

impl SatisfiabilityWitness {
    fn unsatisfiable() -> Self {
        SatisfiabilityWitness {
            satisfiable: false,
            weak_instance: None,
            interpretation: None,
        }
    }
}

/// Verifies the statement of Theorem 7 on concrete objects: given an
/// interpretation satisfying `d` and the PDs `e`, the canonical relation
/// `R(I)` is a weak instance for `d`; and conversely a weak instance
/// satisfying `e` (as a relation, Definition 7) yields, via `I(w)`, an
/// interpretation satisfying `d` and `e`.  Returns the round-tripped
/// interpretation for further inspection.
pub fn roundtrip_through_weak_instance(
    db: &Database,
    interpretation: &PartitionInterpretation,
    arena: &TermArena,
    e: &[Equation],
    symbols: &mut SymbolTable,
) -> Result<PartitionInterpretation> {
    debug_assert!(interpretation.satisfies_database(db)?);
    let w = weak_instance_from_interpretation(interpretation, symbols)?;
    debug_assert!(db.has_weak_instance(&w));
    let back = interpretation_from_weak_instance(&w)?;
    let _ = (arena, e);
    Ok(back)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::relation_satisfies_all_pds;
    use crate::fixtures;
    use ps_base::AttrSet;
    use ps_relation::DatabaseBuilder;

    #[test]
    fn theorem6a_consistent_fpds_yield_interpretation_and_weak_instance() {
        let mut universe = ps_base::Universe::new();
        let mut symbols = ps_base::SymbolTable::new();
        let db = DatabaseBuilder::new()
            .relation(
                &mut universe,
                &mut symbols,
                "R1",
                &["A", "B"],
                &[&["a1", "b"], &["a2", "b"]],
            )
            .unwrap()
            .relation(
                &mut universe,
                &mut symbols,
                "R2",
                &["B", "C"],
                &[&["b", "c"]],
            )
            .unwrap()
            .build();
        let b = universe.lookup("B").unwrap();
        let c = universe.lookup("C").unwrap();
        let fpds = vec![Fpd::new(AttrSet::singleton(b), AttrSet::singleton(c))];
        let witness = satisfiable_with_fpds(&db, &fpds, &mut symbols).unwrap();
        assert!(witness.satisfiable);
        let w = witness.weak_instance.unwrap();
        assert!(db.has_weak_instance(&w));
        assert!(w.satisfies_all_fds(&fds_of_fpds(&fpds)));
        // The constructed interpretation satisfies the database and the FPD
        // (Definition 7 / Theorem 3b route).
        let interp = witness.interpretation.unwrap();
        assert!(interp.satisfies_database(&db).unwrap());
        let mut arena = TermArena::new();
        let pd = fpds[0].as_meet_equation(&mut arena);
        assert!(interp.satisfies_pd(&arena, pd).unwrap());
    }

    #[test]
    fn theorem6a_inconsistent_fpds_have_no_interpretation() {
        let mut universe = ps_base::Universe::new();
        let mut symbols = ps_base::SymbolTable::new();
        let db = DatabaseBuilder::new()
            .relation(
                &mut universe,
                &mut symbols,
                "R",
                &["A", "B"],
                &[&["a", "b1"], &["a", "b2"]],
            )
            .unwrap()
            .build();
        let a = universe.lookup("A").unwrap();
        let b = universe.lookup("B").unwrap();
        let fpds = vec![Fpd::new(AttrSet::singleton(a), AttrSet::singleton(b))];
        let witness = satisfiable_with_fpds(&db, &fpds, &mut symbols).unwrap();
        assert!(!witness.satisfiable);
        assert!(witness.weak_instance.is_none());
        assert!(witness.interpretation.is_none());
    }

    #[test]
    fn theorem7_decision_form_handles_arbitrary_pds() {
        let mut universe = ps_base::Universe::new();
        let mut symbols = ps_base::SymbolTable::new();
        let mut arena = TermArena::new();
        let db = DatabaseBuilder::new()
            .relation(
                &mut universe,
                &mut symbols,
                "R",
                &["A", "B", "C"],
                &[&["a1", "b1", "c"], &["a2", "b2", "c"]],
            )
            .unwrap()
            .build();
        // C = A + B alone is always repairable (Lemma 12.1): satisfiable.
        let sum_pd =
            vec![ps_lattice::parse_equation("C = A+B", &mut universe, &mut arena).unwrap()];
        let witness =
            satisfiable_with_pds(&db, &sum_pd, &mut arena, &mut universe, &mut symbols).unwrap();
        assert!(witness.satisfiable);
        let w = witness.weak_instance.unwrap();
        assert!(db.has_weak_instance(&w));
        assert!(witness
            .interpretation
            .unwrap()
            .satisfies_database(&db)
            .unwrap());
        // Adding the FPD A = A*B (the FD A → B) stays satisfiable, but
        // C = C*A (C → A) clashes with the shared c value: unsatisfiable.
        let clash = vec![ps_lattice::parse_equation("C = C*A", &mut universe, &mut arena).unwrap()];
        let witness =
            satisfiable_with_pds(&db, &clash, &mut arena, &mut universe, &mut symbols).unwrap();
        assert!(!witness.satisfiable);
        assert!(witness.weak_instance.is_none());
    }

    #[test]
    fn figure1_interpretation_roundtrips_to_a_weak_instance() {
        let mut fig = fixtures::figure1();
        let w = weak_instance_from_interpretation(&fig.interpretation, &mut fig.symbols).unwrap();
        // R(I) is a weak instance for the Figure 1 database (Theorem 6 proof).
        assert!(fig.database.has_weak_instance(&w));
        // And, since I satisfies E, the weak instance satisfies E as a
        // relation (Definition 7) — the Theorem 7 "⇒" direction.
        assert!(relation_satisfies_all_pds(&w, &fig.arena, &fig.dependencies).unwrap());
        // Round-tripping through I(w) again satisfies d and E.
        let back = roundtrip_through_weak_instance(
            &fig.database,
            &fig.interpretation,
            &fig.arena,
            &fig.dependencies,
            &mut fig.symbols,
        )
        .unwrap();
        assert!(back.satisfies_database(&fig.database).unwrap());
        assert!(back
            .satisfies_all_pds(&fig.arena, &fig.dependencies)
            .unwrap());
    }
}
