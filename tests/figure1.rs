//! Experiment F1: Figure 1 of the paper, verified end to end.
//!
//! The figure exhibits a database `d`, a dependency set
//! `E = {A = A·B, B + C = A + C}` and a partition interpretation over the
//! population `{1,2,3,4}` which satisfies `d`, `E`, CAD and EAP, and whose
//! generated lattice `L(I)` is not distributive.

use partition_semantics::core::fixtures;
use partition_semantics::core::lattice_of::InterpretationLattice;
use partition_semantics::core::{cad, consistency, weak_bridge};
use partition_semantics::prelude::*;

#[test]
fn figure1_interpretation_satisfies_everything_claimed() {
    let fig = fixtures::figure1();
    assert_eq!(fig.database.total_tuples(), 4);
    assert!(fig
        .interpretation
        .satisfies_database(&fig.database)
        .unwrap());
    assert!(fig
        .interpretation
        .satisfies_all_pds(&fig.arena, &fig.dependencies)
        .unwrap());
    assert!(fig.interpretation.satisfies_cad(&fig.database).unwrap());
    assert!(fig.interpretation.satisfies_eap());
}

#[test]
fn figure1_lattice_is_not_distributive() {
    let mut fig = fixtures::figure1();
    let lattice = InterpretationLattice::build(&fig.interpretation, 256).unwrap();
    assert!(!lattice.is_distributive());
    // The exact witness from the figure: B*(A+C) ≠ (B*A)+(B*C).
    let witness =
        parse_equation("B*(A+C) = (B*A)+(B*C)", &mut fig.universe, &mut fig.arena).unwrap();
    assert!(!lattice
        .satisfies_pd(&fig.arena, &fig.universe, witness)
        .unwrap());
    assert!(!fig
        .interpretation
        .satisfies_pd(&fig.arena, witness)
        .unwrap());
    // Sanity: the lattice axioms hold for L(I).
    assert!(lattice.lattice.check_axioms().is_ok());
}

#[test]
fn figure1_theorem1_agreement_between_interpretation_and_lattice() {
    let mut fig = fixtures::figure1();
    let lattice = InterpretationLattice::build(&fig.interpretation, 256).unwrap();
    let probes = [
        "A = A*B",
        "B + C = A + C",
        "A = B",
        "A*C = A",
        "A+B = B",
        "C = C*(A+B)",
        "B*(A+C) = (B*A)+(B*C)",
        "A*(B+C) = A",
        "(A+B)*(A+C) = A+(B*C)",
    ];
    for text in probes {
        let pd = parse_equation(text, &mut fig.universe, &mut fig.arena).unwrap();
        assert_eq!(
            fig.interpretation.satisfies_pd(&fig.arena, pd).unwrap(),
            lattice.satisfies_pd(&fig.arena, &fig.universe, pd).unwrap(),
            "Theorem 1 disagreement on {text}"
        );
    }
}

#[test]
fn figure1_database_is_consistent_with_e_by_every_route() {
    // Open-world consistency of d with E holds — witnessed three ways:
    // the figure's own interpretation, the Theorem 12 pipeline, and the
    // FPD/chase route for the functional part.
    let mut fig = fixtures::figure1();
    let outcome = consistency::consistent_with_pds(
        &fig.database,
        &fig.dependencies,
        &mut fig.arena,
        &mut fig.universe,
        &mut fig.symbols,
    )
    .unwrap();
    assert!(outcome.consistent);
    let weak = outcome.weak_instance.clone().unwrap();
    assert!(fig.database.has_weak_instance(&weak));

    // The canonical relation of the figure's interpretation is itself a weak
    // instance satisfying E (Theorem 7, "⇒" direction).
    let w = weak_bridge::weak_instance_from_interpretation(&fig.interpretation, &mut fig.symbols)
        .unwrap();
    assert!(fig.database.has_weak_instance(&w));
    assert!(relation_satisfies_all_pds(&w, &fig.arena, &fig.dependencies).unwrap());
}

#[test]
fn figure1_is_also_cad_eap_consistent() {
    // The figure's interpretation satisfies CAD and EAP, so the (NP-hard in
    // general) closed-world test must also answer yes for the FPD part.
    let fig = fixtures::figure1();
    let a = fig.universe.lookup("A").unwrap();
    let b = fig.universe.lookup("B").unwrap();
    let fpds = vec![Fpd::new(AttrSet::singleton(a), AttrSet::singleton(b))];
    let outcome = cad::consistent_with_cad_eap(&fig.database, &fpds).unwrap();
    assert!(outcome.consistent);
    let witness = outcome.witness.unwrap();
    assert!(cad::witness_respects_cad(&fig.database, &witness));
    let interpretation = outcome.interpretation.unwrap();
    assert!(interpretation.satisfies_cad(&fig.database).unwrap());
    assert!(interpretation.satisfies_eap());
}

#[test]
fn figure1_composite_scheme_meaning_is_discrete() {
    // In Figure 1 the meaning of the scheme R[ABC] (the partition
    // π_A · π_B · π_C) is the discrete partition of {1,2,3,4}: each tuple of
    // the database denotes a distinct singleton.
    let fig = fixtures::figure1();
    let abc: AttrSet = vec![
        fig.universe.lookup("A").unwrap(),
        fig.universe.lookup("B").unwrap(),
        fig.universe.lookup("C").unwrap(),
    ]
    .into();
    let meaning = fig.interpretation.meaning_of_scheme(&abc).unwrap();
    assert!(meaning.is_discrete());
    assert_eq!(meaning.num_blocks(), 4);
    let relation = &fig.database.relations()[0];
    for tuple in relation.iter() {
        let denotation = fig.interpretation.meaning_of_tuple(tuple).unwrap();
        assert_eq!(
            denotation.len(),
            1,
            "each Figure 1 tuple denotes a singleton"
        );
    }
}
