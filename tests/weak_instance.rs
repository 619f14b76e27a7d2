//! Experiment E5: Theorems 6 and 7 — the equivalence between satisfying
//! partition interpretations and weak instances, exercised on random
//! multi-relation databases.

mod common;

use common::World;
use partition_semantics::core::weak_bridge::{
    interpretation_from_weak_instance, satisfiable_with_fpds, weak_instance_from_interpretation,
};
use partition_semantics::core::{canonical, fds_of_fpds, fpds_of_fds};
use partition_semantics::prelude::*;
use partition_semantics::relation::consistency::weak_instance_consistent;

#[test]
fn theorem6a_agrees_with_the_plain_chase_on_random_databases() {
    for seed in 0..30u64 {
        let mut world = World::new();
        let attrs = world.attrs(4);
        let db = common::random_database(&mut world, &attrs, 3, 3, 2, seed);
        // The paper's Section 4.3 setting: Σ ranges over U, the union of the
        // database's attributes.
        let db_attrs: Vec<Attribute> = db.all_attributes().iter().collect();
        let fds = common::random_fds(&db_attrs, 3, seed.wrapping_add(1000));
        let fpds = fpds_of_fds(&fds);

        let via_bridge = satisfiable_with_fpds(&db, &fpds, &mut world.symbols).unwrap();
        let via_chase = weak_instance_consistent(&db, &fds, &world.symbols);
        assert_eq!(via_bridge.satisfiable, via_chase, "seed {seed}");

        if via_bridge.satisfiable {
            let weak = via_bridge.weak_instance.unwrap();
            assert!(db.has_weak_instance(&weak), "seed {seed}");
            assert!(weak.satisfies_all_fds(&fds), "seed {seed}");
            let interpretation = via_bridge.interpretation.unwrap();
            // The interpretation satisfies the database (Definition 2) and
            // every FPD (via Theorem 3b).
            assert!(
                interpretation.satisfies_database(&db).unwrap(),
                "seed {seed}"
            );
            assert!(interpretation.satisfies_eap());
            let mut arena = TermArena::new();
            for fpd in &fpds {
                let pd = fpd.as_meet_equation(&mut arena);
                assert!(
                    interpretation.satisfies_pd(&arena, pd).unwrap(),
                    "seed {seed}"
                );
            }
        }
    }
}

#[test]
fn theorem7_roundtrip_from_interpretations_to_weak_instances() {
    // Start from a random interpretation satisfying EAP, read off the
    // database of its canonical relation, and verify both directions of the
    // Theorem 7 equivalence on it.
    for seed in 0..20u64 {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let interpretation = common::random_interpretation(&mut world, &attrs, 6, seed);

        // The canonical relation R(I) is a weak instance for the single-
        // relation database {R(I)} and I(R(I)) generates the same lattice.
        let w = weak_instance_from_interpretation(&interpretation, &mut world.symbols).unwrap();
        let mut db = Database::new();
        db.add(w.clone());
        assert!(db.has_weak_instance(&w));

        let back = interpretation_from_weak_instance(&w).unwrap();
        assert!(back.satisfies_database(&db).unwrap(), "seed {seed}");

        // Both interpretations satisfy exactly the same PDs (they generate
        // the same lattice because the original satisfies EAP) — probe with a
        // sample of random PDs.
        for probe_seed in 0..12u64 {
            let pd = common::random_pd(&mut world.arena, &attrs, 4, seed * 100 + probe_seed);
            assert_eq!(
                interpretation.satisfies_pd(&world.arena, pd).unwrap(),
                back.satisfies_pd(&world.arena, pd).unwrap(),
                "seed {seed} probe {probe_seed}"
            );
        }
    }
}

#[test]
fn theorem6b_cad_requirement_matches_active_domain_equality() {
    let mut world = World::new();
    // A database where the open-world chase must invent a null (R1 lacks C),
    // but a CAD weak instance exists because the existing constant can fill
    // the hole.
    let db = DatabaseBuilder::new()
        .relation(
            &mut world.universe,
            &mut world.symbols,
            "R1",
            &["A", "B"],
            &[&["a", "b"]],
        )
        .unwrap()
        .relation(
            &mut world.universe,
            &mut world.symbols,
            "R2",
            &["B", "C"],
            &[&["b", "c"]],
        )
        .unwrap()
        .build();
    let b = world.universe.lookup("B").unwrap();
    let c = world.universe.lookup("C").unwrap();
    let fpds = fpds_of_fds(&[fd(&[b], &[c])]);
    let outcome = partition_semantics::core::cad::consistent_with_cad_eap(&db, &fpds).unwrap();
    assert!(outcome.consistent);
    let witness = outcome.witness.unwrap();
    for attr in db.all_attributes().iter() {
        let mut w_dom = witness.active_domain(attr).unwrap();
        let mut d_dom = db.active_domain(attr);
        w_dom.sort();
        d_dom.sort();
        assert_eq!(w_dom, d_dom, "w[A] = d[A] for every attribute (Theorem 6b)");
    }
    let interpretation = outcome.interpretation.unwrap();
    assert!(interpretation.satisfies_cad(&db).unwrap());
    assert!(interpretation.satisfies_eap());
}

#[test]
fn definition7_matches_fd_satisfaction_on_weak_instances() {
    // For every consistent random instance, the produced weak instance
    // satisfies the FPDs as PDs (Definition 7) iff it satisfies the FDs —
    // Theorem 3 specialized to the weak instance.
    for seed in 100..115u64 {
        let mut world = World::new();
        let attrs = world.attrs(4);
        let db = common::random_database(&mut world, &attrs, 2, 3, 2, seed);
        let db_attrs: Vec<Attribute> = db.all_attributes().iter().collect();
        let fds = common::random_fds(&db_attrs, 2, seed);
        let fpds = fpds_of_fds(&fds);
        let witness = satisfiable_with_fpds(&db, &fpds, &mut world.symbols).unwrap();
        if !witness.satisfiable {
            continue;
        }
        let weak = witness.weak_instance.unwrap();
        let mut arena = TermArena::new();
        let pds: Vec<Equation> = fpds
            .iter()
            .map(|f| f.as_meet_equation(&mut arena))
            .collect();
        assert_eq!(
            weak.satisfies_all_fds(&fds_of_fpds(&fpds)),
            canonical::relation_satisfies_all_pds(&weak, &arena, &pds).unwrap(),
            "seed {seed}"
        );
    }
}

#[test]
fn single_relation_databases_collapse_to_plain_fd_satisfaction() {
    // The remark after Theorem 6: if d consists of a single relation, the
    // weak-instance conditions collapse to d ⊨ E_F … but only when the
    // relation is total over all attributes (here it is).
    for seed in 200..220u64 {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let relation = common::random_relation(&mut world, "R", &attrs, 4, 2, seed);
        let fds = common::random_fds(&attrs, 2, seed);
        let mut db = Database::new();
        db.add(relation.clone());
        let fpds = fpds_of_fds(&fds);
        let witness = satisfiable_with_fpds(&db, &fpds, &mut world.symbols).unwrap();
        assert_eq!(
            witness.satisfiable,
            relation.satisfies_all_fds(&fds),
            "seed {seed}"
        );
    }
}
