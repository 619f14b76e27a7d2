//! Experiment E5 (continued): the Section 6.2 consistency pipeline
//! (Theorem 12, Lemma 12.1) cross-validated against independent routes.

mod common;

use common::World;
use partition_semantics::core::consistency::{
    close_constraints, consistent_with_pds, normalize_pds, relation_satisfies_sum_constraints,
    repair_sum_violations,
};
use partition_semantics::core::implication::atom_order_closure;
use partition_semantics::core::{fds_of_fpds, fpds_of_fds, weak_bridge};
use partition_semantics::prelude::*;
use partition_semantics::relation::consistency::weak_instance_consistent;
use partition_semantics::relation::{
    canonical_chase_rows, chase_tableau_naive, chase_tableau_with, fd_closure, ChaseScratch,
    Tableau,
};
use proptest::prelude::*;

#[test]
fn fpd_only_sets_agree_with_the_honeyman_chase() {
    // When E consists only of FPDs the Theorem 12 pipeline must coincide with
    // the Theorem 6a route (chase with E_F).
    for seed in 0..30u64 {
        let mut world = World::new();
        let attrs = world.attrs(4);
        let db = common::random_database(&mut world, &attrs, 3, 3, 2, seed);
        // Constraints range over U, the union of the database's attributes.
        let db_attrs: Vec<Attribute> = db.all_attributes().iter().collect();
        let fds = common::random_fds(&db_attrs, 3, seed ^ 0xABCD);
        let fpds = fpds_of_fds(&fds);
        let pds: Vec<Equation> = fpds
            .iter()
            .map(|f| f.as_meet_equation(&mut world.arena))
            .collect();

        let pipeline = consistent_with_pds(
            &db,
            &pds,
            &mut world.arena,
            &mut world.universe,
            &mut world.symbols,
        )
        .unwrap();
        let direct = weak_instance_consistent(&db, &fds, &world.symbols);
        assert_eq!(pipeline.consistent, direct, "seed {seed}");
        // No sum constraints can arise from FPDs written as X = X*Y.
        assert!(pipeline.sums.is_empty(), "seed {seed}");
    }
}

#[test]
fn adding_sum_dependencies_never_destroys_consistency() {
    // Lemma 12.1: the surviving sum constraints can always be repaired, so
    // appending sum PDs to a consistent FPD set keeps the database
    // consistent, and the repaired weak instance witnesses it.
    for seed in 0..20u64 {
        let mut world = World::new();
        let attrs = world.attrs(4);
        let db = common::random_database(&mut world, &attrs, 2, 3, 2, seed);
        let db_attrs: Vec<Attribute> = db.all_attributes().iter().collect();
        let fds = common::random_fds(&db_attrs, 2, seed ^ 0x5555);
        let fpds = fpds_of_fds(&fds);
        let mut pds: Vec<Equation> = fpds
            .iter()
            .map(|f| f.as_meet_equation(&mut world.arena))
            .collect();
        let before = consistent_with_pds(
            &db,
            &pds,
            &mut world.arena,
            &mut world.universe,
            &mut world.symbols,
        )
        .unwrap();

        // Append C = A + B over random attributes.
        let sum_pd = {
            let a = world.arena.atom(db_attrs[(seed as usize) % db_attrs.len()]);
            let b = world
                .arena
                .atom(db_attrs[(seed as usize + 1) % db_attrs.len()]);
            let c = world
                .arena
                .atom(db_attrs[(seed as usize + 2) % db_attrs.len()]);
            let ab = world.arena.join(a, b);
            Equation::new(c, ab)
        };
        pds.push(sum_pd);
        let after = consistent_with_pds(
            &db,
            &pds,
            &mut world.arena,
            &mut world.universe,
            &mut world.symbols,
        )
        .unwrap();

        // The sum PD contributes A → C and B → C to F, which can introduce a
        // *functional* inconsistency, so "after" may be stricter than
        // "before" — but never the other way round.
        if after.consistent {
            assert!(before.consistent, "seed {seed}");
            let weak = after.weak_instance().unwrap();
            let (repaired, converged) =
                repair_sum_violations(&weak, &after.fds, &after.sums, &mut world.symbols, 64);
            assert!(converged, "seed {seed}");
            assert!(repaired.satisfies_all_fds(&after.fds), "seed {seed}");
            assert!(
                relation_satisfies_sum_constraints(&repaired, &after.sums),
                "seed {seed}"
            );
            assert!(db.has_weak_instance(&repaired), "seed {seed}");
        }
    }
}

#[test]
fn normalization_is_conservative_over_the_original_attributes() {
    // Normalizing must not change which PDs over the *original* attributes
    // are implied: check implication of a few goals before and after adding
    // the definitional attributes and their binary equations.
    let mut world = World::new();
    let original = vec![
        parse_equation("A = A*(B+C)", &mut world.universe, &mut world.arena).unwrap(),
        parse_equation("D = (A*B)+C", &mut world.universe, &mut world.arena).unwrap(),
    ];
    let goals = [
        "A = A*(B+C)",
        "C+D = D",
        "A*B*C = A*B*C*D",
        "D = D*A",
        "B = B*A",
    ];
    let goal_eqs: Vec<Equation> = goals
        .iter()
        .map(|text| parse_equation(text, &mut world.universe, &mut world.arena).unwrap())
        .collect();
    let before: Vec<bool> = goal_eqs
        .iter()
        .map(|&g| pd_implies(&world.arena, &original, g))
        .collect();

    let normalized = normalize_pds(&original, &mut world.arena, &mut world.universe);
    let after: Vec<bool> = goal_eqs
        .iter()
        .map(|&g| pd_implies(&world.arena, &normalized.equations, g))
        .collect();
    assert_eq!(before, after, "normalization changed the implied PDs");

    // The closure step only adds consequences that were already implied.
    let closed = close_constraints(&normalized, &mut world.arena);
    for fd in &closed.fds {
        for rhs_attr in fd.rhs.iter() {
            let lhs_term = world.arena.meet_of_attrs(&fd.lhs);
            let rhs_term = world.arena.atom(rhs_attr);
            let meet = world.arena.meet(lhs_term, rhs_term);
            let goal = Equation::new(lhs_term, meet);
            assert!(
                pd_implies(&world.arena, &normalized.equations, goal),
                "closure added a non-consequence {}",
                fd.render(&world.universe)
            );
        }
    }
}

#[test]
fn pipeline_agrees_with_cad_when_cad_is_consistent() {
    // CAD + EAP consistency is strictly stronger than open-world consistency,
    // so whenever the exact CAD solver answers yes the pipeline must too.
    for seed in 0..15u64 {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let db = common::random_database(&mut world, &attrs, 2, 2, 2, seed);
        let db_attrs: Vec<Attribute> = db.all_attributes().iter().collect();
        let fds = common::random_fds(&db_attrs, 2, seed ^ 0x77);
        let fpds = fpds_of_fds(&fds);
        let cad = partition_semantics::core::cad::consistent_with_cad_eap(&db, &fpds).unwrap();
        let pds: Vec<Equation> = fpds
            .iter()
            .map(|f| f.as_meet_equation(&mut world.arena))
            .collect();
        let open = consistent_with_pds(
            &db,
            &pds,
            &mut world.arena,
            &mut world.universe,
            &mut world.symbols,
        )
        .unwrap();
        if cad.consistent {
            assert!(
                open.consistent,
                "seed {seed}: CAD-consistent but open-world inconsistent"
            );
        }
        if !open.consistent {
            assert!(!cad.consistent, "seed {seed}");
        }
    }
}

#[test]
fn theorem7_route_and_pipeline_route_agree() {
    // Theorem 7 says: ∃ interpretation ⊨ d, E  ⇔  ∃ weak instance ⊨ E.
    // For FPD-only E both sides are decidable (chase); check the pipeline
    // never disagrees with an explicitly constructed witness.
    for seed in 40..55u64 {
        let mut world = World::new();
        let attrs = world.attrs(4);
        let db = common::random_database(&mut world, &attrs, 2, 2, 2, seed);
        let db_attrs: Vec<Attribute> = db.all_attributes().iter().collect();
        let fds = common::random_fds(&db_attrs, 3, seed);
        let fpds = fpds_of_fds(&fds);
        let witness = weak_bridge::satisfiable_with_fpds(&db, &fpds, &mut world.symbols).unwrap();
        let pds: Vec<Equation> = fpds
            .iter()
            .map(|f| f.as_meet_equation(&mut world.arena))
            .collect();
        let pipeline = consistent_with_pds(
            &db,
            &pds,
            &mut world.arena,
            &mut world.universe,
            &mut world.symbols,
        )
        .unwrap();
        assert_eq!(witness.satisfiable, pipeline.consistent, "seed {seed}");
        if let Some(weak) = witness.weak_instance {
            assert!(weak.satisfies_all_fds(&fds_of_fpds(&fpds)), "seed {seed}");
        }
    }
}

#[test]
fn repair_is_idempotent_once_converged() {
    let mut world = World::new();
    let db = DatabaseBuilder::new()
        .relation(
            &mut world.universe,
            &mut world.symbols,
            "R",
            &["A", "B", "C"],
            &[&["a1", "b1", "c"], &["a2", "b2", "c"], &["a3", "b3", "c2"]],
        )
        .unwrap()
        .build();
    let pds = vec![parse_equation("C = A+B", &mut world.universe, &mut world.arena).unwrap()];
    let outcome = consistent_with_pds(
        &db,
        &pds,
        &mut world.arena,
        &mut world.universe,
        &mut world.symbols,
    )
    .unwrap();
    assert!(outcome.consistent);
    let weak = outcome.weak_instance().unwrap();
    let (repaired, converged) =
        repair_sum_violations(&weak, &outcome.fds, &outcome.sums, &mut world.symbols, 32);
    assert!(converged);
    let (again, converged_again) = repair_sum_violations(
        &repaired,
        &outcome.fds,
        &outcome.sums,
        &mut world.symbols,
        32,
    );
    assert!(converged_again);
    assert_eq!(
        again.len(),
        repaired.len(),
        "no further tuples are added once converged"
    );
}

/// `C = A + B` over one relation of 80 rows `(a_i, b_i, c)`: every row is
/// its own chain class inside the single `c` group, so the Lemma 12.1 repair
/// needs 79 bridges.  The witness budget follows the input (here 80 rows ×
/// 1 sum), so both the session and the snapshot path return a witness that
/// satisfies the sum, and report the 79 bridges.
#[test]
fn a_repair_longer_than_64_bridges_still_yields_a_witness() {
    let mut session = Session::new();
    let set = session.register_texts(&["C = A+B"]).unwrap();
    let names: Vec<[String; 3]> = (0..80)
        .map(|i| [format!("a{i}"), format!("b{i}"), "c".to_owned()])
        .collect();
    let rows: Vec<Vec<&str>> = names
        .iter()
        .map(|row| row.iter().map(String::as_str).collect())
        .collect();
    let rows: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
    let db = session
        .database()
        .relation("R", &["A", "B", "C"], &rows)
        .unwrap()
        .build();
    let sum = session.equation("C = A+B").unwrap();

    let answer = session.weak_instance(set, &db).unwrap().value;
    let snapshot = session.snapshot(set).unwrap();
    let (frozen, _) = snapshot
        .weak_instance(
            &db,
            &mut session.symbols().fresh_source(),
            &mut ChaseScratch::default(),
        )
        .unwrap();
    for witness in [answer, frozen] {
        assert!(witness.satisfiable);
        assert!(witness.repair.converged);
        assert_eq!(witness.repair.bridges, 79);
        let weak = witness
            .weak_instance
            .expect("a converged repair has a witness");
        assert_eq!(weak.len(), 80 + 79);
        assert!(db.has_weak_instance(&weak));
        assert!(relation_satisfies_pd(&weak, session.arena(), sum).unwrap());
        assert!(witness
            .interpretation
            .expect("I(w) comes with the weak instance")
            .satisfies_database(&db)
            .unwrap());
    }
}

/// A witness is missing beside `satisfiable: true` only when the repair
/// reports that it did not converge: checked over random databases and PD
/// sets, through the free function and the session.
#[test]
fn a_missing_witness_always_comes_with_a_non_converged_repair() {
    for seed in 0..40u64 {
        let mut world = World::new();
        let attrs = world.attrs(4);
        let db = common::random_database(&mut world, &attrs, 2, 4, 2, seed);
        let pds: Vec<Equation> = (0..2)
            .map(|i| common::random_pd(&mut world.arena, &attrs, 3, seed * 7 + i))
            .collect();
        let witness = weak_bridge::satisfiable_with_pds(
            &db,
            &pds,
            &mut world.arena,
            &mut world.universe,
            &mut world.symbols,
        )
        .unwrap();
        assert_eq!(
            witness.weak_instance.is_some(),
            witness.satisfiable && witness.repair.converged,
            "seed {seed}"
        );
        assert_eq!(
            witness.interpretation.is_some(),
            witness.weak_instance.is_some(),
            "seed {seed}"
        );
        if let Some(weak) = &witness.weak_instance {
            assert!(db.has_weak_instance(weak), "seed {seed}");
            assert!(
                relation_satisfies_all_pds(weak, &world.arena, &pds).unwrap(),
                "seed {seed}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The closed system is reduced to one FD per left-hand side without
    /// changing its meaning: it is FD-equivalent to the ungrouped system
    /// (the normalized FDs plus one singleton FD per derived `A ≤_E B`),
    /// and the indexed chase with the reduced FDs agrees with the naive
    /// reference chase with the ungrouped ones.  Against the indexed chase
    /// with the ungrouped FDs it agrees symbol for symbol, with no
    /// renaming, and in as many steps: an equivalent cover chases to the
    /// same finest partition.
    #[test]
    fn prop_grouped_closure_matches_the_ungrouped_system(
        seed in 0u64..10_000,
        num_pds in 1usize..5,
        relations in 1usize..4,
        rows in 1usize..5,
    ) {
        let mut world = World::new();
        let attrs = world.attrs(5);
        let pds: Vec<Equation> = (0..num_pds as u64)
            .map(|i| common::random_pd(&mut world.arena, &attrs, 3, seed * 31 + i))
            .collect();
        let db = common::random_database(&mut world, &attrs, relations, rows, 2, seed ^ 0x9E37);
        let normalized = normalize_pds(&pds, &mut world.arena, &mut world.universe);
        let closed = close_constraints(&normalized, &mut world.arena);

        let mut lhs: Vec<&AttrSet> = closed.fds.iter().map(|f| &f.lhs).collect();
        lhs.sort();
        lhs.dedup();
        prop_assert_eq!(lhs.len(), closed.fds.len(), "one FD per left-hand side");

        let universe: Vec<Attribute> = normalized.attributes.iter().collect();
        let mut pairs: Vec<(Attribute, Attribute)> =
            atom_order_closure(&mut world.arena, &normalized.equations, &universe)
                .into_iter()
                .collect();
        pairs.sort_unstable();
        let mut ungrouped = normalized.fds.clone();
        ungrouped.extend(pairs.iter().map(|&(a, b)| fd(&[a], &[b])));
        prop_assert!(fd_closure::implies_all(&ungrouped, &closed.fds));
        prop_assert!(fd_closure::implies_all(&closed.fds, &ungrouped));

        let mut chase_attrs = db.all_attributes();
        for a in closed.attributes.iter() {
            chase_attrs.insert(a);
        }
        let tableau = Tableau::from_database(&db, &chase_attrs, &mut world.symbols);
        let grouped = chase_tableau_with(&tableau, &closed.fds, &mut ChaseScratch::default());
        let reference = chase_tableau_naive(&tableau, &ungrouped);
        prop_assert_eq!(grouped.consistent, reference.consistent);
        prop_assert_eq!(
            grouped.rows().map(|r| canonical_chase_rows(&r, &world.symbols)),
            reference.rows().map(|r| canonical_chase_rows(&r, &world.symbols))
        );

        let full = chase_tableau_with(&tableau, &ungrouped, &mut ChaseScratch::default());
        prop_assert_eq!(grouped.consistent, full.consistent);
        prop_assert_eq!(grouped.rows(), full.rows());
        if full.consistent {
            prop_assert_eq!(grouped.steps, full.steps);
        }
    }
}
