//! Section 7 (conclusions): "even if we assign partition semantics to the
//! relational data model, we still can use all the familiar algebraic
//! operations on relations".  These tests exercise the relational-algebra
//! substrate together with partition semantics.

mod common;

use common::World;
use partition_semantics::prelude::*;
use partition_semantics::relation::algebra;

#[test]
fn algebra_operations_compose_on_partition_satisfying_relations() {
    let mut world = World::new();
    let db = DatabaseBuilder::new()
        .relation(
            &mut world.universe,
            &mut world.symbols,
            "Works",
            &["Emp", "Dept"],
            &[&["alice", "d1"], &["bob", "d1"], &["carol", "d2"]],
        )
        .unwrap()
        .relation(
            &mut world.universe,
            &mut world.symbols,
            "Heads",
            &["Dept", "Mgr"],
            &[&["d1", "dana"], &["d2", "erin"]],
        )
        .unwrap()
        .build();
    let works = db.relation_named("Works").unwrap();
    let heads = db.relation_named("Heads").unwrap();

    // Natural join and projection.
    let joined = algebra::natural_join(works, heads, "WorksHeads").unwrap();
    assert_eq!(joined.len(), 3);
    let emp = world.universe.lookup("Emp").unwrap();
    let mgr = world.universe.lookup("Mgr").unwrap();
    let dept = world.universe.lookup("Dept").unwrap();
    let emp_mgr = joined
        .project("EmpMgr", &AttrSet::from(vec![emp, mgr]))
        .unwrap();
    assert_eq!(emp_mgr.len(), 3);

    // The joined relation satisfies the FPDs Emp → Dept and Dept → Mgr, and
    // hence (by implication) Emp → Mgr; verify through partition semantics.
    let fpd_emp_dept = Fpd::new(AttrSet::singleton(emp), AttrSet::singleton(dept));
    let fpd_dept_mgr = Fpd::new(AttrSet::singleton(dept), AttrSet::singleton(mgr));
    let fpd_emp_mgr = Fpd::new(AttrSet::singleton(emp), AttrSet::singleton(mgr));
    let e = vec![
        fpd_emp_dept.as_meet_equation(&mut world.arena),
        fpd_dept_mgr.as_meet_equation(&mut world.arena),
    ];
    let goal = fpd_emp_mgr.as_meet_equation(&mut world.arena);
    assert!(pd_implies(&world.arena, &e, goal));
    assert!(relation_satisfies_all_pds(&joined, &world.arena, &e).unwrap());
    assert!(relation_satisfies_pd(&joined, &world.arena, goal).unwrap());
    // …and the projection still satisfies the implied FPD.
    assert!(relation_satisfies_pd(&emp_mgr, &world.arena, goal).unwrap());
}

#[test]
fn selection_union_difference_preserve_fpd_satisfaction_when_expected() {
    let mut world = World::new();
    let attrs = world.attrs(3);
    let relation = common::random_relation(&mut world, "R", &attrs, 8, 3, 11);
    let fpd = Fpd::new(AttrSet::singleton(attrs[0]), AttrSet::singleton(attrs[1]));
    let pd = fpd.as_meet_equation(&mut world.arena);

    // Selections of a relation satisfying an FPD still satisfy it (FDs are
    // closed under subsets); enforce the FPD first by keeping one tuple per
    // A0-value.
    let seen = std::cell::RefCell::new(std::collections::HashSet::new());
    let deduped = algebra::select(&relation, "dedup", |t| {
        seen.borrow_mut().insert(t.get(attrs[0]).unwrap())
    });
    assert!(relation_satisfies_pd(&deduped, &world.arena, pd).unwrap());
    let selected = algebra::select(&deduped, "sel", |t| t.get(attrs[2]).is_ok());
    assert!(relation_satisfies_pd(&selected, &world.arena, pd).unwrap());

    // Difference of a relation with anything still satisfies the FPD; union
    // in general does not.
    let other = common::random_relation(&mut world, "R", &attrs, 8, 3, 12);
    let difference = algebra::difference(&deduped, &other, "diff").unwrap();
    assert!(relation_satisfies_pd(&difference, &world.arena, pd).unwrap());
    let union = algebra::union(&deduped, &other, "uni").unwrap();
    assert!(union.len() <= deduped.len() + other.len());
}

#[test]
fn cartesian_product_and_rename_are_syntactic_as_the_paper_stresses() {
    // "After all these operations are syntactic manipulations of syntactic
    // objects": the product of two relations over disjoint schemes has the
    // expected size and scheme regardless of the partition semantics.
    let mut world = World::new();
    let db = DatabaseBuilder::new()
        .relation(
            &mut world.universe,
            &mut world.symbols,
            "R",
            &["A", "B"],
            &[&["a1", "b1"], &["a2", "b2"]],
        )
        .unwrap()
        .relation(
            &mut world.universe,
            &mut world.symbols,
            "S",
            &["C", "D"],
            &[&["c1", "d1"], &["c2", "d2"], &["c3", "d3"]],
        )
        .unwrap()
        .build();
    let r = db.relation_named("R").unwrap();
    let s = db.relation_named("S").unwrap();
    let product = algebra::cartesian_product(r, s, "RxS").unwrap();
    assert_eq!(product.len(), 6);
    assert_eq!(product.scheme().arity(), 4);
    let renamed = algebra::rename(&product, "Renamed");
    assert_eq!(renamed.scheme().name(), "Renamed");
    assert_eq!(renamed.len(), 6);

    // Intersection via the algebra agrees with the set view.
    let r2 = algebra::select(r, "copy", |_| true);
    let intersection = algebra::intersection(r, &r2, "RnR").unwrap();
    assert_eq!(intersection.len(), r.len());
}

#[test]
fn relation_scheme_meaning_is_order_insensitive() {
    // Section 3.1: the meaning of R[ABC] equals the meaning of R1[ABC] — the
    // relation *name* plays no role, only the attribute set does.  Check that
    // the canonical interpretations of a relation and its renamed copy assign
    // the same meaning to the scheme.
    let mut world = World::new();
    let attrs = world.attrs(3);
    let relation = common::random_relation(&mut world, "R", &attrs, 5, 2, 3);
    let renamed = algebra::rename(&relation, "R1");
    let i1 = canonical_interpretation(&relation).unwrap();
    let i2 = canonical_interpretation(&renamed).unwrap();
    let set: AttrSet = attrs.clone().into();
    assert_eq!(
        i1.meaning_of_scheme(&set).unwrap(),
        i2.meaning_of_scheme(&set).unwrap()
    );
}
