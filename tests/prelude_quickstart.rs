//! Workspace smoke test: the `prelude` quickstart path exactly as documented
//! in `src/lib.rs` (parse → `pd_implies` → `relation_satisfies_all_pds`).
//!
//! The facade's doc example is compiled and run by `cargo test --doc`; this
//! integration test repeats the same flow as a plain test so the quickstart
//! is also guarded in builds that skip doctests, and extends it with the
//! negative cases the doc example omits.

use partition_semantics::prelude::*;

/// The exact quickstart flow from the crate-level documentation.
#[test]
fn quickstart_path_works_end_to_end() {
    // Attributes and dependencies:  A = A*B  (the FPD for the FD A → B)
    // together with  C = A + B  (C is the connected component of {A, B}).
    let mut universe = Universe::new();
    let mut arena = TermArena::new();
    let e = vec![
        parse_equation("A = A*B", &mut universe, &mut arena).unwrap(),
        parse_equation("C = A+B", &mut universe, &mut arena).unwrap(),
    ];

    // PD implication (Theorems 8 and 9): E ⊨ A ≤ C.
    let goal = parse_equation("A + C = C", &mut universe, &mut arena).unwrap();
    assert!(pd_implies(&arena, &e, goal));

    // A concrete relation satisfying both dependencies.
    let mut symbols = SymbolTable::new();
    let db = DatabaseBuilder::new()
        .relation(
            &mut universe,
            &mut symbols,
            "R",
            &["A", "B", "C"],
            &[&["a1", "b", "c"], &["a2", "b", "c"]],
        )
        .unwrap()
        .build();
    let r = &db.relations()[0];
    assert!(relation_satisfies_all_pds(r, &arena, &e).unwrap());
}

/// Same pipeline, exercised through the one-shot and the cached ALG entry
/// points and a goal that must *not* be implied, so the smoke test can fail
/// in either direction.
#[test]
fn quickstart_path_rejects_what_it_should() {
    let mut universe = Universe::new();
    let mut arena = TermArena::new();
    let e = vec![parse_equation("A = A*B", &mut universe, &mut arena).unwrap()];

    // E says A ≤ B; it does not say B ≤ A.
    let implied = parse_equation("A*B = A", &mut universe, &mut arena).unwrap();
    let not_implied = parse_equation("B*A = B", &mut universe, &mut arena).unwrap();
    assert!(pd_implies(&arena, &e, implied));
    assert!(!pd_implies(&arena, &e, not_implied));
    let mut engine = ImplicationEngine::new(&arena, &e);
    assert!(engine.entails_goal(&arena, implied));
    assert!(!engine.entails_goal(&arena, not_implied));

    // A relation where A does not determine B violates the FPD.
    let mut symbols = SymbolTable::new();
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
    let r = &db.relations()[0];
    assert!(!relation_satisfies_all_pds(r, &arena, &e).unwrap());
}
