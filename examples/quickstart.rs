//! Quickstart: partition dependencies in five minutes, through the session
//! API.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The example walks through the life cycle the paper describes:
//! declare dependencies (both FD-style `X = X*Y` and sum-style `C = A + B`),
//! check implication (Theorems 8/9), check satisfaction by a concrete
//! relation (Definition 7), and test consistency of a multi-relation
//! database (Theorem 12).  One [`Session`] owns every interner and caches
//! the implication engine across all queries.

use partition_semantics::core::canonical::relation_satisfies_pd;
use partition_semantics::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. One session; dependencies registered once.
    // ------------------------------------------------------------------
    let mut session = Session::new();

    // Employee → Manager as an FPD, and Component = Head + Tail as a sum PD.
    let e = session
        .register_texts(&["Emp = Emp*Mgr", "Comp = Head+Tail"])
        .expect("valid PDs");
    println!("Constraint set E:");
    for pd in session.pds(e).unwrap().to_vec() {
        println!("  {}", session.render(pd));
    }

    // ------------------------------------------------------------------
    // 2. Implication (the uniform word problem for lattices).
    // ------------------------------------------------------------------
    let goal = session.equation("Emp+Mgr = Mgr").expect("valid PD");
    let outcome = session.implies(e, goal).unwrap();
    println!(
        "\nE ⊨ {}?  {}   ({} rule firings, engine {})",
        session.render(goal),
        if outcome.value { "yes" } else { "no" },
        outcome.counters.rule_firings,
        if outcome.counters.engine_misses > 0 {
            "built"
        } else {
            "cached"
        },
    );

    let non_goal = session.equation("Mgr = Mgr*Emp").expect("valid PD");
    let outcome = session.implies(e, non_goal).unwrap();
    println!(
        "E ⊨ {}?  {}   (+{} incremental firings on the cached engine)",
        session.render(non_goal),
        if outcome.value { "yes" } else { "no" },
        outcome.counters.rule_firings,
    );

    // Identities hold without any constraints at all (Theorem 10).
    let absorption = session.equation("Emp*(Emp+Mgr) = Emp").unwrap();
    println!(
        "⊨ {} (identity)?  {}",
        session.render(absorption),
        session.identity(absorption).unwrap().value
    );

    // ------------------------------------------------------------------
    // 3. Satisfaction by a concrete relation (Definition 7).
    // ------------------------------------------------------------------
    let db = session
        .database()
        .relation(
            "Works",
            &["Emp", "Mgr"],
            &[&["alice", "carol"], &["bob", "carol"], &["dave", "erin"]],
        )
        .expect("well-formed relation")
        .relation(
            "Edges",
            &["Head", "Tail", "Comp"],
            &[
                &["n1", "n2", "c1"],
                &["n2", "n1", "c1"],
                &["n1", "n1", "c1"],
                &["n2", "n2", "c1"],
                &["n3", "n3", "c2"],
            ],
        )
        .expect("well-formed relation")
        .build();

    let constraints = session.pds(e).unwrap().to_vec();
    let works = db.relation_named("Works").unwrap();
    let edges = db.relation_named("Edges").unwrap();
    println!(
        "\nWorks ⊨ Emp = Emp*Mgr?  {}",
        relation_satisfies_pd(works, session.arena(), constraints[0]).unwrap()
    );
    println!(
        "Edges ⊨ Comp = Head+Tail?  {}",
        relation_satisfies_pd(edges, session.arena(), constraints[1]).unwrap()
    );

    // ------------------------------------------------------------------
    // 4. Consistency of the whole database with E (Theorem 12).
    // ------------------------------------------------------------------
    let outcome = session
        .consistent(e, &db, ConsistencyMode::Polynomial)
        .expect("well-formed inputs");
    let answer = outcome.value;
    println!(
        "\nIs the database consistent with E (∃ satisfying partition interpretation)?  {}",
        answer.consistent
    );
    println!(
        "  FD set F used by the chase: {} dependencies; surviving sum constraints: {}; {} row visits",
        answer.fds.len(),
        answer.sums.len(),
        outcome.counters.row_visits,
    );

    // ------------------------------------------------------------------
    // 5. The witness: a weak instance and its interpretation (Thm 6/7).
    // ------------------------------------------------------------------
    // `consistent` answers with the verdict alone; `weak_instance` chases
    // again, repairs the sum violations (Lemma 12.1) and builds I(w).
    let witness = session
        .weak_instance(e, &db)
        .expect("well-formed inputs")
        .value;
    if let Some(weak) = &witness.weak_instance {
        println!(
            "\nWeak instance: {} rows over {} attributes, {} of them Lemma 12.1 bridging rows (converged: {})",
            weak.len(),
            weak.scheme().arity(),
            witness.repair.bridges,
            witness.repair.converged
        );
    }
    if let Some(interpretation) = &witness.interpretation {
        println!(
            "Canonical interpretation I(w): {} attributes over a population of {} elements",
            interpretation.len(),
            interpretation.total_population().len()
        );
        println!(
            "  satisfies the database: {}",
            interpretation.satisfies_database(&db).unwrap()
        );
    }
}
