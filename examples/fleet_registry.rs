//! A small "fleet registry" modelled with partition semantics — the worked
//! Examples a–d of Section 3.2 rolled into one scenario, on the session API.
//!
//! Run with:
//!
//! ```text
//! cargo run --example fleet_registry
//! ```
//!
//! The registry tracks vehicles, cars, bicycles, employees and managers:
//!
//! * **Example a** — every employee has exactly one manager:
//!   `Emp = Emp*Mgr` (the FPD counterpart of the FD `Emp → Mgr`).
//! * **Example b** — every car *is a* vehicle: `Car = Car*Veh`.
//! * **Example c** — every vehicle is either a car or a bicycle:
//!   `Veh = Car + Bike`.
//! * **Example d** — a car is a complex object determined by its registration
//!   and serial numbers: `Car = Reg*Serial`.
//!
//! The example checks which constraints a concrete registry satisfies,
//! queries the implication closure through the session's cached engine, and
//! runs the Theorem 12 consistency test for the whole constraint set.

use partition_semantics::core::canonical::relation_satisfies_pd;
use partition_semantics::prelude::*;

fn main() {
    let mut session = Session::new();

    let e = session
        .register_texts(&[
            "Emp = Emp*Mgr",    // Example a
            "Car = Car*Veh",    // Example b
            "Veh = Car+Bike",   // Example c
            "Car = Reg*Serial", // Example d
        ])
        .unwrap();
    let constraints = session.pds(e).unwrap().to_vec();
    println!("Fleet-registry constraint set E:");
    for &pd in &constraints {
        println!("  {}", session.render(pd));
    }

    // ------------------------------------------------------------------
    // Implication queries over E (Theorems 8, 9), batched through the
    // session's cached engine.
    // ------------------------------------------------------------------
    println!("\nImplication closure samples:");
    let queries = [
        // Cars determine vehicles and registrations transitively.
        "Car = Car*Reg",
        // Every car is a vehicle and every vehicle is a car or bike, so
        // Car ≤ Car + Bike (trivially) and Car ≤ Veh.
        "Car+Veh = Veh",
        // But vehicles do not determine cars.
        "Veh = Veh*Car",
    ];
    let goals: Vec<_> = queries
        .iter()
        .map(|text| session.equation(text).unwrap())
        .collect();
    let answers = session.implies_many(e, &goals).unwrap();
    for (&goal, &entailed) in goals.iter().zip(answers.value.iter()) {
        println!("  E ⊨ {:<18} {}", session.render(goal), entailed);
    }

    // ------------------------------------------------------------------
    // A concrete registry.
    // ------------------------------------------------------------------
    let db = session
        .database()
        .relation(
            "Staff",
            &["Emp", "Mgr"],
            &[&["alice", "dana"], &["bob", "dana"], &["carol", "erin"]],
        )
        .unwrap()
        .relation(
            "Cars",
            &["Car", "Veh", "Reg", "Serial"],
            &[
                &["car1", "veh1", "reg1", "sn1"],
                &["car2", "veh2", "reg2", "sn2"],
            ],
        )
        .unwrap()
        .relation("Bikes", &["Bike", "Veh"], &[&["bike1", "veh3"]])
        .unwrap()
        .build();
    println!("\nRegistry database:");
    println!("{}", db.render(session.universe(), session.symbols()));

    // Per-relation satisfaction (Definition 7) for the constraints whose
    // attributes the relation covers.
    let staff = db.relation_named("Staff").unwrap();
    println!(
        "Staff ⊨ Emp = Emp*Mgr?  {}",
        relation_satisfies_pd(staff, session.arena(), constraints[0]).unwrap()
    );
    let cars = db.relation_named("Cars").unwrap();
    println!(
        "Cars ⊨ Car = Car*Veh?   {}",
        relation_satisfies_pd(cars, session.arena(), constraints[1]).unwrap()
    );
    println!(
        "Cars ⊨ Car = Reg*Serial? {}",
        relation_satisfies_pd(cars, session.arena(), constraints[3]).unwrap()
    );

    // ------------------------------------------------------------------
    // Whole-database consistency with E (Theorem 12) and the witnessing
    // interpretation (Theorem 7).
    // ------------------------------------------------------------------
    let outcome = session
        .consistent(e, &db, ConsistencyMode::Polynomial)
        .unwrap();
    let answer = outcome.value;
    println!("\nDatabase consistent with E?  {}", answer.consistent);
    let witness = session.weak_instance(e, &db).unwrap().value;
    if let (Some(weak), Some(interpretation)) = (&witness.weak_instance, &witness.interpretation) {
        println!(
            "weak instance: {} rows before repair, {} after (converged: {})",
            weak.len() - witness.repair.bridges,
            weak.len(),
            witness.repair.converged
        );
        println!(
            "I(w) satisfies the database: {}",
            interpretation.satisfies_database(&db).unwrap()
        );
    }

    // ------------------------------------------------------------------
    // An update that breaks Example a: one employee, two managers.  The
    // session's closure for E is already cached, so only the chase runs.
    // ------------------------------------------------------------------
    let broken = session
        .database()
        .relation(
            "Staff",
            &["Emp", "Mgr"],
            &[&["alice", "dana"], &["alice", "erin"]],
        )
        .unwrap()
        .build();
    let outcome = session
        .consistent(e, &broken, ConsistencyMode::Polynomial)
        .unwrap();
    println!(
        "\nAfter giving alice two managers, still consistent?  {}  (engine cache {} — no re-closure)",
        outcome.value.consistent,
        if outcome.counters.engine_hits > 0 {
            "hit"
        } else {
            "miss"
        },
    );
}
