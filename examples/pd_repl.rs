//! A tiny command-line front end for the PD implication engine, built on the
//! session API.
//!
//! Run with:
//!
//! ```text
//! cargo run --example pd_repl -- "A=A*B" "B=B*C" -- "A=A*C"
//! cargo run --example pd_repl            # uses a built-in demonstration set
//! ```
//!
//! Everything before the `--` separator is a constraint (a PD in the concrete
//! syntax `expr = expr`, with `*`, `+` and parentheses); everything after it
//! is a goal to test.  For every goal the program reports whether it follows
//! from the constraints (Theorems 8/9), whether it is an identity that holds
//! with no constraints at all (Theorem 10), and the per-query counters of the
//! session's cached engine.

use std::env;
use std::process::ExitCode;

use partition_semantics::lattice::Equation;
use partition_semantics::prelude::*;

fn parse_all(texts: &[String], session: &mut Session) -> Result<Vec<Equation>, String> {
    texts
        .iter()
        .map(|text| {
            session
                .equation(text)
                .map_err(|e| format!("cannot parse `{text}`: {e}"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (constraint_texts, goal_texts): (Vec<String>, Vec<String>) =
        match args.iter().position(|a| a == "--") {
            Some(split) => (args[..split].to_vec(), args[split + 1..].to_vec()),
            None if args.is_empty() => (
                vec!["A=A*B".into(), "B=B*C".into(), "D=A+C".into()],
                vec![
                    "A=A*C".into(),
                    "C=C*A".into(),
                    "A+D=D".into(),
                    "A*(A+B)=A".into(),
                    "A*(B+C)=(A*B)+(A*C)".into(),
                ],
            ),
            None => (args.clone(), Vec::new()),
        };

    let mut session = Session::new();

    let constraints = match parse_all(&constraint_texts, &mut session) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let goals = match parse_all(&goal_texts, &mut session) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    // Register the constraint set once; the session builds and caches one
    // ALG engine for it, held across all queries and grown on demand — the
    // intended usage pattern for interactive sessions and goal batches.
    let e = session.register(&constraints).expect("session-owned PDs");
    println!("Constraints E ({}):", constraints.len());
    for &pd in &constraints {
        println!("  {}", session.render(pd));
    }

    if goals.is_empty() {
        println!("\n(no goals given — pass them after a `--` separator)");
        return ExitCode::SUCCESS;
    }

    println!("\nGoals:");
    for &goal in &goals {
        let outcome = session.implies(e, goal).expect("session-owned goal");
        let entailed = outcome.value;
        let identity = session.identity(goal).expect("session-owned goal").value;
        println!(
            "  {:<28} E ⊨ δ: {:<5}  identity: {:<5}  (+{} incremental firings, engine {})",
            session.render(goal),
            entailed,
            identity,
            outcome.counters.rule_firings,
            if outcome.counters.engine_misses > 0 {
                "built"
            } else {
                "cached"
            },
        );
        if !entailed {
            // Theorem 8's finite controllability: the closed down-sets of
            // (V, ≤_E) form a finite lattice with constants satisfying E but
            // violating the goal.
            let model = session
                .countermodel(e, goal)
                .expect("session-owned goal")
                .value
                .expect("a non-implication always has a countermodel");
            let (u, v) = model.separated();
            let arena = session.arena();
            println!(
                "      countermodel: closed down-sets of a {}-term V, separating {} ≰ {}",
                model.num_terms(),
                arena.display(u, session.universe()),
                arena.display(v, session.universe()),
            );
        }
    }
    ExitCode::SUCCESS
}
