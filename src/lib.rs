//! # partition-semantics
//!
//! A production-quality Rust reproduction of
//! **“Partition Semantics for Relations”** (Stavros S. Cosmadakis,
//! Paris C. Kanellakis, Nicolas Spyratos; PODS 1985, journal version
//! *JCSS* 33:203–233, 1986).
//!
//! The paper assigns set-theoretic *partition* semantics to relation
//! schemes, relations and dependencies.  Functional dependencies become
//! equations `X = X·Y` over the lattice of partitions, and their natural
//! generalization — **partition dependencies** (PDs), arbitrary equations
//! between partition expressions built with product `*` and sum `+` — can
//! also express undirected connectivity.  The paper's main algorithmic
//! results, all reproduced by this workspace, are:
//!
//! | Paper result | Entry point |
//! |---|---|
//! | Theorem 1 — the partitions generated by an interpretation form a lattice `L(I)` | [`core::lattice_of::InterpretationLattice`] |
//! | Theorem 3 / Definition 7 — FPD `X = X·Y` ⇔ FD `X → Y` on relations | [`core::canonical`], [`core::fd_bridge`] |
//! | Theorem 4 / Example e — `C = A + B` expresses connectivity, beyond first-order logic | [`core::connectivity`] |
//! | Theorem 5 — MVDs are *not* expressible by PDs | [`core::lattice_of`] + [`relation::Mvd`] (Figure 2) |
//! | Theorems 6, 7 — satisfying interpretations ⇔ weak instances | [`core::weak_bridge`] |
//! | Theorems 8, 9 — PD implication = uniform word problem for lattices, in polynomial time | [`core::implication`], [`lattice::word_problem`] |
//! | Theorem 10 — PD identities in logarithmic space | [`lattice::free_order`] |
//! | Theorem 11 / Figure 3 — CAD + EAP consistency is NP-complete | [`core::cad`], [`sat`] |
//! | Theorem 12 / Lemma 12.1 — polynomial consistency with arbitrary PDs | [`core::consistency`] |
//!
//! ## Crate layout
//!
//! This facade re-exports the workspace crates under stable module names:
//!
//! * [`base`] — interned attributes (`𝒰`) and symbols (`𝒟`).
//! * [`partition`] — set-theoretic partitions, product/sum, closure, union–find.
//! * [`lattice`] — lattice terms, the free-lattice order, algorithm ALG for the
//!   uniform word problem, finite lattices, the semigroup word problem.
//! * [`relation`] — relations, FDs, MVDs, relational algebra, weak instances,
//!   the chase, the exact CAD solver.
//! * [`graph`] — undirected graphs and the Example e encoding.
//! * [`sat`] — NOT-ALL-EQUAL-3SAT substrate for Theorem 11.
//! * [`core`] — the paper's contribution: partition interpretations, partition
//!   dependencies, implication, expressiveness, consistency.
//!
//! ## Quickstart
//!
//! The [`session`] layer owns the interners and caches one saturated
//! implication engine per registered constraint set, so every decision
//! procedure is one typed call:
//!
//! ```
//! use partition_semantics::prelude::*;
//!
//! // One session owns the attribute universe, the symbol table and the
//! // term arena.  Dependencies:  A = A*B  (the FPD for the FD A → B)
//! // together with  C = A + B  (C is the connected component of {A, B}).
//! let mut session = Session::new();
//! let e = session.register_texts(&["A = A*B", "C = A+B"]).unwrap();
//!
//! // PD implication (Theorems 8 and 9): E ⊨ A ≤ C.  The engine for `e` is
//! // built once, cached, and reused by every later query.
//! let goal = session.equation("A + C = C").unwrap();
//! let outcome = session.implies(e, goal).unwrap();
//! assert!(outcome.value);
//!
//! // A concrete database satisfying both dependencies (Theorem 12).
//! let db = session
//!     .database()
//!     .relation("R", &["A", "B", "C"], &[&["a1", "b", "c"], &["a2", "b", "c"]])
//!     .unwrap()
//!     .build();
//! let outcome = session.consistent(e, &db, ConsistencyMode::Polynomial).unwrap();
//! assert!(outcome.value.consistent);
//!
//! // …and the relation satisfies both PDs directly (Definition 7), via the
//! // free-function substrate the session delegates to.
//! let r = &db.relations()[0];
//! assert!(relation_satisfies_all_pds(r, session.arena(), session.pds(e).unwrap()).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Interned attribute / symbol universes (re-export of `ps-base`).
pub mod base {
    pub use ps_base::*;
}

/// Set-theoretic partitions and their lattice operations (re-export of
/// `ps-partition`).
pub mod partition {
    pub use ps_partition::*;
}

/// Lattice terms, word problems and finite lattices (re-export of
/// `ps-lattice`).
pub mod lattice {
    pub use ps_lattice::*;
}

/// The relational substrate: relations, FDs, MVDs, chase, weak instances
/// (re-export of `ps-relation`).
pub mod relation {
    pub use ps_relation::*;
}

/// Undirected graphs and the Example e encoding (re-export of `ps-graph`).
pub mod graph {
    pub use ps_graph::*;
}

/// NOT-ALL-EQUAL-3SAT substrate for Theorem 11 (re-export of `ps-sat`).
pub mod sat {
    pub use ps_sat::*;
}

/// Partition semantics proper: interpretations, partition dependencies,
/// implication, expressiveness and consistency (re-export of `ps-core`).
pub mod core {
    pub use ps_core::*;
}

/// The session layer: one [`session::Session`] owning the interners, cached
/// engines per constraint set, and typed batched queries for every decision
/// procedure (re-export of `ps-session`).
pub mod session {
    pub use ps_session::*;
}

/// The solver service: a newline-delimited JSON protocol over stdin/stdout
/// or TCP, serving concurrent clients from one shared [`session::Session`]
/// (re-export of `ps-server`; see `docs/SERVICE.md`).
pub mod server {
    pub use ps_server::*;
}

/// The unified facade error (`From` chains cover every substrate error).
pub use ps_session::Error;

/// The most commonly used items, for `use partition_semantics::prelude::*`.
pub mod prelude {
    pub use ps_base::{AttrSet, Attribute, Symbol, SymbolTable, Universe};
    pub use ps_core::cad::{consistent_with_cad_eap, nae3sat_via_cad, reduce_nae3sat};
    pub use ps_core::canonical::{
        canonical_interpretation, canonical_relation, relation_satisfies_all_pds,
        relation_satisfies_pd,
    };
    pub use ps_core::connectivity::{
        components_via_partition_semantics, connectivity_pd, relation_encodes_components,
    };
    pub use ps_core::consistency::{consistent_with_pds, repair_sum_violations};
    pub use ps_core::fixtures;
    pub use ps_core::implication::{is_identity, pd_implies, pd_implies_fpd};
    pub use ps_core::lattice_of::InterpretationLattice;
    pub use ps_core::weak_bridge::{
        interpretation_from_weak_instance, satisfiable_with_fpds, weak_instance_from_interpretation,
    };
    pub use ps_core::{Fpd, PartitionInterpretation, Pd};
    pub use ps_graph::{component_relation, gnp, UndirectedGraph};
    pub use ps_lattice::{
        parse_equation, parse_term, Equation, FiniteLattice, ImplicationEngine, TermArena, TermId,
    };
    pub use ps_partition::{Partition, Population};
    pub use ps_relation::{fd, Database, DatabaseBuilder, Fd, Mvd, Relation, RelationScheme};
    pub use ps_sat::{nae_satisfiable, random_formula, Formula};
    pub use ps_session::{
        ConsistencyAnswer, ConsistencyMode, ConstraintSetId, Counters, Epoch, Error, Outcome,
        ParallelExecutor, SatisfiabilityWitness, Session, SetSnapshot,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_modules_are_wired_together() {
        let mut universe = Universe::new();
        let mut arena = TermArena::new();
        let e = vec![parse_equation("A = A*B", &mut universe, &mut arena).unwrap()];
        let goal = parse_equation("A*B = A", &mut universe, &mut arena).unwrap();
        assert!(pd_implies(&arena, &e, goal));
        let fig = fixtures::figure1();
        assert!(fig
            .interpretation
            .satisfies_database(&fig.database)
            .unwrap());
    }
}
