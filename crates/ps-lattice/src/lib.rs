//! # ps-lattice
//!
//! Lattice-theoretic machinery behind *partition dependencies* (Cosmadakis,
//! Kanellakis, Spyratos, "Partition Semantics for Relations", Sections 2.2
//! and 5).
//!
//! The crate provides:
//!
//! * [`TermArena`] / [`TermId`] — hash-consed lattice terms `W(U)`: finite
//!   expressions built from attributes with the binary operators `*` (meet /
//!   partition product) and `+` (join / partition sum), plus a parser
//!   ([`parse_term`]) for the concrete syntax `A*(B+C)`.
//! * [`Equation`] — a pair of terms `e = e′`; a *partition dependency* is
//!   exactly such an equation.
//! * [`free_order`] — the relation `≤_id` of Section 5.1 (the order of the
//!   free lattice, decided by Whitman's condition).  Recognizing PD
//!   *identities* (Theorem 10) reduces to this check, which runs in
//!   logarithmic space.
//! * [`word_problem`] — the **uniform word problem for lattices**: given a
//!   finite set of equations `E` and a goal `e = e′`, decide whether every
//!   lattice with constants satisfying `E` also satisfies the goal.  This is
//!   exactly PD implication (Theorem 8).  The production entry point is the
//!   [`ImplicationEngine`]: built once per constraint set, queried for
//!   arbitrarily many goals, incrementally extendable, with rules firing as
//!   word-parallel bitset row operations.  Algorithm `ALG` of Section 5.2 is
//!   also implemented as the paper's literal `O(n⁴)` repeat-until-stable
//!   fixpoint ([`DerivedOrder`]), the one reference property tests pin the
//!   engine against.
//! * [`FiniteLattice`] — explicitly tabulated finite lattices with axiom
//!   checking, distributivity/modularity tests, generated sublattices,
//!   isomorphism testing and term evaluation; used to reproduce Figures 1
//!   and 2 and to cross-validate the symbolic algorithms by finite model
//!   checking.
//! * [`countermodel`] — Theorem 8's finite countermodel for a
//!   non-implication: the lattice of closed down-sets of ALG's order `≤_E`
//!   on `V`, read off an [`ImplicationEngine`].
//! * [`semigroup`] — the uniform word problem for idempotent commutative
//!   semigroups, which Section 5.3 identifies with FD implication.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
pub mod countermodel;
mod equation;
mod error;
mod finite;
pub mod free_order;
mod parser;
pub mod semigroup;
mod term;
pub mod word_problem;

pub use bitset::BitMatrix;
pub use countermodel::{finite_countermodel, Countermodel};
pub use equation::{leq_as_equations, Equation};
pub use error::LatticeError;
pub use finite::FiniteLattice;
pub use parser::{parse_equation, parse_term};
pub use term::{TermArena, TermId, TermNode};
pub use word_problem::{DerivedOrder, ImplicationEngine};

/// Convenient `Result` alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, LatticeError>;
