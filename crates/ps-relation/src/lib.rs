//! # ps-relation
//!
//! The relational-database substrate used by *partition semantics for
//! relations* (Section 2.1 of the paper): relation schemes, relations,
//! databases, functional and multivalued dependencies, weak instances and
//! the chase-based weak-satisfaction test of Honeyman.
//!
//! The crate is self-contained (it does not know about partitions); the
//! `ps-core` crate bridges it to partition interpretations via the canonical
//! constructions of Section 4.
//!
//! Main types:
//!
//! * [`RelationScheme`], [`Relation`], [`Database`] — schemes `R[U]`, finite
//!   relations over them and databases `d = {r₁, …, r_n}`.  Relations are
//!   stored columnar (one `Vec<Symbol>` per attribute plus a row-hash dedup
//!   index); [`RowRef`] gives zero-copy row views.
//! * [`Tuple`] — an owned tuple over a scheme, stored in the scheme's
//!   attribute order (the row-shaped construction/interchange type).
//! * [`Fd`] / [`fd_closure`] — functional dependencies, Armstrong attribute
//!   closure (both the naïve and the linear-time Beeri–Bernstein variants),
//!   implication, minimal covers and candidate keys.
//! * [`Mvd`] — multivalued dependencies (needed for Theorem 5).
//! * [`algebra`] — the relational-algebra operations the paper's conclusion
//!   points out remain available under partition semantics.
//! * [`Tableau`], [`chase`] — the weak-instance machinery: build a tableau
//!   from a database with nulls from any [`ps_base::NullSource`], chase it
//!   with FDs ([`chase_tableau_with`], the indexed worklist engine, with the
//!   full-rescan loop kept as the reference [`chase_tableau_naive`]; or
//!   both steps at once with [`chase_fds_over_with`]), detect
//!   inconsistency, extract a representative weak instance.
//! * [`consistency`] — consistency of a database with a set of FDs under the
//!   weak instance assumption (polynomial, Section 6.2) and under the
//!   complete-atomic-data assumption (NP-complete, Section 6.1; exact
//!   backtracking solver for small instances).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod chase;
pub mod consistency;
mod database;
mod error;
mod fd;
pub mod fd_closure;
mod mvd;
mod relation;
mod schema;
mod tableau;
mod tuple;

pub use chase::{
    canonical_chase_rows, chase_fds_over_frozen, chase_fds_over_with, chase_tableau_naive,
    chase_tableau_with, ChaseOutcome, ChaseScratch,
};
pub use consistency::{cad_consistent, weak_instance_consistent, CadOutcome, CadSearchStats};
pub use database::{Database, DatabaseBuilder};
pub use error::RelationError;
pub use fd::{fd, Fd};
pub use mvd::Mvd;
pub use relation::{Relation, RowRef};
pub use schema::{DatabaseScheme, RelationScheme};
pub use tableau::Tableau;
pub use tuple::Tuple;

/// Convenient `Result` alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, RelationError>;
