//! # ps-base
//!
//! Shared foundation for the `partition-semantics` workspace: interned
//! identifiers for *attributes* (the set `U` of the paper) and *symbols*
//! (the countably infinite set `D` of data values), together with the small
//! set utilities used pervasively by the other crates.
//!
//! The paper ("Partition Semantics for Relations", Cosmadakis, Kanellakis,
//! Spyratos) treats database schemes, relations and dependencies as strings
//! of *uninterpreted symbols*.  This crate supplies exactly those symbol
//! spaces:
//!
//! * [`Attribute`] / [`Universe`] — the finite attribute set `U ⊆ 𝒰`
//!   (Section 2.1).  Attributes name columns of relation schemes and are the
//!   generators of partition expressions.
//! * [`Symbol`] / [`SymbolTable`] — the countably infinite symbol set `𝒟`
//!   from which tuple entries are drawn (`𝒰 ∩ 𝒟 = ∅`).
//! * [`AttrSet`] — a compact ordered set of attributes, the `X`, `Y`, `U`
//!   of functional dependencies and relation schemes.
//! * [`Interner`] — the string-interning engine behind both catalogs.
//! * [`json`] — the dependency-free JSON tree shared by the `ps-bench`
//!   trajectory reports and the `ps-server` wire protocol.
//!
//! All identifiers are `u32` newtypes: cheap to copy, hash and index, so the
//! closure algorithms in `ps-lattice` / `ps-relation` can use dense vectors
//! instead of hash maps on their hot paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribute;
mod error;
mod interner;
pub mod json;
mod symbol;

pub use attribute::{AttrSet, Attribute, Universe};
pub use error::BaseError;
pub use interner::Interner;
pub use symbol::{FreshSymbols, NullSource, Symbol, SymbolTable};

/// Convenient `Result` alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, BaseError>;
