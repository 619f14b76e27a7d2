//! # ps-server
//!
//! A concurrent solver service over the snapshot layer of `ps-session`:
//! clients speak newline-delimited JSON (one request object per line, one
//! response object per line) over stdin/stdout or TCP, and the server
//! answers the paper's decision procedures — PD implication (Theorems
//! 8/9), polynomial consistency (Theorem 12), weak-instance
//! satisfiability (Theorem 7) and partition-semantics connectivity
//! (Example e / Theorem 4) — against named, mutable constraint sets.
//!
//! The architecture is single-writer/many-readers: one writer thread owns
//! the mutating [`ps_session::Session`] (registrations, `add_pd` /
//! `remove_pd` under the epoch discipline, and implication against each
//! set's live ALG engine), while reader threads answer database queries
//! against immutable `Arc<`[`ps_session::SetSnapshot`]`>` freezes through
//! a [`ps_session::ParallelExecutor`].  Every
//! response carries the verdict, the answering set's epoch and the
//! strategy-independent [`ps_session::Counters`]; a bounded request queue
//! provides backpressure as a typed `overloaded` error, and `shutdown`
//! drains in-flight work before the server exits.
//!
//! The wire grammar, epoch/snapshot semantics and the backpressure and
//! shutdown contracts are specified in `docs/SERVICE.md`;
//! `examples/solver_service.rs` is a complete loopback client.
//!
//! * [`proto`] — typed request/response frames and their JSON codec
//!   (shared with `ps-bench` via [`ps_base::json`]).
//! * [`state`] — the [`ServerCore`]: resolve (writer half) / compute
//!   (reader half) with deterministic per-client counters.
//! * [`serve`] — the threaded transports: [`serve_stdio`] and
//!   [`serve_tcp`], behind the `psserve` binary.

#![forbid(unsafe_code)]

pub mod proto;
pub mod serve;
pub mod state;

pub use proto::{
    DatabaseSpec, ErrorKind, Op, Payload, RelationSpec, Request, Response, StatsReport, WireError,
};
pub use serve::{serve_stdio, serve_tcp, ServeConfig};
pub use state::{ComputeTask, ServerCore, Step};
