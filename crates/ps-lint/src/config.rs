//! Checked-in lint configuration: the allowlists and manifests the rules
//! consult.
//!
//! Everything here is a compile-time constant on purpose.  The linter's
//! whole job is to stop contracts drifting, so its own configuration is code
//! (reviewed, diffed, and covered by the parity tests in
//! `tests/config_parity.rs`) rather than a runtime file that could rot
//! unnoticed.

/// Optimized entry point → its pinned naive reference.
///
/// This is the checked-in manifest behind the `naive-reference-pairing`
/// rule: every optimized engine the benchmarks credit must name the
/// reference implementation its correctness proptests pin it to, and every
/// `pub fn *_naive` in the tree must appear on the right-hand side here (so
/// a naive reference cannot be silently deleted while its optimized twin
/// survives).
pub const NAIVE_PAIRS: &[(&str, &str)] = &[
    // ps-partition: semi-naive frontier saturation vs. full recombination.
    ("close_under_ops", "close_under_ops_naive"),
    // ps-relation: indexed worklist chase vs. full-rescan loop.
    ("chase_tableau_with", "chase_tableau_naive"),
    // ps-relation: linear Beeri–Bernstein counter closure vs. naive loop.
    ("attribute_closure", "attribute_closure_naive"),
    // ps-lattice: word-parallel BitMatrix delta kernels vs. per-bit loops.
    ("or_row_into_delta", "or_row_into_delta_per_bit"),
    ("or_and_rows_into_delta", "or_and_rows_into_delta_per_bit"),
    // ps-lattice: semi-naive window kernels vs. per-bit loops.
    ("or_window_into_delta", "or_window_into_delta_per_bit"),
    (
        "or_and_window_into_delta",
        "or_and_window_into_delta_per_bit",
    ),
];

/// Suffixes that mark a function as a pinned reference implementation.
pub const REFERENCE_SUFFIXES: &[&str] = &["_naive", "_per_bit"];

/// Files allowed to mutate `Counters` fields (`rule_firings`, `row_visits`,
/// `engine_hits`, `engine_misses`): the crate that owns the counter
/// contract.  Everyone else receives counters through `Outcome` /
/// `ChaseOutcome` return values and may only *read* them — that is what
/// keeps the counters strategy- and thread-count-independent (the certified
/// contract of BENCHMARKS.md).
pub const COUNTER_OWNER_PATHS: &[&str] = &["crates/ps-session/src/"];

/// Fields of the counter contract.  `epoch` is deliberately absent: it is a
/// version stamp, not a work counter, and is assigned by the session's
/// invalidation protocol only.
pub const COUNTER_FIELDS: &[&str] = &["rule_firings", "row_visits", "engine_hits", "engine_misses"];

/// Modules that define a *local* counter of the same name (the engine-level
/// tallies the session later folds into `Counters`).  `self.<field> += …`
/// inside these files is the counter being produced, not consumed.
pub const COUNTER_PRODUCER_PATHS: &[&str] = &[
    "crates/ps-lattice/src/word_problem.rs",
    "crates/ps-relation/src/chase.rs",
    "crates/ps-core/src/cad.rs",
];

/// Types whose `unsafe` use is tolerated, by file path.  Empty on purpose:
/// the workspace is `#![forbid(unsafe_code)]` end to end, and this list
/// existing (rather than the rule being unconditional) documents where an
/// exception would have to be registered and reviewed.
pub const UNSAFE_ALLOWLIST: &[&str] = &[];

/// Hash-keyed types with sound interior mutability.  Must stay in lockstep
/// with `clippy.toml`'s `ignore-interior-mutability` — `tests/config_parity.rs`
/// fails if the two drift apart.  `Partition` carries a `OnceLock`-cached CSR
/// view but hashes purely over its immutable population + label vector.
pub const INTERIOR_MUTABILITY_ALLOWLIST: &[&str] = &["ps_partition::Partition"];

/// Crate roots that must carry `#![forbid(unsafe_code)]`.  The `ps-lint`
/// crate polices itself too.
pub const FORBID_UNSAFE_CRATE_ROOTS: &[&str] = &[
    "src/lib.rs",
    "crates/ps-base/src/lib.rs",
    "crates/ps-partition/src/lib.rs",
    "crates/ps-lattice/src/lib.rs",
    "crates/ps-relation/src/lib.rs",
    "crates/ps-graph/src/lib.rs",
    "crates/ps-sat/src/lib.rs",
    "crates/ps-core/src/lib.rs",
    "crates/ps-session/src/lib.rs",
    "crates/ps-server/src/lib.rs",
    "crates/ps-bench/src/lib.rs",
    "crates/ps-lint/src/lib.rs",
];

/// Files allowed to call raw `thread::spawn`: I/O serving layers whose
/// writer/acceptor/handler threads live for the whole serve call, a
/// lifetime `std::thread::scope` cannot express across an acceptor's
/// dynamic spawns.  The allowance is per-file and reviewed here rather
/// than granted via in-source pragmas, so a new spawn site anywhere else
/// still fails `thread-hygiene`.  `thread::sleep` stays banned in these
/// files like everywhere else — serving layers coordinate through
/// channels and joins, never timing.
pub const IO_THREAD_ALLOWLIST: &[&str] = &["crates/ps-server/src/serve.rs"];
