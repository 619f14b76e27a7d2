//! The repository benchmark: three workloads over the partition-semantics
//! solver, each timed end to end in an untraced run and broken down layer
//! by layer in a separate traced run.  See `README.md` in this directory
//! for why each workload exists and how to read the output.

#![forbid(unsafe_code)]

pub mod consistency;
pub mod implication;
pub mod report;
pub mod service;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

pub use report::{Metric, Report};

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 3] = [
    "implication_extend",
    "consistency_chase",
    "service_open_loop",
];

/// End-to-end metrics every untraced run reports, with units.  Each
/// workload maps them onto its own unit of work (see `README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics every traced run reports, with units.  A metric of a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("lattice.build_ms", "ms"),
    ("lattice.build_row_ops", "count"),
    ("lattice.extend_ms", "ms"),
    ("lattice.extend_row_ops", "count"),
    ("lattice.extend_arcs", "count"),
    ("lattice.extend_yield", "arcs/op"),
    ("lattice.query_us", "us"),
    ("lattice.add_equations_ms", "ms"),
    ("lattice.retract_ms", "ms"),
    ("lattice.self_frac", "frac"),
    ("core.normalize_ms", "ms"),
    ("core.close_ms", "ms"),
    ("core.closed_fds", "count"),
    ("core.closed_fd_lhs", "count"),
    ("core.repair_ms", "ms"),
    ("core.repair_rows_added", "count"),
    ("core.witness_ms", "ms"),
    ("core.self_frac", "frac"),
    ("relation.chase_ms", "ms"),
    ("relation.row_visits", "count"),
    ("relation.visits_per_tuple", "1/tuple"),
    ("relation.chase_steps", "count"),
    ("relation.self_frac", "frac"),
    ("session.engine_hit_ratio", "frac"),
    ("session.rule_firings", "count"),
    ("session.row_visits", "count"),
    ("session.freeze_ms", "ms"),
    ("session.freezes_per_frame", "frac"),
    ("session.mutation_ms", "ms"),
    ("session.par_batch_ms", "ms"),
    ("session.self_frac", "frac"),
    ("server.decode_us", "us"),
    ("server.resolve_us", "us"),
    ("server.compute_us", "us"),
    ("server.encode_us", "us"),
    ("server.wait_ms", "ms"),
    ("server.overloaded", "count"),
    ("server.implies.p50_ms", "ms"),
    ("server.implies.p99_ms", "ms"),
    ("server.implies_many.p50_ms", "ms"),
    ("server.implies_many.p99_ms", "ms"),
    ("server.add_pd.p50_ms", "ms"),
    ("server.add_pd.p99_ms", "ms"),
    ("server.remove_pd.p50_ms", "ms"),
    ("server.remove_pd.p99_ms", "ms"),
    ("server.consistent.p50_ms", "ms"),
    ("server.consistent.p99_ms", "ms"),
    ("server.weak_instance.p50_ms", "ms"),
    ("server.weak_instance.p99_ms", "ms"),
    ("server.self_frac", "frac"),
    ("generator.lag_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Input sizes.  `Full` is what the command runs; `Small` keeps the same
/// shapes at a size a debug-mode test can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Test sizes.
    Small,
}

/// One invocation of the benchmark.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// How many times set-up is repeated per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Runs one workload and returns its report, with every metric the mode
/// promises present (per-layer metrics a workload does not exercise are
/// filled with 0).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = match cfg.workload.as_str() {
        "implication_extend" => implication::run(cfg),
        "consistency_chase" => consistency::run(cfg),
        "service_open_loop" => service::run(cfg),
        other => return Err(format!("unknown workload `{other}`")),
    }?;
    let expected: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    for m in &report.metrics {
        if !expected.iter().any(|(n, _)| *n == m.name) {
            return Err(format!("workload reported unlisted metric `{}`", m.name));
        }
    }
    let mut ordered = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        let found = report.metrics.iter().find(|m| m.name == name).cloned();
        ordered.push(found.unwrap_or(Metric {
            name: name.to_owned(),
            value: 0.0,
            unit,
        }));
    }
    report.metrics = ordered;
    Ok(report)
}

/// Adds the per-layer self-time shares and the tracing overhead from a
/// finished trace: `traced_ns` of root spans against `untraced_ns` for the
/// same items run untraced.
pub fn report_trace(
    report: &mut Report,
    tracer: &trace::Tracer,
    traced_ns: u64,
    untraced_ns: u64,
    cfg: &Config,
) -> Result<(), String> {
    let root = tracer.root_ns() as f64;
    for (layer, ns) in tracer.self_ns_by_layer() {
        let name = format!("{layer}.self_frac");
        if PER_LAYER.iter().any(|(n, _)| *n == name) {
            report.metric(&name, stats::ratio(ns as f64, root), "frac");
        } else {
            report.note(&name, stats::ratio(ns as f64, root));
        }
    }
    report.metric(
        "trace.overhead_frac",
        stats::ratio(traced_ns as f64 - untraced_ns as f64, untraced_ns as f64),
        "frac",
    );
    report.note("trace.spans", tracer.spans().len());
    let path = cfg
        .trace_dir
        .join(format!("{}-seed{}.jsonl", cfg.workload, cfg.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    report.note("trace.file", path.display());
    Ok(())
}
