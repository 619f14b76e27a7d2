//! Command-line front end for the macro-scale benchmark trajectory.
//!
//! ```text
//! trajectory run [--smoke] [--seed N] [--out PATH]   # run the pinned suite
//! trajectory check PATH                              # schema-validate a report
//! trajectory compare BASELINE CURRENT [--tolerance F] [--counters-only]
//!                                                    # diff two reports
//! trajectory self-check                              # verify the comparator
//! ```
//!
//! `--counters-only` disables the wall-clock comparison entirely (the
//! counters stay exact): the mode for diffing a committed baseline against
//! a run on different hardware, where wall-clock is meaningless noise.
//!
//! `compare` also prints every gated counter that fell as an informational
//! `improved:` line; those never change its exit code.
//!
//! Exit codes: `0` on success, `1` on regressions / invalid reports /
//! usage errors — so CI can gate directly on `compare` and `check`.

use std::process::ExitCode;

use ps_bench::trajectory::{self, TrajectoryReport};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         trajectory run [--smoke] [--seed N] [--out PATH]\n  \
         trajectory check PATH\n  \
         trajectory compare BASELINE CURRENT [--tolerance F] [--counters-only]\n  \
         trajectory self-check"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("self-check") => self_check(),
        _ => usage(),
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut smoke = false;
    let mut seed = trajectory::DEFAULT_SEED;
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--out" => match iter.next() {
                Some(path) => out = Some(path.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let scale = if smoke { "smoke" } else { "macro" };
    eprintln!("running the pinned suite at {scale} scale (seed {seed})...");
    let report = trajectory::run_suite(smoke, seed);
    if let Err(err) = report.validate() {
        eprintln!("produced report failed validation: {err}");
        return ExitCode::FAILURE;
    }
    for w in &report.workloads {
        let speedup = w
            .speedup
            .map(|s| format!("  speedup {s:.2}x"))
            .unwrap_or_default();
        eprintln!(
            "  {:<32} {:>12} items  {:>12} ns  {:>14.0} items/s{speedup}",
            w.name, w.scale, w.wall_ns, w.throughput
        );
    }
    let text = report.to_text();
    match out {
        Some(path) => {
            if let Err(err) = std::fs::write(&path, text) {
                eprintln!("failed to write {path}: {err}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<TrajectoryReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    TrajectoryReport::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn check(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    match load(path).and_then(|report| {
        report.validate().map_err(|e| format!("{path}: {e}"))?;
        Ok(report)
    }) {
        Ok(report) => {
            eprintln!(
                "{path}: valid {} report ({} workloads, schema v{})",
                report.bench_id,
                report.workloads.len(),
                report.schema_version
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{err}");
            ExitCode::FAILURE
        }
    }
}

fn compare(args: &[String]) -> ExitCode {
    let (paths, mut tolerance) = (args.iter().filter(|a| !a.starts_with("--")).count(), 0.4f64);
    if paths != 2 {
        return usage();
    }
    let mut counters_only = false;
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--tolerance" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(t) => tolerance = t,
                None => return usage(),
            },
            "--counters-only" => counters_only = true,
            other => positional.push(other.to_owned()),
        }
    }
    if counters_only {
        tolerance = f64::INFINITY;
    }
    let (baseline, current) = (&positional[0], &positional[1]);
    let reports = load(baseline).and_then(|b| load(current).map(|c| (b, c)));
    match reports {
        Err(err) => {
            eprintln!("{err}");
            ExitCode::FAILURE
        }
        Ok((base, cur)) => {
            let regressions = TrajectoryReport::compare(&base, &cur, tolerance);
            // Informational only: a counter drop never changes the verdict.
            for line in TrajectoryReport::improvements(&base, &cur) {
                eprintln!("improved: {line}");
            }
            if regressions.is_empty() {
                let wall = if tolerance.is_finite() {
                    format!("wall tolerance {:.0}%", tolerance * 100.0)
                } else {
                    "wall-clock ignored".to_owned()
                };
                eprintln!("no regressions: {current} holds the line against {baseline} ({wall})");
                ExitCode::SUCCESS
            } else {
                eprintln!("{} regression(s):", regressions.len());
                for r in &regressions {
                    eprintln!("  {r}");
                }
                ExitCode::FAILURE
            }
        }
    }
}

fn self_check() -> ExitCode {
    match trajectory::self_check() {
        Ok(()) => {
            eprintln!("comparator self-check passed (synthetic regressions are flagged)");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("comparator self-check FAILED: {err}");
            ExitCode::FAILURE
        }
    }
}
