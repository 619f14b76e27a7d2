//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, prints a stamp and a metric table, and as its last
//! line the JSON result.  Exits 1 on any wrong answer or an invalid run,
//! 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::{stats, Config, Scale, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?);
            }
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    Ok(Config {
        workload,
        seed: seed.unwrap_or(1),
        seconds: Duration::from_secs_f64(seconds),
        trace,
        scale: Scale::Full,
        trace_dir: PathBuf::from(target).join("perfbench-traces"),
    })
}

/// `rustc --version`, or `unknown`.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit under test, or `unknown` where the checkout is not a git
/// repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "# workload={} seed={} trace={} seconds={} nproc={} rustc=\"{}\" commit={}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        cfg.seconds.as_secs_f64(),
        stats::nproc(),
        rustc_version(),
        commit()
    );
    print!("{}", report.table());
    if let Some(reason) = &report.invalid {
        eprintln!("perfbench: invalid run: {reason}");
        return ExitCode::from(1);
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} answers wrong",
            report.failed, report.attempted
        );
        ExitCode::from(1)
    }
}
