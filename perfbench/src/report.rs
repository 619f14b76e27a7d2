//! What one run prints: the metric table, the stamp and the final JSON line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Answers checked.
    pub attempted: u64,
    /// Wrong answers, errors and refusals among them.
    pub failed: u64,
    /// Metrics for the final JSON line (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Workload-specific names for the end-to-end metrics, printed in the
    /// human-readable table only (`implies_p50_ms`, `check_p90_ms`, ...).
    pub aliases: Vec<Metric>,
    /// Extra `key=value` facts printed above the JSON line.
    pub notes: Vec<(String, String)>,
    /// Whether the run may be used at all (an open-loop run whose
    /// generator fell behind is invalid, not slow).
    pub invalid: Option<String>,
}

impl Report {
    /// Adds a metric for the JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Adds a workload-specific alias line to the human-readable table.
    pub fn alias(&mut self, name: &str, value: f64, unit: &'static str) {
        self.aliases.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Adds a `key=value` note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// Counts one checked answer, failed or not.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Share of attempted answers that were wrong, errors or refusals.
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every checked answer was right.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The human-readable table: one `name value unit` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.notes {
            let _ = writeln!(out, "# {k}={v}");
        }
        for m in self.aliases.iter().chain(&self.metrics) {
            let _ = writeln!(out, "{:<34} {:>16} {}", m.name, fmt_value(m.value), m.unit);
        }
        let _ = writeln!(
            out,
            "{:<34} {:>16} frac   ({} of {} answers wrong)",
            "error_frac",
            fmt_value(self.error_frac()),
            self.failed,
            self.attempted
        );
        out
    }

    /// The final JSON line.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Formats a value with all its digits; non-finite values become 0 so the
/// line stays valid JSON.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}
