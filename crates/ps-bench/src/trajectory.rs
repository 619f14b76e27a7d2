//! The macro-scale benchmark trajectory: a pinned workload suite across
//! all five decision procedures and the solver service layer, serialized
//! as schema-versioned `BENCH_*.json` reports that later PRs diff against.
//!
//! See `docs/BENCHMARKS.md` for the methodology: what each workload
//! measures, what the counters mean, how to read and compare reports.  The
//! `trajectory` binary (`cargo run -p ps-bench --bin trajectory`) is the
//! command-line front end; this module holds the report schema, the suite
//! and the comparator so tests and examples can drive them directly.
//!
//! Two invariants the comparator leans on:
//!
//! * **Counters are strategy-independent and deterministic.**  For a fixed
//!   suite seed, `rule_firings`/`row_visits`/engine hit counts are exactly
//!   reproducible, so *any* counter increase between two runs of the same
//!   suite version is an algorithmic regression, not noise.
//! * **Wall-clock is noisy.**  Wall comparisons apply a configurable
//!   tolerance (default 40%) and are advisory on shared machines.

use std::time::Instant;

use ps_lattice::BitMatrix;
use ps_session::{ConsistencyMode, Counters, Epoch, ParallelExecutor, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::json::Json;

/// Version of the `BENCH_*.json` schema this module reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

/// The bench id stamped into reports produced by this crate version.
pub const BENCH_ID: &str = "BENCH_9";

/// The procedures a full report must cover: one per decision procedure of
/// the paper (Theorems 9, 10, 12, 11 and 4 respectively) plus, from
/// `BENCH_9` on, the solver service layer.
pub const REQUIRED_PROCEDURES: [&str; 6] = [
    "implication",
    "identity",
    "consistency_polynomial",
    "consistency_cad_eap",
    "connectivity",
    "service",
];

/// The bench id from which `"service"` coverage became mandatory (the
/// `ps-server` crate did not exist before; committed `BENCH_6`–`BENCH_8`
/// reports must keep validating).
const SERVICE_REQUIRED_FROM: u64 = 9;

/// Numeric suffix of a `BENCH_N` id, if it has that form.
fn bench_index(bench_id: &str) -> Option<u64> {
    bench_id.strip_prefix("BENCH_")?.parse().ok()
}

/// One measured workload inside a trajectory report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRecord {
    /// Unique workload name (the comparator joins on it).
    pub name: String,
    /// Which decision procedure the workload exercises (one of
    /// [`REQUIRED_PROCEDURES`] — including `"service"` for the loopback
    /// solver-service ladder — `"hot_path"` for the optimization
    /// micro-suites, `"mutation"` for the live-edit A/B workload, or
    /// `"parallel"` for the snapshot fan-out thread ladder).
    pub procedure: String,
    /// Work items processed (queries, tuples or operations — per-workload
    /// unit, documented in `docs/BENCHMARKS.md`).
    pub scale: u64,
    /// Wall-clock of the measured section, nanoseconds.
    pub wall_ns: u64,
    /// `scale` per wall-clock second.
    pub throughput: f64,
    /// Strategy-independent work counters accumulated by the measured
    /// section (deterministic for a fixed seed).
    pub counters: Counters,
    /// For hot-path workloads: wall-clock of the pre-optimization
    /// reference (per-bit BitMatrix loops, fresh-allocation chase) on the
    /// identical input.
    pub baseline_wall_ns: Option<u64>,
    /// `baseline_wall_ns / wall_ns` when a baseline was measured.
    pub speedup: Option<f64>,
}

/// A full trajectory report: suite metadata plus one record per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryReport {
    /// Schema version ([`SCHEMA_VERSION`] for reports written by this
    /// crate).
    pub schema_version: u64,
    /// The bench id (`"BENCH_9"` for this PR's pinned suite).
    pub bench_id: String,
    /// `rustc --version` of the producing toolchain (`"unknown"` when
    /// unavailable).
    pub toolchain: String,
    /// Git commit of the producing tree (`"unknown"` when unavailable).
    pub commit: String,
    /// Whether the suite ran at smoke scale (CI) instead of macro scale.
    pub smoke: bool,
    /// The suite seed (counters are reproducible given `smoke` + `seed`).
    pub seed: u64,
    /// The measured workloads.
    pub workloads: Vec<WorkloadRecord>,
}

impl WorkloadRecord {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            ("procedure", Json::Str(self.procedure.clone())),
            ("scale", Json::Num(self.scale as f64)),
            ("wall_ns", Json::Num(self.wall_ns as f64)),
            ("throughput", Json::Num(self.throughput)),
            (
                "counters",
                Json::obj(vec![
                    ("rule_firings", Json::Num(self.counters.rule_firings as f64)),
                    ("row_visits", Json::Num(self.counters.row_visits as f64)),
                    ("engine_hits", Json::Num(self.counters.engine_hits as f64)),
                    (
                        "engine_misses",
                        Json::Num(self.counters.engine_misses as f64),
                    ),
                    ("epoch", Json::Num(self.counters.epoch.value() as f64)),
                ]),
            ),
        ];
        if let Some(base) = self.baseline_wall_ns {
            pairs.push(("baseline_wall_ns", Json::Num(base as f64)));
        }
        if let Some(speedup) = self.speedup {
            pairs.push(("speedup", Json::Num(speedup)));
        }
        Json::obj(pairs)
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let str_field = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("workload field {key:?} missing or not a string"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("workload field {key:?} missing or not an integer"))
        };
        let counters = json
            .get("counters")
            .ok_or("workload field \"counters\" missing")?;
        let counter_field = |key: &str| -> Result<u64, String> {
            counters
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("counter {key:?} missing or not an integer"))
        };
        Ok(WorkloadRecord {
            name: str_field("name")?,
            procedure: str_field("procedure")?,
            scale: u64_field("scale")?,
            wall_ns: u64_field("wall_ns")?,
            throughput: json
                .get("throughput")
                .and_then(Json::as_f64)
                .ok_or("workload field \"throughput\" missing or not a number")?,
            counters: Counters {
                rule_firings: counter_field("rule_firings")?,
                row_visits: counter_field("row_visits")?,
                engine_hits: counter_field("engine_hits")?,
                engine_misses: counter_field("engine_misses")?,
                // Reports older than BENCH_7 predate the epoch counter.
                epoch: counters
                    .get("epoch")
                    .and_then(Json::as_u64)
                    .map(Epoch::new)
                    .unwrap_or_default(),
            },
            baseline_wall_ns: match json.get("baseline_wall_ns") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or("workload field \"baseline_wall_ns\" not an integer")?,
                ),
            },
            speedup: match json.get("speedup") {
                None => None,
                Some(v) => Some(
                    v.as_f64()
                        .ok_or("workload field \"speedup\" not a number")?,
                ),
            },
        })
    }
}

impl TrajectoryReport {
    /// Serializes the report to the `BENCH_*.json` wire form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("bench_id", Json::Str(self.bench_id.clone())),
            ("toolchain", Json::Str(self.toolchain.clone())),
            ("commit", Json::Str(self.commit.clone())),
            ("smoke", Json::Bool(self.smoke)),
            ("seed", Json::Num(self.seed as f64)),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadRecord::to_json).collect()),
            ),
        ])
    }

    /// Serializes to the on-disk text form (pretty JSON, trailing newline).
    pub fn to_text(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Parses a report from its JSON tree.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        Ok(TrajectoryReport {
            schema_version: json
                .get("schema_version")
                .and_then(Json::as_u64)
                .ok_or("field \"schema_version\" missing or not an integer")?,
            bench_id: json
                .get("bench_id")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or("field \"bench_id\" missing or not a string")?,
            toolchain: json
                .get("toolchain")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or("field \"toolchain\" missing or not a string")?,
            commit: json
                .get("commit")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or("field \"commit\" missing or not a string")?,
            smoke: json
                .get("smoke")
                .and_then(Json::as_bool)
                .ok_or("field \"smoke\" missing or not a bool")?,
            seed: json
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("field \"seed\" missing or not an integer")?,
            workloads: json
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("field \"workloads\" missing or not an array")?
                .iter()
                .map(WorkloadRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }

    /// Parses a report from on-disk text.
    pub fn from_text(text: &str) -> Result<Self, String> {
        TrajectoryReport::from_json(&Json::parse(text)?)
    }

    /// Schema validation: version, uniqueness, coverage of all five
    /// decision procedures, and internal consistency of every record.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} unsupported (expected {SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.workloads.is_empty() {
            return Err("report contains no workloads".to_owned());
        }
        let mut names = std::collections::HashSet::new();
        for w in &self.workloads {
            if !names.insert(w.name.as_str()) {
                return Err(format!("duplicate workload name {:?}", w.name));
            }
            if w.scale == 0 {
                return Err(format!("workload {:?} has zero scale", w.name));
            }
            if !w.throughput.is_finite() || w.throughput < 0.0 {
                return Err(format!("workload {:?} has invalid throughput", w.name));
            }
            let known = w.procedure == "hot_path"
                || w.procedure == "mutation"
                || w.procedure == "parallel"
                || REQUIRED_PROCEDURES.contains(&w.procedure.as_str());
            if !known {
                return Err(format!(
                    "workload {:?} has unknown procedure {:?}",
                    w.name, w.procedure
                ));
            }
            if let (Some(base), Some(speedup)) = (w.baseline_wall_ns, w.speedup) {
                if w.wall_ns > 0 {
                    let expected = base as f64 / w.wall_ns as f64;
                    if (speedup - expected).abs() > expected * 0.01 + 1e-9 {
                        return Err(format!(
                            "workload {:?}: speedup {speedup} inconsistent with \
                             baseline_wall_ns/wall_ns = {expected}",
                            w.name
                        ));
                    }
                }
            }
        }
        // Reports older than BENCH_9 predate the service layer.
        let service_required = bench_index(&self.bench_id)
            .map(|n| n >= SERVICE_REQUIRED_FROM)
            .unwrap_or(true);
        for required in REQUIRED_PROCEDURES {
            if required == "service" && !service_required {
                continue;
            }
            if !self.workloads.iter().any(|w| w.procedure == required) {
                return Err(format!("no workload covers procedure {required:?}"));
            }
        }
        Ok(())
    }

    /// Diffs `current` against `baseline` and lists regressions: any
    /// strategy-independent counter increase (exact — counters are
    /// deterministic per seed), any wall-clock growth beyond
    /// `wall_tolerance` (fractional, e.g. `0.4` = 40%), and any baseline
    /// workload missing from `current`.  Workloads are joined by name;
    /// reports from different scales (`smoke` mismatch) are incomparable.
    pub fn compare(
        baseline: &TrajectoryReport,
        current: &TrajectoryReport,
        wall_tolerance: f64,
    ) -> Vec<String> {
        let mut regressions = Vec::new();
        if baseline.smoke != current.smoke || baseline.seed != current.seed {
            regressions.push(format!(
                "reports are incomparable: smoke/seed {}/{} vs {}/{}",
                baseline.smoke, baseline.seed, current.smoke, current.seed
            ));
            return regressions;
        }
        for base in &baseline.workloads {
            let Some(cur) = current.workloads.iter().find(|w| w.name == base.name) else {
                regressions.push(format!("workload {:?} disappeared", base.name));
                continue;
            };
            let counter_pairs = [
                (
                    "rule_firings",
                    base.counters.rule_firings,
                    cur.counters.rule_firings,
                ),
                (
                    "row_visits",
                    base.counters.row_visits,
                    cur.counters.row_visits,
                ),
                (
                    "engine_misses",
                    base.counters.engine_misses,
                    cur.counters.engine_misses,
                ),
            ];
            for (counter, was, now) in counter_pairs {
                if now > was {
                    regressions.push(format!(
                        "workload {:?}: counter {counter} regressed {was} -> {now}",
                        base.name
                    ));
                }
            }
            if base.wall_ns > 0 {
                let limit = base.wall_ns as f64 * (1.0 + wall_tolerance);
                if cur.wall_ns as f64 > limit {
                    regressions.push(format!(
                        "workload {:?}: wall-clock regressed {}ns -> {}ns \
                         (tolerance {:.0}%)",
                        base.name,
                        base.wall_ns,
                        cur.wall_ns,
                        wall_tolerance * 100.0
                    ));
                }
            }
        }
        regressions
    }
}

/// Verifies the comparator end-to-end on embedded synthetic reports: a
/// clean pair must produce no regressions, and a pair with an injected
/// counter + wall-clock regression must be flagged.  The CI smoke job runs
/// this through `trajectory self-check`.
pub fn self_check() -> Result<(), String> {
    let record = |wall: u64, firings: u64| WorkloadRecord {
        name: "synthetic".to_owned(),
        procedure: "implication".to_owned(),
        scale: 100,
        wall_ns: wall,
        throughput: 100.0 / (wall as f64 / 1e9),
        counters: Counters {
            rule_firings: firings,
            row_visits: 10,
            engine_hits: 5,
            engine_misses: 1,
            epoch: Epoch::new(2),
        },
        baseline_wall_ns: None,
        speedup: None,
    };
    let report = |wall: u64, firings: u64| TrajectoryReport {
        schema_version: SCHEMA_VERSION,
        bench_id: BENCH_ID.to_owned(),
        toolchain: "synthetic".to_owned(),
        commit: "synthetic".to_owned(),
        smoke: true,
        seed: 0,
        workloads: vec![record(wall, firings)],
    };

    let baseline = report(1_000_000, 500);
    let clean = TrajectoryReport::compare(&baseline, &report(1_100_000, 500), 0.4);
    if !clean.is_empty() {
        return Err(format!("clean pair was flagged: {clean:?}"));
    }
    let worse_counters = TrajectoryReport::compare(&baseline, &report(1_000_000, 501), 0.4);
    if worse_counters.is_empty() {
        return Err("injected counter regression was not flagged".to_owned());
    }
    let worse_wall = TrajectoryReport::compare(&baseline, &report(2_000_000, 500), 0.4);
    if worse_wall.is_empty() {
        return Err("injected wall-clock regression was not flagged".to_owned());
    }
    let round_trip = TrajectoryReport::from_text(&baseline.to_text())
        .map_err(|e| format!("synthetic report failed to round-trip: {e}"))?;
    if round_trip != baseline {
        return Err("synthetic report changed across a round-trip".to_owned());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The pinned suite.
// ---------------------------------------------------------------------------

/// Per-workload sizes of the pinned suite (macro or smoke scale).
struct SuiteScale {
    mix_sets: usize,
    mix_attrs: usize,
    mix_pds_per_set: usize,
    mix_queries: usize,
    identity_queries: usize,
    identity_budget: usize,
    consistency_relations: usize,
    consistency_rows: usize,
    consistency_reps: usize,
    cad_queries: usize,
    cad_rows: usize,
    graph_vertices: usize,
    bitmatrix_dim: usize,
    bitmatrix_ops: usize,
    chase_rows: usize,
    chase_reps: usize,
    mutation_attrs: usize,
    mutation_pool: usize,
    mutation_initial: usize,
    mutation_goals: usize,
    mutation_script: usize,
    fanout_attrs: usize,
    fanout_pds: usize,
    fanout_goals: usize,
    fanout_relations: usize,
    fanout_dbs: usize,
    fanout_rows: usize,
    service_pds: usize,
    service_queries: usize,
}

impl SuiteScale {
    /// Macro scale: 10⁵-tuple databases, 10³–10⁴ PDs, 10⁵-edge graphs.
    fn full() -> Self {
        SuiteScale {
            mix_sets: 8,
            mix_attrs: 48,
            mix_pds_per_set: 700,
            mix_queries: 300,
            identity_queries: 2_000,
            identity_budget: 40,
            consistency_relations: 10,
            consistency_rows: 10_000,
            consistency_reps: 2,
            cad_queries: 150,
            cad_rows: 7,
            graph_vertices: 50_000,
            bitmatrix_dim: 2_048,
            bitmatrix_ops: 30_000,
            chase_rows: 400,
            chase_reps: 400,
            mutation_attrs: 16,
            mutation_pool: 60,
            mutation_initial: 30,
            mutation_goals: 40,
            mutation_script: 400,
            fanout_attrs: 24,
            fanout_pds: 200,
            fanout_goals: 4_000,
            fanout_relations: 5,
            fanout_dbs: 50,
            fanout_rows: 400,
            service_pds: 24,
            service_queries: 160,
        }
    }

    /// Smoke scale: the same shape at roughly 1/50 the size, fast enough
    /// for CI and debug-mode tests.
    fn smoke() -> Self {
        SuiteScale {
            mix_sets: 4,
            mix_attrs: 12,
            mix_pds_per_set: 40,
            mix_queries: 30,
            identity_queries: 60,
            identity_budget: 10,
            consistency_relations: 3,
            consistency_rows: 120,
            consistency_reps: 2,
            cad_queries: 10,
            cad_rows: 4,
            graph_vertices: 1_500,
            bitmatrix_dim: 192,
            bitmatrix_ops: 600,
            chase_rows: 40,
            chase_reps: 12,
            mutation_attrs: 8,
            mutation_pool: 14,
            mutation_initial: 7,
            mutation_goals: 10,
            mutation_script: 48,
            fanout_attrs: 10,
            fanout_pds: 25,
            fanout_goals: 80,
            fanout_relations: 3,
            fanout_dbs: 6,
            fanout_rows: 12,
            service_pds: 6,
            service_queries: 20,
        }
    }
}

fn record(
    name: &str,
    procedure: &str,
    scale: u64,
    wall_ns: u64,
    counters: Counters,
) -> WorkloadRecord {
    WorkloadRecord {
        name: name.to_owned(),
        procedure: procedure.to_owned(),
        scale,
        wall_ns,
        throughput: if wall_ns == 0 {
            0.0
        } else {
            scale as f64 / (wall_ns as f64 / 1e9)
        },
        counters,
        baseline_wall_ns: None,
        speedup: None,
    }
}

/// Theorem 9 at session scale: a skewed warm-session query mix over
/// several thousand PDs; most queries hit a cached engine.
fn run_implication(s: &SuiteScale, seed: u64) -> WorkloadRecord {
    let w = crate::skewed_query_mix(
        s.mix_sets,
        s.mix_attrs,
        s.mix_pds_per_set,
        3,
        s.mix_queries,
        seed,
    );
    let mut session = Session::from_parts(w.universe, ps_base::SymbolTable::new(), w.arena);
    let ids: Vec<_> = w
        .sets
        .iter()
        .map(|pds| session.register(pds).expect("generated sets are valid"))
        .collect();
    session.take_counters();
    let start = Instant::now();
    for &(set, goal) in &w.queries {
        session.implies(ids[set], goal).expect("valid query");
    }
    let wall = start.elapsed().as_nanos() as u64;
    record(
        "implication_skewed_mix",
        "implication",
        w.queries.len() as u64,
        wall,
        session.take_counters(),
    )
}

/// Theorem 10 at batch scale: identity recognition over random absorption
/// identities and random (almost always non-identity) equations.
fn run_identity(s: &SuiteScale, seed: u64) -> WorkloadRecord {
    let mut session = Session::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1D);
    let attrs: Vec<String> = (0..8).map(|i| format!("A{i}")).collect();
    for name in &attrs {
        session.attribute(name);
    }
    let mut goals = Vec::with_capacity(s.identity_queries);
    for i in 0..s.identity_queries {
        let t = random_session_term(&mut session, &attrs, s.identity_budget, &mut rng);
        let u = random_session_term(&mut session, &attrs, s.identity_budget, &mut rng);
        let goal = if i % 2 == 0 {
            // t * (t + u) = t, an identity by absorption.
            let tu = session.arena_mut().join(t, u);
            let lhs = session.arena_mut().meet(t, tu);
            ps_lattice::Equation::new(lhs, t)
        } else {
            ps_lattice::Equation::new(t, u)
        };
        goals.push(goal);
    }
    session.take_counters();
    let start = Instant::now();
    let mut identities = 0usize;
    for &goal in &goals {
        if session.identity(goal).expect("valid goal").value {
            identities += 1;
        }
    }
    let wall = start.elapsed().as_nanos() as u64;
    assert!(
        identities >= goals.len() / 2,
        "every absorption goal is an identity"
    );
    record(
        "identity_batch",
        "identity",
        goals.len() as u64,
        wall,
        session.take_counters(),
    )
}

fn random_session_term(
    session: &mut Session,
    attrs: &[String],
    budget: usize,
    rng: &mut StdRng,
) -> ps_lattice::TermId {
    if budget <= 1 || rng.gen_bool(0.3) {
        let a = session.attribute(&attrs[rng.gen_range(0..attrs.len())]);
        return session.arena_mut().atom(a);
    }
    let left_budget = rng.gen_range(1..budget);
    let left = random_session_term(session, attrs, left_budget, rng);
    let right = random_session_term(session, attrs, budget - left_budget, rng);
    if rng.gen_bool(0.5) {
        session.arena_mut().meet(left, right)
    } else {
        session.arena_mut().join(left, right)
    }
}

/// Theorem 12 at macro scale: a 10⁵-tuple join-path database checked
/// repeatedly against its PD set in one warm session (first query builds
/// the closure, later ones hit the cache and reuse the chase scratch).
fn run_consistency_polynomial(s: &SuiteScale, seed: u64) -> WorkloadRecord {
    let w = crate::consistency_workload(s.consistency_relations, s.consistency_rows, seed ^ 0xC0);
    let tuples: u64 = w.database.relations().iter().map(|r| r.len() as u64).sum();
    let mut session = Session::from_parts(w.universe, w.symbols, w.arena);
    let set = session.register(&w.pds).expect("generated PDs are valid");
    session.take_counters();
    let start = Instant::now();
    for _ in 0..s.consistency_reps {
        let outcome = session
            .consistent(set, &w.database, ConsistencyMode::Polynomial)
            .expect("valid query");
        assert!(
            outcome.value.consistent,
            "the join-path fixture is consistent"
        );
    }
    let wall = start.elapsed().as_nanos() as u64;
    record(
        "consistency_polynomial_warm",
        "consistency_polynomial",
        tuples * s.consistency_reps as u64,
        wall,
        session.take_counters(),
    )
}

/// Theorem 11 at batch scale: the NP-complete CAD+EAP test over a stream
/// of small random databases against one registered FPD set (exponential
/// procedures are scaled by query count, not instance size).
fn run_consistency_cad(s: &SuiteScale, seed: u64) -> WorkloadRecord {
    let mut session = Session::new();
    let set = session
        .register_texts(&["A = A*B", "B = B*C"])
        .expect("FPD set parses");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCAD);
    let mut dbs = Vec::with_capacity(s.cad_queries);
    for _ in 0..s.cad_queries {
        let rows: Vec<Vec<String>> = (0..s.cad_rows)
            .map(|_| {
                vec![
                    format!("a{}", rng.gen_range(0..4)),
                    format!("b{}", rng.gen_range(0..3)),
                    format!("c{}", rng.gen_range(0..3)),
                ]
            })
            .collect();
        let row_refs: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let row_slices: Vec<&[&str]> = row_refs.iter().map(Vec::as_slice).collect();
        let db = session
            .database()
            .relation("R", &["A", "B", "C"], &row_slices)
            .expect("rows match the scheme")
            .build();
        dbs.push(db);
    }
    session.take_counters();
    let start = Instant::now();
    for db in &dbs {
        session
            .consistent(set, db, ConsistencyMode::ExactCadEap)
            .expect("valid query");
    }
    let wall = start.elapsed().as_nanos() as u64;
    record(
        "cad_eap_batch",
        "consistency_cad_eap",
        dbs.len() as u64,
        wall,
        session.take_counters(),
    )
}

/// Theorem 4 / Example e at macro scale: connected components of a sparse
/// random graph computed through partition semantics (the blocks of
/// `A + B` over the edge relation).
fn run_connectivity(s: &SuiteScale, seed: u64) -> WorkloadRecord {
    let n = s.graph_vertices;
    let graph = ps_graph::gnp(n, 2.0 / n as f64, seed ^ 0x6AF);
    let mut session = Session::new();
    let (relation, encoding) = session.component_relation(&graph, "G");
    session.take_counters();
    let start = Instant::now();
    let outcome = session
        .connected_components(&relation, &encoding)
        .expect("valid relation");
    let wall = start.elapsed().as_nanos() as u64;
    assert_eq!(outcome.value.len(), n, "one component id per vertex");
    record(
        "connectivity_gnp",
        "connectivity",
        relation.len() as u64,
        wall,
        session.take_counters(),
    )
}

/// Hot path 1: the word-parallel BitMatrix delta kernels against their
/// per-bit references on an identical random operation sequence.  The
/// baseline is the pre-optimization inner loop (one `get`/`set` per bit).
fn run_bitmatrix_hot_path(s: &SuiteScale, seed: u64) -> WorkloadRecord {
    let n = s.bitmatrix_dim;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB17);
    let mut base = BitMatrix::new(n);
    for _ in 0..n * 4 {
        base.set(rng.gen_range(0..n), rng.gen_range(0..n));
    }
    let ops: Vec<(usize, usize, usize)> = (0..s.bitmatrix_ops)
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0..n),
            )
        })
        .collect();

    let mut fast = base.clone();
    let mut delta = Vec::new();
    let mut changed_bits = 0u64;
    let start = Instant::now();
    for &(a, b, dst) in &ops {
        delta.clear();
        fast.or_and_rows_into_delta(a, b, dst, &mut delta);
        changed_bits += delta.len() as u64;
        delta.clear();
        fast.or_row_into_delta(a, dst, &mut delta);
        changed_bits += delta.len() as u64;
    }
    let wall = start.elapsed().as_nanos() as u64;

    let mut slow = base.clone();
    let start = Instant::now();
    for &(a, b, dst) in &ops {
        delta.clear();
        slow.or_and_rows_into_delta_per_bit(a, b, dst, &mut delta);
        delta.clear();
        slow.or_row_into_delta_per_bit(a, dst, &mut delta);
    }
    let baseline_wall = start.elapsed().as_nanos() as u64;
    assert_eq!(fast, slow, "word-parallel and per-bit kernels must agree");

    let mut rec = record(
        "bitmatrix_word_parallel",
        "hot_path",
        (ops.len() * 2) as u64,
        wall,
        Counters {
            rule_firings: changed_bits,
            ..Counters::default()
        },
    );
    rec.baseline_wall_ns = Some(baseline_wall);
    rec.speedup = if wall > 0 {
        Some(baseline_wall as f64 / wall as f64)
    } else {
        None
    };
    rec
}

/// Hot path 2: the indexed chase with one reused [`ps_relation::ChaseScratch`]
/// across a warm batch, against the fresh-allocation entry point on the
/// identical inputs.  The baseline is the pre-optimization per-call
/// allocation behavior.
fn run_chase_hot_path(s: &SuiteScale, seed: u64) -> WorkloadRecord {
    let w =
        crate::random_chase_workload(10, 4, s.chase_rows, s.chase_rows / 2 + 2, 4, seed ^ 0xC4A);
    let rows: u64 = w.database.relations().iter().map(|r| r.len() as u64).sum();

    let attrs = w.database.all_attributes();
    let chase = |symbols: &mut ps_base::SymbolTable, scratch: &mut ps_relation::ChaseScratch| {
        ps_relation::chase_fds_over_with(&w.database, &attrs, &w.fds, symbols, scratch)
    };
    let mut scratch = ps_relation::ChaseScratch::default();
    let mut row_visits = 0u64;
    let start = Instant::now();
    for _ in 0..s.chase_reps {
        let mut symbols = w.symbols.clone();
        let outcome = chase(&mut symbols, &mut scratch);
        row_visits += outcome.row_visits as u64;
    }
    let wall = start.elapsed().as_nanos() as u64;

    let mut baseline_visits = 0u64;
    let start = Instant::now();
    for _ in 0..s.chase_reps {
        let mut symbols = w.symbols.clone();
        let outcome = chase(&mut symbols, &mut ps_relation::ChaseScratch::default());
        baseline_visits += outcome.row_visits as u64;
    }
    let baseline_wall = start.elapsed().as_nanos() as u64;
    assert_eq!(
        row_visits, baseline_visits,
        "buffer reuse must not change the chase's work"
    );

    let mut rec = record(
        "chase_scratch_reuse",
        "hot_path",
        rows * s.chase_reps as u64,
        wall,
        Counters {
            row_visits,
            ..Counters::default()
        },
    );
    rec.baseline_wall_ns = Some(baseline_wall);
    rec.speedup = if wall > 0 {
        Some(baseline_wall as f64 / wall as f64)
    } else {
        None
    };
    rec
}

/// Live mutation A/B: one random edit script (interleaved
/// add_pd/remove_pd/implies), answered twice.  The measured leg mutates one
/// live handle — additions re-saturate the cached engine incrementally, the
/// dependency tracker keeps removals to the minimum cut.  The baseline leg
/// is the pre-mutation-API discipline: re-register the evolved set after
/// every effective edit, so each distinct state starts from a cold engine.
/// Both legs must produce identical query verdicts, and the incremental leg
/// must not fire more rules than the re-register leg.
fn run_mutation(s: &SuiteScale, seed: u64) -> WorkloadRecord {
    let w = crate::mutation_workload(
        s.mutation_attrs,
        s.mutation_pool,
        s.mutation_initial,
        3,
        s.mutation_goals,
        s.mutation_script,
        seed ^ 0x387,
    );
    let same_pd = |a: ps_lattice::Equation, b: ps_lattice::Equation| {
        (a.lhs == b.lhs && a.rhs == b.rhs) || (a.lhs == b.rhs && a.rhs == b.lhs)
    };
    let baseline_universe = w.universe.clone();
    let baseline_arena = w.arena.clone();

    // Incremental leg: one live handle, edits mutate it in place.
    let mut live = Session::from_parts(w.universe, ps_base::SymbolTable::new(), w.arena);
    let set = live
        .register(&w.pool[..w.initial])
        .expect("generated PDs are valid");
    live.take_counters();
    let mut live_verdicts = Vec::new();
    let start = Instant::now();
    for &op in &w.script {
        match op {
            crate::EditOp::Add(i) => {
                live.add_pd(set, w.pool[i]).expect("valid mutation");
            }
            crate::EditOp::Remove(i) => {
                live.remove_pd(set, w.pool[i]).expect("valid mutation");
            }
            crate::EditOp::Query(g) => {
                live_verdicts.push(live.implies(set, w.goals[g]).expect("valid query").value);
            }
        }
    }
    let wall = start.elapsed().as_nanos() as u64;
    let counters = live.take_counters();

    // Baseline leg: maintain the evolving set by hand and re-register it
    // after every effective edit (every distinct state is a cold handle).
    let mut cold = Session::from_parts(
        baseline_universe,
        ps_base::SymbolTable::new(),
        baseline_arena,
    );
    let mut current: Vec<ps_lattice::Equation> = w.pool[..w.initial].to_vec();
    let mut cold_set = cold.register(&current).expect("generated PDs are valid");
    cold.take_counters();
    let mut cold_verdicts = Vec::new();
    let start = Instant::now();
    for &op in &w.script {
        match op {
            crate::EditOp::Add(i) => {
                let pd = w.pool[i];
                if !current.iter().any(|&p| same_pd(p, pd)) {
                    current.push(pd);
                    cold_set = cold.register(&current).expect("valid re-registration");
                }
            }
            crate::EditOp::Remove(i) => {
                let pd = w.pool[i];
                let before = current.len();
                current.retain(|&p| !same_pd(p, pd));
                if current.len() < before {
                    cold_set = cold.register(&current).expect("valid re-registration");
                }
            }
            crate::EditOp::Query(g) => {
                cold_verdicts.push(
                    cold.implies(cold_set, w.goals[g])
                        .expect("valid query")
                        .value,
                );
            }
        }
    }
    let baseline_wall = start.elapsed().as_nanos() as u64;
    let baseline_counters = cold.take_counters();
    assert_eq!(
        live_verdicts, cold_verdicts,
        "incremental edits and re-registration must agree on every verdict"
    );
    assert!(
        counters.rule_firings <= baseline_counters.rule_firings,
        "incremental edits must not fire more rules than re-registration \
         ({} vs {})",
        counters.rule_firings,
        baseline_counters.rule_firings
    );

    let mut rec = record(
        "mutation_edit_script",
        "mutation",
        w.script.len() as u64,
        wall,
        counters,
    );
    rec.baseline_wall_ns = Some(baseline_wall);
    rec.speedup = if wall > 0 {
        Some(baseline_wall as f64 / wall as f64)
    } else {
        None
    };
    rec
}

/// The thread ladder every parallel fan-out workload is measured at.
const FANOUT_THREADS: [usize; 4] = [1, 2, 4, 8];

/// The snapshot fan-out ladder: one frozen [`ps_session::SetSnapshot`] per
/// leg, queried through [`ParallelExecutor`] pools of 1, 2, 4 and 8 workers
/// on the identical batch.
///
/// Two legs: a skewed implication batch (Theorem 9, goals pre-extended into
/// the frozen vocabulary at freeze time) and a macro consistency batch
/// (Theorem 12, many independent databases totalling ~10⁵ tuples at full
/// scale).  The `t1` record is the baseline; each `t>1` record carries
/// `baseline_wall_ns` = the `t1` wall and `speedup` = its ratio.  The
/// runner *asserts* the executor's determinism contract: every thread count
/// must produce identical verdicts and identical merged counters.
fn run_parallel_fanout(s: &SuiteScale, seed: u64) -> Vec<WorkloadRecord> {
    let mut records = Vec::new();

    // Leg 1: batched PD implication against one frozen engine.
    let w = crate::random_word_problem_workload(
        s.fanout_attrs,
        s.fanout_pds,
        3,
        s.fanout_goals,
        3,
        seed ^ 0xFA0,
    );
    let mut session = Session::from_parts(w.universe, ps_base::SymbolTable::new(), w.arena);
    let set = session
        .register(&w.equations)
        .expect("generated PDs are valid");
    let snapshot = session
        .snapshot_with_goals(set, &w.goals)
        .expect("goal batch freezes into the snapshot vocabulary");
    // Untimed warmup so the t1 record is not charged first-touch costs
    // (allocator growth, cache population) the later thread counts skip.
    ParallelExecutor::new(1)
        .implies_many_par(&snapshot, &w.goals)
        .expect("every goal was pre-extended at freeze time");
    let mut reference: Option<(Vec<bool>, Counters, u64)> = None;
    for threads in FANOUT_THREADS {
        let pool = ParallelExecutor::new(threads);
        let start = Instant::now();
        let outcome = pool
            .implies_many_par(&snapshot, &w.goals)
            .expect("every goal was pre-extended at freeze time");
        let wall = start.elapsed().as_nanos() as u64;
        let mut rec = record(
            &format!("parallel_fanout_implication_t{threads}"),
            "parallel",
            w.goals.len() as u64,
            wall,
            outcome.counters,
        );
        match &reference {
            None => reference = Some((outcome.value, outcome.counters, wall)),
            Some((verdicts, counters, t1_wall)) => {
                assert_eq!(
                    &outcome.value, verdicts,
                    "thread count must not change implication verdicts"
                );
                assert_eq!(
                    &outcome.counters, counters,
                    "merged implication counters must be thread-count independent"
                );
                if wall > 0 {
                    rec.baseline_wall_ns = Some(*t1_wall);
                    rec.speedup = Some(*t1_wall as f64 / wall as f64);
                }
            }
        }
        records.push(rec);
    }

    // Leg 2: batched Theorem 12 consistency over many independent databases.
    let w = crate::fanout_consistency_workload(
        s.fanout_relations,
        s.fanout_dbs,
        s.fanout_rows,
        seed ^ 0xFA2,
    );
    let tuples: u64 = w
        .databases
        .iter()
        .flat_map(|db| db.relations())
        .map(|r| r.len() as u64)
        .sum();
    let mut session = Session::from_parts(w.universe, w.symbols, w.arena);
    let set = session.register(&w.pds).expect("generated PDs are valid");
    let snapshot = session.snapshot(set).expect("registered set freezes");
    // Same untimed warmup as leg 1 before the timed ladder starts.
    ParallelExecutor::new(1)
        .consistent_many_par(&snapshot, &w.databases)
        .expect("polynomial consistency is infallible on frozen sets");
    let mut reference: Option<(Vec<bool>, Counters, u64)> = None;
    for threads in FANOUT_THREADS {
        let pool = ParallelExecutor::new(threads);
        let start = Instant::now();
        let outcome = pool
            .consistent_many_par(&snapshot, &w.databases)
            .expect("polynomial consistency is infallible on frozen sets");
        let wall = start.elapsed().as_nanos() as u64;
        let verdicts: Vec<bool> = outcome.value.iter().map(|a| a.consistent).collect();
        assert!(
            verdicts.iter().any(|&v| v) && verdicts.iter().any(|&v| !v),
            "the fan-out fixture mixes consistent and inconsistent databases"
        );
        let mut rec = record(
            &format!("parallel_fanout_consistency_t{threads}"),
            "parallel",
            tuples,
            wall,
            outcome.counters,
        );
        match &reference {
            None => reference = Some((verdicts, outcome.counters, wall)),
            Some((expected, counters, t1_wall)) => {
                assert_eq!(
                    &verdicts, expected,
                    "thread count must not change consistency verdicts"
                );
                assert_eq!(
                    &outcome.counters, counters,
                    "merged consistency counters must be thread-count independent"
                );
                if wall > 0 {
                    rec.baseline_wall_ns = Some(*t1_wall);
                    rec.speedup = Some(*t1_wall as f64 / wall as f64);
                }
            }
        }
        records.push(rec);
    }
    records
}

/// Clients of the service ladder: four disjoint scripts over four
/// client-private vocabularies, spread over 1, 2 or 4 live connections.
const SERVICE_CLIENTS: usize = 4;

/// The connection-count ladder of the service workload.
const SERVICE_THREADS: [usize; 3] = [1, 2, 4];

/// Generates [`SERVICE_CLIENTS`] wire scripts, one per client, each over a
/// client-private vocabulary (`S{c}A{j}` attributes) so the sets cannot
/// alias through the session's content dedup.  Every script is a skewed
/// mix: mostly single implications against a chain of FPDs, some batched
/// implications, occasional live add/remove of a chain-closing PD, and an
/// occasional Theorem 12 consistency check of a small database.
fn service_scripts(s: &SuiteScale, seed: u64) -> Vec<Vec<String>> {
    use ps_server::proto::{DatabaseSpec, Op, RelationSpec, Request};
    (0..SERVICE_CLIENTS)
        .map(|client| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5E41CE ^ ((client as u64) << 8));
            let attr = |j: usize| format!("S{client}A{j}");
            let set = format!("S{client}");
            let n = s.service_pds;
            let fpd = |i: usize, k: usize| format!("{} = {}*{}", attr(i), attr(i), attr(k));
            let mut lines = Vec::with_capacity(s.service_queries + 1);
            let push = |lines: &mut Vec<String>, op: Op| {
                let id = Some(lines.len() as u64 + 1);
                lines.push(Request { id, op }.to_line());
            };
            push(
                &mut lines,
                Op::Register {
                    set: set.clone(),
                    pds: (0..n).map(|j| fpd(j, j + 1)).collect(),
                },
            );
            for _ in 0..s.service_queries {
                let goal = |rng: &mut StdRng| {
                    let i = rng.gen_range(0..n);
                    fpd(i, rng.gen_range(0..=n))
                };
                let op = match rng.gen_range(0..10u32) {
                    0..=5 => Op::Implies {
                        set: set.clone(),
                        goal: goal(&mut rng),
                    },
                    6..=7 => Op::ImpliesMany {
                        set: set.clone(),
                        goals: (0..3).map(|_| goal(&mut rng)).collect(),
                    },
                    8 => {
                        // Toggle a chain-closing PD: epoch churn under load.
                        let pd = fpd(n, 0);
                        if rng.gen_bool(0.5) {
                            Op::AddPd {
                                set: set.clone(),
                                pd,
                            }
                        } else {
                            Op::RemovePd {
                                set: set.clone(),
                                pd,
                            }
                        }
                    }
                    _ => Op::Consistent {
                        set: set.clone(),
                        database: DatabaseSpec {
                            relations: vec![RelationSpec {
                                name: "R".to_owned(),
                                attrs: vec![attr(0), attr(1)],
                                rows: vec![
                                    vec![format!("x{client}1"), format!("y{client}")],
                                    vec![format!("x{client}2"), format!("y{client}")],
                                ],
                            }],
                        },
                    },
                };
                push(&mut lines, op);
            }
            lines
        })
        .collect()
}

/// Plays `lines` over one loopback connection in lock-step, returning the
/// response frames.
fn drive_service_connection(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).expect("connect to the loopback service");
    stream.set_nodelay(true).expect("disable Nagle on loopback");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the client stream"));
    let mut writer = stream;
    lines
        .iter()
        .map(|line| {
            writeln!(writer, "{line}").expect("send a frame");
            writer.flush().expect("flush a frame");
            let mut reply = String::new();
            assert!(
                reader.read_line(&mut reply).expect("read a reply") > 0,
                "service closed the connection mid-script"
            );
            reply.trim_end().to_owned()
        })
        .collect()
}

/// The service-loopback ladder: one `psserve`-shaped TCP server over a
/// shared session, the four client scripts spread across 1, 2 and 4 live
/// connections.  The certified contract (the reason this workload may pin
/// counters at all): every response — verdicts *and* counters — must be
/// byte-identical to a sequential replay of that client's script alone
/// through [`ServerCore::handle`], at every connection count.  The runner
/// asserts that identity per frame, so the recorded counters are exactly
/// the replay's counter totals and are deterministic in the seed.
///
/// [`ServerCore::handle`]: ps_server::state::ServerCore::handle
fn run_service(s: &SuiteScale, seed: u64) -> Vec<WorkloadRecord> {
    use ps_server::proto::{Op, Request, Response};
    use ps_server::state::ServerCore;
    use ps_server::{serve_tcp, ServeConfig};

    let scripts = service_scripts(s, seed);
    // The sequential reference: each client against a fresh solver core.
    let mut expected: Vec<Vec<String>> = Vec::with_capacity(scripts.len());
    let mut totals = Counters::default();
    for lines in &scripts {
        let mut core = ServerCore::new(2);
        let mut replies = Vec::with_capacity(lines.len());
        for line in lines {
            let request = Request::parse_line(line).expect("generated frames are valid");
            let response = core.handle(&request);
            if let Ok((_, counters)) = &response.result {
                totals += *counters;
            }
            replies.push(response.to_line());
        }
        expected.push(replies);
    }
    let frames: u64 = scripts.iter().map(|s| s.len() as u64).sum();

    let mut records = Vec::new();
    let mut t1_wall: Option<u64> = None;
    for connections in SERVICE_THREADS {
        let listener =
            std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
        let addr = listener
            .local_addr()
            .expect("loopback listener has an address");
        let config = ServeConfig {
            threads: 2,
            queue: 64,
        };
        let wall = std::thread::scope(|sc| {
            let server = sc.spawn(move || serve_tcp(listener, config));
            let start = Instant::now();
            let clients: Vec<_> = (0..connections)
                .map(|k| {
                    let scripts = &scripts;
                    let expected = &expected;
                    sc.spawn(move || {
                        for idx in (k..scripts.len()).step_by(connections) {
                            let live = drive_service_connection(addr, &scripts[idx]);
                            assert_eq!(
                                live, expected[idx],
                                "live responses must be byte-identical to the \
                                 sequential replay (client {idx}, {connections} connections)"
                            );
                        }
                    })
                })
                .collect();
            for client in clients {
                client.join().expect("client thread");
            }
            let wall = start.elapsed().as_nanos() as u64;
            let ack = drive_service_connection(
                addr,
                &[Request {
                    id: None,
                    op: Op::Shutdown,
                }
                .to_line()],
            );
            assert!(
                Response::parse_line(&ack[0])
                    .expect("well-formed shutdown ack")
                    .is_shutdown_ack(),
                "{ack:?}"
            );
            server
                .join()
                .expect("server thread")
                .expect("clean service shutdown");
            wall
        });
        let mut rec = record(
            &format!("service_loopback_t{connections}"),
            "service",
            frames,
            wall,
            totals,
        );
        match t1_wall {
            None => t1_wall = Some(wall),
            Some(base) if wall > 0 => {
                rec.baseline_wall_ns = Some(base);
                rec.speedup = Some(base as f64 / wall as f64);
            }
            Some(_) => {}
        }
        records.push(rec);
    }
    records
}

/// `rustc --version` of the building toolchain, or `"unknown"`.
pub fn toolchain_info() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `git rev-parse HEAD` of the working tree, or `"unknown"`.
pub fn commit_info() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs the pinned suite — all five decision procedures, the two hot-path
/// micro-suites, the live-mutation A/B, the parallel fan-out thread ladder
/// and the service-loopback connection ladder — and packages the report.
/// Counters in the result are deterministic in `(smoke, seed)`; wall-clock
/// fields are not.
pub fn run_suite(smoke: bool, seed: u64) -> TrajectoryReport {
    let s = if smoke {
        SuiteScale::smoke()
    } else {
        SuiteScale::full()
    };
    let mut workloads = vec![
        run_implication(&s, seed),
        run_identity(&s, seed),
        run_consistency_polynomial(&s, seed),
        run_consistency_cad(&s, seed),
        run_connectivity(&s, seed),
        run_bitmatrix_hot_path(&s, seed),
        run_chase_hot_path(&s, seed),
        run_mutation(&s, seed),
    ];
    workloads.extend(run_parallel_fanout(&s, seed));
    workloads.extend(run_service(&s, seed));
    TrajectoryReport {
        schema_version: SCHEMA_VERSION,
        bench_id: BENCH_ID.to_owned(),
        toolchain: toolchain_info(),
        commit: commit_info(),
        smoke,
        seed,
        workloads,
    }
}

/// The default suite seed (pinned so that committed reports are comparable
/// across PRs).
pub const DEFAULT_SEED: u64 = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_check_passes() {
        self_check().expect("embedded comparator self-check");
    }

    #[test]
    fn compare_flags_missing_and_incomparable() {
        let mut a = TrajectoryReport {
            schema_version: SCHEMA_VERSION,
            bench_id: BENCH_ID.to_owned(),
            toolchain: "t".into(),
            commit: "c".into(),
            smoke: true,
            seed: 0,
            workloads: vec![record("only", "implication", 1, 1, Counters::default())],
        };
        let mut b = a.clone();
        b.workloads.clear();
        assert_eq!(TrajectoryReport::compare(&a, &b, 0.4).len(), 1);
        b = a.clone();
        b.smoke = false;
        assert_eq!(TrajectoryReport::compare(&a, &b, 0.4).len(), 1);
        a.workloads[0].procedure = "nonsense".into();
        assert!(a.validate().is_err());
    }

    #[test]
    fn validate_requires_all_procedures() {
        let report = TrajectoryReport {
            schema_version: SCHEMA_VERSION,
            bench_id: BENCH_ID.to_owned(),
            toolchain: "t".into(),
            commit: "c".into(),
            smoke: true,
            seed: 0,
            workloads: vec![record("a", "implication", 1, 1, Counters::default())],
        };
        let err = report.validate().unwrap_err();
        assert!(err.contains("identity"), "{err}");
    }
}
