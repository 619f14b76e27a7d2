//! `consistency_chase`: one registered set — a 10-attribute FPD chain plus
//! sum PDs that survive closure — against a stream of join-path databases,
//! half of them carrying an injected FD violation.
//!
//! Each database is decided by one of three paths in fixed rotation, one
//! turn of [`batch`] databases per path: [`Session::consistent`],
//! [`Session::weak_instance`] (the Lemma 12.1 repair and `I(w)` do real
//! work), and [`ParallelExecutor::consistent_many_par`] on a snapshot with
//! `nproc` workers.  The ALG engine is built once, in set-up.

use std::sync::Arc;
use std::time::Instant;

use ps_base::{Attribute, SymbolTable, Universe};
use ps_core::consistency::{close_constraints_with, normalize_pds, repair_sum_violations};
use ps_core::weak_bridge::interpretation_from_weak_instance;
use ps_lattice::{Equation, ImplicationEngine, TermArena};
use ps_relation::{
    chase_fds_over_frozen, chase_fds_over_with, ChaseScratch, Database, Relation, RelationScheme,
};
use ps_session::{ConsistencyMode, ConstraintSetId, ParallelExecutor, Session, SetSnapshot};

use crate::stats::{mean, median, nproc, quantile, ratio};
use crate::trace::Tracer;
use crate::{Config, Report, Scale, SETUP_REPEATS};

struct Sizes {
    relations: usize,
    pool: usize,
    rows: usize,
    /// Rows of each sum relation; they fall into [`SUM_GROUPS`] groups
    /// sharing a target value, each group needing repair bridges.
    sum_rows: usize,
    /// Path turns the traced replay covers.
    traced_turns: usize,
}

/// Rounds per run: each replays the turns from the first for
/// `--seconds / ROUNDS`, and a database decision's latency is its least
/// over the rounds, so a host stall in one round does not count.
const ROUNDS: usize = 3;

/// Sum PDs `C_k = B_k + D_k` over attributes outside the chain, so none
/// collapses under closure.
const SUMS: usize = 2;

/// Target values per sum relation.
const SUM_GROUPS: usize = 4;

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            relations: 10,
            pool: 48,
            rows: 250,
            sum_rows: 24,
            traced_turns: 9,
        },
        Scale::Small => Sizes {
            relations: 4,
            pool: 12,
            rows: 12,
            sum_rows: 8,
            traced_turns: 3,
        },
    }
}

/// Databases per path turn: two per worker, so a parallel batch keeps
/// every worker busy.
pub fn batch() -> usize {
    2 * nproc()
}

/// The generated inputs.
pub struct Inputs {
    universe: Universe,
    symbols: SymbolTable,
    arena: TermArena,
    pds: Vec<Equation>,
    /// The database pool, cycled by the stream; database `d` is consistent
    /// exactly when `d` is even.
    dbs: Vec<Database>,
    tuples: Vec<u64>,
}

/// Builds the inputs from `seed`: `fanout_consistency_workload`'s chain
/// databases, each extended with one relation per sum PD whose rows share
/// target values without being connected, so the repair must bridge them.
pub fn inputs(seed: u64, scale: Scale) -> Inputs {
    let s = sizes(scale);
    let mut w = ps_bench::fanout_consistency_workload(s.relations, s.pool, s.rows, seed);
    let mut pds = w.pds;
    let mut sum_attrs: Vec<[Attribute; 3]> = Vec::new();
    for k in 0..SUMS {
        let [b, d, c] = ["B", "D", "C"].map(|p| w.universe.attr(&format!("{p}{k}")));
        let (bt, dt, ct) = (w.arena.atom(b), w.arena.atom(d), w.arena.atom(c));
        let join = w.arena.join(bt, dt);
        pds.push(Equation::new(ct, join));
        sum_attrs.push([b, d, c]);
    }
    for (d, db) in w.databases.iter_mut().enumerate() {
        for (k, attrs) in sum_attrs.iter().enumerate() {
            let scheme = RelationScheme::new(format!("T{k}"), attrs.to_vec());
            let pos = attrs.map(|a| scheme.position(a).expect("attr in scheme"));
            let mut relation = Relation::new(scheme);
            for j in 0..s.sum_rows {
                let mut values = vec![ps_base::Symbol::from_index(0); 3];
                values[pos[0]] = w.symbols.symbol(&format!("d{d}_b{k}_{j}"));
                values[pos[1]] = w.symbols.symbol(&format!("d{d}_d{k}_{j}"));
                values[pos[2]] = w.symbols.symbol(&format!("d{d}_c{k}_{}", j % SUM_GROUPS));
                relation.insert_values(&values).expect("arity matches");
            }
            db.add(relation);
        }
    }
    let tuples = w
        .databases
        .iter()
        .map(|db| db.relations().iter().map(|r| r.len() as u64).sum())
        .collect();
    Inputs {
        universe: w.universe,
        symbols: w.symbols,
        arena: w.arena,
        pds,
        dbs: w.databases,
        tuples,
    }
}

/// Which path decides a turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Consistent,
    WeakInstance,
    Parallel,
}

fn path_of(turn: usize) -> Path {
    match turn % 3 {
        0 => Path::Consistent,
        1 => Path::WeakInstance,
        _ => Path::Parallel,
    }
}

/// Pool indices of the databases a turn decides.
fn turn_dbs(turn: usize, pool: usize) -> impl Iterator<Item = usize> {
    (turn * batch()..(turn + 1) * batch()).map(move |i| i % pool)
}

struct Warm {
    session: Session,
    set: ConstraintSetId,
    snapshot: Arc<SetSnapshot>,
}

/// Registers the set in a fresh session and freezes it, which builds the
/// ALG engine and the Section 6.2 closure.  Returns the set-up time too.
fn setup(inputs: &Inputs) -> Result<(Warm, f64), String> {
    let (universe, symbols, arena) = (
        inputs.universe.clone(),
        inputs.symbols.clone(),
        inputs.arena.clone(),
    );
    let start = Instant::now();
    let mut session = Session::from_parts(universe, symbols, arena);
    let set = session.register(&inputs.pds).map_err(|e| e.to_string())?;
    let snapshot = session.snapshot(set).map_err(|e| e.to_string())?;
    let took = start.elapsed().as_secs_f64();
    let warm = Warm {
        session,
        set,
        snapshot,
    };
    Ok((warm, took))
}

/// One decided database.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Decision {
    db: usize,
    consistent: bool,
    /// Weak-instance path: whether a witness came back.
    witnessed: bool,
    /// Chase visits (summed over the batch for the parallel path).
    row_visits: u64,
}

/// Decides one turn through the session layer.  Returns the decisions and
/// one latency (ms) per database; a parallel batch's databases share the
/// batch's wall time.
fn session_turn(
    warm: &mut Warm,
    inputs: &Inputs,
    turn: usize,
    executor: ParallelExecutor,
) -> Result<(Vec<Decision>, Vec<f64>), String> {
    let dbs: Vec<usize> = turn_dbs(turn, inputs.dbs.len()).collect();
    let mut out = Vec::with_capacity(dbs.len());
    let mut lat = Vec::with_capacity(dbs.len());
    match path_of(turn) {
        Path::Consistent => {
            for &d in &dbs {
                let start = Instant::now();
                let o = warm
                    .session
                    .consistent(warm.set, &inputs.dbs[d], ConsistencyMode::Polynomial)
                    .map_err(|e| e.to_string())?;
                lat.push(crate::stats::ms(start.elapsed()));
                out.push(Decision {
                    db: d,
                    consistent: o.value.consistent,
                    witnessed: false,
                    row_visits: o.counters.row_visits,
                });
            }
        }
        Path::WeakInstance => {
            for &d in &dbs {
                let start = Instant::now();
                let o = warm
                    .session
                    .weak_instance(warm.set, &inputs.dbs[d])
                    .map_err(|e| e.to_string())?;
                lat.push(crate::stats::ms(start.elapsed()));
                out.push(Decision {
                    db: d,
                    consistent: o.value.satisfiable,
                    witnessed: o.value.weak_instance.is_some() && o.value.interpretation.is_some(),
                    row_visits: o.counters.row_visits,
                });
            }
        }
        Path::Parallel => {
            let batch: Vec<Database> = dbs.iter().map(|&d| inputs.dbs[d].clone()).collect();
            let start = Instant::now();
            let o = executor
                .consistent_many_par(&warm.snapshot, &batch)
                .map_err(|e| e.to_string())?;
            let took = crate::stats::ms(start.elapsed());
            lat.extend(std::iter::repeat_n(took / dbs.len() as f64, dbs.len()));
            for (i, (&d, answer)) in dbs.iter().zip(&o.value).enumerate() {
                out.push(Decision {
                    db: d,
                    consistent: answer.consistent,
                    witnessed: false,
                    row_visits: if i == 0 { o.counters.row_visits } else { 0 },
                });
            }
        }
    }
    Ok((out, lat))
}

/// Checks a decision against the generator's known answer: consistent
/// unless a violation was injected (odd pool index); a satisfiable
/// weak-instance answer must carry its witness.
fn expected_ok(d: &Decision, path: Path) -> bool {
    d.consistent == d.db.is_multiple_of(2)
        && (path != Path::WeakInstance || d.witnessed == d.consistent)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let inputs = inputs(cfg.seed, cfg.scale);
    if cfg.trace {
        return run_traced(cfg, &inputs);
    }
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut warm = None;
    for _ in 0..SETUP_REPEATS {
        drop(warm.take());
        let (w, took) = setup(&inputs)?;
        times.push(took);
        warm = Some(w);
    }
    let mut warm = warm.expect("at least one set-up");
    let executor = ParallelExecutor::new(nproc());

    // Every round replays the turns from the first; `rounds[r][i]` is the
    // latency of the `i`-th database decided in round `r`.
    let mut rounds: Vec<Vec<f64>> = Vec::with_capacity(ROUNDS);
    let mut decided: Vec<usize> = Vec::new();
    for _ in 0..ROUNDS {
        let mut round = Vec::new();
        let mut turn = 0usize;
        let start = Instant::now();
        while start.elapsed() < cfg.seconds / ROUNDS as u32 {
            let (decisions, lat) = session_turn(&mut warm, &inputs, turn, executor)?;
            round.extend(lat);
            for d in &decisions {
                if rounds.is_empty() {
                    decided.push(d.db);
                }
                report.check(expected_ok(d, path_of(turn)));
            }
            turn += 1;
        }
        rounds.push(round);
    }
    cross_check(&mut warm, &inputs, &mut report);

    // Each database decision's latency is its least over the rounds.
    let common = rounds.iter().map(Vec::len).min().unwrap_or(0);
    let latencies: Vec<f64> = (0..common)
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect();
    let tuples: u64 = decided[..common].iter().map(|&d| inputs.tuples[d]).sum();
    let tuples_per_s = tuples as f64 / (latencies.iter().sum::<f64>() / 1e3);
    let p50 = median(&latencies);
    let p90 = quantile(&latencies, 0.9);
    report.note("databases", latencies.len());
    report.note(
        "tuples_per_db",
        mean(&inputs.tuples.iter().map(|&t| t as f64).collect::<Vec<_>>()),
    );
    report.note("workers", executor.threads());
    report.alias("tuples_per_s", tuples_per_s, "1/s");
    report.alias("check_p50_ms", p50, "ms");
    report.alias("check_p90_ms", p90, "ms");
    report.metric("setup_s", median(&times), "s");
    report.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    report.metric("throughput_per_s", tuples_per_s, "1/s");
    report.metric("p50_ms", p50, "ms");
    report.metric("tail_ms", p90, "ms");
    Ok(report)
}

/// After the timed phase: the session path and the sequential snapshot
/// path must agree on verdict and `row_visits` for every database of the
/// first turns.
fn cross_check(warm: &mut Warm, inputs: &Inputs, report: &mut Report) {
    let mut scratch = ChaseScratch::default();
    for d in 0..inputs.dbs.len().min(3 * batch()) {
        let db = &inputs.dbs[d];
        let live = warm
            .session
            .consistent(warm.set, db, ConsistencyMode::Polynomial);
        let mut fresh = warm.snapshot.symbols().fresh_source();
        let (frozen, visits) = warm.snapshot.consistent(db, &mut fresh, &mut scratch);
        report.check(live.is_ok_and(|o| {
            o.value.consistent == frozen.consistent && o.counters.row_visits == visits
        }));
    }
}

/// Exact work counts of the traced replay, compared across runs by the
/// benchmark's own test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Row operations of the two cold engine builds (raw and normalized).
    pub build_row_ops: u64,
    /// FDs of the closed system.
    pub closed_fds: u64,
    /// Distinct left-hand sides among them.
    pub closed_fd_lhs: u64,
    /// Chase visits per replayed database.
    pub row_visits: Vec<u64>,
    /// Chase merge steps over the replay.
    pub chase_steps: u64,
    /// Tuples decided.
    pub tuples: u64,
    /// Rows the Lemma 12.1 repair added over the replay.
    pub repair_rows_added: u64,
    /// Repairs run (consistent weak-instance items).
    pub repairs: u64,
    /// Verdicts.
    pub verdicts: Vec<bool>,
    /// Session counters of the untraced replay.
    pub session: ps_session::Counters,
}

/// Replay results beside the counts: wall times the spans cannot hold.
pub struct Replay {
    /// Exact counts.
    pub counts: Counts,
    /// Untraced session replay of the same turns, per-database phase only.
    pub untraced_ns: u64,
    /// Wall time of each parallel batch in the untraced replay (ms).
    pub par_batch_ms: Vec<f64>,
}

/// The traced replay of the first `turns` turns: once through the session
/// (untraced), then through the layer functions directly in the order the
/// session calls them — normalize, build, close in set-up; per database
/// the chase (the mutable pipeline for session turns, the frozen one for
/// snapshot turns), then for weak-instance turns the repair and `I(w)`.
pub fn traced_replay(inputs: &Inputs, turns: usize, tracer: &mut Tracer) -> Result<Replay, String> {
    let executor = ParallelExecutor::new(nproc());
    let (mut warm, _) = setup(inputs)?;
    warm.session.take_counters();
    let mut session_visits = Vec::new();
    let mut session_verdicts = Vec::new();
    let mut par_batch_ms = Vec::new();
    let start = Instant::now();
    for turn in 0..turns {
        let (decisions, lat) = session_turn(&mut warm, inputs, turn, executor)?;
        if path_of(turn) == Path::Parallel {
            par_batch_ms.push(lat.iter().sum());
        }
        let batch_visits: u64 = decisions.iter().map(|d| d.row_visits).sum();
        session_visits.push(batch_visits);
        session_verdicts.extend(decisions.iter().map(|d| d.consistent));
    }
    let untraced_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let session_counters = warm.session.take_counters();
    let frozen_symbols = warm.snapshot.symbols().clone();
    drop(warm);

    let mut universe = inputs.universe.clone();
    let mut symbols = inputs.symbols.clone();
    let mut arena = inputs.arena.clone();
    tracer.set_item(0);
    let root = tracer.enter("bench.setup");
    let raw = tracer.leaf("lattice.build", || {
        ImplicationEngine::new(&arena, &inputs.pds)
    });
    let normalized = tracer.leaf("core.normalize", || {
        normalize_pds(&inputs.pds, &mut arena, &mut universe)
    });
    let mut engine = tracer.leaf("lattice.build", || {
        ImplicationEngine::new(&arena, &normalized.equations)
    });
    let build_row_ops = (raw.row_ops() + engine.row_ops()) as u64;
    let closed = tracer.leaf("core.close", || {
        close_constraints_with(&mut engine, &normalized, &mut arena)
    });
    tracer.exit(root);
    let mut lhs: Vec<Vec<Attribute>> = closed.fds.iter().map(|f| f.lhs.iter().collect()).collect();
    lhs.sort();
    lhs.dedup();

    let mut counts = Counts {
        build_row_ops,
        closed_fds: closed.fds.len() as u64,
        closed_fd_lhs: lhs.len() as u64,
        row_visits: Vec::new(),
        chase_steps: 0,
        tuples: 0,
        repair_rows_added: 0,
        repairs: 0,
        verdicts: Vec::new(),
        session: session_counters,
    };
    let mut scratch = ChaseScratch::default();
    let mut fresh = frozen_symbols.fresh_source();
    let mut replay_visits = Vec::new();
    for turn in 0..turns {
        let path = path_of(turn);
        let mut batch_visits = 0u64;
        for d in turn_dbs(turn, inputs.dbs.len()) {
            tracer.set_item(1 + (turn * batch() + d) as u64);
            let db = &inputs.dbs[d];
            let root = tracer.enter("bench.check");
            let mut attrs = db.all_attributes();
            for a in closed.attributes.iter() {
                attrs.insert(a);
            }
            let chase = if path == Path::Parallel {
                tracer.leaf("relation.chase", || {
                    chase_fds_over_frozen(
                        db,
                        &attrs,
                        &closed.fds,
                        &frozen_symbols,
                        &mut fresh,
                        &mut scratch,
                    )
                })
            } else {
                tracer.leaf("relation.chase", || {
                    chase_fds_over_with(db, &attrs, &closed.fds, &mut symbols, &mut scratch)
                })
            };
            let weak = chase
                .consistent
                .then(|| {
                    tracer.leaf("relation.weak_instance", || {
                        chase.weak_instance("weak_instance", &attrs)
                    })
                })
                .flatten();
            if let (Path::WeakInstance, Some(weak)) = (path, &weak) {
                let (repaired, converged) = tracer.leaf("core.repair", || {
                    repair_sum_violations(weak, &closed.fds, &closed.sums, &mut symbols, 64)
                });
                if !converged {
                    return Err("repair hit its round cap".to_owned());
                }
                counts.repairs += 1;
                counts.repair_rows_added += (repaired.len() - weak.len()) as u64;
                tracer
                    .leaf("core.witness", || {
                        interpretation_from_weak_instance(&repaired)
                    })
                    .map_err(|e| e.to_string())?;
            }
            tracer.exit(root);
            batch_visits += chase.row_visits as u64;
            counts.row_visits.push(chase.row_visits as u64);
            counts.chase_steps += chase.steps as u64;
            counts.tuples += inputs.tuples[d];
            counts.verdicts.push(chase.consistent);
        }
        replay_visits.push(batch_visits);
    }
    if counts.verdicts != session_verdicts || replay_visits != session_visits {
        return Err("traced replay and session disagree on a verdict or on row_visits".to_owned());
    }
    Ok(Replay {
        counts,
        untraced_ns,
        par_batch_ms,
    })
}

fn run_traced(cfg: &Config, inputs: &Inputs) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let replay = traced_replay(inputs, sizes(cfg.scale).traced_turns, &mut tracer)?;
    let c = &replay.counts;
    for (i, &v) in c.verdicts.iter().enumerate() {
        let turn = i / batch();
        let d = turn_dbs(turn, inputs.dbs.len())
            .nth(i % batch())
            .unwrap_or(0);
        report.check(v == d.is_multiple_of(2));
    }
    let builds = tracer.durations_ms("lattice.build");
    report.metric("lattice.build_ms", mean(&builds), "ms");
    report.metric(
        "lattice.build_row_ops",
        c.build_row_ops as f64 / builds.len().max(1) as f64,
        "count",
    );
    report.metric(
        "core.normalize_ms",
        mean(&tracer.durations_ms("core.normalize")),
        "ms",
    );
    report.metric(
        "core.close_ms",
        mean(&tracer.durations_ms("core.close")),
        "ms",
    );
    report.metric("core.closed_fds", c.closed_fds as f64, "count");
    report.metric("core.closed_fd_lhs", c.closed_fd_lhs as f64, "count");
    report.metric(
        "core.repair_ms",
        mean(&tracer.durations_ms("core.repair")),
        "ms",
    );
    report.metric(
        "core.repair_rows_added",
        ratio(c.repair_rows_added as f64, c.repairs as f64),
        "count",
    );
    report.metric(
        "core.witness_ms",
        mean(&tracer.durations_ms("core.witness")),
        "ms",
    );
    let visits: u64 = c.row_visits.iter().sum();
    report.metric(
        "relation.chase_ms",
        mean(&tracer.durations_ms("relation.chase")),
        "ms",
    );
    report.metric("relation.row_visits", visits as f64, "count");
    report.metric(
        "relation.visits_per_tuple",
        ratio(visits as f64, c.tuples as f64),
        "1/tuple",
    );
    report.metric("relation.chase_steps", c.chase_steps as f64, "count");
    let s = c.session;
    report.metric(
        "session.engine_hit_ratio",
        ratio(
            s.engine_hits as f64,
            (s.engine_hits + s.engine_misses) as f64,
        ),
        "frac",
    );
    report.metric("session.rule_firings", s.rule_firings as f64, "count");
    report.metric("session.row_visits", s.row_visits as f64, "count");
    report.metric("session.par_batch_ms", mean(&replay.par_batch_ms), "ms");
    report.note("databases", c.verdicts.len());
    let checks: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "bench.check")
        .map(|s| s.duration_ns())
        .sum();
    crate::report_trace(&mut report, &tracer, checks, replay.untraced_ns, cfg)?;
    Ok(report)
}
