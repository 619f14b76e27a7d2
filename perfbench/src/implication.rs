//! `implication_extend`: one warm [`Session`] over several large PD sets,
//! queried by one caller in a closed loop with [`Session::implies`].
//!
//! Most goals bring fresh terms, so each forces an ALG extension of `V`
//! (Theorem 9 / Lemma 9.2); a share repeat an earlier goal and are pure
//! lookups.  No chase, no wire.

use std::time::Instant;

use ps_base::{SymbolTable, Universe};
use ps_lattice::{Equation, ImplicationEngine, TermArena, TermId};
use ps_session::{ConstraintSetId, Counters, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{mean, median, ms, quantile, ratio};
use crate::trace::Tracer;
use crate::{Config, Report, Scale, SETUP_REPEATS};

/// One query in this many repeats an earlier goal (a pure lookup).  Fresh
/// goals' extension costs fall into two clusters of roughly equal size; a
/// third of repeats puts the overall median inside the cheaper cluster
/// rather than at the gap between them, where it would flip from seed to
/// seed.
const REPEAT_EVERY: usize = 3;

struct Sizes {
    sets: usize,
    attrs: usize,
    pds_per_set: usize,
    fresh_goals: usize,
    traced_goals: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            sets: 8,
            attrs: 48,
            pds_per_set: 700,
            fresh_goals: 1_500,
            traced_goals: 48,
        },
        Scale::Small => Sizes {
            sets: 2,
            attrs: 10,
            pds_per_set: 30,
            fresh_goals: 80,
            traced_goals: 24,
        },
    }
}

/// The generated inputs: PD sets over one arena plus the goal stream.
pub struct Inputs {
    universe: Universe,
    arena: TermArena,
    sets: Vec<Vec<Equation>>,
    /// `(set, goal)` in query order; repeats are copies of earlier entries.
    stream: Vec<(usize, Equation)>,
    /// A goal whose terms every set already has, used to warm engines.
    warm: Equation,
}

/// Generator seed of the `skewed_query_mix` sets and goal pool.  Fixed:
/// sets drawn per seed differed in cost by up to half, in set-up and in
/// every goal, so `--seed` only orders the pool and picks the repeats.
const POOL_SEED: u64 = 0x9E_3779;

/// Builds the inputs from `seed`: the `skewed_query_mix` sets and fresh
/// goals in seeded order, dealt to the sets in turn, with a seeded share
/// of repeats spliced in.
pub fn inputs(seed: u64, scale: Scale) -> Inputs {
    let s = sizes(scale);
    let mut w =
        ps_bench::skewed_query_mix(s.sets, s.attrs, s.pds_per_set, 3, s.fresh_goals, POOL_SEED);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1E_7E4D);
    for i in (1..w.queries.len()).rev() {
        w.queries.swap(i, rng.gen_range(0..=i));
    }
    let mut stream: Vec<(usize, Equation)> = Vec::with_capacity(w.queries.len() * 4 / 3);
    // Round-robin over the sets rather than the generator's skew: every
    // set gets the same share, so a run's cost does not hinge on one set.
    // Every REPEAT_EVERY-th query repeats a seeded earlier one.
    for (i, &(_, goal)) in w.queries.iter().enumerate() {
        if i > 0 && i % (REPEAT_EVERY - 1) == 0 {
            let earlier = stream[rng.gen_range(0..stream.len())];
            stream.push(earlier);
        }
        stream.push((i % s.sets, goal));
    }
    let first = w.universe.attr("A0");
    let atom = w.arena.atom(first);
    Inputs {
        universe: w.universe,
        arena: w.arena,
        sets: w.sets,
        stream,
        warm: Equation::new(atom, atom),
    }
}

/// Registers every set in a fresh session and builds its engine.
fn setup(inputs: &Inputs) -> Result<(Session, Vec<ConstraintSetId>), String> {
    let mut session = Session::from_parts(
        inputs.universe.clone(),
        SymbolTable::new(),
        inputs.arena.clone(),
    );
    let mut ids = Vec::with_capacity(inputs.sets.len());
    for pds in &inputs.sets {
        let id = session.register(pds).map_err(|e| e.to_string())?;
        session
            .implies(id, inputs.warm)
            .map_err(|e| e.to_string())?;
        ids.push(id);
    }
    Ok((session, ids))
}

/// Checks `answered` verdicts against one batch
/// [`ImplicationEngine::with_goal_terms`] per set.
fn check_verdicts(inputs: &Inputs, answered: &[(usize, Equation, bool)], report: &mut Report) {
    for (set, pds) in inputs.sets.iter().enumerate() {
        let goals: Vec<&(usize, Equation, bool)> =
            answered.iter().filter(|(s, _, _)| *s == set).collect();
        if goals.is_empty() {
            continue;
        }
        let terms: Vec<TermId> = goals.iter().flat_map(|(_, g, _)| [g.lhs, g.rhs]).collect();
        let engine = ImplicationEngine::with_goal_terms(&inputs.arena, pds, &terms);
        for (_, goal, verdict) in goals {
            report.check(engine.entails(*goal) == Some(*verdict));
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let inputs = inputs(cfg.seed, cfg.scale);
    if cfg.trace {
        return run_traced(cfg, &inputs);
    }
    let mut report = Report::default();
    // Each set-up's fresh session plays one round: the goal stream from
    // its start for `--seconds / SETUP_REPEATS`.  `rounds[r][i]` is the
    // latency of the stream's `i`-th goal in round `r`.
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut rounds: Vec<Vec<f64>> = Vec::with_capacity(SETUP_REPEATS);
    let mut answered = Vec::new();
    let mut errors = 0u64;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let (mut session, ids) = setup(&inputs)?;
        setup_times.push(start.elapsed().as_secs_f64());
        let mut round = Vec::new();
        let start = Instant::now();
        for &(set, goal) in &inputs.stream {
            if start.elapsed() >= cfg.seconds / SETUP_REPEATS as u32 {
                break;
            }
            let t0 = Instant::now();
            let outcome = session.implies(ids[set], goal);
            round.push(ms(t0.elapsed()));
            match outcome {
                Ok(o) => answered.push((set, goal, o.value)),
                Err(_) => errors += 1,
            }
        }
        if round.len() == inputs.stream.len() {
            report.note("warning", "goal stream exhausted before the time ran out");
        }
        rounds.push(round);
    }
    for _ in 0..errors {
        report.check(false);
    }
    check_verdicts(&inputs, &answered, &mut report);

    // Each goal's latency is its least over the rounds: a host stall in
    // one round does not count, a slower program counts in every round.
    let common = rounds.iter().map(Vec::len).min().unwrap_or(0);
    let latencies: Vec<f64> = (0..common)
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect();
    let setup_s = median(&setup_times);
    let goals_per_s = latencies.len() as f64 / (latencies.iter().sum::<f64>() / 1e3);
    let p50 = median(&latencies);
    let p90 = quantile(&latencies, 0.9);
    report.note("goals", latencies.len());
    report.alias("implies_per_s", goals_per_s, "1/s");
    report.alias("implies_p50_ms", p50, "ms");
    report.alias("implies_p90_ms", p90, "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    report.metric("throughput_per_s", goals_per_s, "1/s");
    report.metric("p50_ms", p50, "ms");
    report.metric("tail_ms", p90, "ms");
    Ok(report)
}

/// Exact work counts of the traced replay, compared across runs by the
/// benchmark's own test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Row operations of the cold builds.
    pub build_row_ops: u64,
    /// Row operations of all goal extensions.
    pub extend_row_ops: u64,
    /// Arcs inserted by all goal extensions.
    pub extend_arcs: u64,
    /// Goals that extended `V`.
    pub extensions: u64,
    /// Session counters of the untraced replay of the same goals.
    pub session: Counters,
    /// The verdicts.
    pub verdicts: Vec<bool>,
}

/// The traced replay: the first goals of the stream, once through the
/// session (untraced, for the overhead baseline and session counters) and
/// once through [`ImplicationEngine::add_goal_terms`] then
/// [`ImplicationEngine::entails`] directly, with a span around each call.
pub fn traced_replay(
    inputs: &Inputs,
    goals: usize,
    tracer: &mut Tracer,
) -> Result<(Counts, u64), String> {
    let prefix = &inputs.stream[..goals.min(inputs.stream.len())];

    let mut session = Session::from_parts(
        inputs.universe.clone(),
        SymbolTable::new(),
        inputs.arena.clone(),
    );
    let mut ids = Vec::new();
    for pds in &inputs.sets {
        ids.push(session.register(pds).map_err(|e| e.to_string())?);
    }
    let start = Instant::now();
    for &id in &ids {
        session
            .implies(id, inputs.warm)
            .map_err(|e| e.to_string())?;
    }
    let mut session_verdicts = Vec::with_capacity(prefix.len());
    for &(set, goal) in prefix {
        let outcome = session.implies(ids[set], goal).map_err(|e| e.to_string())?;
        session_verdicts.push(outcome.value);
    }
    let untraced_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let session_counters = session.take_counters();
    drop(session);

    let arena = &inputs.arena;
    let mut counts = Counts {
        build_row_ops: 0,
        extend_row_ops: 0,
        extend_arcs: 0,
        extensions: 0,
        session: session_counters,
        verdicts: Vec::with_capacity(prefix.len()),
    };
    let mut engines = Vec::with_capacity(inputs.sets.len());
    for (i, pds) in inputs.sets.iter().enumerate() {
        tracer.set_item(i as u64);
        let root = tracer.enter("bench.build");
        let mut engine = tracer.leaf("lattice.build", || ImplicationEngine::new(arena, pds));
        tracer.leaf("lattice.extend", || {
            engine.add_goal_terms(arena, &[inputs.warm.lhs, inputs.warm.rhs])
        });
        tracer.exit(root);
        counts.build_row_ops += engine.row_ops() as u64;
        engines.push(engine);
    }
    for (i, &(set, goal)) in prefix.iter().enumerate() {
        tracer.set_item(1_000 + i as u64);
        let engine = &mut engines[set];
        let (ops, arcs) = (engine.row_ops(), engine.rule_firings());
        let root = tracer.enter("bench.goal");
        let added = tracer.leaf("lattice.extend", || {
            engine.add_goal_terms(arena, &[goal.lhs, goal.rhs])
        });
        let verdict = tracer.leaf("lattice.query", || engine.entails(goal));
        tracer.exit(root);
        if added > 0 {
            counts.extensions += 1;
            counts.extend_row_ops += (engine.row_ops() - ops) as u64;
            counts.extend_arcs += (engine.rule_firings() - arcs) as u64;
        }
        counts
            .verdicts
            .push(verdict.ok_or("goal outside V after extension")?);
    }
    if counts.verdicts != session_verdicts {
        return Err("traced replay and session disagree on a verdict".to_owned());
    }
    Ok((counts, untraced_ns))
}

fn run_traced(cfg: &Config, inputs: &Inputs) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let (counts, untraced_ns) = traced_replay(inputs, sizes(cfg.scale).traced_goals, &mut tracer)?;
    // The replay fails unless every traced verdict equals the session's.
    for _ in &counts.verdicts {
        report.check(true);
    }

    let builds = tracer.durations_ms("lattice.build");
    let extends: Vec<f64> = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "lattice.extend" && s.item >= 1_000)
        .map(|(_, s)| s.duration_ns() as f64 / 1e6)
        .collect();
    let ext = counts.extensions.max(1) as f64;
    report.metric("lattice.build_ms", mean(&builds), "ms");
    report.metric(
        "lattice.build_row_ops",
        counts.build_row_ops as f64 / builds.len().max(1) as f64,
        "count",
    );
    // Mean over the goals that extended V; repeats extend nothing.
    report.metric("lattice.extend_ms", extends.iter().sum::<f64>() / ext, "ms");
    report.metric(
        "lattice.extend_row_ops",
        counts.extend_row_ops as f64 / ext,
        "count",
    );
    report.metric(
        "lattice.extend_arcs",
        counts.extend_arcs as f64 / ext,
        "count",
    );
    report.metric(
        "lattice.extend_yield",
        ratio(counts.extend_arcs as f64, counts.extend_row_ops as f64),
        "arcs/op",
    );
    report.metric(
        "lattice.query_us",
        mean(&tracer.durations_ms("lattice.query")) * 1e3,
        "us",
    );
    let c = counts.session;
    report.metric(
        "session.engine_hit_ratio",
        ratio(
            c.engine_hits as f64,
            (c.engine_hits + c.engine_misses) as f64,
        ),
        "frac",
    );
    report.metric("session.rule_firings", c.rule_firings as f64, "count");
    report.metric("session.row_visits", c.row_visits as f64, "count");
    report.note("goals", counts.verdicts.len());
    report.note("extensions", counts.extensions);
    crate::report_trace(&mut report, &tracer, tracer.root_ns(), untraced_ns, cfg)?;
    Ok(report)
}
