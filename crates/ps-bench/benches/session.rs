//! Experiment E9 — the session facade's engine cache.
//!
//! The `Session` promises that registering a constraint set once and
//! querying it many times amortizes the ALG engine build across the whole
//! query stream.  This bench measures that promise against the two
//! substrate baselines on the random word-problem workload:
//!
//! * **warm session** — one `Session`, one `register`, `implies_many` over
//!   the goal batch (build once, extend incrementally per goal);
//! * **free function per goal** — `pd_implies` per goal, paying a full
//!   engine build every time (the pre-session call shape);
//! * **cold session per batch** — a fresh `Session` per iteration,
//!   including registration, so the engine build is inside the loop.
//!
//! The companion fixture in `tests/session_props.rs` pins the same
//! advantage by the strategy-independent `rule_firings` counter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_base::SymbolTable;
use ps_bench::random_word_problem_workload;
use ps_core::implication::pd_implies;
use ps_session::Session;
use std::time::Duration;

fn bench_session_vs_free_functions(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9_session/goal_batch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    for num_goals in [4usize, 16, 64] {
        // One workload for the free-function baseline, an identical twin
        // (same seed, deterministic generator) to move into the session.
        let make = || random_word_problem_workload(6, 8, 6, num_goals, 3, 7);
        let w = make();
        let twin = make();
        let mut session = Session::from_parts(twin.universe, SymbolTable::new(), twin.arena);
        let set = session.register(&twin.equations).expect("fresh equations");
        // Prime the cache so the measured path is the steady state.
        session
            .implies_many(set, &twin.goals)
            .expect("goals belong to this session");

        group.bench_with_input(
            BenchmarkId::new("session_warm", num_goals),
            &num_goals,
            |b, _| {
                b.iter(|| {
                    session
                        .implies_many(set, &twin.goals)
                        .expect("cached set")
                        .value
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("free_per_goal", num_goals),
            &num_goals,
            |b, _| {
                b.iter(|| {
                    w.goals
                        .iter()
                        .map(|&goal| pd_implies(&w.arena, &w.equations, goal))
                        .collect::<Vec<bool>>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("session_cold", num_goals),
            &num_goals,
            |b, _| {
                b.iter(|| {
                    let cold = make();
                    let mut session =
                        Session::from_parts(cold.universe, SymbolTable::new(), cold.arena);
                    let set = session.register(&cold.equations).expect("fresh equations");
                    session
                        .implies_many(set, &cold.goals)
                        .expect("goals belong to this session")
                        .value
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_session_vs_free_functions);
criterion_main!(benches);
