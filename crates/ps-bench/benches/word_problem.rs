//! Experiment E8 — the cached implication engine for algorithm `ALG`.
//!
//! Two questions, both on the random word-problem workload (one constraint
//! set `E`, a batch of goal equations):
//!
//! * **Engine vs. reference** on a single goal: the bitset-row
//!   `ImplicationEngine` (through the one-shot `word_problem::entails`)
//!   against the paper's literal fixpoint (`DerivedOrder`).
//! * **Build-once-query-many vs. rebuild-per-goal** (the ablation behind
//!   the ROADMAP's "ALG is the hot kernel" claim): one engine built per
//!   constraint set and extended incrementally across the goal batch,
//!   against one fresh engine per goal.  The companion counter test in
//!   `ps-bench/src/lib.rs` asserts the same advantage by rule firings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_bench::random_word_problem_workload;
use ps_lattice::{word_problem, DerivedOrder, ImplicationEngine};
use std::time::Duration;

fn bench_single_goal_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("E8_word_problem/single_goal");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for num_pds in [4usize, 8, 16, 32] {
        let w = random_word_problem_workload(6, num_pds, 6, 1, 4, 42);
        let goal = w.goals[0];
        group.bench_with_input(BenchmarkId::new("naive", num_pds), &num_pds, |b, _| {
            b.iter(|| {
                DerivedOrder::build(&w.arena, &w.equations, &[goal.lhs, goal.rhs]).entails(goal)
            })
        });
        group.bench_with_input(BenchmarkId::new("engine", num_pds), &num_pds, |b, _| {
            b.iter(|| word_problem::entails(&w.arena, &w.equations, goal))
        });
    }
    group.finish();
}

fn bench_build_once_vs_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("E8_word_problem/goal_batch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    for num_goals in [4usize, 16, 64] {
        let w = random_word_problem_workload(6, 8, 6, num_goals, 3, 7);
        group.bench_with_input(
            BenchmarkId::new("engine_build_once", num_goals),
            &num_goals,
            |b, _| {
                b.iter(|| {
                    let mut engine = ImplicationEngine::new(&w.arena, &w.equations);
                    engine.entails_many(&w.arena, &w.goals)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("rebuild_per_goal", num_goals),
            &num_goals,
            |b, _| {
                b.iter(|| {
                    w.goals
                        .iter()
                        .map(|&goal| word_problem::entails(&w.arena, &w.equations, goal))
                        .collect::<Vec<bool>>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_goal_strategies,
    bench_build_once_vs_rebuild
);
criterion_main!(benches);
