//! Experiment E1 — Theorem 9: the implication problem for PDs is solvable in
//! polynomial time.
//!
//! Sweeps the number of attributes for three workload families (FPD chains,
//! mixed product/sum grids, random PD sets) and measures algorithm ALG as
//! the production `ImplicationEngine` (through the one-shot
//! `word_problem::entails`) and as the paper's literal fixpoint
//! (`DerivedOrder`).  The paper claims a straightforward O(n⁴) bound; the
//! reproduced shape is "low-degree polynomial growth" for both.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_bench::{fpd_chain, mixed_pd_grid, random_pd_set};
use ps_lattice::{word_problem, DerivedOrder, Equation, TermArena};
use std::time::Duration;

/// The naive-fixpoint reference verdict on one goal.
fn naive(arena: &TermArena, equations: &[Equation], goal: Equation) -> Option<bool> {
    DerivedOrder::build(arena, equations, &[goal.lhs, goal.rhs]).entails(goal)
}

fn bench_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("E1_implication/fpd_chain");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for n in [8usize, 16, 32, 64, 128] {
        let workload = fpd_chain(n);
        group.bench_with_input(BenchmarkId::new("engine", n), &n, |b, _| {
            b.iter(|| word_problem::entails(&workload.arena, &workload.equations, workload.goal))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| naive(&workload.arena, &workload.equations, workload.goal))
        });
    }
    group.finish();
}

fn bench_grids(c: &mut Criterion) {
    let mut group = c.benchmark_group("E1_implication/mixed_grid");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for n in [8usize, 16, 32, 64] {
        let workload = mixed_pd_grid(n);
        group.bench_with_input(BenchmarkId::new("engine", n), &n, |b, _| {
            b.iter(|| word_problem::entails(&workload.arena, &workload.equations, workload.goal))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| naive(&workload.arena, &workload.equations, workload.goal))
        });
    }
    group.finish();
}

fn bench_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("E1_implication/random_pds");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for num_pds in [4usize, 8, 16, 32] {
        let workload = random_pd_set(6, num_pds, 6, 42);
        group.bench_with_input(BenchmarkId::new("engine", num_pds), &num_pds, |b, _| {
            b.iter(|| word_problem::entails(&workload.arena, &workload.equations, workload.goal))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chains, bench_grids, bench_random);
criterion_main!(benches);
