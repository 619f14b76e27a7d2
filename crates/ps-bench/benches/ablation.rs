//! Experiment E7 — ablations of the implementation choices called out in
//! `DESIGN.md`.
//!
//! * ALG saturation: the paper's literal repeat-until-stable loop
//!   (`DerivedOrder`) versus the word-parallel `ImplicationEngine` behind
//!   `word_problem::entails` (same closure, different constants and
//!   growth).
//! * Partition sum: the paper's chaining definition evaluated literally
//!   versus the union–find implementation.
//! * Free-lattice order: memoized recursion versus the constant-auxiliary-
//!   space variant used for the Theorem 10 logspace argument.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_bench::{fpd_chain, identity_workload, random_partitions};
use ps_lattice::{free_order, word_problem, DerivedOrder};
use std::time::Duration;

fn bench_alg_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7_ablation/alg_strategy");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    for n in [16usize, 32, 64] {
        let workload = fpd_chain(n);
        let goal = workload.goal;
        group.bench_with_input(BenchmarkId::new("naive_fixpoint", n), &n, |b, _| {
            b.iter(|| {
                DerivedOrder::build(&workload.arena, &workload.equations, &[goal.lhs, goal.rhs])
                    .entails(goal)
            })
        });
        group.bench_with_input(BenchmarkId::new("engine", n), &n, |b, _| {
            b.iter(|| word_problem::entails(&workload.arena, &workload.equations, goal))
        });
    }
    group.finish();
}

fn bench_partition_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7_ablation/partition_sum");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    for population in [64u32, 256, 1024, 4096] {
        let parts = random_partitions(population, (population / 8).max(2) as usize, 2, 3);
        let (left, right) = (&parts[0], &parts[1]);
        group.bench_with_input(
            BenchmarkId::new("union_find", population),
            &population,
            |b, _| b.iter(|| left.sum(right)),
        );
        group.bench_with_input(
            BenchmarkId::new("chaining_definition", population),
            &population,
            |b, _| b.iter(|| left.sum_by_chaining(right)),
        );
        // Product for scale comparison.
        group.bench_with_input(
            BenchmarkId::new("product", population),
            &population,
            |b, _| b.iter(|| left.product(right)),
        );
    }
    group.finish();
}

/// Bulk entry points versus pairwise folds: `product_many`/`sum_many` fold
/// k operands through one reused accumulator / one shared union–find, versus
/// the k − 1 freshly allocated intermediates of the naive chain.
fn bench_bulk_partition_ops(c: &mut Criterion) {
    use ps_partition::Partition;

    let mut group = c.benchmark_group("E7_ablation/bulk_ops");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    for population in [256u32, 1024, 4096] {
        let parts = random_partitions(population, (population / 8).max(2) as usize, 6, 5);
        let refs: Vec<&Partition> = parts.iter().collect();
        group.bench_with_input(
            BenchmarkId::new("product_many", population),
            &population,
            |b, _| b.iter(|| Partition::product_many(refs.iter().copied())),
        );
        group.bench_with_input(
            BenchmarkId::new("product_pairwise", population),
            &population,
            |b, _| {
                b.iter(|| {
                    parts[1..]
                        .iter()
                        .fold(parts[0].clone(), |acc, p| acc.product(p))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sum_many", population),
            &population,
            |b, _| b.iter(|| Partition::sum_many(refs.iter().copied())),
        );
        group.bench_with_input(
            BenchmarkId::new("sum_pairwise", population),
            &population,
            |b, _| {
                b.iter(|| {
                    parts[1..]
                        .iter()
                        .fold(parts[0].clone(), |acc, p| acc.sum(p))
                })
            },
        );
    }
    group.finish();
}

fn bench_free_order_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7_ablation/free_order");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for depth in [4usize, 6, 8] {
        let (_universe, arena, goal) = identity_workload(depth);
        group.bench_with_input(BenchmarkId::new("memoized", depth), &depth, |b, _| {
            b.iter(|| free_order::leq_id(&arena, goal.lhs, goal.rhs))
        });
        group.bench_with_input(BenchmarkId::new("constant_space", depth), &depth, |b, _| {
            b.iter(|| free_order::leq_id_constant_space(&arena, goal.lhs, goal.rhs))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_alg_strategies,
    bench_partition_sum,
    bench_bulk_partition_ops,
    bench_free_order_variants
);
criterion_main!(benches);
