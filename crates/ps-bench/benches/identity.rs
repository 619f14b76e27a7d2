//! Experiment E3 — Theorem 10: recognizing PD identities (PDs true in every
//! interpretation) is solvable in logarithmic space, in contrast to the
//! polynomial-time-complete general implication problem.
//!
//! Measures the free-lattice order check (both the memoized and the
//! constant-auxiliary-space variants) against running ALG with an empty
//! constraint set on the same goals.  The reproduced shape: the dedicated
//! identity check scales far better than the general algorithm as terms grow.
//!
//! A third group evaluates the same identities in a concrete random
//! partition interpretation through the flat partition kernel — an identity
//! must hold in every model, so this doubles as a semantic cross-check while
//! measuring kernel product/sum throughput on real expression trees.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_base::SymbolTable;
use ps_bench::{identity_workload, random_interpretation};
use ps_lattice::{free_order, word_problem};
use std::time::Duration;

fn bench_identity(c: &mut Criterion) {
    let mut group = c.benchmark_group("E3_identity");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for depth in [2usize, 4, 6, 8, 10] {
        let (_universe, arena, goal) = identity_workload(depth);
        // The workload really is an identity.
        assert!(free_order::is_identity(&arena, goal));

        group.bench_with_input(
            BenchmarkId::new("free_order_memoized", depth),
            &depth,
            |b, _| b.iter(|| free_order::is_identity(&arena, goal)),
        );
        group.bench_with_input(
            BenchmarkId::new("free_order_constant_space", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    free_order::leq_id_constant_space(&arena, goal.lhs, goal.rhs)
                        && free_order::leq_id_constant_space(&arena, goal.rhs, goal.lhs)
                })
            },
        );
        // ALG on the empty theory answers the same question but builds the
        // whole derived order over every subexpression.
        if depth <= 8 {
            group.bench_with_input(
                BenchmarkId::new("alg_empty_theory", depth),
                &depth,
                |b, _| b.iter(|| word_problem::entails(&arena, &[], goal)),
            );
        }
    }
    group.finish();
}

/// Evaluates the identity in a random partition model via the flat kernel:
/// both sides are partition expressions over the model's atomic partitions,
/// so each check exercises kernel products and sums along the term tree.
fn bench_identity_in_partition_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("E3_identity/partition_model");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for depth in [2usize, 4, 6] {
        let (mut universe, arena, goal) = identity_workload(depth);
        // identity_workload names its attributes A0..A3; interpreting them in
        // the same universe reuses those ids, over a shared population so the
        // flat kernel's aligned-population fast path is hit.
        let mut symbols = SymbolTable::new();
        let interpretation = random_interpretation(
            &mut universe,
            &mut symbols,
            &["A0", "A1", "A2", "A3"],
            256,
            16,
            depth as u64,
        );
        group.bench_with_input(
            BenchmarkId::new("flat_kernel_eval", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    // An identity holds in every partition interpretation.
                    assert!(interpretation.satisfies_pd(&arena, goal).unwrap());
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_identity, bench_identity_in_partition_model);
criterion_main!(benches);
