//! Experiment E5 — Theorems 6, 7 and 12: consistency of a database with a set
//! of dependencies under the weak instance assumption, in polynomial time.
//!
//! Sweeps database size (relations × rows) and measures: (a) the Honeyman
//! chase on the FD image of the constraints, (b) the full Section 6.2
//! pipeline for arbitrary PDs (normalize → close → chase), and (c) the
//! Theorem 6a bridge that also materializes the witnessing interpretation.
//! The reproduced shape: all three grow polynomially with the number of
//! tuples; the pipeline's overhead over the plain chase is the closure
//! computation, which depends only on the constraint set.
//!
//! A second group runs the Theorem 1 lattice-closure fixture on the flat
//! partition kernel, comparing the incremental frontier saturation against
//! full recombination (the wall-clock companion of the operation-counter
//! test in `ps_bench`'s unit tests).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_bench::{consistency_workload, lattice_closure_generators};
use ps_core::consistency::consistent_with_pds;
use ps_core::weak_bridge::satisfiable_with_fpds;
use ps_core::Fpd;
use ps_partition::{close_under_ops, close_under_ops_naive};
use ps_relation::consistency::weak_instance_consistent;
use ps_relation::Fd;
use std::time::Duration;

fn bench_consistency(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5_consistency");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for (relations, rows) in [(3usize, 16usize), (4, 64), (5, 128), (6, 256)] {
        let tuples = relations * rows;
        let workload = consistency_workload(relations, rows, 31);
        let fds: Vec<Fd> = workload.fpds.iter().map(Fpd::to_fd).collect();

        group.bench_with_input(
            BenchmarkId::new("honeyman_chase", tuples),
            &tuples,
            |b, _| {
                b.iter(|| {
                    let mut symbols = workload.symbols.clone();
                    weak_instance_consistent(&workload.database, &fds, &mut symbols)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("theorem12_pipeline", tuples),
            &tuples,
            |b, _| {
                b.iter(|| {
                    let mut arena = workload.arena.clone();
                    let mut universe = workload.universe.clone();
                    let mut symbols = workload.symbols.clone();
                    consistent_with_pds(
                        &workload.database,
                        &workload.pds,
                        &mut arena,
                        &mut universe,
                        &mut symbols,
                    )
                    .unwrap()
                    .consistent
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("theorem6a_with_witness", tuples),
            &tuples,
            |b, _| {
                b.iter(|| {
                    let mut symbols = workload.symbols.clone();
                    satisfiable_with_fpds(&workload.database, &workload.fpds, &mut symbols)
                        .unwrap()
                        .satisfiable
                })
            },
        );
    }
    group.finish();
}

fn bench_lattice_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5_consistency/lattice_closure");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for population in [6u32, 8, 10] {
        let generators = lattice_closure_generators(population, 3, 17);
        group.bench_with_input(
            BenchmarkId::new("incremental_frontier", population),
            &population,
            |b, _| b.iter(|| close_under_ops(&generators, 1_000_000)),
        );
        group.bench_with_input(
            BenchmarkId::new("full_recombination", population),
            &population,
            |b, _| b.iter(|| close_under_ops_naive(&generators, 1_000_000)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_consistency, bench_lattice_closure);
criterion_main!(benches);
