//! Experiment E2 — Section 5.3: FD implication is the uniform word problem
//! for idempotent commutative semigroups, and embeds into the lattice word
//! problem.
//!
//! Measures the same implication question decided three ways: the
//! Beeri–Bernstein attribute closure, the semigroup word problem, and the
//! full lattice algorithm ALG.  The reproduced shape: all three agree, the
//! dedicated closure is fastest, the semigroup route is close, and the
//! general lattice route pays a visible (polynomial) premium.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_bench::random_fd_workload;
use ps_core::fd_bridge::{fd_implies_via_lattice, fd_implies_via_semigroup};
use ps_relation::fd_closure;
use std::time::Duration;

fn bench_fd_routes(c: &mut Criterion) {
    let mut group = c.benchmark_group("E2_fd_implication");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for n in [8usize, 16, 32, 64, 128] {
        let workload = random_fd_workload(n, n / 2, 7);
        // Sanity: the three routes agree before we time them.
        let expected = fd_closure::implies(&workload.fds, &workload.goal);
        assert!(expected);
        assert_eq!(
            expected,
            fd_implies_via_semigroup(&workload.fds, &workload.goal)
        );
        if n <= 32 {
            assert_eq!(
                expected,
                fd_implies_via_lattice(&workload.fds, &workload.goal)
            );
        }

        group.bench_with_input(BenchmarkId::new("attribute_closure", n), &n, |b, _| {
            b.iter(|| fd_closure::implies(&workload.fds, &workload.goal))
        });
        group.bench_with_input(BenchmarkId::new("semigroup_word_problem", n), &n, |b, _| {
            b.iter(|| fd_implies_via_semigroup(&workload.fds, &workload.goal))
        });
        if n <= 32 {
            group.bench_with_input(BenchmarkId::new("lattice_word_problem", n), &n, |b, _| {
                b.iter(|| fd_implies_via_lattice(&workload.fds, &workload.goal))
            });
        }
    }
    group.finish();
}

fn bench_closure_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("E2_attribute_closure");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for n in [16usize, 64, 256] {
        let workload = random_fd_workload(n, n, 11);
        let start = ps_base::AttrSet::singleton(workload.attrs[0]);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| fd_closure::attribute_closure_naive(&workload.fds, &start))
        });
        group.bench_with_input(BenchmarkId::new("linear", n), &n, |b, _| {
            b.iter(|| fd_closure::attribute_closure(&workload.fds, &start))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fd_routes, bench_closure_variants);
criterion_main!(benches);
