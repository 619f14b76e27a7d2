//! Experiment E5 (chase engines) — the indexed, worklist-driven chase
//! against the full-rescan reference.
//!
//! Two sweeps:
//!
//! * `propagation_chain` — the fixture where discovered equalities must
//!   travel across every chain level: full rescans pay one global round per
//!   level, the worklist engine revisits only dirtied rows.  This is the
//!   wall-clock companion of the operation-counter test in `ps_bench`'s
//!   unit tests.
//! * `random_db` — mixed random databases (consistent and inconsistent),
//!   the shape the Section 6.2 pipeline feeds the chase.
//!
//! A third group measures the columnar kernel's hash-grouped
//! `satisfies_fd` / `satisfies_mvd` passes on growing relations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_bench::{chase_chain_workload, random_chase_workload, ChaseWorkload};
use ps_relation::{chase_tableau_naive, chase_tableau_with, Mvd, Tableau};
use std::time::Duration;

/// Pads the workload's database into a tableau and chases it with the
/// indexed engine (`naive == false`) or the full-rescan reference.
fn chase(workload: &ChaseWorkload, naive: bool) -> bool {
    let mut symbols = workload.symbols.clone();
    let attrs = workload.database.all_attributes();
    let tableau = Tableau::from_database(&workload.database, &attrs, &mut symbols);
    let outcome = if naive {
        chase_tableau_naive(&tableau, &workload.fds)
    } else {
        chase_tableau_with(&tableau, &workload.fds, &mut Default::default())
    };
    outcome.consistent
}

fn bench_chase_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5_chase/propagation_chain");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for (levels, rows) in [(4usize, 16usize), (6, 32), (8, 64)] {
        let tuples = levels * rows;
        let workload = chase_chain_workload(levels, rows);
        group.bench_with_input(
            BenchmarkId::new("indexed_worklist", tuples),
            &tuples,
            |b, _| b.iter(|| chase(&workload, false)),
        );
        group.bench_with_input(BenchmarkId::new("full_rescan", tuples), &tuples, |b, _| {
            b.iter(|| chase(&workload, true))
        });
    }
    group.finish();
}

fn bench_chase_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5_chase/random_db");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for (relations, rows) in [(2usize, 16usize), (3, 32), (4, 64)] {
        let tuples = relations * rows;
        let workload = random_chase_workload(6, relations, rows, 8, 3, 23);
        group.bench_with_input(
            BenchmarkId::new("indexed_worklist", tuples),
            &tuples,
            |b, _| b.iter(|| chase(&workload, false)),
        );
        group.bench_with_input(BenchmarkId::new("full_rescan", tuples), &tuples, |b, _| {
            b.iter(|| chase(&workload, true))
        });
    }
    group.finish();
}

fn bench_columnar_checks(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5_chase/columnar_checks");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for rows in [64usize, 256, 1024] {
        // One wide relation; the FD/MVD checks walk its columns.
        let workload = random_chase_workload(4, 1, rows, 16, 2, 41);
        let relation = &workload.database.relations()[0];
        let attrs: Vec<_> = relation.scheme().attrs().iter().collect();
        let mvd = Mvd::new(
            ps_base::AttrSet::singleton(attrs[0]),
            ps_base::AttrSet::singleton(attrs[1]),
        );
        group.bench_with_input(
            BenchmarkId::new("satisfies_all_fds", relation.len()),
            &rows,
            |b, _| b.iter(|| relation.satisfies_all_fds(&workload.fds)),
        );
        group.bench_with_input(
            BenchmarkId::new("satisfies_mvd", relation.len()),
            &rows,
            |b, _| b.iter(|| relation.satisfies_mvd(&mvd)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_chase_engines,
    bench_chase_random,
    bench_columnar_checks
);
criterion_main!(benches);
