//! Acceptance tests for the trajectory subsystem: JSON round-tripping,
//! counter stability under re-runs, and the macro-scale chase counter
//! fixture.

use proptest::prelude::*;
use ps_bench::trajectory::{
    TrajectoryReport, WorkloadRecord, BENCH_ID, REQUIRED_PROCEDURES, SCHEMA_VERSION,
};
use ps_session::{Counters, Epoch};

/// JSON-stressing strings: the palette deliberately includes quotes,
/// backslashes, control characters and a non-ASCII scalar, all of which
/// the serializer must escape and the parser must restore.
fn arb_name() -> impl Strategy<Value = String> {
    const PALETTE: [char; 10] = ['a', 'Z', '0', '_', ' ', '"', '\\', '\n', '\t', '\u{e9}'];
    proptest::collection::vec(0usize..PALETTE.len(), 0..24)
        .prop_map(|ids| ids.into_iter().map(|i| PALETTE[i]).collect())
}

/// A workload record with every optional field exercised: the first draw
/// selects the procedure, `baseline` of zero means "no baseline", and the
/// outputs list is often empty.
fn arb_record() -> impl Strategy<Value = WorkloadRecord> {
    (
        (
            arb_name(),
            proptest::collection::vec((arb_name(), 0u64..1 << 40), 0..3),
        ),
        0usize..=REQUIRED_PROCEDURES.len(),
        (1u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        (
            0u64..1 << 40,
            0u64..1 << 40,
            0u64..1 << 40,
            0u64..1 << 40,
            0u64..1 << 40,
        ),
    )
        .prop_map(
            |((name, outputs), proc_idx, (scale, wall_ns, baseline), c)| {
                let procedure = REQUIRED_PROCEDURES
                    .get(proc_idx)
                    .copied()
                    .unwrap_or("hot_path")
                    .to_owned();
                let baseline_wall_ns = (baseline > 0).then_some(baseline);
                let speedup = baseline_wall_ns.map(|b| b as f64 / wall_ns.max(1) as f64);
                WorkloadRecord {
                    name,
                    procedure,
                    scale,
                    wall_ns,
                    throughput: scale as f64 / (wall_ns.max(1) as f64 / 1e9),
                    counters: Counters {
                        rule_firings: c.0,
                        row_visits: c.1,
                        engine_hits: c.2,
                        engine_misses: c.3,
                        epoch: Epoch::new(c.4),
                    },
                    baseline_wall_ns,
                    speedup,
                    outputs,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every representable report survives serialize → parse unchanged
    /// (field-for-field, including escaped strings and optional fields).
    #[test]
    fn report_round_trips_through_json(
        workloads in proptest::collection::vec(arb_record(), 0..6),
        toolchain in arb_name(),
        commit in arb_name(),
        smoke in 0usize..2,
        seed in 0u64..1 << 50,
    ) {
        let report = TrajectoryReport {
            schema_version: SCHEMA_VERSION,
            bench_id: BENCH_ID.to_owned(),
            toolchain,
            commit,
            smoke: smoke == 1,
            seed,
            workloads,
        };
        let text = report.to_text();
        let parsed = TrajectoryReport::from_text(&text).expect("serializer output parses");
        prop_assert_eq!(&parsed, &report);
        // Determinism: re-serializing reproduces the bytes.
        prop_assert_eq!(parsed.to_text(), text);
    }
}

/// The suite's counters are a pure function of `(smoke, seed)`: two runs
/// agree on every counter and scale (wall-clock and throughput are
/// explicitly not compared), and the comparator finds no regressions
/// between them.
#[test]
fn smoke_suite_counters_are_stable_under_rerun() {
    let a = ps_bench::trajectory::run_suite(true, 42);
    let b = ps_bench::trajectory::run_suite(true, 42);
    a.validate().expect("smoke report is schema-valid");
    assert_eq!(a.workloads.len(), b.workloads.len());
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        assert_eq!(wa.name, wb.name);
        assert_eq!(wa.scale, wb.scale, "workload {}", wa.name);
        assert_eq!(wa.counters, wb.counters, "workload {}", wa.name);
    }
    // Counters-only: the service-loopback legs wait on real TCP round
    // trips, whose debug-mode wall-clock can jitter far beyond any fixed
    // tolerance under parallel test load.
    assert!(
        TrajectoryReport::compare(&a, &b, f64::INFINITY).is_empty(),
        "identical-seed runs must not regress each other's counters"
    );
}

/// The macro chase acceptance gate at 10⁵ rows: on the propagation-chain
/// fixture the indexed worklist engine does strictly fewer `row_visits`
/// than the full-rescan reference while agreeing on verdict and merges.
#[test]
fn worklist_chase_beats_naive_at_1e5_rows() {
    let w = ps_bench::chase_chain_workload(4, 25_000);
    let rows: usize = w.database.relations().iter().map(|r| r.len()).sum();
    assert_eq!(rows, 100_000, "the fixture must hold 1e5 tuples");

    let mut symbols = w.symbols.clone();
    let attrs = w.database.all_attributes();
    let tableau = ps_relation::Tableau::from_database(&w.database, &attrs, &mut symbols);
    let indexed = ps_relation::chase_tableau_with(&tableau, &w.fds, &mut Default::default());
    let naive = ps_relation::chase_tableau_naive(&tableau, &w.fds);

    assert!(indexed.consistent && naive.consistent);
    assert_eq!(indexed.steps, naive.steps, "the FD chase is confluent");
    assert!(
        indexed.row_visits < naive.row_visits,
        "worklist must do strictly fewer row visits at 1e5 rows \
         ({} vs {})",
        indexed.row_visits,
        naive.row_visits
    );
}
