//! The benchmark's own checks: exact work counts repeat across two runs
//! with one seed, every workload answers correctly at test size, and the
//! metric lists agree with `BENCHMARK.json`.

use std::path::PathBuf;
use std::time::Duration;

use perfbench::trace::Tracer;
use perfbench::{
    consistency, implication, service, Config, Scale, END_TO_END, PER_LAYER, WORKLOADS,
};
use ps_base::json::Json;

const SEED: u64 = 7;

#[test]
fn implication_counts_repeat_exactly() {
    let run = || {
        let inputs = implication::inputs(SEED, Scale::Small);
        implication::traced_replay(&inputs, 20, &mut Tracer::new())
            .expect("replay succeeds")
            .0
    };
    let first = run();
    assert!(first.extensions > 0 && first.extend_row_ops > 0);
    assert_eq!(first, run());
}

#[test]
fn consistency_counts_repeat_exactly() {
    let run = || {
        let inputs = consistency::inputs(SEED, Scale::Small);
        consistency::traced_replay(&inputs, 3, &mut Tracer::new())
            .expect("replay succeeds")
            .counts
    };
    let first = run();
    assert!(
        first.repairs > 0 && first.repair_rows_added > 0,
        "{first:?}"
    );
    assert!(first.verdicts.contains(&true) && first.verdicts.contains(&false));
    assert_eq!(first, run());
}

#[test]
fn service_counts_repeat_exactly() {
    let run = || {
        let clients = service::clients(SEED, 1.0, Scale::Small);
        service::traced_replay(&clients, &mut Tracer::new())
            .expect("replay succeeds")
            .0
    };
    let first = run();
    assert!(first.freezes > 0 && first.frames > 0);
    assert_eq!(first, run());
}

#[test]
fn every_workload_answers_correctly_and_reports_every_metric() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                workload: workload.to_owned(),
                seed: SEED,
                seconds: Duration::from_millis(300),
                trace,
                scale: Scale::Small,
                trace_dir: std::env::temp_dir().join("perfbench-test-traces"),
            };
            let report = perfbench::run(&cfg).expect("workload runs");
            assert!(report.correct(), "{workload} trace={trace}: {report:?}");
            let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{workload} trace={trace}");
        }
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
