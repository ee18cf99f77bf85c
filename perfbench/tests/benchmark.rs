//! The command prints exactly the metrics `BENCHMARK.json` lists.

use hs_perfbench::report::{end_to_end, per_layer, result_line, LayerInputs};
use hs_perfbench::spans::Recorded;
use hs_perfbench::workloads::{ObsCounts, Outcome, PlannerWork, Served, WorkCounts};

fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let doc = serde_json::from_str(&text).expect("valid JSON");
    doc.get(section)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let out = Outcome {
        fingerprint: 0,
        served: Served::default(),
        max_rate_rps: 1.0,
        vs_best_baseline: None,
        max_rates: Vec::new(),
        attempted: 1,
        failed: 0,
        timed: vec![(1, 1.0)],
        simulated_requests: 1,
        points: 1,
        counts: WorkCounts::default(),
    };
    let names = |ms: Vec<hs_perfbench::report::Metric>| -> Vec<(String, String)> {
        ms.into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect()
    };
    let e2e = end_to_end(&out, &[1.0], &out.timed, 1.0);
    assert_eq!(names(e2e.clone()), listed("end_to_end"));
    let layers = per_layer(&LayerInputs {
        spans: &Recorded::default(),
        out: &out,
        planner: PlannerWork::default(),
        obs: &ObsCounts::default(),
        obs_run_s: 1.0,
        untraced_run_s: 1.0,
        obs_peak_rss_mb: 1.0,
    });
    assert_eq!(names(layers), listed("per_layer"));
    let line = result_line(true, 1, 0, &e2e);
    let parsed = serde_json::from_str(&line).expect("result line is JSON");
    assert!(parsed
        .get("metrics")
        .and_then(|m| m.get("setup_s"))
        .is_some());
}
