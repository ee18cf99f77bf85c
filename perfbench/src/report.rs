//! Metric assembly and the result line.
//!
//! Host metrics use the benchmark's own clock; simulated metrics use the
//! modelled system's time and repeat exactly for a seed.

use hs_obs::track;
use hs_workload::percentile;

use crate::spans::{totals, Recorded, Totals};
use crate::workloads::{ObsCounts, Outcome, PlannerWork};

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The end-to-end metrics of the untraced run: set-up samples in
/// seconds, `(requests, host seconds)` of every timed unit, peak resident
/// memory in MiB.
pub fn end_to_end(
    out: &Outcome,
    setup_s: &[f64],
    timed: &[(u64, f64)],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let wall: Vec<f64> = timed.iter().map(|&(_, t)| t).collect();
    let rate: Vec<f64> = timed.iter().map(|&(n, t)| n as f64 / t).collect();
    let s = &out.served;
    vec![
        m("setup_s", median(setup_s), "s"),
        m("wall_s", median(&wall), "s"),
        m("sim_req_per_s", median(&rate), "1/s"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
        m("ttft_p50_s", percentile(&s.ttft_s, 50.0), "s"),
        m("ttft_p99_s", percentile(&s.ttft_s, 99.0), "s"),
        m("ttft_e2e_p99_s", percentile(&s.ttft_e2e_s, 99.0), "s"),
        m("tpot_p50_s", percentile(&s.tpot_s, 50.0), "s"),
        m("tpot_p99_s", percentile(&s.tpot_s, 99.0), "s"),
        m("sla_attainment", s.sla_attainment(), "ratio"),
        m("max_rate_rps", out.max_rate_rps, "req/s"),
    ]
}

/// Inputs of the per-layer metrics: one traced operation, and the obs
/// run of the same operation.
pub struct LayerInputs<'a> {
    /// Spans of the traced operation, set-up included.
    pub spans: &'a Recorded,
    /// The traced operation's outcome.
    pub out: &'a Outcome,
    /// Planner work of its set-up.
    pub planner: PlannerWork,
    /// Tracer records of the obs run.
    pub obs: &'a ObsCounts,
    /// Host seconds of the obs run's operation.
    pub obs_run_s: f64,
    /// Host seconds of the untraced operation.
    pub untraced_run_s: f64,
    /// Peak resident memory of the obs run, MiB.
    pub obs_peak_rss_mb: f64,
}

/// Scheduler methods reported one by one.
const REPORTED_METHODS: [&str; 5] = [
    "choose",
    "choose_path",
    "choose_decode",
    "on_monitor",
    "on_fault",
];

/// Per-layer metrics, named by module.
pub fn per_layer(i: &LayerInputs<'_>) -> Vec<Metric> {
    let t = totals(i.spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let secs = |x: Totals| x.total_ns as f64 * 1e-9;
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let run = get("cluster.run");
    let point_setup_ns: u64 = [
        "topology.all_pairs",
        "scheduler.new",
        "workload.trace_gen",
        "cluster.new",
    ]
    .iter()
    .map(|n| get(n).total_ns)
    .sum();
    let c = &i.out.counts;
    let mut v = vec![
        m("planner.deploy_s", secs(get("planner.deploy")), "s"),
        m("planner.lat_evals", i.planner.lat_evals as f64, "count"),
        m(
            "planner.perturb_iters",
            i.planner.perturb_iters as f64,
            "count",
        ),
        m("planner.candidates", i.planner.candidates as f64, "count"),
        m("topology.all_pairs_s", secs(get("topology.all_pairs")), "s"),
        m(
            "topology.all_pairs_calls",
            get("topology.all_pairs").calls as f64,
            "count",
        ),
        m("workload.trace_gen_s", secs(get("workload.trace_gen")), "s"),
        m("cluster.new_s", secs(get("cluster.new")), "s"),
        m("scheduler.new_s", secs(get("scheduler.new")), "s"),
        m("sweep.points", i.out.points as f64, "count"),
        m(
            "sweep.point_setup_share",
            per(point_setup_ns, point_setup_ns + run.total_ns),
            "ratio",
        ),
        m(
            "sweep.max_rate_vs_best_baseline",
            i.out.vs_best_baseline.unwrap_or(0.0),
            "ratio",
        ),
    ];
    for method in REPORTED_METHODS {
        let s = get(&format!("scheduler.{method}"));
        v.push(m(
            format!("scheduler.{method}.calls"),
            s.calls as f64,
            "count",
        ));
        v.push(m(
            format!("scheduler.{method}.ns_per_call"),
            per(s.total_ns, s.calls),
            "ns",
        ));
    }
    // Everything `ClusterSim::run` calls out to is a strategy method, so
    // the time under it that is not its own is exactly its scheduler time.
    let sched_ns = run.total_ns - run.self_ns;
    let s = &i.out.served;
    v.extend([
        m(
            "cluster.incomplete_frac",
            per(s.arrived - s.completed, s.arrived),
            "ratio",
        ),
        m("scheduler.share", per(sched_ns, run.total_ns), "ratio"),
        m("cluster.run_s", secs(run), "s"),
        m("cluster.self_s", run.self_ns as f64 * 1e-9, "s"),
        m(
            "cluster.self_ns_per_request",
            per(run.self_ns, i.out.simulated_requests),
            "ns",
        ),
        m(
            "cluster.self_ns_per_flow",
            per(run.self_ns, i.obs.flows_started),
            "ns",
        ),
        m("simnet.flows_started", i.obs.flows_started as f64, "count"),
        m(
            "simnet.link_scale_events",
            i.obs.link_scale_events as f64,
            "count",
        ),
        m("collective.ina_ops", c.ina_ops as f64, "count"),
        m("collective.ring_ops", c.ring_ops as f64, "count"),
        m("switch.ina_fallbacks", c.ina_fallbacks as f64, "count"),
        m("switch.ina_failovers", c.ina_failovers as f64, "count"),
        m("kv.transfers", c.kv_transfers as f64, "count"),
        m("kv.stripes", c.kv_stripes as f64, "count"),
        m("kv.retries", c.kv_retries as f64, "count"),
        m("kv.deferrals", c.kv_deferrals as f64, "count"),
        m("kv.est_err_mean_s", c.kv_est_err_mean_s(), "s"),
        m("obs.records", i.obs.records as f64, "count"),
    ]);
    for pid in track::ALL {
        let name = track::name(pid);
        let n = i.obs.by_track.get(name).copied().unwrap_or(0);
        v.push(m(format!("obs.records.{name}"), n as f64, "count"));
    }
    v.extend([
        m("obs.run_s", i.obs_run_s, "s"),
        m(
            "obs.overhead_ratio",
            i.obs_run_s / i.untraced_run_s,
            "ratio",
        ),
        m("obs.peak_rss_mb", i.obs_peak_rss_mb, "MiB"),
    ]);
    v
}

/// Per-metric median over several sets of the same metrics.
pub fn median_by_name(sets: &[Vec<Metric>]) -> Vec<Metric> {
    let first = sets.first().expect("at least one set");
    first
        .iter()
        .enumerate()
        .map(|(k, met)| {
            let xs: Vec<f64> = sets.iter().map(|s| s[k].value).collect();
            m(met.name.clone(), median(&xs), met.unit)
        })
        .collect()
}

fn num(x: f64) -> String {
    if x.is_finite() {
        // Shortest representation that reads back to the same f64.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
