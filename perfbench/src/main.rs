//! The benchmark command.
//!
//! ```text
//! hs-perfbench --workload <kv_fleet|testbed_contended|sla_sweep>
//!              --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` it sets the workload up and runs it repeatedly for
//! about `--seconds` seconds, untraced, and prints the end-to-end
//! metrics. With `--trace 1` it runs the workload once with the
//! repository's recording tracer attached (the obs run), then alternates
//! untraced and span-traced runs, and prints the per-layer metrics. Every
//! run's report fingerprint must match; any failed output check prints
//! `"correct": false` and exits with code 1. The last line of standard
//! output is the JSON result; `--out` also writes it, the workload's
//! configuration and (traced) every span to files in that directory.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hs_perfbench::report::{
    end_to_end, median_by_name, per_layer, result_line, LayerInputs, Metric,
};
use hs_perfbench::spans::{to_jsonl, Recorded};
use hs_perfbench::workloads::{describe, run, setup, Ctx, Outcome, Workload};

/// Set-ups timed before the serve loop, at least.
const MIN_SETUPS: usize = 5;
/// At most.
const MAX_SETUPS: usize = 200;
/// Share of the run budget the set-up loop may take.
const SETUP_BUDGET_SHARE: f64 = 0.2;
/// Untraced operations timed, at least.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// What one invocation measured.
struct Measured {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    fingerprint: u64,
    /// Raw samples for the results file: `(name, values)`.
    samples: Vec<(String, Vec<f64>)>,
    spans: Recorded,
}

fn same_fingerprint(first: u64, next: &Outcome, what: &str) -> Result<(), String> {
    if first == next.fingerprint {
        Ok(())
    } else {
        Err(format!(
            "{what} report fingerprint {:016x} differs from {first:016x}",
            next.fingerprint
        ))
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process so far (`VmHWM`), MiB. Each
/// invocation runs one workload in a fresh process, so this is the
/// workload's peak.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Set up and run untraced for about `seconds`; end-to-end metrics.
fn measure_untraced(a: &Args) -> Result<Measured, String> {
    let start = Instant::now();
    let budget = Duration::from_secs(a.seconds);
    // One untimed set-up first, so that lazy one-time costs do not count.
    drop(setup(a.workload, a.seed, &Ctx::plain())?);
    let mut setup_s = Vec::new();
    while setup_s.len() < MIN_SETUPS
        || (start.elapsed() < budget.mul_f64(SETUP_BUDGET_SHARE) && setup_s.len() < MAX_SETUPS)
    {
        let t = Instant::now();
        let s = setup(a.workload, a.seed, &Ctx::plain())?;
        setup_s.push(secs(t));
        drop(s);
    }
    let mut timed = Vec::new();
    let mut runs = 0;
    let mut first: Option<Outcome> = None;
    let (mut attempted, mut failed) = (0, 0);
    while runs < MIN_RUNS || start.elapsed() < budget {
        let s = setup(a.workload, a.seed, &Ctx::plain())?;
        let out = run(s.prepared, &mut Ctx::plain())?;
        runs += 1;
        timed.extend_from_slice(&out.timed);
        attempted += out.attempted;
        failed += out.failed;
        match &first {
            Some(f) => same_fingerprint(f.fingerprint, &out, "repeated run")?,
            None => first = Some(out),
        }
    }
    let peak = peak_rss_mb()?;
    let first = first.expect("at least one run");
    let metrics = end_to_end(&first, &setup_s, &timed, peak);
    let mut samples = vec![
        ("setup_s".to_string(), setup_s),
        (
            "wall_s".to_string(),
            timed.iter().map(|&(_, t)| t).collect(),
        ),
    ];
    for (system, rate) in &first.max_rates {
        samples.push((format!("max_rate_rps.{system}"), vec![*rate]));
    }
    Ok(Measured {
        attempted,
        failed,
        metrics,
        fingerprint: first.fingerprint,
        samples,
        spans: Recorded::default(),
    })
}

/// The obs run, then untraced and span-traced runs alternating for about
/// `seconds`; per-layer metrics.
fn measure_traced(a: &Args) -> Result<Measured, String> {
    let start = Instant::now();
    let budget = Duration::from_secs(a.seconds);

    // The obs run goes first, so the process's peak memory is its own.
    let mut obs = Ctx::observed();
    let s = setup(a.workload, a.seed, &obs)?;
    let t = Instant::now();
    let obs_out = run(s.prepared, &mut obs)?;
    let obs_run_s = secs(t);
    let obs_peak_rss_mb = peak_rss_mb()?;
    let fingerprint = obs_out.fingerprint;
    let (mut attempted, mut failed) = (obs_out.attempted, obs_out.failed);
    drop(obs_out);

    let mut sets = Vec::new();
    let mut untraced_s = Vec::new();
    let mut spans = Recorded::default();
    while sets.is_empty() || start.elapsed() < budget {
        let s = setup(a.workload, a.seed, &Ctx::plain())?;
        let t = Instant::now();
        let plain = run(s.prepared, &mut Ctx::plain())?;
        let untraced_run_s = secs(t);
        same_fingerprint(fingerprint, &plain, "untraced run vs obs run")?;
        untraced_s.push(untraced_run_s);

        let mut traced = Ctx::traced();
        let s = setup(a.workload, a.seed, &traced)?;
        let out = run(s.prepared, &mut traced)?;
        same_fingerprint(fingerprint, &out, "traced run vs obs run")?;
        attempted += plain.attempted + out.attempted;
        failed += plain.failed + out.failed;
        spans = traced.rec.recorded();
        sets.push(per_layer(&LayerInputs {
            spans: &spans,
            out: &out,
            planner: s.planner,
            obs: &obs.obs_counts,
            obs_run_s,
            untraced_run_s,
            obs_peak_rss_mb,
        }));
    }
    Ok(Measured {
        attempted,
        failed,
        metrics: median_by_name(&sets),
        fingerprint,
        samples: vec![("untraced_run_s".to_string(), untraced_s)],
        spans,
    })
}

fn write_outputs(dir: &PathBuf, a: &Args, line: &str, m: Option<&Measured>) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    );
    let config: Vec<String> = describe(a.workload)
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    let mut doc = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"config\": {{{}}},\n",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace,
        config.join(", ")
    );
    if let Some(m) = m {
        doc.push_str(&format!("  \"fingerprint\": \"{:016x}\",\n", m.fingerprint));
        for (name, xs) in &m.samples {
            let xs: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
            doc.push_str(&format!("  \"{name}\": [{}],\n", xs.join(", ")));
        }
    }
    doc.push_str(&format!("  \"result\": {line}\n}}\n"));
    std::fs::write(dir.join(format!("{stem}.json")), doc)?;
    if let Some(m) = m.filter(|m| !m.spans.spans.is_empty()) {
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), to_jsonl(&m.spans))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hs-perfbench: {e}");
            eprintln!(
                "usage: hs-perfbench --workload <kv_fleet|testbed_contended|sla_sweep> \
                 --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let measured = if a.trace {
        measure_traced(&a)
    } else {
        measure_untraced(&a)
    };
    let (line, code) = match &measured {
        Ok(m) => (
            result_line(true, m.attempted, m.failed, &m.metrics),
            ExitCode::SUCCESS,
        ),
        Err(e) => {
            eprintln!("hs-perfbench: {e}");
            (result_line(false, 1, 1, &[]), ExitCode::FAILURE)
        }
    };
    if let Some(dir) = &a.out {
        if let Err(e) = write_outputs(dir, &a, &line, measured.as_ref().ok()) {
            eprintln!(
                "hs-perfbench: cannot write results to {}: {e}",
                dir.display()
            );
            println!("{}", result_line(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    code
}
