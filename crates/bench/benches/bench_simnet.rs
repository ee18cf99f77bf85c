//! Simulator-throughput snapshot: events/sec of the incremental
//! fair-share engine vs a forced full re-solve per event, at 100 / 1k /
//! 10k / 100k / 1M concurrent flows (ISSUE 5/7 perf trajectory; see
//! DESIGN.md §9 and §12).
//!
//! Workload: isolated 2-link clusters with four staggered flows each.
//! Two drive patterns:
//!
//! * `incremental` / `full_solve` — the full `start → next_event_time →
//!   advance_to` lifecycle, one completion at a time (the latency-path
//!   measurement). Full-resolve runs are capped at an event budget — at
//!   10k flows the full re-solve per completion is exactly the quadratic
//!   behaviour this engine removes, and an uncapped run would take
//!   minutes for a number that is stable after a few hundred events.
//! * `bulk_sharded` / `bulk_sequential` — start everything, then drain
//!   the field with one far-future `advance_to`: the sharded component
//!   path vs the sequential pop loop over an identical batch.
//!
//! Truncated (capped) runs are flagged and report a `null` headline
//! `events_per_sec`; the raw rate of a truncated prefix is kept under
//! `raw_events_per_sec` for diagnostics only. Each row also records the
//! run's exact work counters (`SolveStats`: flows rated, scoped solves,
//! completion-heap pushes and stale pops), which do not depend on the
//! host.
//!
//! Writes `results/bench_simnet.json`.

use hs_bench::simbench::{
    bulk_advance_throughput, clusters_topo, pull_loop_throughput, ThroughputRun,
};
use hs_bench::ExpTable;
use serde_json::json;

fn push_row(table: &mut ExpTable, n_flows: usize, mode: &str, run: &ThroughputRun) {
    let headline = run
        .events_per_sec
        .map(|e| format!("{e:.0}"))
        .unwrap_or_else(|| "truncated".to_string());
    table.push(
        vec![
            n_flows.to_string(),
            mode.to_string(),
            run.events.to_string(),
            format!("{:.2}", run.wall_s * 1e3),
            headline,
            run.ran_to_completion.to_string(),
        ],
        json!({
            "flows": n_flows,
            "mode": mode,
            "events": run.events,
            "wall_s": run.wall_s,
            "events_per_sec": run.events_per_sec,
            "raw_events_per_sec": run.raw_events_per_sec,
            "ran_to_completion": run.ran_to_completion,
            "truncated": !run.ran_to_completion,
            "scoped_solves": run.work.scoped_solves,
            "flows_rated": run.work.flows_rated,
            "heap_pushes": run.work.heap_pushes,
            "stale_pops": run.work.stale_pops,
        }),
    );
}

fn main() {
    let mut table = ExpTable::new(
        "bench_simnet",
        &[
            "flows",
            "mode",
            "events",
            "wall_ms",
            "events/sec",
            "complete",
        ],
    );
    for &n_flows in &[100usize, 1_000, 10_000, 100_000, 1_000_000] {
        let (g, paths) = clusters_topo(n_flows / 4);
        let run = pull_loop_throughput(&g, &paths, 4, 1_000_000, false, u64::MAX);
        push_row(&mut table, n_flows, "incremental", &run);
        if n_flows <= 10_000 {
            // Cap keeps the quadratic full-solve mode finite at 10k; the
            // capped row is flagged truncated and excluded from the
            // headline metric.
            let cap = (n_flows as u64) + 1_500;
            let run = pull_loop_throughput(&g, &paths, 4, 1_000_000, true, cap);
            push_row(&mut table, n_flows, "full_solve", &run);
        }
        if n_flows >= 10_000 {
            let run = bulk_advance_throughput(&g, &paths, 4, 1_000_000, 64);
            push_row(&mut table, n_flows, "bulk_sharded", &run);
            let run = bulk_advance_throughput(&g, &paths, 4, 1_000_000, usize::MAX);
            push_row(&mut table, n_flows, "bulk_sequential", &run);
        }
    }
    table.finish();
}
