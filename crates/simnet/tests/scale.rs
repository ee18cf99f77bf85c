//! Scaling stress test for the incremental fair-share engine.
//!
//! 10 000 flows over the paper's 2-track xtracks fabric (2 pods, 96 GPUs)
//! with staggered arrivals, driven through the full start → share →
//! complete lifecycle. Asserts the physics that must survive any amount
//! of engine optimisation:
//!
//! * **byte conservation** — every directed link's cumulative counter
//!   equals the sum of bytes of the completed flows that crossed it;
//! * **per-link feasibility** — at every completion batch the allocated
//!   rate on each directed link never exceeds its capacity;
//! * **liveness** — every flow completes;
//! * a generous wall bound in release mode, so a quadratic regression in
//!   the hot path fails loudly rather than silently eating CI time.
//!
//! Ignored under debug assertions (the point is release-mode throughput;
//! CI runs it via `cargo test --release -p hs-simnet`).

use hs_des::{SimSpan, SimTime};
use hs_simnet::SimNet;
use hs_topology::builders::{xtracks, XTracksConfig};
use hs_topology::graph::{bandwidth, GpuSpec, GraphBuilder, LinkKind, ServerId};
use hs_topology::routing::shortest_path;
use hs_topology::LinkWeight;
use std::sync::Arc;

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only throughput stress")]
fn ten_thousand_flows_on_xtracks() {
    let wall = std::time::Instant::now();
    let topo = xtracks(&XTracksConfig::two_tracks(2));
    let g = &topo.graph;
    let gpus = topo.all_gpus();
    let n_links = g.capacities().len();
    let mut net = SimNet::new(g);

    const N_FLOWS: u64 = 10_000;
    // Deterministic src/dst index arithmetic: co-prime strides walk every
    // GPU pair class, mixing intra-server, intra-pod, and cross-pod paths.
    let mut delivered_per_slot = vec![0.0f64; 2 * n_links];
    let mut launched = 0u64;
    let mut completed = 0u64;
    let mut paths: Vec<Arc<[(hs_topology::LinkId, bool)]>> = Vec::new();
    for i in 0..N_FLOWS {
        let src = gpus[(i as usize * 7) % gpus.len()];
        let dst = gpus[(i as usize * 13 + 1) % gpus.len()];
        if src == dst {
            paths.push(Arc::from([]));
            continue;
        }
        let p = shortest_path(g, src, dst, LinkWeight::Latency, None)
            .expect("xtracks is connected")
            .directed_links(g);
        paths.push(p.into());
    }

    // Staggered arrivals: one flow every 2 us, sizes cycling 64 kB–1 MB.
    let mut next_arrival = SimTime::ZERO;
    let mut arrival_iter = 0u64;
    let mut now = SimTime::ZERO;
    let mut done = Vec::new();
    while completed < N_FLOWS {
        // Launch everything due before the next completion.
        let next_done = net.next_event_time();
        let horizon = match next_done {
            Some(t) if t < SimTime::MAX => t,
            _ => next_arrival,
        };
        while launched < N_FLOWS && next_arrival <= horizon {
            let bytes = 64_000 + (arrival_iter % 16) * 60_000;
            net.start_flow(
                next_arrival,
                paths[launched as usize].clone(),
                bytes,
                launched,
            );
            launched += 1;
            arrival_iter += 1;
            next_arrival += SimSpan::from_micros(2);
        }
        // Feasibility at this instant: allocated ≤ capacity on each link.
        let caps = g.capacities();
        for (i, u) in net.utilization_snapshot().iter().enumerate() {
            assert!(
                *u <= 1.0 + 1e-9,
                "link {i} oversubscribed: utilization {u}, cap {}",
                caps[i]
            );
        }
        let target = match net.next_event_time() {
            Some(t) if t < SimTime::MAX => t,
            _ if launched < N_FLOWS => next_arrival,
            _ => panic!("flows outstanding but no next event"),
        };
        now = now.max(target);
        net.advance_to(now, &mut done);
        for (id, f) in done.drain(..) {
            completed += 1;
            assert_eq!(f.remaining_bytes, 0.0, "flow {id:?} returned undrained");
            for &(l, fwd) in f.path.iter() {
                delivered_per_slot[l.idx() * 2 + fwd as usize] += f.size_bytes as f64;
            }
        }
    }
    assert_eq!(completed, N_FLOWS, "every flow must complete");
    assert_eq!(net.active_flow_count(), 0);

    // Byte conservation per directed link: the simulator's cumulative
    // counters must match the ledger of completed flow sizes. Accrual is
    // piecewise float summation, so allow a ppm-scale relative slack.
    for li in 0..n_links {
        for fwd in [false, true] {
            let slot = li * 2 + fwd as usize;
            let counted = net.cumulative_bytes_dir(hs_topology::LinkId(li as u32), fwd);
            let ledger = delivered_per_slot[slot];
            let tol = 1e-6 * ledger.max(1.0);
            assert!(
                (counted - ledger).abs() <= tol,
                "link {li} fwd={fwd}: counter {counted} vs ledger {ledger}"
            );
        }
    }

    let elapsed = wall.elapsed();
    assert!(
        elapsed.as_secs_f64() < 60.0,
        "10k-flow run took {elapsed:?}; incremental engine has regressed"
    );
}

/// Sharded-scale stress (DESIGN.md §12): 32k flows over 1024 independent
/// two-GPU clusters, drained in bulk `advance_to` windows large enough to
/// take the sharded path, then compared bit-for-bit against the same run
/// on the never-sharded sequential engine. Pins, at a scale the
/// equivalence proptests cannot reach:
///
/// * the deterministic `(SimTime, FlowId)` k-way merge equals the
///   sequential global-heap pop order exactly (trace and byte bits);
/// * every component actually went through a shard worker
///   (`shards_run`/`sharded_batches` counters);
/// * liveness and a generous wall bound.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only throughput stress")]
fn sharded_bulk_advance_matches_sequential_at_scale() {
    const CLUSTERS: u32 = 1024;
    const FLOWS_PER_CLUSTER: u64 = 32;
    let wall = std::time::Instant::now();

    let run = |threshold: usize| {
        let mut b = GraphBuilder::new();
        let mut links = Vec::new();
        for i in 0..CLUSTERS {
            let g0 = b.add_gpu(ServerId(2 * i), 0, GpuSpec::a100_40g());
            let g1 = b.add_gpu(ServerId(2 * i + 1), 0, GpuSpec::a100_40g());
            let sw = b.add_access_switch(true, "s");
            let l0 = b.add_link(g0, sw, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
            let l1 = b.add_link(g1, sw, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
            links.push([l0, l1]);
        }
        let graph = b.build();
        let mut net = SimNet::new(&graph);
        net.set_shard_threshold(threshold);
        for (ci, pair) in links.iter().enumerate() {
            for k in 0..FLOWS_PER_CLUSTER {
                // Alternate two-hop and one-hop paths so components mix
                // aggregate-tier and exact-solver re-solves in-shard.
                let path: Arc<[_]> = if k % 2 == 0 {
                    pair.iter().map(|&l| (l, true)).collect()
                } else {
                    Arc::from([(pair[0], true)])
                };
                net.start_flow(
                    SimTime::from_nanos(211 * k + 17 * ci as u64),
                    path,
                    300_000 + 41_000 * k + 5_000 * ci as u64,
                    ((ci as u64) << 8) | k,
                );
            }
        }
        // Two bulk windows: a mid-run cut (shards hand back live flows)
        // and a drain-everything cut.
        let mut trace: Vec<(u64, u64)> = Vec::new();
        for cut in [SimTime::from_millis(1), SimTime::from_secs(10)] {
            let mut done = Vec::new();
            net.advance_to(cut, &mut done);
            trace.extend(done.iter().map(|(id, f)| (id.0, f.tag)));
        }
        let bytes: Vec<u64> = links
            .iter()
            .flat_map(|p| p.iter())
            .map(|&l| net.cumulative_bytes(l).to_bits())
            .collect();
        (trace, bytes, net.active_flow_count(), net.solve_stats())
    };

    let (seq_trace, seq_bytes, seq_live, seq_stats) = run(usize::MAX);
    let (sh_trace, sh_bytes, sh_live, sh_stats) = run(0);

    assert_eq!(
        seq_trace.len() as u64,
        u64::from(CLUSTERS) * FLOWS_PER_CLUSTER,
        "every flow must complete"
    );
    assert_eq!(seq_live, 0);
    assert_eq!(
        sh_trace, seq_trace,
        "sharded merge diverged from sequential"
    );
    assert_eq!(sh_bytes, seq_bytes, "per-link byte bits diverged");
    assert_eq!(sh_live, seq_live);
    assert_eq!(seq_stats.sharded_batches, 0, "threshold MAX must not shard");
    assert!(
        sh_stats.sharded_batches >= 2,
        "both bulk windows should shard: {sh_stats:?}"
    );
    assert!(
        sh_stats.shards_run >= u64::from(CLUSTERS),
        "every cluster is an independent component: {sh_stats:?}"
    );

    let elapsed = wall.elapsed();
    assert!(
        elapsed.as_secs_f64() < 120.0,
        "32k-flow sharded run took {elapsed:?}; bulk path has regressed"
    );
}
