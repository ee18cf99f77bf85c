//! Scratch profiling driver for the pull loop (not shipped as a bench).
use hs_des::SimTime;
use hs_simnet::SimNet;
use hs_topology::graph::{bandwidth, GpuSpec, GraphBuilder, LinkKind, ServerId};
use std::sync::Arc;

fn main() {
    let n_flows: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let threshold: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let iters: usize = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let n_clusters = n_flows / 4;
    let mut b = GraphBuilder::new();
    let mut paths = Vec::with_capacity(n_clusters);
    for k in 0..n_clusters {
        let g0 = b.add_gpu(ServerId((2 * k) as u32), 0, GpuSpec::a100_40g());
        let g1 = b.add_gpu(ServerId((2 * k + 1) as u32), 0, GpuSpec::a100_40g());
        let s = b.add_access_switch(false, "s");
        let l0 = b.add_link(g0, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
        let l1 = b.add_link(s, g1, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
        paths.push(Arc::<[_]>::from([(l0, true), (l1, true)]));
    }
    let g = b.build();
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        let mut net = SimNet::new(&g);
        net.set_shard_threshold(threshold);
        let t_new = t0.elapsed();
        for (k, p) in paths.iter().enumerate() {
            for j in 0..4usize {
                let sz = 1_000_000 + (j as u64) * (1_000_000 / 7 + 1);
                net.start_flow(SimTime::ZERO, p.clone(), sz, (k * 4 + j) as u64);
            }
        }
        let t_fill = t0.elapsed();
        let mut t_next = std::time::Duration::ZERO;
        let mut t_adv = std::time::Duration::ZERO;
        let mut events = 0u64;
        let mut calls = 0u64;
        let mut done = Vec::new();
        loop {
            let s = std::time::Instant::now();
            let Some(t) = net.next_event_time() else {
                break;
            };
            t_next += s.elapsed();
            if t == SimTime::MAX {
                break;
            }
            let s = std::time::Instant::now();
            net.advance_to(t, &mut done);
            events += done.len() as u64;
            done.clear();
            t_adv += s.elapsed();
            calls += 1;
        }
        eprintln!(
            "new={t_new:?} fill={t_fill:?} events={events} calls={calls} next={t_next:?} adv={t_adv:?} stats={:?} total={:?}",
            net.solve_stats(),
            t0.elapsed()
        );
    }
}
