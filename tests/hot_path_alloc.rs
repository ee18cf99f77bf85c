//! Allocation gate for the per-request NetKV selection and the monitor
//! tick.
//!
//! A counting global allocator records every `alloc`, `alloc_zeroed` and
//! `realloc` made on the test's thread. After a warm-up that compiles the
//! KV routes and sizes every buffer, `HeroScheduler::choose_decode` must
//! allocate nothing per call, including the calls that adopt a new
//! utilization snapshot, and `LinkMonitor::poll` must allocate nothing
//! while flows come and go. The counts are deterministic.

use heroserve::{HeroScheduler, SchedulerParams};
use hs_cluster::{CommStrategy, KvCandidate, KvCtx};
use hs_des::SimTime;
use hs_simnet::{LinkMonitor, SimNet};
use hs_topology::builders::{testbed, xtracks, XTracksConfig};
use hs_topology::{AllPairs, LinkWeight, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// counting touches only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made on this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn candidates(dsts: &[Vec<NodeId>]) -> Vec<KvCandidate<'_>> {
    dsts.iter()
        .enumerate()
        .map(|(i, d)| KvCandidate {
            instance: i,
            load: i % 5,
            headroom_tokens: 1_000 + i as u64,
            capacity_tokens: 5_000,
            dst_gpus: d,
        })
        .collect()
}

#[test]
fn netkv_selection_allocates_nothing_per_call() {
    // The kv_fleet fabric: TP1 shipments to 48 candidates, plus TP4
    // groups so the striped path runs too.
    let topo = xtracks(&XTracksConfig::two_tracks(2));
    let mut nodes = topo.all_gpus();
    nodes.extend(topo.graph.ina_switches());
    nodes.sort_unstable();
    nodes.dedup();
    let ap = AllPairs::compute(&topo.graph, &nodes, LinkWeight::Latency, None);
    let mut s = HeroScheduler::new(&topo.graph, ap, SchedulerParams::default());
    let gpus = topo.all_gpus();
    let tp1: Vec<Vec<NodeId>> = gpus[48..].iter().map(|&g| vec![g]).collect();
    let tp4: Vec<Vec<NodeId>> = gpus[48..].chunks(4).map(<[NodeId]>::to_vec).collect();
    let (c1, c4) = (candidates(&tp1), candidates(&tp4));
    let n = topo.graph.link_count();
    let mut util = vec![0.0; n];
    // One round: a snapshot, then a TP1 and a TP4 shipment from each of
    // 48 sources; returns the selections made.
    let round = |s: &mut HeroScheduler, util: &mut Vec<f64>, k: usize| -> u64 {
        // A monitor tick rewrites the snapshot in place.
        for (l, u) in util.iter_mut().enumerate() {
            *u = ((l + k) % 11) as f64 / 10.0;
        }
        for i in 0..48 {
            let src = [gpus[i]];
            let ctx = KvCtx {
                req: i as u64,
                bytes: (1 << 20) + (k * 48 + i) as u64,
                src_gpus: &src,
                link_util: util,
                now: SimTime::ZERO,
            };
            assert!(s.choose_decode(&ctx, &c1).is_some());
            let ctx = KvCtx {
                src_gpus: &gpus[(i / 4) * 4..(i / 4) * 4 + 4],
                ..ctx
            };
            assert!(s.choose_decode(&ctx, &c4).is_some());
        }
        96
    };
    round(&mut s, &mut util, 0);
    let before = allocs();
    let calls: u64 = (1..20).map(|k| round(&mut s, &mut util, k)).sum();
    let allocated = allocs() - before;
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over {calls} selections"
    );
}

#[test]
fn monitor_poll_allocates_nothing() {
    let topo = testbed();
    let links: Vec<_> = topo.graph.links().map(|(l, _)| l).collect();
    let mut net = SimNet::new(&topo.graph);
    let mut mon = LinkMonitor::new(topo.graph.link_count(), 0.5);
    let mut done = Vec::new();
    let mut now = SimTime::ZERO;
    let mut poll_allocs = 0;
    for tick in 1..400u64 {
        // Flows start and finish between ticks, over a link set that
        // shifts each tick, so links join, stay live and go quiet.
        for j in 0..3 {
            let l = links[(tick as usize * 3 + j * 7) % links.len()];
            net.start_flow(now, Arc::from([(l, j % 2 == 0)]), 2_000_000, 0);
        }
        now = SimTime::from_micros(tick * 500);
        net.advance_to(now, &mut done);
        done.clear();
        let before = allocs();
        mon.poll(&mut net, now);
        if tick > 1 {
            poll_allocs += allocs() - before;
        }
    }
    assert!(mon.links_visited() > 0);
    assert_eq!(poll_allocs, 0, "{poll_allocs} allocations in polls");
}
