//! Allocation gate for the collective hot path.
//!
//! A counting global allocator records every `alloc`, `alloc_zeroed` and
//! `realloc` made on the test's thread. After a warm-up that lets every
//! reusable buffer reach its working size, replaying cached collective
//! plans on a [`SimNet`] — starting their flows, rating them, draining
//! their completions and stepping the [`CollectiveExec`]s — must allocate
//! nothing, and neither may retiring the slots a departing flow leaves
//! empty. The counts are deterministic, so any allocation that creeps
//! back into that path fails here. The same replays pin the completion
//! heap's invariant: a departing flow leaves no dead entry, so a plan
//! running alone never pops a stale one.

use hs_collective::{CollectiveExec, CollectivePlan, Progress, Scheme};
use hs_des::SimTime;
use hs_simnet::{DirLink, Flow, FlowId, SimNet};
use hs_topology::builders::{testbed, BuiltTopology};
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

fn ap_of(topo: &BuiltTopology) -> AllPairs {
    let mut nodes = topo.all_gpus();
    nodes.extend(topo.graph.ina_switches());
    nodes.sort_unstable();
    nodes.dedup();
    AllPairs::compute(&topo.graph, &nodes, LinkWeight::Latency, None)
}

/// Record what `p` asks of collective `i`.
fn note(p: Progress, now: SimTime, live: &mut bool, timer: &mut Option<SimTime>) {
    match p {
        Progress::InFlight => *live = true,
        Progress::StartTimer(d) => {
            *live = true;
            *timer = Some(now + d);
        }
        Progress::Done => *live = false,
    }
}

/// Run `execs` (flow tag = index) to completion from `now`, draining
/// completions through `done`. Returns the end time and the number of
/// flows completed.
fn run(
    net: &mut SimNet,
    execs: &mut [CollectiveExec],
    mut now: SimTime,
    done: &mut Vec<(FlowId, Flow)>,
) -> (SimTime, u64) {
    let mut live = [false; 4];
    let mut timers = [None; 4];
    for (i, e) in execs.iter_mut().enumerate() {
        note(e.start(net, now), now, &mut live[i], &mut timers[i]);
    }
    let mut flows = 0;
    while live.iter().any(|&l| l) {
        let next_timer = timers.iter().flatten().min().copied();
        now = [next_timer, net.next_event_time()]
            .into_iter()
            .flatten()
            .min()
            .expect("a live collective has a flow or a timer pending");
        net.advance_to(now, done);
        for (id, f) in done.drain(..) {
            flows += 1;
            let i = f.tag as usize;
            let p = execs[i].on_flow_complete(net, now, id);
            note(p, now, &mut live[i], &mut timers[i]);
        }
        for i in 0..execs.len() {
            if timers[i] == Some(now) {
                timers[i] = None;
                let p = execs[i].on_timer(net, now);
                note(p, now, &mut live[i], &mut timers[i]);
            }
        }
    }
    (now, flows)
}

#[test]
fn cached_collectives_allocate_nothing_per_flow() {
    let topo = testbed();
    let ap = ap_of(&topo);
    let sw = topo.access_switches[0];
    // Two GPUs on each of two servers: every scheme crosses Ethernet and
    // the hierarchical ones add NVLink reduce/broadcast phases.
    let group: Vec<NodeId> = topo.gpus_by_server[..2]
        .iter()
        .flat_map(|s| s[..2].iter().copied())
        .collect();
    let plans: Vec<Arc<CollectivePlan>> = [
        Scheme::Ring,
        Scheme::Ina { switch: sw },
        Scheme::HierRing,
        Scheme::HierIna { switch: sw },
    ]
    .into_iter()
    .map(|s| Arc::new(CollectivePlan::compile(&topo.graph, &ap, &group, s)))
    .collect();
    let mut net = SimNet::new(&topo.graph);
    let mut done = Vec::new();
    let mut now = SimTime::ZERO;

    // One round: each plan alone, then all four contending at once, each
    // at a different volume (including one below the ring size).
    let round = |net: &mut SimNet, now: &mut SimTime, done: &mut Vec<_>, k: u64| -> u64 {
        let mut flows = 0;
        for plan in &plans {
            let stale = net.solve_stats().stale_pops;
            let mut execs = [CollectiveExec::new(plan.clone(), (1 << 20) + k, 0)];
            let (t, n) = run(net, &mut execs, *now, done);
            (*now, flows) = (t, flows + n);
            // Alone, no live flow is ever re-rated: nothing goes stale.
            assert_eq!(net.solve_stats().stale_pops, stale, "solo replay");
        }
        let mut execs = [0, 1, 2, 3].map(|i| {
            CollectiveExec::new(
                plans[i].clone(),
                [3, 1 << 16, 1 << 20, 1 << 22][i] + k,
                i as u64,
            )
        });
        let (t, n) = run(net, &mut execs, *now, done);
        (*now, flows) = (t, flows + n);
        flows
    };

    let mut warmup_flows = 0;
    for k in 0..50 {
        warmup_flows += round(&mut net, &mut now, &mut done, k);
    }
    let before = allocs();
    let mut flows = 0;
    for k in 0..200 {
        flows += round(&mut net, &mut now, &mut done, k);
    }
    let allocated = allocs() - before;
    // Contending plans re-rate live flows. Each flow's first entry is
    // popped when it completes, so only the re-keys beyond it can go
    // stale.
    let s = net.solve_stats();
    assert!(
        s.stale_pops <= s.heap_pushes - (warmup_flows + flows),
        "a stale entry that no re-key superseded: {s:?}"
    );
    assert!(
        flows > 10_000,
        "the gate must drive real traffic, got {flows}"
    );
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over {flows} collective flows"
    );
}

#[test]
fn empty_component_resolve_allocates_nothing() {
    let topo = testbed();
    let ap = ap_of(&topo);
    let (a, b) = (topo.gpus_by_server[0][0], topo.gpus_by_server[3][3]);
    let route: Arc<[DirLink]> = ap.path(a, b).directed_links(&topo.graph).into();
    let slots = route.len() as u64;
    let mut net = SimNet::new(&topo.graph);
    // A flow that leaves at once: its slots are left without flows and
    // retire, each counted as a one-round solve of an empty component.
    let start = |net: &mut SimNet, us: u64| {
        let now = SimTime::from_micros(us);
        let id = net.start_flow(now, route.clone(), 1 << 20, 0);
        net.next_event_time();
        (now, id)
    };
    let (now, id) = start(&mut net, 1);
    assert!(net.cancel_flow(now, id).is_some());
    net.next_event_time();
    let (now, id) = start(&mut net, 2);

    let stats = net.solve_stats();
    let before = allocs();
    let cancelled = net.cancel_flow(now, id);
    assert_eq!(net.next_event_time(), None);
    let allocated = allocs() - before;
    assert!(cancelled.is_some());
    let after = net.solve_stats();
    assert_eq!(after.scoped_solves - stats.scoped_solves, slots);
    assert_eq!(after.aggregate_solves - stats.aggregate_solves, slots);
    assert_eq!(after.flows_rated, stats.flows_rated, "nothing left to rate");
    assert_eq!(allocated, 0, "{allocated} allocations in an empty re-solve");
}
