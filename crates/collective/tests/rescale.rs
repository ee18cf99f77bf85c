//! A plan compiled once, replayed at any volume, starts exactly the
//! transfers a plan compiled for that volume would.
//!
//! The reference below compiles the byte counts into the plan the direct
//! way — ring steps move `(total / P).max(1)` of a `P`-member ring, INA,
//! reduce and broadcast transfers move the whole `total`, a zero-byte
//! collective moves nothing. The test runs the volume-free plan through
//! [`CollectiveExec`] on a fresh [`SimNet`] and records, phase by phase,
//! the `(path, bytes)` of every flow it starts and every post-phase
//! delay it asks for. The two traces must be equal for every scheme,
//! both paper topologies, groups of 2–8 GPUs, and totals down to below
//! the ring size, where a chunk clamps to one byte.

use hs_collective::latency::by_server;
use hs_collective::{CollectiveExec, CollectivePlan, Progress, Scheme, AGG_DELAY};
use hs_des::{SimSpan, SimTime};
use hs_simnet::{DirLink, FlowId, SimNet};
use hs_topology::builders::{fig2_micro, testbed};
use hs_topology::{AllPairs, Graph, LinkWeight, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

/// What a collective does, in order.
#[derive(Debug, PartialEq)]
enum Step {
    /// Flows started together: `(path, bytes)` each.
    Batch(Vec<(Vec<DirLink>, u64)>),
    /// A post-phase delay.
    Timer(SimSpan),
}

/// A phase with its byte counts compiled in.
struct RefPhase {
    transfers: Vec<(Vec<DirLink>, u64)>,
    post_delay: SimSpan,
}

struct Reference<'a> {
    g: &'a Graph,
    ap: &'a AllPairs,
}

impl Reference<'_> {
    fn push(&self, phase: &mut RefPhase, from: NodeId, to: NodeId, bytes: u64) {
        if from == to || bytes == 0 {
            return;
        }
        let path = self.ap.path(from, to);
        if !path.links.is_empty() {
            phase.transfers.push((path.directed_links(self.g), bytes));
        }
    }

    fn ring(&self, group: &[NodeId], total: u64) -> Vec<RefPhase> {
        let p = group.len();
        let chunk = (total / p as u64).max(1);
        (0..2 * (p - 1))
            .map(|_| {
                let mut phase = RefPhase {
                    transfers: Vec::new(),
                    post_delay: SimSpan::ZERO,
                };
                for i in 0..p {
                    self.push(&mut phase, group[i], group[(i + 1) % p], chunk);
                }
                phase
            })
            .collect()
    }

    fn ina(&self, group: &[NodeId], switch: NodeId, total: u64) -> Vec<RefPhase> {
        let mut phase = RefPhase {
            transfers: Vec::new(),
            post_delay: AGG_DELAY,
        };
        for &k in group {
            self.push(&mut phase, k, switch, total);
            self.push(&mut phase, switch, k, total);
        }
        vec![phase]
    }

    fn hierarchical(&self, group: &[NodeId], switch: Option<NodeId>, total: u64) -> Vec<RefPhase> {
        let locals = by_server(self.g, group);
        let leaders: Vec<NodeId> = locals.iter().map(|(_, ms)| ms[0]).collect();
        let local_phase = |up: bool| {
            let mut phase = RefPhase {
                transfers: Vec::new(),
                post_delay: SimSpan::ZERO,
            };
            for (_, ms) in &locals {
                for &m in &ms[1..] {
                    let (from, to) = if up { (m, ms[0]) } else { (ms[0], m) };
                    self.push(&mut phase, from, to, total);
                }
            }
            phase
        };
        let mut phases = vec![local_phase(true)];
        if leaders.len() >= 2 {
            phases.extend(match switch {
                Some(sw) => self.ina(&leaders, sw, total),
                None => self.ring(&leaders, total),
            });
        }
        phases.push(local_phase(false));
        phases
    }

    /// The steps of `scheme` compiled for exactly `total` bytes.
    fn steps(&self, group: &[NodeId], scheme: Scheme, total: u64) -> Vec<Step> {
        if group.len() < 2 || total == 0 {
            return Vec::new();
        }
        let phases = match scheme {
            Scheme::Ring => self.ring(group, total),
            Scheme::Ina { switch } => self.ina(group, switch, total),
            Scheme::HierRing => self.hierarchical(group, None, total),
            Scheme::HierIna { switch } => self.hierarchical(group, Some(switch), total),
        };
        let mut steps = Vec::new();
        for p in phases {
            if !p.transfers.is_empty() {
                steps.push(Step::Batch(p.transfers));
            }
            if !p.post_delay.is_zero() {
                steps.push(Step::Timer(p.post_delay));
            }
        }
        steps
    }
}

/// The steps `plan` takes when replayed for `total` bytes alone on a
/// fresh network. Flow ids start at 0 and a phase's flows are all live
/// right after it starts, so each new batch is the run of live ids after
/// the last one seen.
fn replayed(g: &Graph, plan: &Arc<CollectivePlan>, total: u64) -> Vec<Step> {
    let mut net = SimNet::new(g);
    let mut exec = CollectiveExec::new(plan.clone(), total, 0);
    let mut steps = Vec::new();
    let mut next = 0u64;
    let mut now = SimTime::ZERO;
    let mut done = Vec::new();
    let mut progress = exec.start(&mut net, now);
    loop {
        let mut batch = Vec::new();
        while let Some(f) = net.flow(FlowId(next)) {
            batch.push((f.path.to_vec(), f.size_bytes));
            next += 1;
        }
        if !batch.is_empty() {
            steps.push(Step::Batch(batch));
        }
        match progress {
            Progress::Done => return steps,
            Progress::StartTimer(d) => {
                steps.push(Step::Timer(d));
                now += d;
                net.advance_to(now, &mut done);
                progress = exec.on_timer(&mut net, now);
            }
            Progress::InFlight => {
                now = net.next_event_time().expect("in-flight flows");
                net.advance_to(now, &mut done);
                for (id, _) in done.drain(..) {
                    progress = exec.on_flow_complete(&mut net, now, id);
                }
            }
        }
    }
}

/// A fabric with every GPU and INA switch covered by the path table.
struct Fabric {
    g: Graph,
    ap: AllPairs,
    gpus: Vec<NodeId>,
    switches: Vec<NodeId>,
}

fn fabric(fig2: bool) -> Fabric {
    let (g, gpus, switches) = if fig2 {
        let m = fig2_micro();
        (m.graph, m.gpus.to_vec(), vec![m.access, m.core])
    } else {
        let t = testbed();
        let gpus = t.all_gpus();
        (t.graph, gpus, t.access_switches)
    };
    let mut nodes = gpus.clone();
    nodes.extend(&switches);
    let ap = AllPairs::compute(&g, &nodes, LinkWeight::Latency, None);
    Fabric {
        g,
        ap,
        gpus,
        switches,
    }
}

fn schemes(switch: NodeId) -> [Scheme; 4] {
    [
        Scheme::Ring,
        Scheme::Ina { switch },
        Scheme::HierRing,
        Scheme::HierIna { switch },
    ]
}

/// Compile once, then replay at every total.
fn assert_rescales(f: &Fabric, group: &[NodeId], scheme: Scheme, totals: &[u64]) {
    let plan = Arc::new(CollectivePlan::compile(&f.g, &f.ap, group, scheme));
    let reference = Reference { g: &f.g, ap: &f.ap };
    for &total in totals {
        assert_eq!(
            replayed(&f.g, &plan, total),
            reference.steps(group, scheme, total),
            "{scheme:?} on {group:?} at {total} bytes"
        );
    }
}

/// Totals around every divisor a group of up to 8 can produce.
const TOTALS: [u64; 12] = [
    0,
    1,
    2,
    3,
    5,
    7,
    8,
    9,
    1000,
    1 << 20,
    (1 << 20) + 3,
    999_999_937,
];

#[test]
fn fixed_groups_rescale_on_both_topologies() {
    let tb = fabric(false);
    let server = |s: usize| tb.gpus[4 * s..4 * s + 4].to_vec();
    let groups = [
        // One GPU per server: the hierarchical plans are all inter-server.
        vec![tb.gpus[0], tb.gpus[4], tb.gpus[8], tb.gpus[12]],
        // Two servers of four: a two-leader inter-server ring.
        [server(0), server(1)].concat(),
        // Uneven servers: three leaders.
        vec![tb.gpus[0], tb.gpus[1], tb.gpus[2], tb.gpus[5], tb.gpus[9]],
        // One server: NVLink only.
        server(2),
        vec![tb.gpus[3], tb.gpus[7]],
    ];
    for group in &groups {
        for &sw in &tb.switches {
            for scheme in schemes(sw) {
                assert_rescales(&tb, group, scheme, &TOTALS);
            }
        }
    }
    let f2 = fabric(true);
    for group in [
        f2.gpus.clone(),
        f2.gpus[..2].to_vec(),
        f2.gpus[1..].to_vec(),
    ] {
        for &sw in &f2.switches {
            for scheme in schemes(sw) {
                assert_rescales(&f2, &group, scheme, &TOTALS);
            }
        }
    }
}

proptest! {
    /// Arbitrary groups of 2–8 GPUs in arbitrary ring order, any scheme
    /// and switch, totals both below the group size and large.
    #[test]
    fn compiled_once_replays_like_compiled_per_total(
        fig2 in 0u8..2,
        members in proptest::collection::hash_set(0usize..16, 2..=8),
        rotate in 0usize..8,
        scheme_sel in 0usize..4,
        switch_sel in 0usize..2,
        small in 0u64..12,
        large in 1u64..(1 << 34),
    ) {
        let f = fabric(fig2 == 1);
        let mut idx: Vec<usize> = members.into_iter().map(|m| m % f.gpus.len()).collect();
        idx.sort_unstable();
        idx.dedup();
        if idx.len() < 2 {
            idx = vec![0, 1];
        }
        let len = idx.len();
        idx.rotate_left(rotate % len);
        let group: Vec<NodeId> = idx.iter().map(|&i| f.gpus[i]).collect();
        let scheme = schemes(f.switches[switch_sel])[scheme_sel];
        assert_rescales(&f, &group, scheme, &[small, large]);
    }
}
