//! Phase-structured collective execution over the flow simulator.
//!
//! The cluster simulator runs every all-reduce as real network flows so
//! that concurrent collectives, KV-cache transfers and background traffic
//! contend for bandwidth — the congestion that HeroServe's scheduler is
//! designed to dodge. A collective is compiled to a [`CollectivePlan`]
//! (a sequence of [`Phase`]s, each a set of concurrent transfers plus an
//! optional post-phase fixed delay such as the switch aggregation time)
//! and stepped by a [`CollectiveExec`] state machine.
//!
//! A plan holds routes, not byte counts: it depends only on the group and
//! the scheme, so a caller compiles it once and replays it for any
//! synchronization volume. Each phase carries a byte divisor and every
//! transfer of the phase moves `(total / divisor).max(1)` bytes of a
//! `total`-byte collective ([`Phase::bytes`]). Routes are shared
//! (`Arc<[DirLink]>`), so starting a plan's flows copies no paths.

use crate::latency::{by_server, AGG_DELAY};
use hs_des::{SimSpan, SimTime};
use hs_simnet::{DirLink, FlowId, SimNet};
use hs_topology::{AllPairs, Graph, NodeId};
use std::sync::Arc;

/// Which all-reduce scheme to compile (the planner's `α`/`β` selection
/// plus HeroServe's heterogeneous variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Flat ring all-reduce over the group order.
    Ring,
    /// Flat INA: everyone collects to / distributes from `switch`.
    Ina {
        /// Aggregation switch.
        switch: NodeId,
    },
    /// NVLink-local reduce, ring among per-server leaders, local
    /// broadcast.
    HierRing,
    /// NVLink-local reduce, INA among per-server leaders at `switch`,
    /// local broadcast (HeroServe's heterogeneous INA).
    HierIna {
        /// Aggregation switch.
        switch: NodeId,
    },
}

impl Scheme {
    /// Static scheme name (switch-agnostic), for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Ring => "Ring",
            Scheme::Ina { .. } => "Ina",
            Scheme::HierRing => "HierRing",
            Scheme::HierIna { .. } => "HierIna",
        }
    }
}

/// One phase: transfers that run concurrently, then an optional fixed
/// delay before the next phase (e.g. switch aggregation).
#[derive(Clone, Debug)]
pub struct Phase {
    /// Directed routes of the transfers started together.
    pub transfers: Vec<Arc<[DirLink]>>,
    /// Byte divisor, positive: each transfer moves [`Phase::bytes`] of
    /// the total — the ring size for a ring step, `1` for INA, reduce and
    /// broadcast.
    divisor: u64,
    /// Delay after the last transfer completes.
    pub post_delay: SimSpan,
}

impl Phase {
    /// A phase with no transfers yet, whose transfers will each move
    /// [`Phase::bytes`] of the total.
    pub fn new(divisor: u64, post_delay: SimSpan) -> Self {
        assert!(divisor > 0, "phase byte divisor must be positive");
        Phase {
            transfers: Vec::new(),
            divisor,
            post_delay,
        }
    }

    /// Bytes each transfer of this phase moves for a `total`-byte
    /// collective: `(total / divisor).max(1)`.
    pub fn bytes(&self, total: u64) -> u64 {
        (total / self.divisor).max(1)
    }
}

/// A compiled collective: ordered phases.
#[derive(Clone, Debug, Default)]
pub struct CollectivePlan {
    /// Phases in execution order.
    pub phases: Vec<Phase>,
}

impl CollectivePlan {
    /// Compile `scheme` for `group`. The plan is independent of the
    /// synchronization volume: [`CollectiveExec`] replays it for any
    /// total (see [`Phase::bytes`]).
    ///
    /// Empty/singleton groups produce an empty plan (nothing to do);
    /// transfers whose path is empty (co-located endpoints) are elided.
    pub fn compile(g: &Graph, ap: &AllPairs, group: &[NodeId], scheme: Scheme) -> Self {
        if group.len() < 2 {
            return CollectivePlan::default();
        }
        match scheme {
            Scheme::Ring => Self::ring(g, ap, group),
            Scheme::Ina { switch } => Self::ina(g, ap, group, switch),
            Scheme::HierRing => Self::hierarchical(g, ap, group, None),
            Scheme::HierIna { switch } => Self::hierarchical(g, ap, group, Some(switch)),
        }
    }

    fn push_transfer(phase: &mut Phase, g: &Graph, ap: &AllPairs, from: NodeId, to: NodeId) {
        if from == to {
            return;
        }
        let path = ap.path(from, to);
        if path.links.is_empty() {
            return;
        }
        phase.transfers.push(path.directed_links(g).into());
    }

    /// `2(P−1)` steps over the same ring edges, each moving `total / P`.
    /// The steps share one set of routes.
    fn ring(g: &Graph, ap: &AllPairs, group: &[NodeId]) -> Self {
        let p = group.len();
        let mut step = Phase::new(p as u64, SimSpan::ZERO);
        for i in 0..p {
            Self::push_transfer(&mut step, g, ap, group[i], group[(i + 1) % p]);
        }
        CollectivePlan {
            phases: vec![step; 2 * (p - 1)],
        }
    }

    /// Streaming INA (SwitchML's pipelined aggregation): the switch
    /// multicasts aggregated chunks while later chunks are still being
    /// collected, so on full-duplex links the collection (up) and
    /// distribution (down) directions run *concurrently*. One phase with
    /// both directions' flows models this; the single aggregation delay
    /// covers the pipeline fill.
    fn ina(g: &Graph, ap: &AllPairs, group: &[NodeId], switch: NodeId) -> Self {
        let mut phase = Phase::new(1, AGG_DELAY);
        for &k in group {
            Self::push_transfer(&mut phase, g, ap, k, switch);
            Self::push_transfer(&mut phase, g, ap, switch, k);
        }
        CollectivePlan {
            phases: vec![phase],
        }
    }

    /// NVLink-local reduce → inter-server step among leaders → local
    /// broadcast. `switch = None` uses a ring among leaders.
    fn hierarchical(g: &Graph, ap: &AllPairs, group: &[NodeId], switch: Option<NodeId>) -> Self {
        let locals = by_server(g, group);
        let leaders: Vec<NodeId> = locals.iter().map(|(_, ms)| ms[0]).collect();
        let mut phases = Vec::new();

        // Phase 1: members stream to their leader (concurrent across
        // servers; NVLink paths).
        let mut reduce = Phase::new(1, SimSpan::ZERO);
        for (_, members) in &locals {
            for &m in &members[1..] {
                Self::push_transfer(&mut reduce, g, ap, m, members[0]);
            }
        }
        if !reduce.transfers.is_empty() {
            phases.push(reduce);
        }

        // Phase 2: inter-server among leaders.
        if leaders.len() >= 2 {
            let inter = match switch {
                Some(sw) => Self::ina(g, ap, &leaders, sw).phases,
                None => Self::ring(g, ap, &leaders).phases,
            };
            phases.extend(inter);
        }

        // Phase 3: leaders broadcast to members.
        let mut bcast = Phase::new(1, SimSpan::ZERO);
        for (_, members) in &locals {
            for &m in &members[1..] {
                Self::push_transfer(&mut bcast, g, ap, members[0], m);
            }
        }
        if !bcast.transfers.is_empty() {
            phases.push(bcast);
        }
        CollectivePlan { phases }
    }
}

/// Execution progress of a collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// Flows are in flight; wait for their completions.
    InFlight,
    /// All flows of the phase completed; the caller must schedule a timer
    /// for the given span and then call [`CollectiveExec::on_timer`].
    StartTimer(SimSpan),
    /// The collective is complete.
    Done,
}

/// Most transfers one phase may start: [`CollectiveExec`] keeps a phase's
/// completions in a 128-bit mask. A ring step has one transfer per
/// member and an INA phase two, so this covers groups of 64 GPUs.
const MAX_PHASE_TRANSFERS: usize = 128;

/// State machine stepping a shared [`CollectivePlan`] on a [`SimNet`].
///
/// A phase's flows are started back to back, so [`SimNet`] gives them
/// the contiguous ids `first..first + started`; the in-flight set is that
/// range minus the completions recorded in `done`. Nothing is allocated
/// per collective or per flow.
pub struct CollectiveExec {
    plan: Arc<CollectivePlan>,
    total_bytes: u64,
    phase: usize,
    /// Id of the current phase's first flow.
    first: u64,
    /// Flows the current phase started (0 between phases and after an
    /// abort).
    started: usize,
    /// Bit `i` set: flow `first + i` has completed.
    done: u128,
    /// Flows of the current phase still in flight.
    outstanding: usize,
    tag: u64,
}

impl CollectiveExec {
    /// Run `plan` for a `total_bytes` collective; `tag` is attached to
    /// every flow so the driving engine can route completions back here.
    /// A zero-byte collective moves nothing and is done at start.
    pub fn new(plan: Arc<CollectivePlan>, total_bytes: u64, tag: u64) -> Self {
        let phase = if total_bytes == 0 {
            plan.phases.len()
        } else {
            0
        };
        CollectiveExec {
            plan,
            total_bytes,
            phase,
            first: 0,
            started: 0,
            done: 0,
            outstanding: 0,
            tag,
        }
    }

    /// The tag flows carry.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Begin execution at `now`. May return `Done` immediately for empty
    /// plans.
    pub fn start(&mut self, net: &mut SimNet, now: SimTime) -> Progress {
        self.enter_phase(net, now)
    }

    /// Offset of `id` in the current phase's id range, if it is still in
    /// flight there.
    fn in_flight(&self, id: FlowId) -> Option<usize> {
        let i = id.0.checked_sub(self.first)?;
        (i < self.started as u64 && self.done & (1 << i) == 0).then_some(i as usize)
    }

    /// Notify that one of this collective's flows completed.
    ///
    /// # Panics
    /// Panics if `id` is not one of this collective's outstanding flows —
    /// the engine's demux must be exact.
    pub fn on_flow_complete(&mut self, net: &mut SimNet, now: SimTime, id: FlowId) -> Progress {
        let Some(i) = self.in_flight(id) else {
            panic!("flow {id:?} does not belong to collective {}", self.tag);
        };
        self.done |= 1 << i;
        self.outstanding -= 1;
        if self.outstanding > 0 {
            return Progress::InFlight;
        }
        // Phase complete.
        self.started = 0;
        let delay = self.plan.phases[self.phase].post_delay;
        if !delay.is_zero() {
            return Progress::StartTimer(delay);
        }
        self.phase += 1;
        self.enter_phase(net, now)
    }

    /// Whether `id` is one of this collective's in-flight flows.
    pub fn owns_flow(&self, id: FlowId) -> bool {
        self.in_flight(id).is_some()
    }

    /// Abort the collective: cancel every still-outstanding flow (a fault
    /// already removed some from the network — those are passed in
    /// `already_gone`) and clear the in-flight set, so the engine can
    /// recompile and retry over surviving links. Returns how many flows
    /// were cancelled here.
    pub fn abort(&mut self, net: &mut SimNet, now: SimTime, already_gone: &[FlowId]) -> usize {
        // Ascending flow-id order: cancellation order reaches the tracer
        // stream.
        let mut cancelled = 0;
        for i in 0..self.started {
            let id = FlowId(self.first + i as u64);
            if self.done & (1 << i) == 0
                && !already_gone.contains(&id)
                && net.cancel_flow(now, id).is_some()
            {
                cancelled += 1;
            }
        }
        self.started = 0;
        self.outstanding = 0;
        cancelled
    }

    /// Notify that a previously requested post-phase timer elapsed.
    pub fn on_timer(&mut self, net: &mut SimNet, now: SimTime) -> Progress {
        debug_assert_eq!(self.outstanding, 0);
        self.phase += 1;
        self.enter_phase(net, now)
    }

    fn enter_phase(&mut self, net: &mut SimNet, now: SimTime) -> Progress {
        loop {
            let Some(phase) = self.plan.phases.get(self.phase) else {
                return Progress::Done;
            };
            if phase.transfers.is_empty() {
                if !phase.post_delay.is_zero() {
                    return Progress::StartTimer(phase.post_delay);
                }
                self.phase += 1;
                continue;
            }
            assert!(
                phase.transfers.len() <= MAX_PHASE_TRANSFERS,
                "phase of {} transfers exceeds {MAX_PHASE_TRANSFERS}",
                phase.transfers.len()
            );
            let bytes = phase.bytes(self.total_bytes);
            for (i, path) in phase.transfers.iter().enumerate() {
                let id = net.start_flow(now, path.clone(), bytes, self.tag);
                if i == 0 {
                    self.first = id.0;
                }
                assert_eq!(id.0, self.first + i as u64, "phase flow ids are contiguous");
            }
            self.started = phase.transfers.len();
            self.outstanding = self.started;
            self.done = 0;
            return Progress::InFlight;
        }
    }
}

/// Convenience driver: run a single collective to completion on an
/// otherwise idle network and return its duration. Used by tests and by
/// the aggregation-throughput experiment (Fig. 9's measurement loop).
pub fn run_isolated(
    g: &Graph,
    ap: &AllPairs,
    group: &[NodeId],
    scheme: Scheme,
    total_bytes: u64,
) -> SimSpan {
    let mut net = SimNet::new(g);
    run_on(&mut net, SimTime::ZERO, g, ap, group, scheme, total_bytes)
}

/// Run a single collective to completion on an existing network (which
/// may carry other traffic that keeps flowing meanwhile). Returns the
/// collective's duration from `start`.
pub fn run_on(
    net: &mut SimNet,
    start: SimTime,
    g: &Graph,
    ap: &AllPairs,
    group: &[NodeId],
    scheme: Scheme,
    total_bytes: u64,
) -> SimSpan {
    let plan = Arc::new(CollectivePlan::compile(g, ap, group, scheme));
    let mut exec = CollectiveExec::new(plan, total_bytes, u64::MAX);
    let mut now = start;
    let mut done = Vec::new();
    let mut progress = exec.start(net, now);
    loop {
        match progress {
            Progress::Done => return now - start,
            Progress::StartTimer(d) => {
                now += d;
                // Other traffic keeps draining while the switch aggregates.
                net.advance_to(now, &mut done);
                done.clear();
                progress = exec.on_timer(net, now);
            }
            Progress::InFlight => {
                let t = net
                    .next_event_time()
                    .expect("in-flight collective implies pending flows");
                now = t;
                net.advance_to(t, &mut done);
                let mut next = Progress::InFlight;
                for (id, f) in done.drain(..) {
                    if f.tag == exec.tag() {
                        next = exec.on_flow_complete(net, now, id);
                    }
                }
                progress = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{hierarchical_ina_latency, ina_latency, ring_latency};
    use hs_topology::builders::fig2_micro;
    use hs_topology::LinkWeight;

    fn setup() -> (hs_topology::builders::Fig2Micro, AllPairs) {
        let m = fig2_micro();
        let mut nodes = m.gpus.to_vec();
        nodes.push(m.access);
        nodes.push(m.core);
        let ap = AllPairs::compute(&m.graph, &nodes, LinkWeight::Latency, None);
        (m, ap)
    }

    #[test]
    fn empty_and_singleton_plans_are_noops() {
        let (m, ap) = setup();
        let p = CollectivePlan::compile(&m.graph, &ap, &m.gpus[..1], Scheme::Ring);
        assert!(p.phases.is_empty());
        let d = run_isolated(&m.graph, &ap, &m.gpus[..1], Scheme::Ring, 1 << 20);
        assert!(d.is_zero());
        // A zero-byte collective is done at start, even for a plan whose
        // INA phase would otherwise wait out the aggregation delay.
        let d = run_isolated(&m.graph, &ap, &m.gpus, Scheme::Ina { switch: m.core }, 0);
        assert!(d.is_zero());
    }

    #[test]
    fn ring_plan_shape() {
        let (m, ap) = setup();
        let p = CollectivePlan::compile(&m.graph, &ap, &m.gpus, Scheme::Ring);
        assert_eq!(p.phases.len(), 4); // 2(P-1)
        for ph in &p.phases {
            assert_eq!(ph.transfers.len(), 3);
            assert!(ph.post_delay.is_zero());
            assert_eq!(ph.bytes(3_000_000), 1_000_000);
            // Every step reuses the first step's routes.
            for (a, b) in ph.transfers.iter().zip(&p.phases[0].transfers) {
                assert!(Arc::ptr_eq(a, b));
            }
        }
    }

    #[test]
    fn ina_plan_shape() {
        let (m, ap) = setup();
        let p = CollectivePlan::compile(&m.graph, &ap, &m.gpus, Scheme::Ina { switch: m.core });
        // Streaming INA: one overlapped phase with up + down flows.
        assert_eq!(p.phases.len(), 1);
        assert_eq!(p.phases[0].transfers.len(), 6);
        assert_eq!(p.phases[0].post_delay, AGG_DELAY);
    }

    #[test]
    fn hierarchical_moves_bytes_off_ethernet() {
        let (m, ap) = setup();
        let flat = CollectivePlan::compile(&m.graph, &ap, &m.gpus, Scheme::Ina { switch: m.core });
        let hier =
            CollectivePlan::compile(&m.graph, &ap, &m.gpus, Scheme::HierIna { switch: m.access });
        // Count Ethernet-link bytes only.
        let eth_bytes = |p: &CollectivePlan| -> u64 {
            p.phases
                .iter()
                .flat_map(|ph| ph.transfers.iter().map(|links| (links, ph.bytes(1 << 20))))
                .map(|(links, b)| {
                    links
                        .iter()
                        .filter(|&&(l, _)| m.graph.link(l).kind == hs_topology::LinkKind::Ethernet)
                        .count() as u64
                        * b
                })
                .sum()
        };
        assert!(
            eth_bytes(&hier) < eth_bytes(&flat) / 2,
            "hier {} vs flat {}",
            eth_bytes(&hier),
            eth_bytes(&flat)
        );
    }

    #[test]
    fn executed_ina_matches_closed_form() {
        let (m, ap) = setup();
        let bytes = 1 << 20;
        let measured = run_isolated(
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::Ina { switch: m.core },
            bytes,
        )
        .as_secs_f64();
        let predicted = ina_latency(&m.graph, &m.gpus, m.core, &ap, bytes, None);
        // The closed form is store-and-forward per hop (the paper's
        // Eq. 8-10 arithmetic); the flow simulation is cut-through and
        // full duplex, so it may run faster on multi-hop paths and
        // slower under trunk sharing. Bound it both ways.
        assert!(measured >= predicted * 0.3, "{measured} << {predicted}");
        assert!(measured <= predicted * 2.2, "{measured} >> {predicted}");
    }

    #[test]
    fn executed_ring_matches_closed_form() {
        let (m, ap) = setup();
        let bytes = 3 << 20;
        let measured = run_isolated(&m.graph, &ap, &m.gpus, Scheme::Ring, bytes).as_secs_f64();
        let predicted = ring_latency(&m.graph, &m.gpus, &ap, bytes, None);
        // Same rationale as the INA check: cut-through vs
        // store-and-forward bounds.
        assert!(measured >= predicted * 0.3, "{measured} << {predicted}");
        assert!(measured <= predicted * 2.2, "{measured} vs {predicted}");
    }

    #[test]
    fn executed_hierarchical_beats_homogeneous() {
        let (m, ap) = setup();
        let bytes = 1 << 20;
        let homo = run_isolated(
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::Ina { switch: m.core },
            bytes,
        );
        let hetero = run_isolated(
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::HierIna { switch: m.access },
            bytes,
        );
        assert!(
            hetero.as_secs_f64() < 0.75 * homo.as_secs_f64(),
            "hetero {hetero} vs homo {homo}"
        );
        let predicted = hierarchical_ina_latency(&m.graph, &m.gpus, m.access, &ap, bytes, None);
        assert!(hetero.as_secs_f64() >= predicted * 0.99);
    }

    #[test]
    fn concurrent_collectives_contend() {
        let (m, ap) = setup();
        let bytes = 4 << 20;
        // Run one collective alone, then two of the same concurrently.
        let alone = run_isolated(
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::Ina { switch: m.core },
            bytes,
        );
        let mut net = SimNet::new(&m.graph);
        // Background: a bulk flow on the S2->S1 trunk, the bottleneck the
        // collection phase already shares between GN1 and GN2.
        let bg_path = ap.path(m.access, m.core).directed_links(&m.graph);
        net.start_flow(SimTime::ZERO, bg_path.into(), 1 << 30, 0);
        let contended = run_on(
            &mut net,
            SimTime::ZERO,
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::Ina { switch: m.core },
            bytes,
        );
        assert!(
            contended.as_secs_f64() > 1.3 * alone.as_secs_f64(),
            "contended {contended} vs alone {alone}"
        );
    }

    /// A started six-flow INA collective (tag 5) on the Fig. 2 fabric,
    /// with one unrelated flow started just before it.
    fn started_ina() -> (SimNet, CollectiveExec, FlowId, u64) {
        let (m, ap) = setup();
        let plan = CollectivePlan::compile(&m.graph, &ap, &m.gpus, Scheme::Ina { switch: m.core });
        let mut net = SimNet::new(&m.graph);
        let bg = ap.path(m.access, m.core).directed_links(&m.graph);
        let foreign = net.start_flow(SimTime::ZERO, bg.into(), 1 << 20, 9);
        let mut exec = CollectiveExec::new(Arc::new(plan), 1 << 20, 5);
        assert_eq!(exec.start(&mut net, SimTime::ZERO), Progress::InFlight);
        (net, exec, foreign, foreign.0 + 1)
    }

    #[test]
    fn phase_flow_ids_are_contiguous() {
        let (net, exec, foreign, first) = started_ina();
        assert!(!exec.owns_flow(foreign));
        for id in first..first + 6 {
            assert!(exec.owns_flow(FlowId(id)), "flow {id}");
            assert_eq!(net.flow(FlowId(id)).map(|f| f.tag), Some(5));
        }
        assert!(!exec.owns_flow(FlowId(first + 6)));

        // The next phase's flows are a fresh contiguous range.
        let (m, ap) = setup();
        let plan = Arc::new(CollectivePlan::compile(
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::Ring,
        ));
        let mut net = SimNet::new(&m.graph);
        let mut exec = CollectiveExec::new(plan, 3_000_000, 1);
        exec.start(&mut net, SimTime::ZERO);
        let mut done = Vec::new();
        let (mut starts, mut unseen) = (Vec::new(), 0);
        loop {
            // Flows started since the last look: one whole phase, owned.
            let new = (unseen..)
                .take_while(|&i| net.flow(FlowId(i)).is_some())
                .count() as u64;
            if new > 0 {
                assert_eq!(new, 3);
                assert!((unseen..unseen + 3).all(|i| exec.owns_flow(FlowId(i))));
                starts.push(unseen);
                unseen += new;
            }
            let Some(t) = net.next_event_time() else {
                break;
            };
            net.advance_to(t, &mut done);
            for (id, _) in done.drain(..) {
                exec.on_flow_complete(&mut net, t, id);
            }
        }
        assert_eq!(starts, vec![0, 3, 6, 9], "four ring steps of three flows");
    }

    #[test]
    #[should_panic(expected = "does not belong to collective 5")]
    fn foreign_completion_panics() {
        let (mut net, mut exec, foreign, _) = started_ina();
        exec.on_flow_complete(&mut net, SimTime::ZERO, foreign);
    }

    #[test]
    #[should_panic(expected = "does not belong to collective 5")]
    fn duplicate_completion_panics() {
        let (mut net, mut exec, _, first) = started_ina();
        let id = FlowId(first + 2);
        assert_eq!(
            exec.on_flow_complete(&mut net, SimTime::ZERO, id),
            Progress::InFlight
        );
        exec.on_flow_complete(&mut net, SimTime::ZERO, id);
    }

    #[test]
    fn abort_cancels_only_outstanding_flows_in_ascending_order() {
        let (mut net, mut exec, foreign, first) = started_ina();
        let tracer = hs_obs::Tracer::recording();
        net.set_tracer(&tracer);
        let now = SimTime::from_micros(1);
        // Flow `first + 1` completed; the fault already took `first + 4`
        // (it is left live here, so cancelling it would show).
        let completed = FlowId(first + 1);
        net.cancel_flow(now, completed);
        exec.on_flow_complete(&mut net, now, completed);
        let gone = FlowId(first + 4);
        let before = tracer.records().len();
        assert_eq!(exec.abort(&mut net, now, &[gone]), 4);
        let cancelled: Vec<u64> = tracer.records()[before..]
            .iter()
            .filter(|r| r.name == "flow_abort")
            .map(|r| r.tid)
            .collect();
        assert_eq!(cancelled, [0, 2, 3, 5].map(|i| first + i));
        assert!(net.flow(gone).is_some() && net.flow(foreign).is_some());
        assert!((first..first + 6).all(|id| !exec.owns_flow(FlowId(id))));
    }
}
