//! The flow-level network simulator.
//!
//! [`SimNet`] tracks a set of active [`Flow`]s, allocates link bandwidth
//! among them max-min fairly, and advances flow progress in lock-step with
//! an external clock. It is an *event source*: a parent simulation asks
//! [`SimNet::next_event_time`] when the earliest flow will finish, advances
//! its own clock, then calls [`SimNet::advance_to`] to collect completions.
//!
//! A flow's completion time is `max(serialization finish, start +
//! path propagation delay)`; serialization progress accrues at the flow's
//! current fair-share rate, which changes whenever flows start or finish.
//!
//! # Incremental two-tier fair-share engine
//!
//! Rate maintenance is *incremental* (see DESIGN.md §9 and §12). The
//! simulator owns a persistent [`SolverWorkspace`] plus a link→flow
//! incidence table, so a flow add/remove triggers a **component-scoped**
//! re-solve: only the flows transitively sharing a link with the changed
//! flow are re-rated (max-min allocations decompose across connected
//! components of the flow/link graph, so untouched components keep their
//! exact rates). [`SimNet::set_link_scale`] is scoped the same way — a
//! capacity change can only move bottlenecks within the scaled link's
//! component. Each scoped solve first tries the **aggregate tier**
//! ([`OneRoundSolver`]): a component constrained by a single bottleneck
//! link is settled in one round, bitwise-identical to the exact solver,
//! and only a component where a second link saturates hands off to the
//! full water-filling loop.
//!
//! Flow progress is accrued **lazily at touch points**: a flow's
//! `remaining_bytes` is materialized only when its rate *value* changes
//! (or it is cancelled/aborted/completed) — points that are identical in
//! scoped, full-resolve, and sharded modes, which is what keeps all modes
//! bit-identical. Byte-counter queries ([`SimNet::cumulative_bytes_dir`],
//! [`SimNet::flow_remaining`]) are pure: they add the pending in-flight
//! contribution without mutating state. Completion lookup uses a
//! lazily-invalidated min-heap of `(finish, flow, epoch)` entries — this
//! doubles as the position heap of the aggregate tier — making
//! [`SimNet::next_event_time`] and [`SimNet::advance_to`] `O(log n)` per
//! event with *no* per-event scan over unrelated flows.
//!
//! Bulk advances over many due completions are **sharded**: independent
//! connected components are extracted as owned tasks, simulated on rayon
//! workers, and their completion lists merged deterministically by
//! `(SimTime, FlowId)` (see `shard.rs` and DESIGN.md §12). Results are
//! bit-identical to the sequential loop: `tests/equivalence.rs` drives
//! arbitrary event sequences through every mode and a retained reference
//! implementation and asserts identical rates, completions, and
//! cumulative link bytes.

use crate::fairshare::{single_flow_rate, FlowSpan, OneRoundSolver, SolverWorkspace};
use crate::shard::{run_shard, ShardTask};
use crate::slab::FlowSlab;
use hs_des::{SimSpan, SimTime};
use hs_topology::{Graph, LinkId};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One directed hop: the link and whether it is traversed `a -> b`
/// (links are full duplex; each direction is its own capacity pool).
pub type DirLink = (LinkId, bool);

/// Dense slot index of a directed link.
#[inline]
pub(crate) fn slot(d: DirLink) -> usize {
    d.0.idx() * 2 + d.1 as usize
}

/// Identifier of an active (or completed) flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// An active transfer.
#[derive(Clone, Debug)]
pub struct Flow {
    /// Directed hops the flow traverses (loopless). Shared, not copied:
    /// every flow started over the same route holds the same allocation
    /// (a compiled collective plan starts its routes this way).
    pub path: Arc<[DirLink]>,
    /// Bytes still to serialize *as of the last materialization point*
    /// (rate change, cancel, or completion). For the live value at the
    /// current clock use [`SimNet::flow_remaining`]; flows returned by
    /// cancel/abort/complete are materialized before they are handed out.
    pub remaining_bytes: f64,
    /// Total size at start (for reporting).
    pub size_bytes: u64,
    /// Current allocated rate, bits/s (∞ for empty paths).
    pub rate_bps: f64,
    /// Relative fair-share weight.
    pub weight: f64,
    /// Start time.
    pub started: SimTime,
    /// Total propagation delay along the path.
    pub prop: SimSpan,
    /// Completion cannot occur before this; once the flow drains, holds
    /// drain time + propagation (the last bit's arrival).
    pub earliest_finish: SimTime,
    /// Caller-supplied tag for demultiplexing completions.
    pub tag: u64,
    /// Canonical completion estimate: fixed at each rate assignment (or
    /// drain), never recomputed in between, so heap keys stay exact.
    /// `SimTime::MAX` while starved (rate 0).
    pub(crate) finish_at: SimTime,
    /// Progress is accrued up to this instant; the window
    /// `(touched, clock]` is pending at `rate_bps` (lazy accrual).
    pub(crate) touched: SimTime,
    /// Validity epoch of this flow's newest heap entry; entries carrying
    /// an older epoch are stale and discarded when they surface.
    /// Per-flow (not global) so shard execution order cannot influence it.
    pub(crate) epoch: u64,
    /// Visit stamp for the component BFS (scoped re-solves).
    pub(crate) seen: u64,
}

impl Flow {
    /// The flow's current completion estimate (`SimTime::MAX` while it is
    /// starved by a dead link).
    pub fn finish_at(&self) -> SimTime {
        self.finish_at
    }
}

/// Min-heap entry: `(finish estimate, flow, epoch)`. The epoch tiebreak
/// keeps pop order fully deterministic even among stale duplicates.
type HeapEntry = Reverse<(SimTime, FlowId, u64)>;

/// The lazily invalidated completion heap. Each flow's entry carries the
/// flow's epoch at push time; only the entry matching a live flow's
/// current epoch is valid, the rest are stale and are discarded when
/// they surface.
///
/// Invariant: only a flow that stays in the network is ever (re-)keyed.
/// A flow leaving it (completion, cancel, abort) accrues its bytes
/// without a push, so a stale entry is either one a live flow's re-key
/// superseded or the current entry of a cancelled or aborted flow.
#[derive(Default)]
pub(crate) struct CompletionHeap {
    entries: BinaryHeap<HeapEntry>,
    /// Entries pushed over the heap's lifetime.
    pushes: u64,
    /// Stale entries discarded when they surfaced.
    stale_pops: u64,
}

impl CompletionHeap {
    /// Push an entry as is.
    pub(crate) fn push(&mut self, finish: SimTime, id: FlowId, epoch: u64) {
        self.pushes += 1;
        self.entries.push(Reverse((finish, id, epoch)));
    }

    /// Invalidate `f`'s entries and make its current estimate the one
    /// valid entry (none while starved: `finish_at == SimTime::MAX`).
    pub(crate) fn rekey(&mut self, f: &mut Flow, id: FlowId) {
        f.epoch += 1;
        if f.finish_at < SimTime::MAX {
            self.push(f.finish_at, id, f.epoch);
        }
    }

    /// Earliest valid entry, discarding stale ones on the way.
    /// `epoch_of` gives a live flow's current epoch (`None` once gone).
    pub(crate) fn peek_valid(
        &mut self,
        epoch_of: impl Fn(FlowId) -> Option<u64>,
    ) -> Option<(SimTime, FlowId, u64)> {
        while let Some(&Reverse((t, id, ep))) = self.entries.peek() {
            if epoch_of(id) == Some(ep) {
                return Some((t, id, ep));
            }
            self.entries.pop();
            self.stale_pops += 1;
        }
        None
    }

    /// Drop the earliest entry (after [`Self::peek_valid`] returned it).
    pub(crate) fn pop(&mut self) {
        self.entries.pop();
    }

    /// Drop every entry (the counters keep running).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Accrue `f`'s progress over `(f.touched, clock]` at its current rate.
///
/// This is THE materialization point of the lazy-accrual contract: it runs
/// only when the flow's rate value is about to change, or the flow is
/// cancelled/aborted/completed — events that occur at identical instants
/// in scoped, full-resolve, and sharded modes (rates are bitwise equal
/// across modes), so every mode performs the identical float operations.
/// `to_slot` maps a directed hop to the index into `cum` (global slots
/// for [`SimNet`], component-local slots for a shard).
///
/// Returns `true` when the flow drained inside the window, which moves
/// its completion estimate to the last bit's arrival. The caller decides
/// on the re-key: a flow that stays in the network must
/// [`CompletionHeap::rekey`]; a flow that is leaving skips it and so
/// leaves no dead entry behind.
pub(crate) fn materialize<M: Fn(DirLink) -> usize>(
    f: &mut Flow,
    clock: SimTime,
    cum: &mut [f64],
    to_slot: M,
) -> bool {
    if clock <= f.touched {
        return false;
    }
    let base = f.touched;
    f.touched = clock;
    if f.rate_bps > 0.0 && f.rate_bps.is_finite() && f.remaining_bytes > 0.0 {
        let dt = (clock - base).as_secs_f64();
        let bytes = f.rate_bps / 8.0 * dt;
        let consumed = bytes.min(f.remaining_bytes);
        // If the flow drains inside this window, record the last bit's
        // arrival time (drain instant + propagation).
        if consumed >= f.remaining_bytes {
            let drain_secs = f.remaining_bytes * 8.0 / f.rate_bps;
            let drained_at = base + SimSpan::from_secs_f64(drain_secs);
            f.earliest_finish = f.earliest_finish.max(drained_at + f.prop);
        }
        f.remaining_bytes -= consumed;
        if f.remaining_bytes < 1e-6 {
            f.remaining_bytes = 0.0;
        }
        for &d in f.path.iter() {
            cum[to_slot(d)] += consumed;
        }
        if f.remaining_bytes <= 0.0 && f.finish_at != f.earliest_finish {
            // Drain transition: the estimate is final now.
            f.finish_at = f.earliest_finish;
            return true;
        }
    } else if f.rate_bps.is_infinite() {
        // Empty-path flow: delivered instantly, no link bytes.
        f.remaining_bytes = 0.0;
    }
    false
}

/// Remove `id` from one directed slot's (ascending) incidence list.
fn remove_incidence(list: &mut Vec<FlowId>, id: FlowId) {
    if let Ok(i) = list.binary_search(&id) {
        list.remove(i);
    } else {
        debug_assert!(false, "flow missing from incidence list");
    }
}

/// Bytes `f` would consume if materialized at `clock` — the pure
/// (non-mutating) mirror of [`materialize`]'s consumption arithmetic,
/// used by the query accessors.
pub(crate) fn pending_consumed(f: &Flow, clock: SimTime) -> f64 {
    if clock > f.touched && f.rate_bps > 0.0 && f.rate_bps.is_finite() && f.remaining_bytes > 0.0 {
        let dt = (clock - f.touched).as_secs_f64();
        (f.rate_bps / 8.0 * dt).min(f.remaining_bytes)
    } else {
        0.0
    }
}

/// Completion estimate for a *serializing* flow at `clock` (callers
/// handle the drained and starved cases).
pub(crate) fn serial_estimate(clock: SimTime, f: &Flow) -> SimTime {
    if f.rate_bps.is_infinite() {
        return f.earliest_finish;
    }
    // simlint::allow(float-eq, 0.0 is an exact assigned sentinel for starved flows, never computed)
    if f.rate_bps == 0.0 {
        return SimTime::MAX;
    }
    let secs = f.remaining_bytes * 8.0 / f.rate_bps;
    let ser = clock + SimSpan::from_secs_f64(secs).saturating_add(SimSpan::from_nanos(1));
    (ser + f.prop).max(f.earliest_finish)
}

/// Install a freshly solved rate on live flow `f`. Only a change of the
/// rate *value* does anything: the flow first accrues its progress at
/// the old rate ([`materialize`], re-keying on a drain), then its
/// completion estimate (and heap entry) is refreshed. Under an unchanged
/// rate the estimate is invariant (progress accrues at exactly that
/// rate), so keeping the stored one avoids rounding drift — the property
/// that makes incremental and from-scratch solving bit-identical.
pub(crate) fn assign_rate<M: Fn(DirLink) -> usize>(
    f: &mut Flow,
    id: FlowId,
    rate: f64,
    clock: SimTime,
    cum: &mut [f64],
    heap: &mut CompletionHeap,
    to_slot: M,
) {
    if rate.to_bits() == f.rate_bps.to_bits() {
        return;
    }
    if materialize(f, clock, cum, to_slot) {
        heap.rekey(f, id);
    }
    f.rate_bps = rate;
    if f.remaining_bytes <= 0.0 {
        // Drained: completion waits only on propagation; the rate no
        // longer matters for the estimate.
        return;
    }
    let finish = serial_estimate(clock, f);
    if finish != f.finish_at {
        f.finish_at = finish;
        heap.rekey(f, id);
    }
}

/// Counters describing how much solving work the engine performed —
/// the observable for scoping/aggregate-tier regression tests and for
/// benchmark reporting. Monotone over the simulator's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Component-scoped re-solves (each may settle via the aggregate
    /// tier or hand off to the exact solver).
    pub scoped_solves: u64,
    /// Scoped solves settled entirely by the one-round aggregate tier.
    pub aggregate_solves: u64,
    /// Global re-solves (only in [`SimNet::set_full_resolve`] mode).
    pub full_solves: u64,
    /// Total flows rated across all solves (the work metric: a scoped
    /// solve of a k-flow component adds k).
    pub flows_rated: u64,
    /// Re-solves performed inside shard workers during bulk advances.
    pub shard_solves: u64,
    /// Bulk advances that took the sharded path.
    pub sharded_batches: u64,
    /// Component shards executed across all sharded batches.
    pub shards_run: u64,
    /// Entries pushed onto the completion heap, each the new valid entry
    /// of a flow that stays in the network (shard-local heaps are not
    /// counted).
    pub heap_pushes: u64,
    /// Stale completion-heap entries discarded when they surfaced.
    pub stale_pops: u64,
}

/// Reusable buffers for building solver inputs and running the component
/// BFS — allocation-free at steady state.
#[derive(Default)]
struct SolveScratch {
    /// Flat directed-slot arena (all component paths back to back).
    flat: Vec<usize>,
    /// One span per component flow, in ascending [`FlowId`] order.
    spans: Vec<FlowSpan>,
    /// Component flow ids, parallel to `spans`.
    ids: Vec<FlowId>,
    /// Directed slots belonging to the component (incl. seed slots whose
    /// last flow just left — their allocated rate must drop to zero).
    comp_links: Vec<usize>,
    /// BFS work stack of directed slots.
    queue: Vec<usize>,
    /// Visit stamp per directed slot (lazy reset via generation counter).
    link_stamp: Vec<u64>,
}

/// Flow-level network state over a fixed topology.
pub struct SimNet {
    /// Per-link capacity (each *direction* gets the full capacity:
    /// full-duplex links). Current, i.e. after fault scaling.
    capacities: Vec<f64>,
    /// Nominal per-link capacity; `capacities[i] = base_capacities[i] *
    /// scale` where scale is set by [`SimNet::set_link_scale`].
    base_capacities: Vec<f64>,
    /// Directed-slot capacity vector fed to the solver (2 slots per link),
    /// kept in sync with `capacities`.
    dir_caps: Vec<f64>,
    link_latency_ns: Vec<u64>,
    /// Active flows by id (see [`FlowSlab`]). Per-event validity checks
    /// dominate the hot path and a direct index beats any hash; slab
    /// order is ascending-id order, which is exactly what every
    /// order-sensitive traversal needs.
    flows: FlowSlab,
    next_id: u64,
    clock: SimTime,
    /// Cumulative bytes delivered per directed link as of each flow's last
    /// materialization (index = link*2 + direction). Queries add the
    /// pending in-flight window on top — see
    /// [`SimNet::cumulative_bytes_dir`].
    cum_bytes: Vec<f64>,
    /// Allocated rate per directed link (sum of flow rates), bits/s.
    link_rate: Vec<f64>,
    /// Which flows cross each directed slot, ascending by id (ids are
    /// monotone, so insertion is an append and order is free).
    incidence: Vec<Vec<FlowId>>,
    /// Links where a flow joined an idle direction since the last
    /// [`SimNet::drain_joined_links`], each once (`joined[l]` marks the
    /// members, so the list never outgrows the link count). Together with
    /// the links that carried flows at the last poll, these are the only
    /// links whose byte counters can have moved (see [`crate::LinkMonitor`]).
    joined_links: Vec<LinkId>,
    joined: Vec<bool>,
    dirty: bool,
    /// Directed slots touched by flow adds/removes (or a capacity change)
    /// since the last solve.
    seed_slots: Vec<usize>,
    /// Lazy-invalidation completion heap; doubles as the aggregate tier's
    /// position heap (a single-bottleneck component's next event is its
    /// earliest heap entry).
    heap: CompletionHeap,
    /// Generation counter for BFS visit stamps.
    visit_gen: u64,
    ws: SolverWorkspace,
    /// Aggregate tier: one-round single-bottleneck kernel.
    agg: OneRoundSolver,
    scratch: SolveScratch,
    /// Validation/benchmark knob: when set, every re-solve is global and
    /// bulk advances never shard (the pre-incremental reference
    /// behaviour). Results are bit-identical either way — asserted by
    /// `tests/equivalence.rs`.
    full_resolve: bool,
    /// A bulk advance with more than this many due completions takes the
    /// sharded path; `usize::MAX` disables sharding.
    shard_threshold: usize,
    stats: SolveStats,
    /// Flow/link event sink; no-op unless attached via
    /// [`SimNet::set_tracer`]. Never affects simulation state.
    tracer: hs_obs::Tracer,
}

impl SimNet {
    /// Create a simulator over the links of `graph`.
    pub fn new(graph: &Graph) -> Self {
        let capacities = graph.capacities();
        let link_latency_ns = graph.links().map(|(_, l)| l.latency_ns).collect();
        let n = capacities.len();
        let mut dir_caps = Vec::with_capacity(2 * n);
        for &c in &capacities {
            dir_caps.push(c);
            dir_caps.push(c);
        }
        SimNet {
            base_capacities: capacities.clone(),
            capacities,
            dir_caps,
            link_latency_ns,
            flows: FlowSlab::default(),
            next_id: 0,
            clock: SimTime::ZERO,
            cum_bytes: vec![0.0; 2 * n],
            link_rate: vec![0.0; 2 * n],
            incidence: vec![Vec::new(); 2 * n],
            joined_links: Vec::new(),
            joined: vec![false; n],
            dirty: false,
            seed_slots: Vec::new(),
            heap: CompletionHeap::default(),
            visit_gen: 0,
            ws: SolverWorkspace::new(),
            agg: OneRoundSolver::new(),
            scratch: SolveScratch {
                link_stamp: vec![0; 2 * n],
                ..SolveScratch::default()
            },
            full_resolve: false,
            // Sharding only pays for itself when there are workers to
            // hand shards to: extraction and merge-back are pure
            // overhead on a single-thread pool, where the sequential
            // loop over the same batch is strictly faster. Output is
            // bit-identical either way.
            shard_threshold: if rayon::current_num_threads() > 1 {
                64
            } else {
                usize::MAX
            },
            stats: SolveStats::default(),
            tracer: hs_obs::Tracer::noop(),
        }
    }

    /// Attach a tracer for flow start/abort and link-scale events.
    pub fn set_tracer(&mut self, tracer: &hs_obs::Tracer) {
        self.tracer = tracer.clone();
    }

    /// Force every re-solve to be global instead of component-scoped
    /// (also disables the aggregate tier and sharded advances).
    ///
    /// A validation/benchmark knob: rates, completions, and byte counters
    /// are bit-identical in both modes (the equivalence suite asserts so);
    /// only the work per event differs.
    pub fn set_full_resolve(&mut self, on: bool) {
        self.full_resolve = on;
    }

    /// Bulk advances with more than `threshold` due completions are
    /// sharded across components (`usize::MAX` disables sharding, `0`
    /// shards every non-empty bulk advance). Output is bit-identical at
    /// any threshold; this only tunes work distribution.
    pub fn set_shard_threshold(&mut self, threshold: usize) {
        self.shard_threshold = threshold;
    }

    /// Solver work counters (see [`SolveStats`]).
    pub fn solve_stats(&self) -> SolveStats {
        SolveStats {
            heap_pushes: self.heap.pushes,
            stale_pops: self.heap.stale_pops,
            ..self.stats
        }
    }

    /// Current internal clock (last `advance_to` or flow start).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of in-flight flows.
    pub fn active_flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Start a unit-weight flow of `bytes` over the directed `path` at
    /// time `now`. The flow keeps `path` itself (a reference count, not a
    /// copy), so a caller that starts many flows over one route builds the
    /// `Arc` once and clones it.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        path: Arc<[DirLink]>,
        bytes: u64,
        tag: u64,
    ) -> FlowId {
        self.start_weighted_flow(now, path, bytes, 1.0, tag)
    }

    /// Start a flow with an explicit fair-share weight (used to model a
    /// collective step that opens several parallel streams).
    pub fn start_weighted_flow(
        &mut self,
        now: SimTime,
        path: Arc<[DirLink]>,
        bytes: u64,
        weight: f64,
        tag: u64,
    ) -> FlowId {
        assert!(weight > 0.0, "flow weight must be positive");
        self.progress_to(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let prop_ns: u64 = path
            .iter()
            .map(|&(l, _)| self.link_latency_ns[l.idx()])
            .sum();
        let prop = SimSpan::from_nanos(prop_ns);
        let hops = path.len();
        // The new flow's slots seed the next scoped solve.
        for &d in path.iter() {
            if self.incidence[slot(d)].is_empty() && !self.joined[d.0.idx()] {
                self.joined[d.0.idx()] = true;
                self.joined_links.push(d.0);
            }
            self.incidence[slot(d)].push(id);
            self.seed_slots.push(slot(d));
        }
        self.dirty |= hops > 0;
        let mut f = Flow {
            path,
            remaining_bytes: bytes as f64,
            size_bytes: bytes,
            rate_bps: 0.0,
            weight,
            started: now,
            prop,
            earliest_finish: now + prop,
            tag,
            finish_at: SimTime::MAX,
            touched: self.clock,
            epoch: 0,
            seen: 0,
        };
        if hops == 0 {
            // Local copy: unconstrained, delivered after propagation only.
            f.rate_bps = f64::INFINITY;
        }
        if hops == 0 || f.remaining_bytes <= 0.0 {
            // Nothing to serialize (or nothing constraining it): the
            // completion estimate is final right now.
            f.finish_at = f.earliest_finish;
            self.heap.rekey(&mut f, id);
        }
        self.flows.put(id, f);
        self.tracer.flow_start(now, id.0, tag, bytes, hops);
        id
    }

    /// Remove a flow before completion (e.g. a cancelled transfer).
    ///
    /// Returns the flow if it was active and still serializing. A flow
    /// that has already drained — every byte delivered, completion only
    /// awaiting the last bit's propagation — is *not* cancellable: the
    /// call returns `None` and the completion is still delivered by
    /// [`SimNet::advance_to`], so callers can distinguish a true
    /// mid-flight abort (`Some`, `remaining_bytes > 0`) from a transfer
    /// that actually finished.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<Flow> {
        self.progress_to(now);
        let clock = self.clock;
        let drained = match self.flows.get_mut(id) {
            None => return None,
            Some(f) => {
                // A cancel is a touch point: accrue before deciding. Only
                // a drained flow re-keys, and a drained flow stays.
                if materialize(f, clock, &mut self.cum_bytes, slot) {
                    self.heap.rekey(f, id);
                }
                f.remaining_bytes <= 0.0 && !f.path.is_empty()
            }
        };
        if drained {
            return None;
        }
        let f = self.flows.remove(id).expect("flow looked up just above");
        self.unlink(id, &f.path);
        self.tracer.flow_abort(now, id.0, "cancelled");
        Some(f)
    }

    /// Inspect an active flow. `remaining_bytes` on the result is as of
    /// the flow's last materialization — use [`SimNet::flow_remaining`]
    /// for the value at the current clock.
    pub fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.flows.get(id)
    }

    /// Bytes a live flow still has to serialize at the current clock
    /// (pure: stored progress plus the pending in-flight window).
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        let f = self.flow(id)?;
        if f.rate_bps.is_infinite() && self.clock > f.touched {
            return Some(0.0);
        }
        let mut rem = f.remaining_bytes - pending_consumed(f, self.clock);
        if rem < 1e-6 {
            rem = 0.0;
        }
        Some(rem)
    }

    /// The time of the earliest flow completion, or `None` when idle.
    ///
    /// `O(log n)` amortized: stale heap entries are popped as they
    /// surface; the first valid entry is the answer (every non-starved
    /// flow keeps exactly one valid entry).
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.solve_if_dirty();
        if let Some((t, _)) = self.peek_valid() {
            return Some(t.max(self.clock));
        }
        if self.flows.is_empty() {
            None
        } else {
            // Every remaining flow is starved (rate 0 on a dead link).
            Some(SimTime::MAX)
        }
    }

    /// Advance the clock to `now` and append the flows that completed to
    /// `done` (in completion-then-id order). `done` is the caller's: it is
    /// not cleared, so a driver that drains it after each call reuses one
    /// buffer for the whole run.
    ///
    /// Small batches run the sequential loop: pop the earliest valid heap
    /// entry, materialize and remove the flow, re-solve its component
    /// (completions change rates, which changes later completions within
    /// the same window), repeat. Batches above the shard threshold are
    /// dispatched per connected component to rayon workers and merged
    /// deterministically — bit-identical to the sequential loop.
    pub fn advance_to(&mut self, now: SimTime, done: &mut Vec<(FlowId, Flow)>) {
        assert!(now >= self.clock, "SimNet clock must be monotone");
        if !self.full_resolve
            && self.shard_threshold != usize::MAX
            && self.advance_sharded(now, done)
        {
            return;
        }
        loop {
            self.solve_if_dirty();
            let Some((t, id)) = self.peek_valid() else {
                break;
            };
            if t > now {
                break;
            }
            self.heap.pop();
            // A cascade re-solve can finalize a drained flow at an
            // arrival instant slightly before the previous completion's
            // clock; the engine clock never moves backwards.
            self.clock = self.clock.max(t);
            let clock = self.clock;
            let mut f = self.flows.remove(id).expect("front flow is live");
            // Leaving: accrue, but never re-key a flow that is gone.
            materialize(&mut f, clock, &mut self.cum_bytes, slot);
            self.unlink(id, &f.path);
            f.remaining_bytes = 0.0;
            done.push((id, f));
        }
        self.progress_to(now);
    }

    /// Fair-share utilization of a link in `[0, 1]`: the busier
    /// direction's allocated rate over capacity. This is the
    /// instantaneous `B(e)`-complement the online scheduler's cost
    /// tables consume.
    pub fn link_utilization(&mut self, l: LinkId) -> f64 {
        self.solve_if_dirty();
        let fwd = self.link_rate[l.idx() * 2];
        let rev = self.link_rate[l.idx() * 2 + 1];
        Self::util(fwd.max(rev), self.capacities[l.idx()])
    }

    /// Snapshot of all link utilizations (busier direction per link).
    pub fn utilization_snapshot(&mut self) -> Vec<f64> {
        self.solve_if_dirty();
        (0..self.capacities.len())
            .map(|i| {
                Self::util(
                    self.link_rate[i * 2].max(self.link_rate[i * 2 + 1]),
                    self.capacities[i],
                )
            })
            .collect()
    }

    /// Rate-over-capacity in `[0, 1]`; a dead link reads as fully busy so
    /// utilization-driven schedulers steer away from it.
    #[inline]
    fn util(rate: f64, capacity: f64) -> f64 {
        if capacity <= 0.0 {
            1.0
        } else {
            (rate / capacity).clamp(0.0, 1.0)
        }
    }

    /// Residual bandwidth `B(e) = C(e) - allocated` per link, bits/s
    /// (busier direction) — the planner's Table I input.
    pub fn residual_bandwidth(&mut self) -> Vec<f64> {
        self.solve_if_dirty();
        (0..self.capacities.len())
            .map(|i| {
                (self.capacities[i] - self.link_rate[i * 2].max(self.link_rate[i * 2 + 1])).max(0.0)
            })
            .collect()
    }

    /// Cumulative bytes delivered over a link since simulation start,
    /// both directions (monotone; models a switch hardware counter).
    pub fn cumulative_bytes(&self, l: LinkId) -> f64 {
        self.cumulative_bytes_dir(l, false) + self.cumulative_bytes_dir(l, true)
    }

    /// Cumulative bytes for one direction of a link: the materialized
    /// counter plus each crossing flow's pending in-flight window,
    /// accumulated in ascending flow-id order (pure, deterministic).
    pub fn cumulative_bytes_dir(&self, l: LinkId, forward: bool) -> f64 {
        let s = l.idx() * 2 + forward as usize;
        let mut total = self.cum_bytes[s];
        for &fid in &self.incidence[s] {
            total += pending_consumed(self.flow_ref(fid), self.clock);
        }
        total
    }

    /// Pass each link recorded since the last call to `f` — every link
    /// where a flow joined an idle direction — and forget them.
    pub(crate) fn drain_joined_links(&mut self, mut f: impl FnMut(LinkId)) {
        for l in self.joined_links.drain(..) {
            self.joined[l.idx()] = false;
            f(l);
        }
    }

    /// Whether a flow crosses `l` in either direction.
    pub(crate) fn carries_flows(&self, l: LinkId) -> bool {
        !self.incidence[l.idx() * 2].is_empty() || !self.incidence[l.idx() * 2 + 1].is_empty()
    }

    /// Link capacities (bits/s), after any fault scaling.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Current capacity scale of a link: `1.0` healthy, `0.0` dead.
    pub fn link_scale(&self, l: LinkId) -> f64 {
        let base = self.base_capacities[l.idx()];
        if base <= 0.0 {
            return 1.0;
        }
        self.capacities[l.idx()] / base
    }

    /// Set a link's capacity to `factor` of nominal at time `now` (a
    /// fault when `factor < 1`, a recovery when it returns to `1.0`).
    ///
    /// Surviving flows are re-rated max-min fairly at the next query.
    /// The re-solve is **component-scoped**: a capacity change can only
    /// move bottlenecks among flows transitively sharing a link with the
    /// scaled one (the max-min allocation decomposes across connected
    /// components, DESIGN.md §9), so untouched components keep their
    /// rates, estimates, and epochs bit-for-bit.
    /// When `factor` is zero the link is dead: every flow crossing it
    /// (either direction) is aborted and returned, with its progress
    /// accrued up to `now`, so the caller can retry over another route.
    /// Flows *started* across a dead link later are not rejected — they
    /// simply stall at rate 0 until the link recovers, which is how a
    /// fault-oblivious baseline behaves.
    pub fn set_link_scale(&mut self, now: SimTime, l: LinkId, factor: f64) -> Vec<(FlowId, Flow)> {
        assert!(
            factor.is_finite() && (0.0..=1.0).contains(&factor),
            "link scale must be in [0, 1], got {factor}"
        );
        self.progress_to(now);
        let cap = self.base_capacities[l.idx()] * factor;
        self.capacities[l.idx()] = cap;
        self.dir_caps[l.idx() * 2] = cap;
        self.dir_caps[l.idx() * 2 + 1] = cap;
        // Seed both directions: the scoped BFS pulls in exactly the
        // component(s) whose allocation the new capacity can affect. A
        // direction without flows has nothing to re-rate and retires.
        self.seed_or_retire(l.idx() * 2);
        self.seed_or_retire(l.idx() * 2 + 1);
        let crossing = || {
            self.flows
                .iter()
                .filter(|(_, f)| f.path.iter().any(|&(fl, _)| fl == l))
                .count()
        };
        if factor > 0.0 {
            if self.tracer.is_enabled() {
                self.tracer
                    .link_scale(now, l.idx() as u64, factor, crossing(), 0);
            }
            return Vec::new();
        }
        // Slab order is ascending-id order, which is what the abort list
        // and cum-byte accrual order (both observable) must follow.
        let doomed: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| f.path.iter().any(|&(fl, _)| fl == l))
            .map(|(id, _)| id)
            .collect();
        if self.tracer.is_enabled() {
            self.tracer
                .link_scale(now, l.idx() as u64, factor, 0, doomed.len());
            for id in &doomed {
                self.tracer.flow_abort(now, id.0, "link_dead");
            }
        }
        let clock = self.clock;
        doomed
            .into_iter()
            .map(|id| {
                let mut f = self.flows.remove(id).expect("doomed flow present");
                // An abort is a touch point: hand back accrued progress
                // (no re-key, the flow is leaving).
                materialize(&mut f, clock, &mut self.cum_bytes, slot);
                self.unlink(id, &f.path);
                (id, f)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Incremental engine internals
    // ------------------------------------------------------------------

    /// Live flow by id; panics if it is gone (use where an invariant —
    /// e.g. membership in an incidence list — guarantees liveness).
    #[inline]
    fn flow_ref(&self, id: FlowId) -> &Flow {
        self.flows.get(id).expect("id names a live flow")
    }

    /// Seed directed slot `s` for the next component-scoped re-solve if
    /// it still carries flows. A slot left without flows has nothing to
    /// re-rate: it **retires** on the spot — its allocated rate drops to
    /// zero now and it seeds nothing. A retirement counts as the one-round
    /// aggregate solve the scoped pass would have run on the empty
    /// component, so the work counters do not depend on this shortcut.
    /// (Full-resolve mode re-solves globally and seeds every change.)
    fn seed_or_retire(&mut self, s: usize) {
        if self.full_resolve || !self.incidence[s].is_empty() {
            self.dirty = true;
            self.seed_slots.push(s);
        } else {
            self.link_rate[s] = 0.0;
            self.stats.scoped_solves += 1;
            self.stats.aggregate_solves += 1;
        }
    }

    /// Take a departing flow (completed, cancelled or aborted) off the
    /// incidence list of every hop of `path`, then seed or retire each
    /// hop's slot ([`Self::seed_or_retire`]).
    fn unlink(&mut self, id: FlowId, path: &[DirLink]) {
        for &d in path {
            remove_incidence(&mut self.incidence[slot(d)], id);
            self.seed_or_retire(slot(d));
        }
    }

    /// Earliest valid heap entry, discarding stale ones on the way.
    fn peek_valid(&mut self) -> Option<(SimTime, FlowId)> {
        let flows = &self.flows;
        self.heap
            .peek_valid(|id| flows.get(id).map(|f| f.epoch))
            .map(|(t, id, _)| (t, id))
    }

    /// Re-solve whatever subset of the rate state is out of date.
    fn solve_if_dirty(&mut self) {
        if !self.dirty {
            return;
        }
        if self.full_resolve {
            self.solve_full();
        } else {
            self.solve_scoped();
        }
        self.dirty = false;
        self.seed_slots.clear();
    }

    /// Global re-solve: every flow, every carried link (reference mode).
    fn solve_full(&mut self) {
        self.stats.full_solves += 1;
        let scratch = &mut self.scratch;
        scratch.flat.clear();
        scratch.spans.clear();
        scratch.ids.clear();
        // Slab iteration is ascending-id order, so per-link weight sums
        // accumulate exactly as the scoped path (and the reference
        // solver) would.
        for (id, f) in self.flows.iter() {
            scratch.ids.push(id);
            scratch.spans.push(FlowSpan {
                start: scratch.flat.len() as u32,
                len: f.path.len() as u32,
                weight: f.weight,
            });
            scratch.flat.extend(f.path.iter().map(|&d| slot(d)));
        }
        self.stats.flows_rated += scratch.ids.len() as u64;
        let rates = self.ws.solve(&self.dir_caps, &scratch.flat, &scratch.spans);
        for r in self.link_rate.iter_mut() {
            *r = 0.0;
        }
        let clock = self.clock;
        for (i, &id) in scratch.ids.iter().enumerate() {
            let f = self
                .flows
                .get_mut(id)
                .expect("solved flow is still present");
            let rate = rates[i];
            if rate.is_finite() {
                for &d in f.path.iter() {
                    self.link_rate[slot(d)] += rate;
                }
            }
            assign_rate(
                f,
                id,
                rate,
                clock,
                &mut self.cum_bytes,
                &mut self.heap,
                slot,
            );
        }
    }

    /// Component-scoped re-solve: BFS over the flow/link incidence graph
    /// from the seed slots, then solve only the reached flows. Flows on
    /// disjoint links keep their rates — sound because the weighted
    /// max-min allocation is unique and decomposes across connected
    /// components (DESIGN.md §9). A one-flow component is rated in closed
    /// form, the aggregate tier settles single-bottleneck components in
    /// one round, and only congested components hand off to the exact
    /// water-filling solver.
    fn solve_scoped(&mut self) {
        self.visit_gen += 1;
        let gen = self.visit_gen;
        // Solve each connected component of the dirty region on its own.
        // DESIGN.md §9's union-decomposition makes this bitwise identical
        // to solving the union in one system — and it keeps the exact
        // solver's cost proportional to the largest touched component:
        // water-filling freezes one bottleneck link per round, so a union
        // of k disjoint components costs ~k× the rounds of its parts.
        // Per-component systems are also exactly what the one-round
        // aggregate tier can settle.
        for si in 0..self.seed_slots.len() {
            let seed = self.seed_slots[si];
            if self.scratch.link_stamp[seed] == gen || self.incidence[seed].is_empty() {
                // Already covered by an earlier seed's component, or its
                // flows left after it was seeded (`unlink` retired it).
                continue;
            }
            self.stats.scoped_solves += 1;
            let scratch = &mut self.scratch;
            scratch.queue.clear();
            scratch.comp_links.clear();
            scratch.ids.clear();
            scratch.link_stamp[seed] = gen;
            scratch.queue.push(seed);
            while let Some(s) = scratch.queue.pop() {
                scratch.comp_links.push(s);
                for &fid in &self.incidence[s] {
                    let f = self
                        .flows
                        .get_mut(fid)
                        .expect("incidence names a live flow");
                    if f.seen == gen {
                        continue;
                    }
                    f.seen = gen;
                    scratch.ids.push(fid);
                    for &d in f.path.iter() {
                        let sl = slot(d);
                        if scratch.link_stamp[sl] != gen {
                            scratch.link_stamp[sl] = gen;
                            scratch.queue.push(sl);
                        }
                    }
                }
            }
            self.stats.flows_rated += scratch.ids.len() as u64;
            // The component size picks the tier: a lone flow is rated in
            // closed form (bitwise what the aggregate tier would give it),
            // without building solver input.
            let lone = match scratch.ids[..] {
                [id] => {
                    let f = self.flows.get(id).expect("scoped flow is live");
                    single_flow_rate(&self.dir_caps, f.path.iter().map(|&d| slot(d)), f.weight)
                }
                _ => None,
            };
            let one: [f64; 1];
            let rates: &[f64] = if let Some(rate) = lone {
                self.stats.aggregate_solves += 1;
                one = [rate];
                &one
            } else {
                // Ascending-id order so per-link weight sums accumulate in
                // exactly the order a full solve would use (float addition
                // order matters for bit-identity).
                scratch.ids.sort_unstable();
                scratch.flat.clear();
                scratch.spans.clear();
                for &id in &scratch.ids {
                    let f = self.flows.get(id).expect("scoped flow is live");
                    scratch.spans.push(FlowSpan {
                        start: scratch.flat.len() as u32,
                        len: f.path.len() as u32,
                        weight: f.weight,
                    });
                    scratch.flat.extend(f.path.iter().map(|&d| slot(d)));
                }
                match self
                    .agg
                    .try_solve(&self.dir_caps, &scratch.flat, &scratch.spans)
                {
                    Some(r) => {
                        self.stats.aggregate_solves += 1;
                        r
                    }
                    None => self.ws.solve(&self.dir_caps, &scratch.flat, &scratch.spans),
                }
            };
            for &s in &scratch.comp_links {
                self.link_rate[s] = 0.0;
            }
            let clock = self.clock;
            for (i, &id) in scratch.ids.iter().enumerate() {
                let f = self
                    .flows
                    .get_mut(id)
                    .expect("solved flow is still present");
                let rate = rates[i];
                if rate.is_finite() {
                    for &d in f.path.iter() {
                        self.link_rate[slot(d)] += rate;
                    }
                }
                assign_rate(
                    f,
                    id,
                    rate,
                    clock,
                    &mut self.cum_bytes,
                    &mut self.heap,
                    slot,
                );
            }
        }
    }

    /// Advance the clock to `t`. Under lazy accrual no per-flow work is
    /// needed: pending windows are carried by each flow's `touched` stamp.
    fn progress_to(&mut self, t: SimTime) {
        if t <= self.clock {
            return;
        }
        // Rates for the window starting at the old clock must be solved
        // *at* the old clock before it moves.
        self.solve_if_dirty();
        self.clock = t;
    }

    // ------------------------------------------------------------------
    // Sharded bulk advance (DESIGN.md §12)
    // ------------------------------------------------------------------

    /// Sharded bulk advance: appends the batch to `done` and returns
    /// `true`, or returns `false` untouched when the number of due
    /// completions is at or below the shard threshold (caller falls back
    /// to the sequential loop).
    fn advance_sharded(&mut self, now: SimTime, done: &mut Vec<(FlowId, Flow)>) -> bool {
        self.solve_if_dirty();
        // Collect every valid completion entry due in (clock, now]. Each
        // live flow has at most one valid entry, so `pending` has unique
        // flow ids. The entries themselves are discarded after counting —
        // flow state carries the truth, and shard-local heaps are rebuilt
        // from it — but below the threshold they are simply re-pushed.
        let mut pending: Vec<(SimTime, FlowId, u64)> = Vec::new();
        let flows = &self.flows;
        while let Some((t, id, ep)) = self.heap.peek_valid(|id| flows.get(id).map(|f| f.epoch)) {
            if t > now {
                break;
            }
            self.heap.pop();
            pending.push((t, id, ep));
        }
        if pending.len() <= self.shard_threshold {
            for &(t, id, ep) in &pending {
                self.heap.push(t, id, ep);
            }
            return false;
        }
        self.stats.sharded_batches += 1;

        // Group due flows by connected component. Components only split
        // (never merge) during an advance — no flow starts — so a shard
        // extracted here stays closed under link sharing for the whole
        // window.
        self.visit_gen += 1;
        let gen = self.visit_gen;
        let mut locals: Vec<(SimTime, FlowId, Flow)> = Vec::new();
        let mut tasks: Vec<ShardTask> = Vec::new();
        let mut comp_flows: Vec<FlowId> = Vec::new();
        let mut comp_slots: Vec<usize> = Vec::new();
        for &(t, id, _ep) in &pending {
            // Already swept into an earlier component's shard (extraction
            // removes component flows from the map).
            let Some(f) = self.flow(id) else { continue };
            if f.path.is_empty() {
                // Local copy: no links, no interactions — completes as a
                // singleton merge participant.
                let mut f = self.flows.take(id).expect("pending flow is live");
                f.remaining_bytes = 0.0;
                locals.push((t, id, f));
                continue;
            }
            self.collect_component(id, gen, &mut comp_flows, &mut comp_slots);
            tasks.push(self.extract_shard(&comp_flows, &comp_slots));
        }
        self.stats.shards_run += tasks.len() as u64;

        let outcomes: Vec<_> = tasks.into_par_iter().map(|t| run_shard(t, now)).collect();

        // Merge back: write slot state, re-insert survivors (re-keying
        // only flows whose epoch moved in-shard), then emit completions
        // via a deterministic k-way merge on each list's head
        // `(SimTime, FlowId)` — exactly the order the sequential loop's
        // global heap would pop, since a component's next pop key is
        // always the head of its own trace.
        let mut lists: Vec<Vec<(SimTime, FlowId, Flow)>> = Vec::with_capacity(outcomes.len() + 1);
        for o in outcomes {
            self.stats.shard_solves += o.solves;
            self.stats.aggregate_solves += o.aggregate_solves;
            let t = o.task;
            for (k, &s) in t.slots.iter().enumerate() {
                self.cum_bytes[s] = t.cum[k];
                self.link_rate[s] = t.rate[k];
            }
            for (i, f) in t.flows.into_iter().enumerate() {
                let id = t.ids[i];
                if let Some(f) = f {
                    if f.epoch != t.pre_epoch[i] && f.finish_at < SimTime::MAX {
                        self.heap.push(f.finish_at, id, f.epoch);
                    }
                    self.flows.put(id, f);
                }
            }
            lists.push(o.done);
        }
        locals.sort_unstable_by_key(|a| (a.0, a.1));
        lists.push(locals);

        let total: usize = lists.iter().map(Vec::len).sum();
        let mut iters: Vec<std::vec::IntoIter<(SimTime, FlowId, Flow)>> =
            lists.into_iter().map(Vec::into_iter).collect();
        let mut heads: Vec<Option<(SimTime, FlowId, Flow)>> =
            iters.iter_mut().map(Iterator::next).collect();
        let mut merge: BinaryHeap<Reverse<(SimTime, FlowId, usize)>> = heads
            .iter()
            .enumerate()
            .filter_map(|(li, h)| h.as_ref().map(|&(t, id, _)| Reverse((t, id, li))))
            .collect();
        done.reserve(total);
        while let Some(Reverse((_, _, li))) = merge.pop() {
            let (_, id, f) = heads[li].take().expect("merge head present");
            heads[li] = iters[li].next();
            if let Some(&(t2, id2, _)) = heads[li].as_ref() {
                merge.push(Reverse((t2, id2, li)));
            }
            // The shard already left the slot rates exact: only the
            // incidence lists still name the completed flow.
            for &d in f.path.iter() {
                remove_incidence(&mut self.incidence[slot(d)], id);
            }
            done.push((id, f));
        }
        self.clock = now;
        // Flows completed in shards were taken, never put back.
        self.flows.compact();
        debug_assert!(!self.dirty, "shards leave rates clean");
        true
    }

    /// BFS the connected component containing `root` into `comp_flows` /
    /// `comp_slots` (both sorted ascending on return).
    fn collect_component(
        &mut self,
        root: FlowId,
        gen: u64,
        comp_flows: &mut Vec<FlowId>,
        comp_slots: &mut Vec<usize>,
    ) {
        comp_flows.clear();
        comp_slots.clear();
        let scratch = &mut self.scratch;
        scratch.queue.clear();
        {
            let f = self.flows.get_mut(root).expect("pending flow is live");
            f.seen = gen;
            comp_flows.push(root);
            for &d in f.path.iter() {
                let sl = slot(d);
                if scratch.link_stamp[sl] != gen {
                    scratch.link_stamp[sl] = gen;
                    scratch.queue.push(sl);
                }
            }
        }
        while let Some(s) = scratch.queue.pop() {
            comp_slots.push(s);
            for &fid in &self.incidence[s] {
                let f = self
                    .flows
                    .get_mut(fid)
                    .expect("incidence names a live flow");
                if f.seen == gen {
                    continue;
                }
                f.seen = gen;
                comp_flows.push(fid);
                for &d in f.path.iter() {
                    let sl = slot(d);
                    if scratch.link_stamp[sl] != gen {
                        scratch.link_stamp[sl] = gen;
                        scratch.queue.push(sl);
                    }
                }
            }
        }
        comp_flows.sort_unstable();
        comp_slots.sort_unstable();
    }

    /// Move a component's flows and slot state out into an owned shard
    /// task. Slot arrays are packed in ascending global-slot order so the
    /// local index order preserves the solver's global tie-breaks.
    fn extract_shard(&mut self, comp_flows: &[FlowId], comp_slots: &[usize]) -> ShardTask {
        let mut flows = Vec::with_capacity(comp_flows.len());
        let mut pre_epoch = Vec::with_capacity(comp_flows.len());
        for &fid in comp_flows {
            let f = self.flows.take(fid).expect("component flow is live");
            pre_epoch.push(f.epoch);
            flows.push(Some(f));
        }
        ShardTask {
            clock: self.clock,
            ids: comp_flows.to_vec(),
            flows,
            pre_epoch,
            slots: comp_slots.to_vec(),
            caps: comp_slots.iter().map(|&s| self.dir_caps[s]).collect(),
            cum: comp_slots.iter().map(|&s| self.cum_bytes[s]).collect(),
            rate: comp_slots.iter().map(|&s| self.link_rate[s]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::MIN_COMPACT;
    use hs_topology::{
        graph::{bandwidth, GpuSpec, GraphBuilder, LinkKind, ServerId},
        NodeId,
    };

    /// Direct all hops "forward" (capacity is symmetric in these tests).
    fn fwd(links: &[LinkId]) -> Arc<[DirLink]> {
        links.iter().map(|&l| (l, true)).collect()
    }

    /// Advance to `t` and return the completions.
    fn advance(net: &mut SimNet, t: SimTime) -> Vec<(FlowId, Flow)> {
        let mut done = Vec::new();
        net.advance_to(t, &mut done);
        done
    }

    /// Two GPUs joined by one 100 G Ethernet link via a switch.
    fn line() -> (Graph, Vec<NodeId>, Vec<LinkId>) {
        let mut b = GraphBuilder::new();
        let g0 = b.add_gpu(ServerId(0), 0, GpuSpec::a100_40g());
        let g1 = b.add_gpu(ServerId(1), 0, GpuSpec::a100_40g());
        let s = b.add_access_switch(true, "s");
        let l0 = b.add_link(g0, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
        let l1 = b.add_link(g1, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
        (b.build(), vec![g0, g1, s], vec![l0, l1])
    }

    /// `n` isolated two-link clusters (GPU→switch→GPU), one link pair per
    /// cluster — disjoint components by construction.
    fn clusters(n: usize) -> (Graph, Vec<[LinkId; 2]>) {
        let mut b = GraphBuilder::new();
        let mut links = Vec::with_capacity(n);
        for i in 0..n {
            let g0 = b.add_gpu(ServerId((2 * i) as u32), 0, GpuSpec::a100_40g());
            let g1 = b.add_gpu(ServerId((2 * i + 1) as u32), 0, GpuSpec::a100_40g());
            let s = b.add_access_switch(true, "s");
            let l0 = b.add_link(g0, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
            let l1 = b.add_link(g1, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
            links.push([l0, l1]);
        }
        (b.build(), links)
    }

    #[test]
    fn lone_flow_runs_at_line_rate() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        // 1 MB over 100 Gbps, 2 hops of 1 us propagation: 80 us + 2 us.
        let id = net.start_flow(SimTime::ZERO, fwd(&links), 1_000_000, 7);
        let t = net.next_event_time().unwrap();
        let us = t.as_micros_f64();
        assert!((us - 82.0).abs() < 0.5, "finish at {us} us");
        let done = advance(&mut net, t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, id);
        assert_eq!(done[0].1.tag, 7);
        assert_eq!(net.active_flow_count(), 0);
    }

    /// Flow storage follows the span of live ids, not the flow history:
    /// 20k flows that come and go in waves (each wave completing in one
    /// bulk advance, sequentially or through the sharded path) leave a
    /// bounded slab, while completions stay in ascending-id order.
    #[test]
    fn flow_storage_is_bounded_by_the_live_window() {
        let (g, links) = clusters(4);
        for threshold in [usize::MAX, 0] {
            let mut net = SimNet::new(&g);
            net.set_shard_threshold(threshold);
            let mut now = SimTime::ZERO;
            for wave in 0..2_000u64 {
                let first = net.start_flow(now, fwd(&links[0][..1]), 1_000, wave);
                for k in 1..10 {
                    let c = &links[k % links.len()];
                    net.start_flow(now, fwd(&c[..1]), 1_000 * (k as u64 + 1), wave);
                }
                now += SimSpan::from_millis(1);
                let done = advance(&mut net, now);
                assert_eq!(done.len(), 10, "every flow of the wave completes");
                assert_eq!(done[0].0, first, "earliest finisher first");
                assert!(net.flows.capacity_slots() <= 2 * (MIN_COMPACT + 10));
            }
            assert_eq!(net.active_flow_count(), 0);
        }
    }

    /// Completion-heap invariant: a flow leaving the network is never
    /// re-keyed. When no component ever re-rates a live flow — one
    /// transfer at a time, then disjoint transfers side by side — each
    /// flow pushes exactly one entry (its first rate) and none goes stale.
    #[test]
    fn leaving_flows_leave_no_dead_heap_entries() {
        let (g, links) = clusters(4);
        let mut net = SimNet::new(&g);
        let mut started = 0;
        let mut now = SimTime::ZERO;
        for k in 0..8u64 {
            net.start_flow(now, fwd(&links[0]), 1_000_000 + 1_000 * k, k);
            started += 1;
            now = net.next_event_time().unwrap();
            assert_eq!(advance(&mut net, now).len(), 1);
        }
        for (ci, pair) in links.iter().enumerate() {
            net.start_flow(now, fwd(pair), 500_000 * (ci as u64 + 1), 100 + ci as u64);
            started += 1;
        }
        let done = advance(&mut net, now + SimSpan::from_secs(1));
        assert_eq!(done.len(), links.len());
        let s = net.solve_stats();
        assert_eq!(s.heap_pushes, started, "one entry per flow: {s:?}");
        assert_eq!(s.stale_pops, 0, "no dead entries: {s:?}");
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        // Both flows cross link l0 only (g0->switch), 1 MB each.
        let a = net.start_flow(SimTime::ZERO, fwd(&links[..1]), 1_000_000, 0);
        let _b = net.start_flow(SimTime::ZERO, fwd(&links[..1]), 2_000_000, 1);
        // Shared at 50 Gbps each. Flow a: 8e6 bits / 50e9 = 160 us.
        let t1 = net.next_event_time().unwrap();
        assert!((t1.as_micros_f64() - 161.0).abs() < 1.0, "{t1}");
        let done = advance(&mut net, t1);
        assert_eq!(done[0].0, a);
        // Flow b then has 1 MB left at full 100 Gbps: 80 us more.
        let t2 = net.next_event_time().unwrap();
        assert!(
            (t2.as_micros_f64() - t1.as_micros_f64() - 80.0).abs() < 1.0,
            "t2={t2} t1={t1}"
        );
    }

    #[test]
    fn advance_past_multiple_completions() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.start_flow(SimTime::ZERO, fwd(&links[..1]), 1_000_000, 0);
        net.start_flow(SimTime::ZERO, fwd(&links[..1]), 2_000_000, 1);
        net.start_flow(SimTime::ZERO, fwd(&links[..1]), 3_000_000, 2);
        let done = advance(&mut net, SimTime::from_millis(10));
        assert_eq!(done.len(), 3);
        // Completion order follows size here.
        assert_eq!(
            done.iter().map(|(_, f)| f.tag).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Conservation: 6 MB crossed link 0.
        assert!((net.cumulative_bytes(links[0]) - 6_000_000.0).abs() < 1.0);
        assert_eq!(net.cumulative_bytes(links[1]), 0.0);
    }

    #[test]
    fn utilization_and_residual() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.start_flow(SimTime::ZERO, fwd(&links[..1]), 100_000_000, 0);
        assert!((net.link_utilization(links[0]) - 1.0).abs() < 1e-9);
        assert_eq!(net.link_utilization(links[1]), 0.0);
        let res = net.residual_bandwidth();
        assert!(res[links[0].idx()] < 1.0);
        assert!((res[links[1].idx()] - bandwidth::ETH_100G).abs() < 1.0);
    }

    #[test]
    fn cancel_restores_bandwidth() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let a = net.start_flow(SimTime::ZERO, fwd(&links[..1]), 1_000_000, 0);
        let _b = net.start_flow(SimTime::ZERO, fwd(&links[..1]), 1_000_000, 1);
        let cancelled = net.cancel_flow(SimTime::from_micros(10), a).unwrap();
        // 10 us at 50 Gbps = 62.5 kB transferred before cancellation.
        assert!((cancelled.remaining_bytes - (1_000_000.0 - 62_500.0)).abs() < 100.0);
        // Remaining flow now gets full rate.
        assert!((net.link_utilization(links[0]) - 1.0).abs() < 1e-9);
        let t = net.next_event_time().unwrap();
        // b transferred 62.5 kB too; 937.5 kB left at 100 Gbps = 75 us.
        assert!((t.as_micros_f64() - 10.0 - 76.0).abs() < 1.0, "{t}");
    }

    /// Regression: a flow that has drained but whose last bit is still
    /// propagating is *finished* from the sender's perspective — cancel
    /// must refuse (`None`) and the completion must still be delivered,
    /// so callers never mistake delivered bytes for an aborted transfer.
    #[test]
    fn cancel_of_drained_flow_is_a_noop_and_still_completes() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        // 1 MB at 100 Gbps drains at 80 us; last bit arrives at 82 us.
        let id = net.start_flow(SimTime::ZERO, fwd(&links), 1_000_000, 42);
        let finish = net.next_event_time().unwrap();
        // Move to a point strictly between drain and arrival.
        let between = SimTime::from_micros(81);
        assert!(advance(&mut net, between).is_empty());
        assert_eq!(net.flow_remaining(id), Some(0.0));
        // The cancel is refused: all bytes were delivered.
        assert!(net.cancel_flow(between, id).is_none());
        // ... and the completion still arrives on time.
        let done = advance(&mut net, finish);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, id);
        assert_eq!(done[0].1.tag, 42);
        assert_eq!(done[0].1.remaining_bytes, 0.0);
        // A second cancel of the now-gone flow is also None.
        assert!(net.cancel_flow(finish, id).is_none());
    }

    #[test]
    fn empty_path_completes_immediately() {
        let (g, _, _) = line();
        let mut net = SimNet::new(&g);
        net.start_flow(SimTime::from_secs(1), Arc::from([]), 1 << 30, 5);
        let t = net.next_event_time().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
        let done = advance(&mut net, t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.tag, 5);
    }

    #[test]
    fn zero_byte_flow_costs_only_propagation() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.start_flow(SimTime::ZERO, fwd(&links), 0, 0);
        let t = net.next_event_time().unwrap();
        assert_eq!(t, SimTime::from_micros(2));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn clock_must_be_monotone() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.start_flow(SimTime::from_secs(2), fwd(&links), 10, 0);
        advance(&mut net, SimTime::from_secs(1));
    }

    #[test]
    fn weighted_flow_gets_larger_share() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let heavy = net.start_weighted_flow(SimTime::ZERO, fwd(&links[..1]), 1_000_000, 3.0, 0);
        let light = net.start_flow(SimTime::ZERO, fwd(&links[..1]), 1_000_000, 1);
        net.next_event_time();
        let rh = net.flow(heavy).unwrap().rate_bps;
        let rl = net.flow(light).unwrap().rate_bps;
        assert!((rh / rl - 3.0).abs() < 1e-6);
    }

    #[test]
    fn degraded_link_rerates_inflight_flow() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        // 1 MB at 100 Gbps would finish at ~82 us.
        net.start_flow(SimTime::ZERO, fwd(&links), 1_000_000, 0);
        // At 40 us (≈ 0.5 MB in), the first link browns out to 25%.
        let aborted = net.set_link_scale(SimTime::from_micros(40), links[0], 0.25);
        assert!(aborted.is_empty(), "degrade must not abort flows");
        assert!((net.link_utilization(links[0]) - 1.0).abs() < 1e-9);
        // Remaining ~0.5 MB at 25 Gbps = ~160 us more.
        let t = net.next_event_time().unwrap().as_micros_f64();
        assert!((t - 202.0).abs() < 2.0, "finish at {t} us");
        // Recovery at 100 us: 2.5e6 bits remain (60 us at 25 Gbps drained
        // 1.5e6), so line rate finishes them 25 us later.
        net.set_link_scale(SimTime::from_micros(100), links[0], 1.0);
        let t = net.next_event_time().unwrap().as_micros_f64();
        assert!((t - 127.0).abs() < 2.0, "finish at {t} us after recovery");
    }

    #[test]
    fn dead_link_aborts_crossing_flows_only() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let doomed = net.start_flow(SimTime::ZERO, fwd(&links), 1_000_000, 7);
        let survivor = net.start_flow(SimTime::ZERO, fwd(&links[1..]), 1_000_000, 8);
        let aborted = net.set_link_scale(SimTime::from_micros(10), links[0], 0.0);
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].0, doomed);
        assert_eq!(aborted[0].1.tag, 7);
        // Progress was accrued up to the fault before the abort.
        assert!(aborted[0].1.remaining_bytes < 1_000_000.0);
        assert!(net.flow(survivor).is_some());
        // Dead link reads as fully busy with zero residual.
        assert!((net.link_utilization(links[0]) - 1.0).abs() < 1e-9);
        assert_eq!(net.residual_bandwidth()[links[0].idx()], 0.0);
        assert!((net.link_scale(links[0]) - 0.0).abs() < 1e-12);
        // A flow started across the dead link stalls rather than finishing.
        net.start_flow(SimTime::from_micros(20), fwd(&links[..1]), 1_000, 9);
        let next = net.next_event_time().unwrap();
        assert!(next < SimTime::MAX, "survivor still finishes");
        let done = advance(&mut net, SimTime::from_millis(1));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.tag, 8);
        // Recovery lets the stalled flow drain.
        net.set_link_scale(SimTime::from_millis(2), links[0], 1.0);
        let done = advance(&mut net, SimTime::from_millis(3));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.tag, 9);
    }

    #[test]
    fn byte_conservation_across_rate_changes() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.start_flow(SimTime::ZERO, fwd(&links[..1]), 4_000_000, 0);
        // A second flow arrives mid-transfer and leaves via completion.
        net.start_flow(SimTime::from_micros(100), fwd(&links[..1]), 1_000_000, 1);
        advance(&mut net, SimTime::from_millis(5));
        assert_eq!(net.active_flow_count(), 0);
        assert!(
            (net.cumulative_bytes(links[0]) - 5_000_000.0).abs() < 10.0,
            "delivered {}",
            net.cumulative_bytes(links[0])
        );
    }

    /// The incremental engine and a forced full re-solve must agree bit
    /// for bit on a scenario that exercises scoped solves, the aggregate
    /// tier, completions, cancels, and a fault (`tests/equivalence.rs`
    /// covers arbitrary sequences; this is the in-crate smoke version).
    #[test]
    fn incremental_matches_full_resolve_bitwise() {
        let run = |full: bool| {
            let (g, _, links) = line();
            let mut net = SimNet::new(&g);
            net.set_full_resolve(full);
            let mut log: Vec<(u64, u64)> = Vec::new();
            net.start_flow(SimTime::ZERO, fwd(&links), 2_000_000, 1);
            let b = net.start_flow(SimTime::from_micros(30), fwd(&links[..1]), 1_000_000, 2);
            net.start_flow(SimTime::from_micros(40), fwd(&links[1..]), 500_000, 3);
            net.set_link_scale(SimTime::from_micros(60), links[0], 0.5);
            for (id, f) in advance(&mut net, SimTime::from_micros(120)) {
                log.push((id.0, f.tag));
            }
            net.cancel_flow(SimTime::from_micros(130), b);
            for (id, f) in advance(&mut net, SimTime::from_millis(4)) {
                log.push((id.0, f.tag));
            }
            let bytes: Vec<u64> = (0..2)
                .map(|i| net.cumulative_bytes(links[i]).to_bits())
                .collect();
            (log, bytes, net.active_flow_count())
        };
        assert_eq!(run(false), run(true));
    }

    /// Satellite regression: `set_link_scale` must re-solve only the
    /// scaled link's component. The survivor cluster keeps its rate and
    /// epoch untouched, and the work counter proves no other flows were
    /// rated.
    #[test]
    fn link_scale_resolve_is_component_scoped() {
        let (g, links) = clusters(3);
        let mut net = SimNet::new(&g);
        // Two flows contending in cluster 0, one lone flow per other
        // cluster.
        net.start_flow(SimTime::ZERO, fwd(&[links[0][0]]), 10_000_000, 0);
        net.start_flow(SimTime::ZERO, fwd(&[links[0][0]]), 10_000_000, 1);
        let b = net.start_flow(SimTime::ZERO, fwd(&[links[1][0]]), 10_000_000, 2);
        let c = net.start_flow(SimTime::ZERO, fwd(&[links[2][1]]), 10_000_000, 3);
        net.next_event_time();
        let before_b = {
            let f = net.flow(b).unwrap();
            (f.rate_bps.to_bits(), f.epoch, f.finish_at)
        };
        let before_c = {
            let f = net.flow(c).unwrap();
            (f.rate_bps.to_bits(), f.epoch, f.finish_at)
        };
        let rated_before = net.solve_stats().flows_rated;
        // Degrade cluster 0's shared link; clusters 1 and 2 must not even
        // be visited by the re-solve.
        net.set_link_scale(SimTime::from_micros(10), links[0][0], 0.5);
        net.next_event_time();
        let after_b = {
            let f = net.flow(b).unwrap();
            (f.rate_bps.to_bits(), f.epoch, f.finish_at)
        };
        let after_c = {
            let f = net.flow(c).unwrap();
            (f.rate_bps.to_bits(), f.epoch, f.finish_at)
        };
        assert_eq!(before_b, after_b);
        assert_eq!(before_c, after_c);
        assert_eq!(
            net.solve_stats().flows_rated - rated_before,
            2,
            "only cluster 0's two flows may be re-rated"
        );
    }

    /// Single-bottleneck components settle in the aggregate tier; a
    /// component where a second link saturates hands off to the exact
    /// solver. Both paths agree with full-resolve bitwise (asserted by
    /// `incremental_matches_full_resolve_bitwise` and the equivalence
    /// suite); this pins that the fast path actually engages.
    #[test]
    fn aggregate_tier_engages_and_hands_off() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        // Two flows on one link: single bottleneck -> aggregate tier.
        net.start_flow(SimTime::ZERO, fwd(&links[..1]), 1_000_000, 0);
        net.start_flow(SimTime::ZERO, fwd(&links[..1]), 2_000_000, 1);
        net.next_event_time();
        let s = net.solve_stats();
        assert_eq!(
            s.scoped_solves, s.aggregate_solves,
            "uncongested: one round"
        );
        assert!(s.aggregate_solves > 0);
        // Degrade l1 and pile flows on it so the two-link path saturates
        // both links at different shares -> exact-solver handoff.
        net.set_link_scale(SimTime::from_micros(1), links[1], 0.3);
        net.start_flow(SimTime::from_micros(1), fwd(&links), 4_000_000, 2);
        net.start_flow(SimTime::from_micros(1), fwd(&links[1..]), 4_000_000, 3);
        net.next_event_time();
        let s = net.solve_stats();
        assert!(
            s.scoped_solves > s.aggregate_solves,
            "congested component must hand off to the exact solver: {s:?}"
        );
    }

    /// The sharded bulk advance must produce exactly the sequential
    /// loop's completions, byte counters, and survivor state.
    #[test]
    fn sharded_advance_matches_sequential_bitwise() {
        let run = |threshold: usize| {
            let (g, links) = clusters(8);
            let mut net = SimNet::new(&g);
            net.set_shard_threshold(threshold);
            // Staggered contending flows per cluster plus a local copy.
            for (ci, pair) in links.iter().enumerate() {
                for k in 0..4u64 {
                    let path = if k % 2 == 0 {
                        fwd(&pair[..])
                    } else {
                        fwd(&pair[..1])
                    };
                    net.start_flow(
                        SimTime::from_nanos(100 * k),
                        path,
                        500_000 + 37_000 * k + 11_000 * ci as u64,
                        (ci as u64) << 8 | k,
                    );
                }
            }
            net.start_flow(SimTime::from_nanos(50), Arc::from([]), 1_000, 9999);
            let done = advance(&mut net, SimTime::from_millis(10));
            let order: Vec<(u64, u64)> = done.iter().map(|(id, f)| (id.0, f.tag)).collect();
            let bytes: Vec<u64> = links
                .iter()
                .flat_map(|p| p.iter())
                .map(|&l| net.cumulative_bytes(l).to_bits())
                .collect();
            (order, bytes, net.active_flow_count())
        };
        let sharded = run(0); // shard every bulk advance
        let sequential = run(usize::MAX); // never shard
        assert_eq!(sharded, sequential);
        assert_eq!(sharded.0.len(), 33);
    }

    #[test]
    fn tracer_sees_flow_and_link_events() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let tracer = hs_obs::Tracer::recording();
        net.set_tracer(&tracer);
        net.start_flow(SimTime::ZERO, fwd(&links), 1_000_000, 7);
        // Degrade, then kill the first link: one re-rate, one abort.
        net.set_link_scale(SimTime::from_micros(10), links[0], 0.5);
        let dead = net.set_link_scale(SimTime::from_micros(20), links[0], 0.0);
        assert_eq!(dead.len(), 1);

        let recs = tracer.records();
        let start = recs.iter().find(|r| r.name == "flow_start").unwrap();
        assert_eq!(start.arg("bytes").and_then(hs_obs::Val::as_f64), Some(1e6));
        let scales: Vec<_> = recs.iter().filter(|r| r.name == "link_scale").collect();
        assert_eq!(scales.len(), 2);
        assert_eq!(
            scales[0].arg("rerated").and_then(hs_obs::Val::as_f64),
            Some(1.0)
        );
        assert_eq!(
            scales[1].arg("aborted").and_then(hs_obs::Val::as_f64),
            Some(1.0)
        );
        assert!(recs.iter().any(|r| r.name == "flow_abort"));
    }

    #[test]
    fn tracer_never_perturbs_flow_outcomes() {
        let run = |traced: bool| {
            let (g, _, links) = line();
            let mut net = SimNet::new(&g);
            if traced {
                net.set_tracer(&hs_obs::Tracer::recording());
            }
            net.start_flow(SimTime::ZERO, fwd(&links), 2_000_000, 1);
            net.start_flow(SimTime::from_micros(50), fwd(&links[..1]), 500_000, 2);
            net.set_link_scale(SimTime::from_micros(80), links[0], 0.5);
            let done = advance(&mut net, SimTime::from_millis(5));
            (
                done.iter().map(|(id, f)| (id.0, f.tag)).collect::<Vec<_>>(),
                net.cumulative_bytes(links[0]),
            )
        };
        assert_eq!(run(false), run(true));
    }
}
