//! Sharded component simulation for bulk advances (DESIGN.md §12).
//!
//! When [`crate::net::SimNet::advance_to`] finds many due completions, it
//! splits the flow/link graph into connected components, moves each
//! component's flows and directed-slot state into an owned [`ShardTask`],
//! and runs the tasks on rayon workers. A shard replays exactly the
//! sequential engine's inner loop — pop the earliest valid completion,
//! materialize, remove, component-scoped re-solve (aggregate tier first)
//! — over data it exclusively owns, so no synchronization is needed and
//! the float operations are identical instruction for instruction.
//!
//! Determinism contract: a shard's `done` list is its completion trace in
//! pop order (keyed `(SimTime, FlowId)`; *not* globally sorted — a
//! cascade can finalize a drained flow retroactively, so traces are not
//! monotone in time). The caller k-way-merges the per-shard traces by
//! their head keys, which reproduces the sequential global heap's pop
//! order bit for bit: at any instant the sequential engine's next pop is
//! the minimum over the components' next pops.

use crate::fairshare::{FlowSpan, OneRoundSolver, SolverWorkspace};
use crate::net::{self, assign_rate, materialize, CompletionHeap, Flow, FlowId};
use hs_des::SimTime;
use std::cell::RefCell;

/// Per-worker solver scratch, reused across every shard a thread runs.
/// A typical shard is a handful of flows; allocating fresh solver
/// workspaces per shard would cost more than the solve itself. Contents
/// never survive into results (everything is cleared or generation-
/// stamped per use), so reuse cannot perturb determinism.
#[derive(Default)]
struct ShardScratch {
    ws: SolverWorkspace,
    agg: OneRoundSolver,
    heap: CompletionHeap,
    flat: Vec<usize>,
    spans: Vec<FlowSpan>,
    live: Vec<usize>,
}

thread_local! {
    static SHARD_SCRATCH: RefCell<ShardScratch> = RefCell::default();
}

/// One connected component, extracted with everything a worker needs.
/// Slot-indexed vectors (`caps`/`cum`/`rate`) are packed in ascending
/// global-slot order (`slots`), so local index order preserves the
/// solver's global link tie-breaks.
pub(crate) struct ShardTask {
    /// Engine clock at extraction.
    pub clock: SimTime,
    /// Component flow ids, ascending.
    pub ids: Vec<FlowId>,
    /// Flow state, parallel to `ids`; `None` once completed in-shard.
    pub flows: Vec<Option<Flow>>,
    /// Each flow's epoch at extraction — survivors whose epoch moved need
    /// a fresh global heap entry on merge-back.
    pub pre_epoch: Vec<u64>,
    /// Global directed-slot indices owned by this component, ascending.
    pub slots: Vec<usize>,
    /// Directed capacity per owned slot.
    pub caps: Vec<f64>,
    /// Cumulative bytes per owned slot (written back on merge).
    pub cum: Vec<f64>,
    /// Allocated rate per owned slot (written back on merge).
    pub rate: Vec<f64>,
}

/// A finished shard: its completion trace in pop order plus the mutated
/// task state to merge back.
pub(crate) struct ShardOutcome {
    pub done: Vec<(SimTime, FlowId, Flow)>,
    pub task: ShardTask,
    /// Component re-solves performed (for [`crate::net::SolveStats`]).
    pub solves: u64,
    /// How many of those settled in the aggregate tier.
    pub aggregate_solves: u64,
}

/// Local index of a global directed slot within the task's packed arrays.
#[inline]
fn local_slot(slots: &[usize], global: usize) -> usize {
    slots
        .binary_search(&global)
        .expect("flow path stays inside its component")
}

/// Run one component forward to `now`, mirroring the sequential engine's
/// advance loop over owned state.
pub(crate) fn run_shard(t: ShardTask, now: SimTime) -> ShardOutcome {
    SHARD_SCRATCH.with(|scratch| run_shard_with(&mut scratch.borrow_mut(), t, now))
}

fn run_shard_with(scratch: &mut ShardScratch, mut t: ShardTask, now: SimTime) -> ShardOutcome {
    let ShardScratch {
        ws,
        agg,
        heap,
        flat,
        spans,
        live,
    } = scratch;
    heap.clear();
    // Rebuild the completion heap from flow state: each live flow's
    // current (finish, id, epoch) key is exactly its one valid entry in
    // the global heap (stale entries there are discardable, so dropping
    // them at extraction was lossless).
    for (i, f) in t.flows.iter().enumerate() {
        let f = f.as_ref().expect("shard starts with all flows live");
        if f.finish_at < SimTime::MAX {
            heap.push(f.finish_at, t.ids[i], f.epoch);
        }
    }
    let mut done: Vec<(SimTime, FlowId, Flow)> = Vec::new();
    let mut clock = t.clock;
    let mut solves = 0u64;
    let mut aggregate_solves = 0u64;
    loop {
        // Pop the earliest valid entry (same lazy invalidation as the
        // global heap).
        let (ids, flows) = (&t.ids, &t.flows);
        let Some((ti, id, _)) = heap.peek_valid(|id| {
            let i = ids.binary_search(&id).expect("heap names a shard flow");
            flows[i].as_ref().map(|f| f.epoch)
        }) else {
            // All remaining flows starved or none left.
            let out = ShardOutcome {
                done,
                task: t,
                solves,
                aggregate_solves,
            };
            return finishup(out, now, clock);
        };
        if ti > now {
            let out = ShardOutcome {
                done,
                task: t,
                solves,
                aggregate_solves,
            };
            return finishup(out, now, clock);
        }
        heap.pop();
        clock = clock.max(ti);
        let i = t.ids.binary_search(&id).expect("heap names a shard flow");
        let mut f = t.flows[i].take().expect("front flow is live");
        let slots = &t.slots;
        // Leaving: accrue without a re-key.
        materialize(&mut f, clock, &mut t.cum, |d| {
            local_slot(slots, net::slot(d))
        });
        f.remaining_bytes = 0.0;
        done.push((ti, id, f));
        // Each completion dirties the component; re-solve at the pop
        // clock before looking for the next event (exactly when the
        // sequential engine's `solve_if_dirty` would run).
        solves += 1;
        solve_shard(
            &mut t,
            clock,
            ws,
            agg,
            heap,
            flat,
            spans,
            live,
            &mut aggregate_solves,
        );
    }
}

/// Terminal bookkeeping: the shard hands state back at `now` (the caller
/// sets the engine clock); nothing to do because accrual is lazy, but the
/// debug assertion pins that the trace never runs past the window.
fn finishup(out: ShardOutcome, now: SimTime, clock: SimTime) -> ShardOutcome {
    debug_assert!(clock <= now, "shard clock overran the advance window");
    out
}

/// Component-scoped re-solve over the shard's live flows — the same
/// build-solve-assign sequence as the engine's `solve_scoped`, with slot
/// indices remapped through the packed arrays. Live flows are visited in
/// ascending id order (`ids` is sorted), so per-link weight sums
/// accumulate in exactly the order the sequential engine uses.
#[allow(clippy::too_many_arguments)]
fn solve_shard(
    t: &mut ShardTask,
    clock: SimTime,
    ws: &mut SolverWorkspace,
    agg: &mut OneRoundSolver,
    heap: &mut CompletionHeap,
    flat: &mut Vec<usize>,
    spans: &mut Vec<FlowSpan>,
    live: &mut Vec<usize>,
    aggregate_solves: &mut u64,
) {
    flat.clear();
    spans.clear();
    live.clear();
    for (i, f) in t.flows.iter().enumerate() {
        let Some(f) = f.as_ref() else { continue };
        live.push(i);
        spans.push(FlowSpan {
            start: flat.len() as u32,
            len: f.path.len() as u32,
            weight: f.weight,
        });
        flat.extend(f.path.iter().map(|&d| local_slot(&t.slots, net::slot(d))));
    }
    let rates: &[f64] = match agg.try_solve(&t.caps, flat, spans) {
        Some(r) => {
            *aggregate_solves += 1;
            r
        }
        None => ws.solve(&t.caps, flat, spans),
    };
    for r in t.rate.iter_mut() {
        *r = 0.0;
    }
    for (k, &i) in live.iter().enumerate() {
        let id = t.ids[i];
        let f = t.flows[i].as_mut().expect("live flow");
        let rate = rates[k];
        if rate.is_finite() {
            for &d in f.path.iter() {
                t.rate[local_slot(&t.slots, net::slot(d))] += rate;
            }
        }
        let slots = &t.slots;
        assign_rate(f, id, rate, clock, &mut t.cum, heap, |d| {
            local_slot(slots, net::slot(d))
        });
    }
}
