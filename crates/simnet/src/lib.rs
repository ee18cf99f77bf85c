//! # hs-simnet — flow-level network simulation
//!
//! The paper's phenomena of interest — congestion collapse of in-network
//! aggregation under bursty traffic (§I, §II-C), NVLink offloading, and
//! load balancing across heterogeneous links — are all *flow-level*
//! effects: they depend on how concurrent transfers share link bandwidth,
//! not on per-packet behaviour. This crate therefore simulates the fabric
//! at flow granularity:
//!
//! * every transfer is a [`Flow`] over a fixed link path;
//! * link bandwidth is shared **max-min fairly** among the flows crossing
//!   it (the standard fluid approximation of per-flow fair queueing /
//!   DCTCP-like congestion control), recomputed whenever the flow set
//!   changes ([`fairshare`]);
//! * the simulator exposes a *pull* interface — [`SimNet::next_event_time`]
//!   / [`SimNet::advance_to`] — so the cluster simulator can interleave it
//!   with compute events;
//! * per-link byte counters and utilization estimates ([`monitor`]) play
//!   the role of the switch hardware counters and DCGM NVLink counters the
//!   paper's agents poll (§IV).
//!
//! Rate maintenance is incremental and two-tier: [`SimNet`] owns a
//! persistent [`SolverWorkspace`] plus a one-round aggregate solver
//! ([`OneRoundSolver`]), re-solves only the connected component of
//! links/flows a change touches (settling single-bottleneck components
//! in O(n) and handing congested ones to the exact water-filling loop),
//! and finds completions through a lazily-invalidated min-heap. Bulk
//! advances shard independent components across rayon workers with a
//! deterministic `(SimTime, FlowId)` event merge — see `net.rs`,
//! `shard.rs`, and DESIGN.md §9/§12. The from-scratch solver
//! ([`compute_rates`]) is retained as the reference oracle for the
//! equivalence suite.

pub mod fairshare;
pub mod monitor;
pub mod net;
mod shard;
mod slab;

pub use fairshare::{compute_rates, FlowSpan, OneRoundSolver, SolverWorkspace};
pub use monitor::LinkMonitor;
pub use net::{DirLink, Flow, FlowId, SimNet, SolveStats};
