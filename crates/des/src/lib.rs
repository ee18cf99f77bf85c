//! # hs-des — deterministic discrete-event simulation primitives
//!
//! The HeroServe reproduction runs every experiment on a software simulation
//! of the paper's testbed (GPU servers, NVLink, Ethernet, programmable
//! switches). This crate holds the primitives those simulators share; it
//! has no run loop of its own:
//!
//! * [`SimTime`] / [`SimSpan`] — integer-nanosecond instants and durations,
//!   used by every simulator in the workspace. Integer time makes every run
//!   bit-for-bit reproducible; there is no floating-point drift in event
//!   ordering.
//! * [`EventQueue`] — a stable priority queue of `(time, event)` pairs.
//!   Events scheduled for the same instant pop in FIFO order, which removes
//!   the usual source of nondeterminism in heap-based simulators. The
//!   serving-cluster engine (`hs-cluster`) keeps its timers, compute
//!   completions, monitor ticks, faults and retries here.
//! * [`rng`] — seed-splittable small RNGs so that independent model
//!   components draw from independent, reproducible streams.
//!
//! Each simulator owns its loop. Components such as the flow-level network
//! simulator (`hs-simnet`) expose `next_event_time()` / `advance_to(t)` so
//! a parent loop — `hs-cluster`'s `ClusterSim::run` — can interleave
//! several event sources without shared closures or trait objects crossing
//! crate boundaries.

pub mod queue;
pub mod rng;
pub mod time;

pub use queue::EventQueue;
pub use rng::{stream_rng, SeedSplitter};
pub use time::{SimSpan, SimTime};
