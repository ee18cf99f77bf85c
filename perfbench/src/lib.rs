//! End-to-end and per-layer benchmark of the HeroServe simulator.
//!
//! `main.rs` is the command; this library holds the workloads, the span
//! recorder with its `CommStrategy` timing decorator, and the output
//! checks, so the tests can drive them too.

pub mod checks;
pub mod report;
pub mod spans;
pub mod workloads;
