//! # perfbench
//!
//! The repository's benchmark: one `bench` binary, five long seeded
//! workloads, six end-to-end metrics, and per-layer attribution taken
//! from *outside* the program — spans around every call the harness
//! makes into a layer's public functions, plus the engine's existing
//! `TraceLevel::Summary` profile and `spannerd`'s existing `/metrics`.
//! Nothing outside this directory changes to be measured.
//!
//! See `README.md` for the workload and metric tables, the layer →
//! end-to-end predictions, and the sizing facts behind the frozen
//! sizes.

pub mod calibrate;
pub mod corpus;
pub mod oracle;
pub mod report;
pub mod selfcheck;
pub mod spans;
pub mod workloads;
