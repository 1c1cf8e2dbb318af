//! End-to-end and per-layer benchmark of the CSCV reproduction.
//!
//! One run builds a workload's operators from a Shepp-Logan phantom
//! (the set-up), streams forward SpMVs through CSCV-M, CSCV-Z and the
//! CSR analog, and runs SIRT solves through `CscvOperator`, checking
//! every output. The untraced build reports the end-to-end metrics; the
//! `trace` build adds a per-layer sweep whose timings come from spans
//! the benchmark opens around calls into each layer's public functions.
//! See `README.md` next to this crate for the workloads and the
//! layer-to-metric map.

pub mod layers;
pub mod machine;
pub mod report;
pub mod workload;
