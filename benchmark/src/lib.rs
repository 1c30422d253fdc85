//! The repo's one pinned benchmark: six paper-scale workloads, five
//! end-to-end metrics, per-crate layer probes and a traced run. The binary
//! (`main.rs`) is the command line; `benchmark/README.md` is the guide.
//!
//! Layout: [`workloads`] builds the cells, [`jobs`] is what a child process
//! does with one ([`probes`], [`naive`]), [`runner`] is the parent that
//! spawns children and assembles metrics ([`metrics`], [`stats`],
//! [`answers`]), [`compare`] judges two result files.

pub mod answers;
pub mod compare;
pub mod env;
pub mod jobs;
pub mod json;
pub mod metrics;
pub mod naive;
pub mod probes;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod workloads;
