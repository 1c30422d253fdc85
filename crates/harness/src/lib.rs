//! # mp-harness — reproduction of the DSN 2011 evaluation
//!
//! This crate turns the building blocks of the other crates into the
//! experiments reported in the paper:
//!
//! * [`table1`] — Table I ("quorum semantics results"): single-message vs
//!   quorum models under DPOR/SPOR;
//! * [`table2`] — Table II ("transition refinement in action"): unsplit vs
//!   reply-/quorum-/combined-split models under SPOR;
//! * [`scaling`] — the Section II-C analysis: state-space inflation of
//!   single-message models as a function of the quorum size;
//! * [`debugging`] — the "fast debugging" experiments: resources needed to
//!   find the first counterexample in the faulty variants;
//! * [`fault_sweep`] — budgeted generic fault injection (`mp-faults`) swept
//!   over the evaluation protocols, with machine-readable JSON output.
//!
//! Every experiment produces [`Measurement`] rows (or rows of its own) which
//! the `mp-harness` binary's subcommands print as aligned text tables (and
//! optionally CSV), and write with `--json` as the flat [`bench_gate::Row`]s
//! of a `BENCH_*.json` file — the one schema the CI gate reads. The README's
//! results section lists the subcommands.
//!
//! Absolute state counts and times are not expected to match the paper — the
//! engine, hardware and protocol-model details differ — but the *shape*
//! (which strategy wins, by roughly what factor, and where the optimisations
//! are ineffective) is the reproduction target.
//!
//! One experiment cell, programmatically:
//!
//! ```
//! use mp_checker::NullObserver;
//! use mp_harness::{Budget, CellStrategy};
//! use mp_harness::runner::run_cell;
//! use mp_protocols::sweep::{collect_model, collect_soundness_property, CollectSetting};
//!
//! let setting = CollectSetting::new(3, 2, 1);
//! let spec = collect_model(setting, true);
//! let m = run_cell(
//!     "collect(3,2,1)",
//!     "soundness",
//!     false, // no violation expected
//!     &spec,
//!     collect_soundness_property(setting),
//!     NullObserver,
//!     CellStrategy::SporStateful,
//!     &Budget::small(),
//! );
//! assert!(m.completed && m.as_expected);
//! assert_eq!(m.verdict, "verified");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench_gate;
pub mod cli;
pub mod debugging;
pub mod fault_sweep;
pub mod parallel_scaling;
mod report;
pub mod runner;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod trace_report;

pub use cli::{Cli, FlagSpec};
pub use report::{render_csv, render_table, Measurement};
pub use runner::{Budget, CellStrategy};
// Visited-store and frontier selection are part of the experiment surface:
// a `Budget` carries a `StoreConfig` and a `FrontierConfig`, re-exported
// here so callers need one import.
pub use mp_store::{FrontierConfig, StoreConfig};
