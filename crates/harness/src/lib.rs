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
//! Every experiment returns its results as flat [`bench_gate::Row`]s — the
//! one schema of the `BENCH_*.json` files the CI gate reads — plus one
//! line for each self-check it failed. The `mp-harness` binary's
//! subcommands print the rows with [`render_text`], write them with
//! `--json`, and exit 1 on any failure line; [`num`] and [`text`] read a
//! row's fields. The README's results section lists the subcommands.
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
//! use mp_harness::bench_gate::JsonValue;
//! use mp_harness::runner::run_cell;
//! use mp_harness::{num, text, Budget, CellStrategy};
//! use mp_protocols::sweep::{collect_model, collect_soundness_property, CollectSetting};
//!
//! let setting = CollectSetting::new(3, 2, 1);
//! let spec = collect_model(setting, true);
//! let row = run_cell(
//!     "collect(3,2,1)",
//!     "soundness",
//!     &spec,
//!     collect_soundness_property(setting),
//!     NullObserver,
//!     CellStrategy::SporStateful,
//!     &Budget::small(),
//! );
//! assert_eq!(row["completed"], JsonValue::Bool(true));
//! assert_eq!(text(&row, "verdict"), "verified");
//! assert!(num(&row, "states") > 1.0);
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
pub use report::{num, render_text, text, Outcome};
pub use runner::{Budget, CellStrategy};
// Visited-store and frontier selection are part of the experiment surface:
// a `Budget` carries a `StoreConfig` and a `FrontierConfig`, re-exported
// here so callers need one import.
pub use mp_store::{FrontierConfig, StoreConfig};
