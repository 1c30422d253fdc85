//! # mp-por — partial-order reduction for message-passing protocols
//!
//! Partial-order reduction (POR) exploits the fact that executing
//! independent transitions in either order leads to the same state, so it
//! suffices to explore one representative order (paper, Section III-A). This
//! crate provides the two POR flavours evaluated in the DSN 2011 paper:
//!
//! * **Static POR (SPOR / MP-LPOR analogue)** — [`StubbornSets`] pre-computes
//!   a state-unconditional [`IndependenceRelation`] and [`CanEnable`]
//!   (necessary enabling transitions) from the Table-IV style annotations of
//!   the model, then computes a stubborn set in every visited state starting
//!   from the seed that the paper's opposite transaction heuristic picks
//!   (Section V-B: the highest `priority` annotation). [`SporReducer`]
//!   packages this as a per-state [`Reducer`] for the search engines in
//!   `mp-checker`.
//! * **Dynamic POR (Flanagan–Godefroid)** — the `dpor` module supplies the
//!   seed reducer and the instance-level dependence and race detection with
//!   which the *stateless* search of `mp-checker` installs backtrack points
//!   on the fly.
//!
//! Transition refinement (crate `mp-refine`) does not change these
//! algorithms; it changes the *inputs* — refined transitions have tighter
//! sender/recipient annotations, which shrinks both relations and lets the
//! same algorithms prune more, exactly the effect studied in the paper's
//! Table II.
//!
//! Two independent internal steps need only one interleaving:
//!
//! ```
//! use mp_model::{codec, enabled_instances, Message, Outcome, ProcessId, ProtocolSpec,
//!     TransitionSpec};
//! use mp_por::{Reducer, SporReducer};
//!
//! #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
//! struct Tick;
//! codec!(struct Tick);
//! impl Message for Tick {
//!     fn kind(&self) -> &'static str { "TICK" }
//! }
//!
//! let mut builder = ProtocolSpec::<u8, Tick>::builder("independent");
//! for i in 0..2 {
//!     builder = builder.process(format!("w{i}"), 0u8).transition(
//!         TransitionSpec::builder(format!("step{i}"), ProcessId(i))
//!             .internal()
//!             .guard(|l, _| *l == 0)
//!             .sends_nothing()
//!             .effect(|_, _| Outcome::new(1))
//!             .build(),
//!     );
//! }
//! let spec = builder.build().unwrap();
//!
//! let reducer = SporReducer::new(&spec);
//! let state = spec.initial_state();
//! let all = enabled_instances(&spec, &state);
//! assert_eq!(all.len(), 2);
//! let reduction = reducer.reduce(&spec, &state, all);
//! assert_eq!(reduction.explore.len(), 1, "one representative order suffices");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bits;
mod canenable;
mod dpor;
mod independence;
mod reducer;
mod stubborn;

pub use bits::TransitionSet;
pub use canenable::CanEnable;
pub use dpor::{latest_racing_step, DporSeed, ExecutedStep};
pub use independence::IndependenceRelation;
pub use reducer::{NoReduction, Reducer, Reduction, SporReducer};
pub use stubborn::{StubbornSet, StubbornSets};
