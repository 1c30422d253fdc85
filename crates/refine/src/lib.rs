//! # mp-refine — transition refinement (quorum-split and reply-split)
//!
//! Transition refinement rewrites a protocol's *transition set* without
//! changing its state graph (Definition 1 of the DSN 2011 paper), so that
//! partial-order reduction can detect more independence and prune more of
//! the state space (Theorem 1 guarantees that any POR-preserved property is
//! unaffected). The paper introduces two strategies, both implemented here:
//!
//! * [`quorum_split_all`] / `quorum_split_transition` — replace an exact
//!   quorum transition by one copy per possible quorum of senders
//!   (Section III-C, Definition 3);
//! * `reply_split_all` / `reply_split_transition` — the same split for
//!   *reply transitions* (Definition 4), which additionally restricts whom
//!   the split copies can enable (Section III-D);
//! * `combined_split` — both, corresponding to the "combined-split" column
//!   of Table II. [`SplitStrategy`] enumerates all four table columns for
//!   the experiment harness.
//!
//! In the paper the split models were written by hand ("the current version
//! of MP-Basset does not support the automation of transition refinement");
//! here the splits are mechanical, and [`check_refinement`] /
//! [`assert_refinement`] verify Theorem 2 on concrete instances by comparing
//! the explicit state graphs:
//!
//! ```
//! use mp_model::{codec, Message, Outcome, ProcessId, ProtocolSpec, QuorumSpec, TransitionSpec};
//! use mp_refine::{assert_refinement, quorum_split_all};
//!
//! #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
//! struct Vote;
//! codec!(struct Vote);
//! impl Message for Vote {
//!     fn kind(&self) -> &'static str { "VOTE" }
//! }
//!
//! // Three voters, one collector waiting for an exact quorum of 2.
//! let mut builder = ProtocolSpec::<u8, Vote>::builder("collect")
//!     .process("collector", 0u8)
//!     .transition(
//!         TransitionSpec::builder("VOTE", ProcessId(0))
//!             .quorum_input("VOTE", QuorumSpec::Exact(2))
//!             .effect(|_, _| Outcome::new(1))
//!             .build(),
//!     );
//! for i in 1..=3 {
//!     builder = builder.process(format!("v{i}"), 0u8).transition(
//!         TransitionSpec::builder(format!("cast{i}"), ProcessId(i))
//!             .internal()
//!             .guard(|l, _| *l == 0)
//!             .sends(&["VOTE"])
//!             .effect(|_, _| Outcome::new(1).send(ProcessId(0), Vote))
//!             .build(),
//!     );
//! }
//! let spec = builder.build().unwrap();
//!
//! // One copy of the quorum transition per 2-element sender set: C(3,2) = 3.
//! let split = quorum_split_all(&spec).unwrap();
//! assert_eq!(split.num_transitions(), spec.num_transitions() + 2);
//! // Theorem 2: the split generates the same state graph.
//! assert_refinement(&spec, &split, 100_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod combined;
mod quorum_split;
mod reply_split;
pub mod validate;

pub use analysis::candidate_senders;
pub(crate) use analysis::is_reply_transition;
pub use combined::SplitStrategy;
pub use quorum_split::{exact_quorum_size, quorum_split_all};
pub(crate) use reply_split::reply_split_all;
pub use validate::{assert_refinement, check_refinement, RefinementCheck};
