//! # mp-symmetry — process-symmetry (orbit) reduction
//!
//! Fault-tolerant protocols replicate processes precisely so that any one of
//! them may fail: the acceptors of Paxos, the base objects of a replicated
//! register. Fault injection (`mp-faults`) multiplies that redundancy —
//! crashing acceptor 0 and crashing acceptor 1 of Paxos (1,2,1) produce
//! isomorphic subtrees, yet a plain sweep explores both. This crate removes
//! that redundancy:
//!
//! * [`RoleMap`] — declares which processes a protocol treats as
//!   interchangeable *roles*;
//! * [`SymmetryGroup`] — the declared roles **validated** against the
//!   concrete protocol (initial state a fixed point, transition structure
//!   aligned with sender/recipient sets mapped): each role splits into
//!   blocks of members whose swaps validate, and the group is the product
//!   of the blocks' symmetric groups, its elements ranks that are never
//!   listed. A deliberately-asymmetric model (say, acceptors seeded with
//!   distinct accepted values) degenerates to the identity group and the
//!   reduction becomes a no-op instead of unsound;
//! * [`OrbitReduction`] / [`Symmetry`] — the engine-facing canonicalizer:
//!   `mp-checker` inserts the canonical image of every `(state, observer)`
//!   pair into the visited store, so only one representative per **orbit**
//!   is fingerprinted and expanded. Block members are sorted by a signature
//!   no permutation changes ([`mp_model::Permutable::signature`] plus their
//!   channel entries) and only members whose signatures tie are tried in
//!   every order, whatever the group order. Candidate images are compared
//!   with the current winner as they are generated, and the breadth-first
//!   engine has the winner encoded straight into its store key
//!   ([`Symmetry::canonical_encode`]) instead of built.
//!
//! Declaring a role and canonicalizing by hand (the `Checker` facade of
//! `mp-checker` does all of this behind `with_role_symmetry`):
//!
//! ```
//! use mp_model::{codec, Message, Outcome, ProcessId, ProtocolSpec, TransitionSpec};
//! use mp_symmetry::{OrbitReduction, RoleMap, Symmetry, SymmetryGroup};
//!
//! #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
//! struct Tick;
//! codec!(struct Tick);
//! impl Message for Tick {
//!     fn kind(&self) -> &'static str { "TICK" }
//! }
//! impl mp_model::Permutable for Tick {
//!     fn permute(&self, _perm: &mp_model::Permutation) -> Self { Tick }
//! }
//!
//! // Two interchangeable workers stepping a counter.
//! let mut builder = ProtocolSpec::<u8, Tick>::builder("twins");
//! for i in 0..2 {
//!     builder = builder.process(format!("w{i}"), 0u8).transition(
//!         TransitionSpec::builder(format!("step{i}"), ProcessId(i))
//!             .internal()
//!             .guard(|l, _| *l < 2)
//!             .effect(|l, _| Outcome::new(l + 1))
//!             .build(),
//!     );
//! }
//! let spec = builder.build().unwrap();
//!
//! // Declare the role; validation accepts the swap, so |G| = 2.
//! let roles = RoleMap::new(2).role([ProcessId(0), ProcessId(1)]);
//! let group = SymmetryGroup::build(&spec, &roles);
//! assert_eq!(group.order(), 2);
//!
//! // (1, 0) and (0, 1) are the same orbit: one canonical representative.
//! let reduction: OrbitReduction<u8, Tick, ()> = OrbitReduction::new(group);
//! let mut a = spec.initial_state();
//! a.locals = vec![1, 0];
//! let mut b = spec.initial_state();
//! b.locals = vec![0, 1];
//! let (ca, _, _) = Symmetry::<u8, Tick, ()>::canonicalize(&reduction, &a, &());
//! let (cb, _, delta) = Symmetry::<u8, Tick, ()>::canonicalize(&reduction, &b, &());
//! assert_eq!(ca, cb);
//!
//! // The inverse element recovers the concrete state — the contract the
//! // disk-spilled BFS frontier relies on.
//! let inv = Symmetry::<u8, Tick, ()>::inverse(&reduction, delta);
//! let (back, _) = Symmetry::<u8, Tick, ()>::apply_element(&reduction, inv, &cb, &());
//! assert_eq!(back, b);
//! ```
//!
//! ## Soundness contract
//!
//! Pruning a successor because its orbit was visited is justified when the
//! property (and the fairness policy) is invariant under the group — which
//! the role declarations of `mp-protocols` guarantee by only grouping
//! processes whose transitions are generated by the same loop body and whose
//! properties quantify symmetrically over the role. Structural validation
//! backstops the declaration; guard/effect closures are the declarer's
//! obligation. The reduction composes with SPOR/DPOR and with liveness
//! checking: the engines re-expand reduced states whenever a cycle closes
//! *modulo* the group (the quotient-graph cycle proviso), and lasso cycles
//! that close through a non-identity permutation are un-canonicalized by
//! unrolling the closing element until it returns to the identity — the
//! reported counterexample is a genuine concrete lasso.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod group;
mod reduction;
mod roles;

pub use group::SymmetryGroup;
pub use reduction::{NoSymmetry, OrbitReduction, Symmetry};
pub use roles::RoleMap;
