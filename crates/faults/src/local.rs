//! The fault-augmented local state.

use std::fmt;

use mp_model::{GlobalState, LocalState, Message, Permutable, Permutation};

/// The local state of one process in a fault-augmented model: the protocol
/// state plus the environment's per-process fault bookkeeping.
///
/// The counters record how many faults the environment has injected *at
/// this process* so far; the global budget is the sum over all processes,
/// enforced by the enable filter the injector installs (guards only see
/// the local state, so a per-process ledger summed globally is the only way
/// to carry a global budget inside ordinary message-passing semantics).
/// Because the counters are part of the stored state, two paths that spent
/// the budget differently are distinguished — exactly what makes exhausted
/// budgets prune the search.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FaultLocal<S> {
    /// The wrapped protocol-level local state.
    pub inner: S,
    /// `true` once the process has crash-stopped; all its protocol
    /// transitions are disabled from then on.
    pub crashed: bool,
    /// Messages dropped from this process's incoming channels.
    pub drops: u32,
    /// Messages duplicated in this process's incoming channels.
    pub dups: u32,
    /// Messages mutated in this process's incoming channels.
    pub corruptions: u32,
}

impl<S> FaultLocal<S> {
    /// Wraps a protocol local state with a clean fault record.
    pub fn healthy(inner: S) -> Self {
        FaultLocal {
            inner,
            crashed: false,
            drops: 0,
            dups: 0,
            corruptions: 0,
        }
    }

    /// Total number of message faults injected at this process.
    pub fn message_faults(&self) -> u32 {
        self.drops + self.dups + self.corruptions
    }
}

/// Fault bookkeeping permutes *with* the process it targets: when symmetry
/// reduction (`mp-symmetry`) maps process `i` to `π(i)`, the whole
/// [`FaultLocal`] record — crashed flag and per-process fault counters —
/// moves to index `π(i)` as part of
/// [`GlobalState::permute`](mp_model::GlobalState::permute), so "acceptor 0
/// crashed" and "acceptor 1 crashed" land in the same orbit. This is where
/// orbit collapse pays off: a crash budget of `k` over `r` interchangeable
/// replicas explores one representative per crash *set* instead of one per
/// crash *sequence*. Only the wrapped protocol state needs rewriting (it may
/// embed process ids); the counters are plain data.
impl<S: Permutable> Permutable for FaultLocal<S> {
    fn permute(&self, perm: &Permutation) -> Self {
        FaultLocal {
            inner: self.inner.permute(perm),
            crashed: self.crashed,
            drops: self.drops,
            dups: self.dups,
            corruptions: self.corruptions,
        }
    }

    fn signature(&self) -> u64 {
        mp_model::plain_signature(&(
            self.inner.signature(),
            self.crashed,
            self.drops,
            self.dups,
            self.corruptions,
        ))
    }
}

// Fault-augmented states travel through the disk-backed BFS frontier like
// any other: the wrapped protocol state followed by the bookkeeping.
impl<S: mp_model::Encode> mp_model::Encode for FaultLocal<S> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.inner.encode(out);
        self.crashed.encode(out);
        self.drops.encode(out);
        self.dups.encode(out);
        self.corruptions.encode(out);
    }
}

impl<S: mp_model::Decode> mp_model::Decode for FaultLocal<S> {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, mp_model::DecodeError> {
        Ok(FaultLocal {
            inner: S::decode(input)?,
            crashed: mp_model::Decode::decode(input)?,
            drops: mp_model::Decode::decode(input)?,
            dups: mp_model::Decode::decode(input)?,
            corruptions: mp_model::Decode::decode(input)?,
        })
    }
}

impl<S: fmt::Display> fmt::Display for FaultLocal<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.crashed {
            write!(f, "✝ ")?;
        }
        write!(f, "{}", self.inner)
    }
}

/// Number of processes that have crash-stopped in `state`.
pub fn crashes_used<S: LocalState, M: Message>(state: &GlobalState<FaultLocal<S>, M>) -> u32 {
    state.locals.iter().filter(|l| l.crashed).count() as u32
}

/// Total messages dropped in `state` (summed over all processes).
pub fn drops_used<S: LocalState, M: Message>(state: &GlobalState<FaultLocal<S>, M>) -> u32 {
    state.locals.iter().map(|l| l.drops).sum()
}

/// Total messages duplicated in `state`.
pub fn dups_used<S: LocalState, M: Message>(state: &GlobalState<FaultLocal<S>, M>) -> u32 {
    state.locals.iter().map(|l| l.dups).sum()
}

/// Total messages mutated in `state`.
pub fn corruptions_used<S: LocalState, M: Message>(state: &GlobalState<FaultLocal<S>, M>) -> u32 {
    state.locals.iter().map(|l| l.corruptions).sum()
}

/// Projects a fault-augmented global state back onto the base protocol's
/// state space by forgetting the fault bookkeeping. Channels carry the same
/// message type in both models, so the projection is a plain copy.
pub fn project_state<S: LocalState, M: Message>(
    state: &GlobalState<FaultLocal<S>, M>,
) -> GlobalState<S, M> {
    GlobalState {
        locals: state.locals.iter().map(|l| l.inner.clone()).collect(),
        channels: state.channels.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::ProcessId;

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Msg;
    mp_model::codec!(struct Msg);
    impl Message for Msg {
        fn kind(&self) -> &'static str {
            "MSG"
        }
    }

    #[test]
    fn healthy_local_has_no_faults() {
        let l = FaultLocal::healthy(7u8);
        assert_eq!(l.inner, 7);
        assert!(!l.crashed);
        assert_eq!(l.message_faults(), 0);
    }

    #[test]
    fn usage_sums_over_processes() {
        let mut state: GlobalState<FaultLocal<u8>, Msg> =
            GlobalState::new(vec![FaultLocal::healthy(0), FaultLocal::healthy(1)]);
        state.locals[0].crashed = true;
        state.locals[0].drops = 2;
        state.locals[1].dups = 1;
        state.locals[1].corruptions = 3;
        assert_eq!(crashes_used(&state), 1);
        assert_eq!(drops_used(&state), 2);
        assert_eq!(dups_used(&state), 1);
        assert_eq!(corruptions_used(&state), 3);
    }

    #[test]
    fn projection_forgets_bookkeeping_but_keeps_channels() {
        let mut state: GlobalState<FaultLocal<u8>, Msg> =
            GlobalState::new(vec![FaultLocal::healthy(4), FaultLocal::healthy(5)]);
        state.locals[1].crashed = true;
        state.channels.send(ProcessId(0), ProcessId(1), Msg);
        let projected = project_state(&state);
        assert_eq!(projected.locals, vec![4, 5]);
        assert_eq!(projected.pending_messages(), 1);
    }
}
