//! Global states of a message-passing system.
//!
//! A state of the state graph is "a vector with all channel contents and the
//! local state of each process" (paper, Section II-A). [`GlobalState`] is
//! exactly that: the vector of local states plus the canonical [`Channels`]
//! contents, and it is the unit stored in the model checker's visited set.

use std::fmt;
use std::hash::Hash;

use crate::{Channels, Message, ProcessId};

/// The local-state type of a protocol.
///
/// This is a bound alias: any type that is cloneable, totally ordered,
/// hashable, debuggable and codec-capable ([`Encode`]/[`Decode`], so the
/// disk-backed frontier of `mp-store` can spill states) can serve as the
/// per-process local state.
///
/// [`Encode`]: crate::Encode
/// [`Decode`]: crate::Decode
pub trait LocalState:
    Clone + Eq + Ord + Hash + fmt::Debug + Send + Sync + crate::Encode + crate::Decode + 'static
{
}

impl<T> LocalState for T where
    T: Clone + Eq + Ord + Hash + fmt::Debug + Send + Sync + crate::Encode + crate::Decode + 'static
{
}

/// A global state: one local state per process plus all channel contents.
///
/// # Examples
///
/// ```
/// use mp_model::{GlobalState, ProcessId};
///
/// let state: GlobalState<u32, String> = GlobalState::new(vec![0, 0, 0]);
/// assert_eq!(state.num_processes(), 3);
/// assert_eq!(*state.local(ProcessId(1)), 0);
/// assert!(state.channels.is_empty());
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalState<S, M: Ord> {
    /// Local state of each process, indexed by [`ProcessId`].
    pub locals: Vec<S>,
    /// Contents of every channel.
    pub channels: Channels<M>,
}

impl<S: LocalState, M: Message> GlobalState<S, M> {
    /// Creates an initial global state with the given local states and all
    /// channels empty.
    pub fn new(locals: Vec<S>) -> Self {
        let n = locals.len();
        GlobalState {
            locals,
            channels: Channels::new(n),
        }
    }

    /// Returns the number of processes.
    pub fn num_processes(&self) -> usize {
        self.locals.len()
    }

    /// Returns the local state of `process`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn local(&self, process: ProcessId) -> &S {
        &self.locals[process.index()]
    }

    /// Returns a mutable reference to the local state of `process`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn local_mut(&mut self, process: ProcessId) -> &mut S {
        &mut self.locals[process.index()]
    }

    /// Returns the total number of messages pending in all channels.
    pub fn pending_messages(&self) -> usize {
        self.channels.total_pending()
    }

    /// Rewrites the state under a process permutation: the local state of
    /// process `i` moves to index `perm(i)` (rewritten through
    /// [`Permutable::permute`](crate::Permutable::permute) so embedded
    /// process ids follow), and the channels are remapped accordingly.
    ///
    /// # Panics
    ///
    /// Panics if the permutation's degree differs from the process count.
    pub fn permute(&self, perm: &crate::Permutation) -> Self
    where
        S: crate::Permutable,
        M: crate::Permutable,
    {
        let n = self.num_processes();
        assert_eq!(perm.degree(), n, "degree mismatch");
        // Slot `k` of the image is the local that `perm` sends to `k`, so
        // each slot is rewritten exactly once; processes are few, and a scan
        // for that preimage costs less than allocating the inverse.
        let preimage = |k| (0..n).find(|&i| perm.apply_index(i) == k);
        GlobalState {
            locals: (0..n)
                .map(|k| self.locals[preimage(k).expect("a permutation is onto")].permute(perm))
                .collect(),
            channels: self.channels.permute(perm),
        }
    }
}

// States are the payload of the disk-backed BFS frontier: locals in index
// order, then the canonical channel contents.
impl<S: crate::Encode, M: Message + crate::Encode> crate::Encode for GlobalState<S, M> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.locals.encode(out);
        self.channels.encode(out);
    }
}

impl<S: crate::Decode, M: Message + crate::Decode> crate::Decode for GlobalState<S, M> {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, crate::DecodeError> {
        Ok(GlobalState {
            locals: Vec::decode(input)?,
            channels: Channels::decode(input)?,
        })
    }
}

impl<S: fmt::Debug, M: Message> fmt::Debug for GlobalState<S, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalState")
            .field("locals", &self.locals)
            .field("channels", &self.channels)
            .finish()
    }
}

impl<S: LocalState + fmt::Display, M: Message> fmt::Display for GlobalState<S, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "state:")?;
        for (i, local) in self.locals.iter().enumerate() {
            writeln!(f, "  {}: {}", ProcessId(i), local)?;
        }
        if self.channels.is_empty() {
            writeln!(f, "  channels: (empty)")?;
        } else {
            writeln!(f, "  channels:")?;
            for ((from, to), bag) in self.channels.by_channel() {
                writeln!(f, "    {from} -> {to}: {bag:?}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kind;

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Msg(u8);
    crate::codec!(struct Msg(n));

    impl Message for Msg {
        fn kind(&self) -> Kind {
            "MSG"
        }
    }

    #[test]
    fn new_state_has_empty_channels() {
        let s: GlobalState<u8, Msg> = GlobalState::new(vec![1, 2, 3]);
        assert_eq!(s.num_processes(), 3);
        assert_eq!(s.pending_messages(), 0);
        assert_eq!(*s.local(ProcessId(2)), 3);
    }

    #[test]
    fn local_mut_updates_in_place() {
        let mut s: GlobalState<u8, Msg> = GlobalState::new(vec![0, 0]);
        *s.local_mut(ProcessId(1)) = 9;
        assert_eq!(*s.local(ProcessId(1)), 9);
        assert_eq!(*s.local(ProcessId(0)), 0);
    }

    #[test]
    fn equal_states_compare_and_hash_equal() {
        use std::collections::HashSet;
        let mut a: GlobalState<u8, Msg> = GlobalState::new(vec![0, 0]);
        let mut b: GlobalState<u8, Msg> = GlobalState::new(vec![0, 0]);
        a.channels.send(ProcessId(0), ProcessId(1), Msg(1));
        b.channels.send(ProcessId(0), ProcessId(1), Msg(1));
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn different_locals_are_different_states() {
        let a: GlobalState<u8, Msg> = GlobalState::new(vec![0, 0]);
        let b: GlobalState<u8, Msg> = GlobalState::new(vec![0, 1]);
        assert_ne!(a, b);
    }

    #[test]
    fn pending_messages_counts_channel_contents() {
        let mut s: GlobalState<u8, Msg> = GlobalState::new(vec![0, 0, 0]);
        s.channels.send(ProcessId(0), ProcessId(1), Msg(1));
        s.channels.send(ProcessId(2), ProcessId(1), Msg(2));
        assert_eq!(s.pending_messages(), 2);
    }
}
