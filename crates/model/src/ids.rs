//! Identifiers for processes and transitions.
//!
//! The message-passing computation model (paper, Section II-A) is defined
//! over `n` processes communicating through directed channels. Processes and
//! transitions are referred to by small dense indices so that the model
//! checker can use vectors instead of hash maps on its hot paths.

use std::fmt;

/// Identifier of a process in a message-passing protocol.
///
/// Process identifiers are dense indices in `0..n` where `n` is the number of
/// processes declared by the [`ProtocolSpec`](crate::ProtocolSpec).
///
/// # Examples
///
/// ```
/// use mp_model::ProcessId;
///
/// let p = ProcessId(2);
/// assert_eq!(p.index(), 2);
/// assert_eq!(format!("{p}"), "p2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// Returns the underlying index of this process.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl crate::Encode for ProcessId {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl crate::Decode for ProcessId {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, crate::DecodeError> {
        Ok(ProcessId(usize::decode(input)?))
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(value: usize) -> Self {
        ProcessId(value)
    }
}

impl From<ProcessId> for usize {
    fn from(value: ProcessId) -> Self {
        value.0
    }
}

/// Identifier of a transition within a [`ProtocolSpec`](crate::ProtocolSpec).
///
/// Transition identifiers index the flat list of transition specifications of
/// a protocol, in declaration order. Refinement (see the `mp-refine` crate)
/// produces protocols with a different transition list, hence different
/// [`TransitionId`] spaces, while generating the same state graph.
///
/// # Examples
///
/// ```
/// use mp_model::TransitionId;
///
/// let t = TransitionId(0);
/// assert_eq!(t.index(), 0);
/// assert_eq!(format!("{t}"), "t0");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TransitionId(pub usize);

impl TransitionId {
    /// Returns the underlying index of this transition.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl crate::Encode for TransitionId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl crate::Decode for TransitionId {
    fn decode(input: &mut &[u8]) -> Result<Self, crate::DecodeError> {
        Ok(TransitionId(usize::decode(input)?))
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<usize> for TransitionId {
    fn from(value: usize) -> Self {
        TransitionId(value)
    }
}

impl From<TransitionId> for usize {
    fn from(value: TransitionId) -> Self {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn process_id_roundtrip() {
        let p: ProcessId = 7usize.into();
        assert_eq!(p.index(), 7);
        let back: usize = p.into();
        assert_eq!(back, 7);
    }

    #[test]
    fn process_id_ordering_is_index_ordering() {
        let mut set = BTreeSet::new();
        set.insert(ProcessId(3));
        set.insert(ProcessId(1));
        set.insert(ProcessId(2));
        let collected: Vec<usize> = set.into_iter().map(ProcessId::index).collect();
        assert_eq!(collected, vec![1, 2, 3]);
    }

    #[test]
    fn transition_id_roundtrip() {
        let t: TransitionId = 11usize.into();
        assert_eq!(t.index(), 11);
        let back: usize = t.into();
        assert_eq!(back, 11);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ProcessId(0).to_string(), "p0");
        assert_eq!(TransitionId(42).to_string(), "t42");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(ProcessId::default(), ProcessId(0));
        assert_eq!(TransitionId::default(), TransitionId(0));
    }
}
