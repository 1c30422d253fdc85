//! Messages and envelopes.
//!
//! In the message-passing computation model every channel `c_{i,j}` is an
//! unordered set of messages from a set `M` (paper, Section II-A). A
//! transition of the receiving process consumes a set of messages from its
//! incoming channels, so the model checker must know which process each
//! pending message came from; the pair of sender and payload is an
//! [`Envelope`].
//!
//! Transitions are named after the *kind* of message they consume (the MP
//! convention in Figure 2 of the paper: the `READ_REPL` transition consumes
//! `READ_REPL` messages). The [`Message`] trait therefore exposes a
//! [`kind`](Message::kind) so that the enabledness computation can quickly
//! select the candidate messages of a transition.

use std::fmt::Debug;
use std::hash::Hash;

use crate::codec::{Decode, Encode};
use crate::ProcessId;

/// The kind (type name) of a message, e.g. `"READ_REPL"`.
///
/// Kinds are `'static` string slices: protocols are defined in Rust code, so
/// the set of kinds is fixed at compile time, exactly as the set of MP
/// transition names is fixed in the paper's models.
pub type Kind = &'static str;

/// A protocol message payload.
///
/// Protocols define a single Rust type (typically an `enum` with one variant
/// per message kind) implementing this trait. The bounds are what the
/// explicit-state model checker needs: messages are stored in canonical
/// (ordered) multisets inside hashable global states, and they must be
/// codec-capable ([`Encode`]/[`Decode`], usually via the
/// [`codec!`](crate::codec!) macro) so the disk-backed BFS frontier of
/// `mp-store` can spill states holding them.
///
/// # Examples
///
/// ```
/// use mp_model::{codec, Kind, Message};
///
/// #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
/// enum PingPong {
///     Ping(u32),
///     Pong(u32),
/// }
/// codec!(enum PingPong { 0 = Ping(seq), 1 = Pong(seq) });
///
/// impl Message for PingPong {
///     fn kind(&self) -> Kind {
///         match self {
///             PingPong::Ping(_) => "PING",
///             PingPong::Pong(_) => "PONG",
///         }
///     }
/// }
///
/// assert_eq!(PingPong::Ping(1).kind(), "PING");
/// ```
pub trait Message:
    Clone + Eq + Ord + Hash + Debug + Send + Sync + Encode + Decode + 'static
{
    /// Returns the kind of this message.
    ///
    /// The kind is used to match messages with the transitions that can
    /// consume them (the MP convention that a transition is named after its
    /// input message type).
    fn kind(&self) -> Kind;
}

/// A message together with the process that sent it.
///
/// Envelopes identify a pending message inside the incoming channels of a
/// process: the receiving process is implicit (it is the process whose
/// transition consumes the envelope), and the sender is needed both by the
/// semantics (`senders(X)` in the paper) and by quorum-split refinement,
/// which restricts the allowed senders of a transition.
///
/// # Examples
///
/// ```
/// use mp_model::{Envelope, ProcessId};
///
/// let env = Envelope::new(ProcessId(1), "hello".to_string());
/// assert_eq!(env.sender, ProcessId(1));
/// assert_eq!(env.payload, "hello");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Envelope<M> {
    /// The process that sent the message.
    pub sender: ProcessId,
    /// The message payload.
    pub payload: M,
}

impl<M> Envelope<M> {
    /// Creates a new envelope from a sender and a payload.
    pub fn new(sender: ProcessId, payload: M) -> Self {
        Envelope { sender, payload }
    }
}

impl<M: Message> Envelope<M> {
    /// Returns the kind of the enclosed message.
    pub fn kind(&self) -> Kind {
        self.payload.kind()
    }
}

impl<M: Encode> Encode for Envelope<M> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.sender.encode(out);
        self.payload.encode(out);
    }
}

impl<M: Decode> Decode for Envelope<M> {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, crate::DecodeError> {
        Ok(Envelope {
            sender: ProcessId::decode(input)?,
            payload: M::decode(input)?,
        })
    }
}

/// Computes `senders(X)`: the set of distinct processes that sent the
/// messages in `envelopes` (paper, Section II-A).
///
/// The result is sorted and deduplicated.
///
/// # Examples
///
/// ```
/// use mp_model::{message::senders, Envelope, ProcessId};
///
/// let xs = vec![
///     Envelope::new(ProcessId(2), "a"),
///     Envelope::new(ProcessId(0), "b"),
///     Envelope::new(ProcessId(2), "c"),
/// ];
/// assert_eq!(senders(&xs), vec![ProcessId(0), ProcessId(2)]);
/// ```
pub fn senders<M>(envelopes: &[Envelope<M>]) -> Vec<ProcessId> {
    let mut out: Vec<ProcessId> = envelopes.iter().map(|e| e.sender).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Convenience implementation so that plain strings can be used as messages
/// in documentation examples and unit tests of the infrastructure crates.
/// The kind of a `String` message is the static string `"STRING"`.
impl Message for String {
    fn kind(&self) -> Kind {
        "STRING"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum TestMsg {
        A(u8),
        B,
    }
    crate::codec!(enum TestMsg { 0 = A(n), 1 = B });

    impl Message for TestMsg {
        fn kind(&self) -> Kind {
            match self {
                TestMsg::A(_) => "A",
                TestMsg::B => "B",
            }
        }
    }

    #[test]
    fn envelope_kind_matches_payload_kind() {
        let e = Envelope::new(ProcessId(0), TestMsg::A(3));
        assert_eq!(e.kind(), "A");
        let e = Envelope::new(ProcessId(0), TestMsg::B);
        assert_eq!(e.kind(), "B");
    }

    #[test]
    fn senders_deduplicates_and_sorts() {
        let xs = vec![
            Envelope::new(ProcessId(3), TestMsg::B),
            Envelope::new(ProcessId(1), TestMsg::A(0)),
            Envelope::new(ProcessId(3), TestMsg::A(1)),
            Envelope::new(ProcessId(0), TestMsg::B),
        ];
        assert_eq!(senders(&xs), vec![ProcessId(0), ProcessId(1), ProcessId(3)]);
    }

    #[test]
    fn senders_of_empty_set_is_empty() {
        let xs: Vec<Envelope<TestMsg>> = Vec::new();
        assert!(senders(&xs).is_empty());
    }

    #[test]
    fn envelope_ordering_is_sender_then_payload() {
        let a = Envelope::new(ProcessId(0), TestMsg::B);
        let b = Envelope::new(ProcessId(1), TestMsg::A(0));
        assert!(a < b);
        let c = Envelope::new(ProcessId(1), TestMsg::A(1));
        assert!(b < c);
    }

    #[test]
    fn string_messages_have_fixed_kind() {
        assert_eq!("x".to_string().kind(), "STRING");
    }
}
