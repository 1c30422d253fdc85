//! Directed, unordered channels between processes.
//!
//! The system consists of `n` processes communicating via directed channels
//! `c_{i,j}`, which are unordered multisets of messages (paper, Section
//! II-A). [`Channels`] stores the contents of every non-empty channel in a
//! canonical form so that two global states with the same pending messages
//! compare and hash equal regardless of the order in which the messages were
//! sent.

use std::fmt;

use crate::codec::{read_len, write_varint};
use crate::{Decode, DecodeError, Encode, Envelope, Message, ProcessId};

/// One distinct pending message: `count ≥ 1` copies of `payload` in the
/// channel from `sender` to `receiver`.
///
/// The field order is the sort order of [`Channels`] (the derived `Ord`
/// never reaches `count`, keys are unique).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Pending<M> {
    pub(crate) receiver: ProcessId,
    pub(crate) sender: ProcessId,
    pub(crate) payload: M,
    pub(crate) count: usize,
}

/// The contents of all channels of a system.
///
/// Conceptually a map from `(sender, receiver)` to a multiset of messages,
/// stored as one vector of distinct pending messages with their
/// multiplicities, sorted by `(receiver, sender, payload)`. Receiver comes
/// first because the dominant query of the model checker is "all pending
/// messages of process *i*" (the union of *i*'s incoming channels), which is
/// then one contiguous slice; and one vector means cloning or dropping a
/// state costs one allocation for all channels together.
///
/// # Examples
///
/// ```
/// use mp_model::{Channels, ProcessId};
///
/// let mut ch: Channels<String> = Channels::new(3);
/// ch.send(ProcessId(0), ProcessId(2), "hello".to_string());
/// ch.send(ProcessId(1), ProcessId(2), "world".to_string());
/// assert_eq!(ch.total_pending(), 2);
/// assert_eq!(ch.pending_for(ProcessId(2)).count(), 2);
/// assert_eq!(ch.pending_for(ProcessId(0)).count(), 0);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channels<M: Ord> {
    /// Strictly ascending by `(receiver, sender, payload)`; empty channels
    /// have no entry, which keeps the canonical form unique.
    entries: Vec<Pending<M>>,
    num_processes: usize,
    total: usize,
}

impl<M: Ord> Channels<M> {
    /// Index of the entry of exactly this message, or where it belongs.
    fn position(
        &self,
        receiver: ProcessId,
        sender: ProcessId,
        payload: &M,
    ) -> Result<usize, usize> {
        self.entries.binary_search_by(|e| {
            (e.receiver, e.sender)
                .cmp(&(receiver, sender))
                .then_with(|| e.payload.cmp(payload))
        })
    }

    /// Everything pending for `receiver`, sorted by `(sender, payload)`.
    pub(crate) fn incoming(&self, receiver: ProcessId) -> &[Pending<M>] {
        let start = self.entries.partition_point(|e| e.receiver < receiver);
        let len = self.entries[start..].partition_point(|e| e.receiver == receiver);
        &self.entries[start..start + len]
    }

    /// The non-empty channels in `(receiver, sender)` order, each as the run
    /// of its distinct messages.
    fn runs(&self) -> impl Iterator<Item = &[Pending<M>]> {
        runs(&self.entries)
    }
}

/// The runs of equal `(receiver, sender)` in sorted `entries`.
fn runs<M>(entries: &[Pending<M>]) -> impl Iterator<Item = &[Pending<M>]> {
    entries.chunk_by(|a, b| (a.receiver, a.sender) == (b.receiver, b.sender))
}

impl<M: Message> Channels<M> {
    /// Creates the channel state of a system of `num_processes` processes
    /// with every channel empty.
    pub fn new(num_processes: usize) -> Self {
        Channels {
            entries: Vec::new(),
            num_processes,
            total: 0,
        }
    }

    /// Returns the number of processes of the system.
    pub fn num_processes(&self) -> usize {
        self.num_processes
    }

    /// Returns the total number of pending messages across all channels.
    pub fn total_pending(&self) -> usize {
        self.total
    }

    /// Returns `true` if every channel is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Adds a message to the channel from `sender` to `receiver`.
    ///
    /// # Panics
    ///
    /// Panics if `sender` or `receiver` is not a process of the system; the
    /// protocol validation in [`ProtocolSpec`](crate::ProtocolSpec) is meant
    /// to rule this out before exploration starts.
    pub fn send(&mut self, sender: ProcessId, receiver: ProcessId, message: M) {
        assert!(
            sender.index() < self.num_processes && receiver.index() < self.num_processes,
            "send endpoints out of range: {sender} -> {receiver} with {} processes",
            self.num_processes
        );
        match self.position(receiver, sender, &message) {
            Ok(i) => self.entries[i].count += 1,
            Err(i) => self.entries.insert(
                i,
                Pending {
                    receiver,
                    sender,
                    payload: message,
                    count: 1,
                },
            ),
        }
        self.total += 1;
    }

    /// Removes one occurrence of the message carried by `envelope` from the
    /// incoming channel of `receiver`.
    ///
    /// Returns `true` if the message was present and removed.
    pub fn consume(&mut self, receiver: ProcessId, envelope: &Envelope<M>) -> bool {
        let Ok(i) = self.position(receiver, envelope.sender, &envelope.payload) else {
            return false;
        };
        if self.entries[i].count > 1 {
            self.entries[i].count -= 1;
        } else {
            self.entries.remove(i);
        }
        self.total -= 1;
        true
    }

    /// Returns how many copies of `envelope` are pending for `receiver`.
    pub fn pending_count(&self, receiver: ProcessId, envelope: &Envelope<M>) -> usize {
        self.position(receiver, envelope.sender, &envelope.payload)
            .map_or(0, |i| self.entries[i].count)
    }

    /// Iterates over all pending envelopes of `receiver` (the union of its
    /// incoming channels), repeating duplicated messages.
    pub fn pending_for(&self, receiver: ProcessId) -> impl Iterator<Item = Envelope<M>> + '_ {
        self.incoming(receiver).iter().flat_map(|e| {
            std::iter::repeat_n(e, e.count).map(|e| Envelope::new(e.sender, e.payload.clone()))
        })
    }

    /// Iterates over every distinct pending message as
    /// `((sender, receiver), payload, copies)`, in `(receiver, sender,
    /// payload)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((ProcessId, ProcessId), &M, usize)> + '_ {
        self.entries
            .iter()
            .map(|e| ((e.sender, e.receiver), &e.payload, e.count))
    }

    /// Rewrites the channel contents under a process permutation: the
    /// channel `i -> j` becomes `perm(i) -> perm(j)` and every payload is
    /// rewritten through [`Permutable::permute`](crate::Permutable::permute). The canonical (sorted)
    /// internal form is rebuilt, so permuted channel states compare and hash
    /// like any other.
    pub fn permute(&self, perm: &crate::Permutation) -> Self
    where
        M: crate::Permutable,
    {
        let mut image = Channels::new(self.num_processes);
        self.permute_into(perm, &mut image);
        image
    }

    /// [`Channels::permute`] written over `out`, reusing its allocation: the
    /// symmetry sweep builds every candidate's channel image in one buffer.
    pub fn permute_into(&self, perm: &crate::Permutation, out: &mut Self)
    where
        M: crate::Permutable,
    {
        out.entries.clear();
        self.permute_entries(perm, &mut out.entries);
        out.num_processes = self.num_processes;
        out.total = self.total;
    }

    /// Appends the encoding of `self.permute(perm)` to `out` without
    /// building the image's `Channels`: the symmetry reduction writes a
    /// canonical key this way.
    pub fn encode_permuted(&self, perm: &crate::Permutation, out: &mut Vec<u8>)
    where
        M: crate::Permutable,
    {
        let mut image = Vec::with_capacity(self.entries.len());
        self.permute_entries(perm, &mut image);
        encode_entries(self.num_processes, &image, out);
    }

    /// Appends the image's entries, in canonical order, to the empty `out`.
    fn permute_entries(&self, perm: &crate::Permutation, out: &mut Vec<Pending<M>>)
    where
        M: crate::Permutable,
    {
        out.extend(self.entries.iter().map(|e| Pending {
            receiver: perm.apply(e.receiver),
            sender: perm.apply(e.sender),
            payload: e.payload.permute(perm),
            count: e.count,
        }));
        // A permutation acts injectively on endpoints and payloads, so the
        // images are distinct and sorting alone restores the canonical form.
        out.sort_unstable();
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    /// The non-empty channels as `((sender, receiver), contents)`, for the
    /// human-readable state dumps.
    pub(crate) fn by_channel(
        &self,
    ) -> impl Iterator<Item = ((ProcessId, ProcessId), impl fmt::Debug + '_)> {
        self.runs()
            .map(|run| ((run[0].sender, run[0].receiver), Bag(run)))
    }
}

// Channels encode as the process count, the number of non-empty channels,
// then per channel its `(receiver, sender)` key, the number of distinct
// payloads and each payload with its multiplicity — the layout pinned in
// docs/ON_DISK_FORMATS.md. The vector is already canonical (strictly
// ascending, no empty channels), so the encoding is canonical too; decoding
// rebuilds the exact same value and refuses anything that is not canonical,
// because a record that decodes into a *different* valid-looking state is
// worse than one that fails.
impl<M: Ord + Encode> Encode for Channels<M> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        encode_entries(self.num_processes, &self.entries, out);
    }
}

/// The one encoder of channel contents, given as canonical `entries`.
///
/// One pass over the runs: the channel count is written as a one-byte
/// placeholder, counted while the runs are written, then patched. A count
/// of 0x80 or more takes a longer varint, which is spliced in; the bytes
/// are those of writing the count first.
#[inline]
fn encode_entries<M: Encode>(num_processes: usize, entries: &[Pending<M>], out: &mut Vec<u8>) {
    write_varint(num_processes as u64, out);
    let count_at = out.len();
    out.push(0);
    let mut channels = 0u64;
    for run in runs(entries) {
        channels += 1;
        run[0].receiver.encode(out);
        run[0].sender.encode(out);
        write_varint(run.len() as u64, out);
        for entry in run {
            entry.payload.encode(out);
            write_varint(entry.count as u64, out);
        }
    }
    if channels < 0x80 {
        out[count_at] = channels as u8;
    } else {
        let mut count = Vec::with_capacity(10);
        write_varint(channels, &mut count);
        out.splice(count_at..=count_at, count);
    }
}

impl<M: Ord + Decode> Decode for Channels<M> {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let num_processes = usize::decode(input)?;
        let num_channels = read_len(input, "truncated channel count")?;
        let mut entries: Vec<Pending<M>> = Vec::with_capacity(num_channels);
        let mut total = 0usize;
        for _ in 0..num_channels {
            let receiver = ProcessId::decode(input)?;
            let sender = ProcessId::decode(input)?;
            if receiver.index() >= num_processes || sender.index() >= num_processes {
                return Err(DecodeError::new("channel endpoint out of range"));
            }
            if entries
                .last()
                .is_some_and(|prev| (prev.receiver, prev.sender) >= (receiver, sender))
            {
                return Err(DecodeError::new("channels not strictly ascending"));
            }
            let distinct = read_len(input, "truncated channel length")?;
            if distinct == 0 {
                return Err(DecodeError::new("empty channel in encoding"));
            }
            for nth in 0..distinct {
                let payload = M::decode(input)?;
                if nth > 0 && entries.last().is_some_and(|prev| prev.payload >= payload) {
                    return Err(DecodeError::new("channel payloads not strictly ascending"));
                }
                let count = usize::decode(input)?;
                if count == 0 {
                    return Err(DecodeError::new("zero multiplicity in channel"));
                }
                total = total
                    .checked_add(count)
                    .ok_or(DecodeError::new("pending message count overflows"))?;
                entries.push(Pending {
                    receiver,
                    sender,
                    payload,
                    count,
                });
            }
        }
        Ok(Channels {
            entries,
            num_processes,
            total,
        })
    }
}

/// The distinct messages of one channel, printed as `{a, b×2}`.
struct Bag<'a, M>(&'a [Pending<M>]);

impl<M: fmt::Debug> fmt::Debug for Bag<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, entry) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:?}", entry.payload)?;
            if entry.count > 1 {
                write!(f, "×{}", entry.count)?;
            }
        }
        write!(f, "}}")
    }
}

impl<M: Message> fmt::Debug for Channels<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for ((sender, receiver), bag) in self.by_channel() {
            map.entry(&format_args!("{sender}->{receiver}"), &bag);
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_from_slice, encode_to_vec, Kind};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum Msg {
        Req(u8),
        Ack(u8),
    }
    crate::codec!(enum Msg { 0 = Req(n), 1 = Ack(n) });

    impl Message for Msg {
        fn kind(&self) -> Kind {
            match self {
                Msg::Req(_) => "REQ",
                Msg::Ack(_) => "ACK",
            }
        }
    }

    impl crate::Permutable for Msg {
        fn permute(&self, _perm: &crate::Permutation) -> Self {
            self.clone()
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn send_and_consume_roundtrip() {
        let mut ch: Channels<Msg> = Channels::new(3);
        ch.send(p(0), p(1), Msg::Req(1));
        assert_eq!(ch.total_pending(), 1);
        let env = Envelope::new(p(0), Msg::Req(1));
        assert_eq!(ch.pending_count(p(1), &env), 1);
        assert!(ch.consume(p(1), &env));
        assert!(ch.is_empty());
        assert!(!ch.consume(p(1), &env));
    }

    #[test]
    fn duplicate_messages_are_kept_as_multiset() {
        let mut ch: Channels<Msg> = Channels::new(2);
        ch.send(p(0), p(1), Msg::Req(1));
        ch.send(p(0), p(1), Msg::Req(1));
        let env = Envelope::new(p(0), Msg::Req(1));
        assert_eq!(ch.pending_count(p(1), &env), 2);
        assert!(ch.consume(p(1), &env));
        assert_eq!(ch.pending_count(p(1), &env), 1);
        assert_eq!(ch.total_pending(), 1);
    }

    #[test]
    fn pending_for_unions_incoming_channels() {
        let mut ch: Channels<Msg> = Channels::new(4);
        ch.send(p(0), p(3), Msg::Req(0));
        ch.send(p(1), p(3), Msg::Ack(1));
        ch.send(p(2), p(3), Msg::Ack(2));
        ch.send(p(2), p(3), Msg::Ack(2));
        ch.send(p(0), p(1), Msg::Req(9));
        let pending: Vec<Envelope<Msg>> = ch.pending_for(p(3)).collect();
        assert_eq!(pending.len(), 4, "the duplicate is repeated");
        assert!(pending.iter().all(|e| e.sender != p(3)));
        assert!(pending.is_sorted());
        assert_eq!(ch.incoming(p(3)).len(), 3, "one entry per distinct message");
        assert!(ch.incoming(p(0)).is_empty());
        assert!(ch.incoming(p(2)).is_empty());
    }

    /// What the enumeration filters by kind itself: the receiver's slice,
    /// sender-major, kinds interleaved.
    #[test]
    fn incoming_slice_is_sender_major_across_kinds() {
        let mut ch: Channels<Msg> = Channels::new(3);
        ch.send(p(0), p(2), Msg::Req(0));
        ch.send(p(0), p(2), Msg::Ack(0));
        ch.send(p(1), p(2), Msg::Ack(1));
        let of_kind = |kind: Kind| -> Vec<(ProcessId, &Msg)> {
            ch.incoming(p(2))
                .iter()
                .filter(|e| e.payload.kind() == kind)
                .map(|e| (e.sender, &e.payload))
                .collect()
        };
        assert_eq!(
            of_kind("ACK"),
            vec![(p(0), &Msg::Ack(0)), (p(1), &Msg::Ack(1))]
        );
        assert_eq!(of_kind("REQ"), vec![(p(0), &Msg::Req(0))]);
    }

    /// The scenario of the former `channel(sender, receiver)` accessor: a
    /// channel is directed, `p0 -> p1` says nothing about `p1 -> p0`.
    #[test]
    fn channel_query_returns_copy() {
        let mut ch: Channels<Msg> = Channels::new(2);
        ch.send(p(0), p(1), Msg::Req(5));
        let forward = Envelope::new(p(0), Msg::Req(5));
        let backward = Envelope::new(p(1), Msg::Req(5));
        assert_eq!(ch.pending_count(p(1), &forward), 1);
        assert_eq!(ch.pending_count(p(0), &backward), 0);
        assert_eq!(ch.pending_count(p(1), &backward), 0);
        assert!(!ch.consume(p(0), &backward));
        assert_eq!(
            ch.iter().collect::<Vec<_>>(),
            vec![((p(0), p(1)), &Msg::Req(5), 1)]
        );
    }

    #[test]
    fn canonical_equality_ignores_send_order() {
        let mut a: Channels<Msg> = Channels::new(3);
        a.send(p(0), p(2), Msg::Req(0));
        a.send(p(1), p(2), Msg::Req(1));
        let mut b: Channels<Msg> = Channels::new(3);
        b.send(p(1), p(2), Msg::Req(1));
        b.send(p(0), p(2), Msg::Req(0));
        assert_eq!(a, b);
    }

    #[test]
    fn consuming_last_message_removes_channel_entry() {
        let mut a: Channels<Msg> = Channels::new(2);
        a.send(p(0), p(1), Msg::Req(0));
        let b: Channels<Msg> = Channels::new(2);
        assert_ne!(a, b);
        assert!(a.consume(p(1), &Envelope::new(p(0), Msg::Req(0))));
        assert_eq!(a, b, "empty channels must not linger in the canonical form");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_unknown_process_panics() {
        let mut ch: Channels<Msg> = Channels::new(2);
        ch.send(p(0), p(5), Msg::Req(0));
    }

    #[test]
    fn iter_lists_all_nonempty_channels() {
        let mut ch: Channels<Msg> = Channels::new(3);
        ch.send(p(0), p(1), Msg::Req(0));
        ch.send(p(2), p(1), Msg::Req(1));
        ch.send(p(2), p(1), Msg::Req(1));
        ch.send(p(1), p(0), Msg::Ack(0));
        let listed: Vec<_> = ch.iter().collect();
        assert_eq!(
            listed,
            vec![
                ((p(1), p(0)), &Msg::Ack(0), 1),
                ((p(0), p(1)), &Msg::Req(0), 1),
                ((p(2), p(1)), &Msg::Req(1), 2),
            ],
            "receiver-major order, one item per distinct message"
        );
        assert_eq!(
            format!("{ch:?}"),
            "{p1->p0: {Ack(0)}, p0->p1: {Req(0)}, p2->p1: {Req(1)×2}}"
        );
    }

    #[test]
    fn permute_remaps_endpoints_and_resorts() {
        let mut ch: Channels<Msg> = Channels::new(3);
        ch.send(p(0), p(1), Msg::Req(7));
        ch.send(p(0), p(2), Msg::Req(8));
        ch.send(p(0), p(2), Msg::Req(8));
        let swap = crate::Permutation::from_map(vec![0, 2, 1]).unwrap();
        let mut expected: Channels<Msg> = Channels::new(3);
        expected.send(p(0), p(2), Msg::Req(7));
        expected.send(p(0), p(1), Msg::Req(8));
        expected.send(p(0), p(1), Msg::Req(8));
        assert_eq!(ch.permute(&swap), expected);
        assert_eq!(ch.permute(&swap).permute(&swap), ch);
        let mut bytes = Vec::new();
        ch.encode_permuted(&swap, &mut bytes);
        assert_eq!(
            bytes,
            encode_to_vec(&expected),
            "the image's encoding, unbuilt"
        );
    }

    /// The two-pass encoder the one-pass `encode_entries` replaced: the
    /// channel count first, then the channels.
    fn two_pass_reference(ch: &Channels<Msg>) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(ch.num_processes as u64, &mut out);
        write_varint(runs(&ch.entries).count() as u64, &mut out);
        for run in runs(&ch.entries) {
            run[0].receiver.encode(&mut out);
            run[0].sender.encode(&mut out);
            write_varint(run.len() as u64, &mut out);
            for entry in run {
                entry.payload.encode(&mut out);
                write_varint(entry.count as u64, &mut out);
            }
        }
        out
    }

    /// 127 channels fit the one-byte count placeholder; 128 and 300 need
    /// the patched two-byte count, which no protocol cell reaches.
    #[test]
    fn channel_counts_past_one_byte_encode_as_the_two_pass_reference() {
        for channels in [127, 128, 300] {
            let n = 20;
            let mut ch: Channels<Msg> = Channels::new(n);
            for k in 0..channels {
                let (receiver, sender) = (p(k / n), p(k % n));
                ch.send(sender, receiver, Msg::Req(k as u8));
                if k % 3 == 0 {
                    ch.send(sender, receiver, Msg::Ack(1));
                    ch.send(sender, receiver, Msg::Ack(1));
                }
            }
            assert_eq!(ch.runs().count(), channels);
            let bytes = encode_to_vec(&ch);
            assert_eq!(bytes, two_pass_reference(&ch), "{channels} channels");
            assert_eq!(bytes[1] < 0x80, channels < 128, "count varint width");
            assert_eq!(decode(&bytes), Ok(ch), "{channels} channels round-trip");
        }
    }

    /// The hand-built streams below spell out the layout of
    /// docs/ON_DISK_FORMATS.md byte by byte (`Req(v)` is `[0, v]`, `Ack(v)`
    /// is `[1, v]`).
    fn decode(bytes: &[u8]) -> Result<Channels<Msg>, DecodeError> {
        decode_from_slice(bytes)
    }

    #[test]
    fn canonical_stream_decodes_and_reencodes_to_itself() {
        let bytes = [
            3, 2, // three processes, two channels
            1, 0, 2, 0, 5, 2, 1, 5, 1, // p0->p1: {Req(5)×2, Ack(5)}
            2, 1, 1, 0, 0, 1, // p1->p2: {Req(0)}
        ];
        let ch = decode(&bytes).expect("canonical stream");
        assert_eq!(ch.total_pending(), 4);
        assert_eq!(ch.pending_count(p(1), &Envelope::new(p(0), Msg::Req(5))), 2);
        assert_eq!(encode_to_vec(&ch), bytes);
    }

    #[test]
    fn non_canonical_streams_are_rejected_by_name() {
        let rejected = |bytes: &[u8]| decode(bytes).unwrap_err().context;
        // The same channel twice: the old map decoder kept the last one.
        assert_eq!(
            rejected(&[3, 2, 1, 0, 1, 0, 5, 1, 1, 0, 1, 0, 6, 1]),
            "channels not strictly ascending"
        );
        // Channels out of order.
        assert_eq!(
            rejected(&[3, 2, 2, 1, 1, 0, 0, 1, 1, 0, 1, 0, 5, 1]),
            "channels not strictly ascending"
        );
        // The same payload twice in one channel, and payloads out of order.
        assert_eq!(
            rejected(&[3, 1, 1, 0, 2, 0, 5, 1, 0, 5, 1]),
            "channel payloads not strictly ascending"
        );
        assert_eq!(
            rejected(&[3, 1, 1, 0, 2, 1, 5, 1, 0, 5, 1]),
            "channel payloads not strictly ascending"
        );
        assert_eq!(
            rejected(&[3, 1, 1, 0, 1, 0, 5, 0]),
            "zero multiplicity in channel"
        );
        assert_eq!(rejected(&[3, 1, 1, 0, 0]), "empty channel in encoding");
        assert_eq!(
            rejected(&[3, 1, 3, 0, 1, 0, 5, 1]),
            "channel endpoint out of range"
        );
        assert_eq!(
            rejected(&[3, 1, 1, 3, 1, 0, 5, 1]),
            "channel endpoint out of range"
        );
        // A channel count the input cannot hold must not drive an allocation.
        assert_eq!(rejected(&[3, 0xff, 0x7f]), "truncated channel count");
        // Two multiplicities of 2^63 overflow the total.
        let mut overflow = vec![3, 1, 1, 0, 2, 0, 5];
        let half = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        overflow.extend_from_slice(&half);
        overflow.extend_from_slice(&[0, 6]);
        overflow.extend_from_slice(&half);
        assert_eq!(rejected(&overflow), "pending message count overflows");
    }
}
