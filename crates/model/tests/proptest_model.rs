//! Property-based tests for the core data structures of `mp-model`.
//!
//! These check the invariants the explicit-state model checker relies on:
//! channels are canonical multisets (send-order independent, equal exactly
//! when their encodings are equal), they behave like the obvious map of
//! maps under any sequence of sends, consumes and permutations — down to the
//! encoded bytes —, consuming what was sent restores the previous contents,
//! and the enabled-instance enumeration matches a brute-force reference for
//! exact quorum transitions.
//!
//! The cases are generated by a small deterministic PRNG instead of
//! `proptest` (this build environment is offline); every run explores the
//! same fixed set of pseudo-random cases, so failures reproduce exactly.

use std::collections::{BTreeMap, BTreeSet};

use mp_model::{
    decode_from_slice, enabled_instances, encode_to_vec, Channels, Encode, Envelope, GlobalState,
    Message, Outcome, Permutable, Permutation, ProcessId, ProtocolSpec, QuorumSpec, TransitionSpec,
};

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum Msg {
    Vote(u8),
    /// Embeds a process id, so permuting can reorder payloads of a channel.
    Echo(ProcessId),
}

mp_model::codec!(enum Msg { 0 = Vote(v), 1 = Echo(origin) });

impl Message for Msg {
    fn kind(&self) -> &'static str {
        match self {
            Msg::Vote(_) => "VOTE",
            Msg::Echo(_) => "ECHO",
        }
    }
}

impl Permutable for Msg {
    fn permute(&self, perm: &Permutation) -> Self {
        match self {
            Msg::Vote(v) => Msg::Vote(*v),
            Msg::Echo(origin) => Msg::Echo(perm.apply(*origin)),
        }
    }
}

/// SplitMix64: tiny, high-quality, deterministic.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (bound > 0).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// A vector of up to 31 elements in `0..8`, like the original
    /// `proptest::collection::vec(0u8..8, 0..32)` strategy.
    fn elems(&mut self) -> Vec<u8> {
        let len = self.below(32);
        (0..len).map(|_| self.below(8) as u8).collect()
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A message between two of `N` processes, from a domain small enough
    /// that duplicates and consumable messages are common.
    fn message(&mut self) -> (ProcessId, ProcessId, Msg) {
        let payload = match self.below(3) {
            0 => Msg::Echo(ProcessId(self.below(N))),
            _ => Msg::Vote(self.below(3) as u8),
        };
        (ProcessId(self.below(N)), ProcessId(self.below(N)), payload)
    }

    fn permutation(&mut self) -> Permutation {
        let mut map: Vec<usize> = (0..N).collect();
        self.shuffle(&mut map);
        Permutation::from_map(map).expect("a shuffle is a bijection")
    }
}

const CASES: usize = 64;
const N: usize = 4;

/// The channel `c` of the paper as a multiset over one `(sender, receiver)`
/// pair: all of `elems` sent from p0 to p1.
fn bag(elems: &[u8]) -> Channels<Msg> {
    let mut ch = Channels::new(2);
    for v in elems {
        ch.send(ProcessId(0), ProcessId(1), Msg::Vote(*v));
    }
    ch
}

#[test]
fn multiset_is_order_independent() {
    let mut rng = Rng(1);
    for _ in 0..CASES {
        let elems = rng.elems();
        let forward = bag(&elems);
        let mut shuffled = elems.clone();
        rng.shuffle(&mut shuffled);
        let backward = bag(&shuffled);
        assert_eq!(forward, backward);
        assert_eq!(encode_to_vec(&forward), encode_to_vec(&backward));
        assert_eq!(forward.total_pending(), elems.len());
    }
}

#[test]
fn multiset_insert_remove_roundtrip() {
    let mut rng = Rng(2);
    for _ in 0..CASES {
        let elems = rng.elems();
        let extra = Envelope::new(ProcessId(0), Msg::Vote(rng.below(8) as u8));
        let original = bag(&elems);
        let mut modified = original.clone();
        modified.send(extra.sender, ProcessId(1), extra.payload.clone());
        assert_eq!(modified.total_pending(), original.total_pending() + 1);
        assert_ne!(modified, original);
        assert!(modified.consume(ProcessId(1), &extra));
        assert_eq!(modified, original);
    }
}

#[test]
fn multiset_inclusion() {
    let mut rng = Rng(3);
    for _ in 0..CASES {
        let elems = rng.elems();
        let (half, rest) = elems.split_at(elems.len() / 2);
        // Everything in `half` can be taken out of the full bag, one copy
        // per occurrence, and what is left is exactly `rest` ...
        let mut full = bag(&elems);
        for v in half {
            assert!(full.consume(ProcessId(1), &Envelope::new(ProcessId(0), Msg::Vote(*v))));
        }
        assert_eq!(full, bag(rest));
        // ... from which nothing more can be taken than it holds.
        for v in 0..8 {
            let env = Envelope::new(ProcessId(0), Msg::Vote(v));
            let held = rest.iter().filter(|r| **r == v).count();
            assert_eq!(full.pending_count(ProcessId(1), &env), held);
            for _ in 0..held {
                assert!(full.consume(ProcessId(1), &env));
            }
            assert!(!full.consume(ProcessId(1), &env));
        }
        assert!(full.is_empty());
    }
}

/// What `Channels` replaced: a map of `(receiver, sender)` to a map of
/// payload to multiplicity. Its generic codec impls *are* the pinned layout.
type Reference = BTreeMap<(ProcessId, ProcessId), BTreeMap<Msg, usize>>;

fn reference_bytes(reference: &Reference) -> Vec<u8> {
    let mut out = Vec::new();
    N.encode(&mut out);
    reference.encode(&mut out);
    out
}

fn assert_matches_reference(ch: &Channels<Msg>, reference: &Reference) {
    let flat: Vec<_> = reference
        .iter()
        .flat_map(|((receiver, sender), bag)| {
            bag.iter()
                .map(move |(payload, count)| ((*sender, *receiver), payload, *count))
        })
        .collect();
    assert_eq!(ch.iter().collect::<Vec<_>>(), flat, "iteration order");
    assert_eq!(
        ch.total_pending(),
        flat.iter().map(|(_, _, count)| count).sum::<usize>()
    );
    assert_eq!(ch.is_empty(), flat.is_empty());
    for receiver in (0..N).map(ProcessId) {
        let expected: Vec<_> = flat
            .iter()
            .filter(|((_, to), _, _)| *to == receiver)
            .flat_map(|((from, _), payload, count)| {
                std::iter::repeat_n(Envelope::new(*from, (*payload).clone()), *count)
            })
            .collect();
        assert_eq!(ch.pending_for(receiver).collect::<Vec<_>>(), expected);
    }
    let bytes = encode_to_vec(ch);
    assert_eq!(bytes, reference_bytes(reference), "byte-identical layout");
    assert_eq!(&decode_from_slice::<Channels<Msg>>(&bytes).unwrap(), ch);
}

#[test]
fn channels_match_the_map_of_maps_reference() {
    let mut rng = Rng(6);
    for _ in 0..CASES {
        let mut ch: Channels<Msg> = Channels::new(N);
        let mut reference = Reference::new();
        for _ in 0..48 {
            match rng.below(8) {
                0 => {
                    let perm = rng.permutation();
                    ch = ch.permute(&perm);
                    let mut permuted = Reference::new();
                    for ((receiver, sender), bag) in &reference {
                        let slot: &mut BTreeMap<Msg, usize> = permuted
                            .entry((perm.apply(*receiver), perm.apply(*sender)))
                            .or_default();
                        for (payload, count) in bag {
                            slot.insert(payload.permute(&perm), *count);
                        }
                    }
                    reference = permuted;
                }
                1..=3 => {
                    // Mostly hits: the domain is small.
                    let (sender, receiver, payload) = rng.message();
                    let env = Envelope::new(sender, payload);
                    let held = reference
                        .get(&(receiver, sender))
                        .and_then(|bag| bag.get(&env.payload))
                        .copied()
                        .unwrap_or(0);
                    assert_eq!(ch.pending_count(receiver, &env), held);
                    assert_eq!(ch.consume(receiver, &env), held > 0);
                    if held > 0 {
                        let bag = reference.get_mut(&(receiver, sender)).unwrap();
                        if held > 1 {
                            bag.insert(env.payload, held - 1);
                        } else {
                            bag.remove(&env.payload);
                            if bag.is_empty() {
                                reference.remove(&(receiver, sender));
                            }
                        }
                    }
                }
                _ => {
                    let (sender, receiver, payload) = rng.message();
                    ch.send(sender, receiver, payload.clone());
                    *reference
                        .entry((receiver, sender))
                        .or_default()
                        .entry(payload)
                        .or_insert(0) += 1;
                }
            }
            assert_matches_reference(&ch, &reference);
        }
    }
}

#[test]
fn channels_are_equal_exactly_when_their_encodings_are() {
    let mut rng = Rng(7);
    // Few messages from a small domain: equal pairs are common.
    let samples: Vec<Channels<Msg>> = (0..96)
        .map(|_| {
            let mut ch = Channels::new(N);
            for _ in 0..rng.below(3) {
                let (sender, receiver, payload) = rng.message();
                ch.send(sender, ProcessId(receiver.index() % 2), payload);
            }
            ch
        })
        .collect();
    let mut equal_pairs = 0;
    for a in &samples {
        for b in &samples {
            assert_eq!(a == b, encode_to_vec(a) == encode_to_vec(b));
            equal_pairs += usize::from(a == b);
        }
    }
    assert!(
        equal_pairs > samples.len(),
        "the sample must contain equal pairs"
    );
}

#[test]
fn channels_send_consume_roundtrip() {
    let mut rng = Rng(4);
    for _ in 0..CASES {
        let sends: Vec<(usize, usize, u8)> = (0..rng.below(24))
            .map(|_| (rng.below(4), rng.below(4), rng.below(4) as u8))
            .collect();
        let mut ch: Channels<Msg> = Channels::new(4);
        for (from, to, v) in &sends {
            ch.send(ProcessId(*from), ProcessId(*to), Msg::Vote(*v));
        }
        assert_eq!(ch.total_pending(), sends.len());
        for (from, to, v) in &sends {
            let env = Envelope::new(ProcessId(*from), Msg::Vote(*v));
            assert!(ch.consume(ProcessId(*to), &env));
        }
        assert!(ch.is_empty());
        assert_eq!(ch, Channels::new(4));
    }
}

#[test]
fn exact_quorum_instance_count_is_binomial() {
    let mut rng = Rng(5);
    let mut checked = 0;
    while checked < CASES {
        let num_senders = 1 + rng.below(5);
        let q = 1 + rng.below(5);
        if q > num_senders {
            continue;
        }
        checked += 1;
        let present: Vec<bool> = (0..5).map(|_| rng.next() & 1 == 1).collect();

        let mut builder = ProtocolSpec::builder("prop-collector").process("collector", 0u32);
        for i in 0..num_senders {
            builder = builder.process(format!("voter{i}"), 0u32);
        }
        let proto = builder
            .transition(
                TransitionSpec::builder("COLLECT", ProcessId(0))
                    .quorum_input("VOTE", QuorumSpec::Exact(q))
                    .effect(|l, _| Outcome::new(*l))
                    .build(),
            )
            .build()
            .unwrap();

        let mut state: GlobalState<u32, Msg> = proto.initial_state();
        let mut senders_present = BTreeSet::new();
        for i in 0..num_senders {
            if present.get(i).copied().unwrap_or(false) {
                state
                    .channels
                    .send(ProcessId(i + 1), ProcessId(0), Msg::Vote(i as u8));
                senders_present.insert(i + 1);
            }
        }
        let n = senders_present.len();
        let expected = binomial(n, q);
        let instances = enabled_instances(&proto, &state);
        assert_eq!(instances.len(), expected);
        for inst in &instances {
            assert_eq!(inst.envelopes.len(), q);
            let distinct: BTreeSet<ProcessId> = inst.senders().into_iter().collect();
            assert_eq!(distinct.len(), q);
        }
    }
}

fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let mut result = 1usize;
    for i in 0..k {
        result = result * (n - i) / (i + 1);
    }
    result
}
