//! Golden encodings and golden enabled-instance sequences of hand-built
//! states.
//!
//! Every expected value below was printed by this same file at the commit
//! before `Channels` became one sorted vector (run it there with
//! `PRINT_GOLDEN=1 cargo test -p mp-model --test golden_model -- --nocapture`;
//! it uses nothing but `send`, `encode_to_vec` and `enabled_instances`). The
//! bytes pin the on-disk state layout of docs/ON_DISK_FORMATS.md — spill
//! segments, checkpoints and fingerprints all hash or store exactly these —
//! and the instance lists pin the enumeration *order*, which the depth-first
//! engines, counterexample paths and the deterministic BENCH columns depend
//! on.

use mp_model::{
    enabled_instances, encode_to_vec, GlobalState, Message, Outcome, ProcessId, ProtocolSpec,
    QuorumSpec, TransitionInstance, TransitionSpec,
};

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum Msg {
    Vote(u8),
    Echo(ProcessId, u8),
}

mp_model::codec!(enum Msg { 0 = Vote(v), 1 = Echo(origin, v) });

impl Message for Msg {
    fn kind(&self) -> &'static str {
        match self {
            Msg::Vote(_) => "VOTE",
            Msg::Echo(..) => "ECHO",
        }
    }
}

fn p(i: usize) -> ProcessId {
    ProcessId(i)
}

fn print_golden() -> bool {
    std::env::var_os("PRINT_GOLDEN").is_some()
}

/// A collector (p0), four voters and one transition per input shape.
fn collector() -> ProtocolSpec<u32, Msg> {
    let votes = |msgs: &[mp_model::Envelope<Msg>]| -> u32 {
        msgs.iter()
            .map(|e| match e.payload {
                Msg::Vote(v) | Msg::Echo(_, v) => u32::from(v),
            })
            .sum()
    };
    let mut builder = ProtocolSpec::builder("golden-collector").process("collector", 0u32);
    for i in 1..=4 {
        builder = builder.process(format!("voter{i}"), 0u32);
    }
    builder
        .transition(
            TransitionSpec::builder("EXACT2", p(0))
                .quorum_input("VOTE", QuorumSpec::Exact(2))
                .effect(|l, _| Outcome::new(*l))
                .build(),
        )
        .transition(
            TransitionSpec::builder("ATLEAST2_OF_124", p(0))
                .quorum_input("VOTE", QuorumSpec::AtLeast(2))
                .allowed_senders([p(1), p(2), p(4)])
                .effect(|l, _| Outcome::new(*l))
                .build(),
        )
        .transition(
            TransitionSpec::builder("BETWEEN_1_2_EVEN", p(0))
                .quorum_input("VOTE", QuorumSpec::Between { min: 1, max: 2 })
                .guard(move |_, msgs| votes(msgs) % 2 == 0)
                .effect(|l, _| Outcome::new(*l))
                .build(),
        )
        .transition(
            TransitionSpec::builder("ECHO", p(0))
                .single_input("ECHO")
                .effect(|l, _| Outcome::new(*l))
                .build(),
        )
        .transition(
            TransitionSpec::builder("VOTE_AT_1", p(1))
                .single_input("VOTE")
                .effect(|l, _| Outcome::new(*l))
                .build(),
        )
        .transition(
            TransitionSpec::builder("TICK", p(2))
                .internal()
                .effect(|l, _| Outcome::new(*l))
                .build(),
        )
        .build()
        .unwrap()
}

/// Several payloads per sender, duplicates, two kinds interleaved in one
/// channel, and mail for a second receiver.
fn busy_state() -> GlobalState<u32, Msg> {
    let mut s: GlobalState<u32, Msg> = GlobalState::new(vec![7, 0, 300, 0, 1]);
    let sends = [
        (4, 0, Msg::Vote(6)),
        (1, 0, Msg::Vote(9)),
        (3, 0, Msg::Echo(p(3), 5)),
        (1, 0, Msg::Vote(1)),
        (2, 1, Msg::Vote(0)),
        (1, 0, Msg::Vote(9)),
        (2, 0, Msg::Vote(2)),
        (3, 0, Msg::Vote(3)),
        (4, 0, Msg::Vote(4)),
        (3, 0, Msg::Echo(p(1), 200)),
        (4, 1, Msg::Echo(p(4), 0)),
        (2, 1, Msg::Vote(0)),
    ];
    for (from, to, msg) in sends {
        s.channels.send(p(from), p(to), msg);
    }
    s
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn compact(instance: &TransitionInstance<Msg>) -> String {
    let envelopes: Vec<String> = instance
        .envelopes
        .iter()
        .map(|e| match e.payload {
            Msg::Vote(v) => format!("{}:v{v}", e.sender.index()),
            Msg::Echo(origin, v) => format!("{}:e{}.{v}", e.sender.index(), origin.index()),
        })
        .collect();
    format!(
        "t{}@{}[{}]",
        instance.transition.index(),
        instance.process.index(),
        envelopes.join(" ")
    )
}

#[test]
fn state_encodings_are_byte_identical_to_the_map_of_multisets_layout() {
    let empty: GlobalState<u32, Msg> = GlobalState::new(vec![0, 0]);
    let mut one = empty.clone();
    one.channels.send(p(1), p(0), Msg::Vote(3));
    let mut many_copies = empty.clone();
    for _ in 0..130 {
        many_copies.channels.send(p(0), p(1), Msg::Echo(p(1), 255));
    }
    let actual = [
        hex(&encode_to_vec(&empty)),
        hex(&encode_to_vec(&one)),
        hex(&encode_to_vec(&many_copies)),
        hex(&encode_to_vec(&busy_state())),
        hex(&encode_to_vec(&busy_state().channels)),
    ];
    if print_golden() {
        println!("GOLDEN ENCODINGS {actual:#?}");
        return;
    }
    assert_eq!(
        actual,
        [
            "0200000200",
            "0200000201000101000301",
            "02000002010100010101ff8201",
            "050700ac02000105060001020001010009020002010002010003030003010101c8010103050100040200040100060101020100000201040101040001",
            "05060001020001010009020002010002010003030003010101c8010103050100040200040100060101020100000201040101040001",
        ]
    );
}

#[test]
fn enabled_instances_come_out_in_the_pinned_order() {
    let spec = collector();
    let actual: Vec<String> = enabled_instances(&spec, &busy_state())
        .iter()
        .map(compact)
        .collect();
    if print_golden() {
        println!("GOLDEN INSTANCES {actual:#?}");
        return;
    }
    assert_eq!(
        actual,
        [
            "t0@0[1:v1 2:v2]",
            "t0@0[1:v9 2:v2]",
            "t0@0[1:v1 3:v3]",
            "t0@0[1:v9 3:v3]",
            "t0@0[1:v1 4:v4]",
            "t0@0[1:v1 4:v6]",
            "t0@0[1:v9 4:v4]",
            "t0@0[1:v9 4:v6]",
            "t0@0[2:v2 3:v3]",
            "t0@0[2:v2 4:v4]",
            "t0@0[2:v2 4:v6]",
            "t0@0[3:v3 4:v4]",
            "t0@0[3:v3 4:v6]",
            "t1@0[1:v1 2:v2]",
            "t1@0[1:v9 2:v2]",
            "t1@0[1:v1 4:v4]",
            "t1@0[1:v1 4:v6]",
            "t1@0[1:v9 4:v4]",
            "t1@0[1:v9 4:v6]",
            "t1@0[2:v2 4:v4]",
            "t1@0[2:v2 4:v6]",
            "t1@0[1:v1 2:v2 4:v4]",
            "t1@0[1:v1 2:v2 4:v6]",
            "t1@0[1:v9 2:v2 4:v4]",
            "t1@0[1:v9 2:v2 4:v6]",
            "t2@0[2:v2]",
            "t2@0[4:v4]",
            "t2@0[4:v6]",
            "t2@0[1:v1 3:v3]",
            "t2@0[1:v9 3:v3]",
            "t2@0[2:v2 4:v4]",
            "t2@0[2:v2 4:v6]",
            "t3@0[3:e1.200]",
            "t3@0[3:e3.5]",
            "t4@1[2:v0]",
            "t5@2[]",
        ]
    );
}
