//! Combined-split refinement: reply-split plus quorum-split.
//!
//! The paper's Table II evaluates three split models per protocol: splitting
//! only reply transitions (*reply-split*), only non-reply quorum transitions
//! (*quorum-split*), and all of them (*combined-split*). [`combined_split`]
//! composes the two strategies; because each is a transition refinement
//! (Theorem 2), the composition is one as well.

use mp_model::{LocalState, Message, ModelError, ProtocolSpec};

use crate::{quorum_split_all, reply_split_all};

/// Applies reply-split to every reply transition and quorum-split to every
/// other exact quorum transition.
pub(crate) fn combined_split<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
) -> Result<ProtocolSpec<S, M>, ModelError> {
    let replies = reply_split_all(spec)?;
    let both = quorum_split_all(&replies)?;
    Ok(both.renamed(format!("{}+combined-split", spec.name())))
}

/// The refinement strategies of Table II, as a value the harness can iterate
/// over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SplitStrategy {
    /// The unsplit quorum model (Table II column "Quorum").
    Unsplit,
    /// Split reply transitions only.
    ReplySplit,
    /// Split non-reply exact quorum transitions only.
    QuorumSplit,
    /// Split both.
    CombinedSplit,
}

impl SplitStrategy {
    /// All strategies in the order of the paper's Table II columns.
    pub const ALL: [SplitStrategy; 4] = [
        SplitStrategy::Unsplit,
        SplitStrategy::ReplySplit,
        SplitStrategy::QuorumSplit,
        SplitStrategy::CombinedSplit,
    ];

    /// The column label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SplitStrategy::Unsplit => "quorum (unsplit)",
            SplitStrategy::ReplySplit => "reply-split",
            SplitStrategy::QuorumSplit => "quorum-split",
            SplitStrategy::CombinedSplit => "combined-split",
        }
    }

    /// Applies this strategy to a protocol.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the underlying split functions.
    pub fn apply<S: LocalState, M: Message>(
        &self,
        spec: &ProtocolSpec<S, M>,
    ) -> Result<ProtocolSpec<S, M>, ModelError> {
        match self {
            SplitStrategy::Unsplit => Ok(spec.clone()),
            SplitStrategy::ReplySplit => reply_split_all(spec),
            SplitStrategy::QuorumSplit => quorum_split_all(spec),
            SplitStrategy::CombinedSplit => combined_split(spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::{Kind, Outcome, ProcessId, QuorumSpec, TransitionSpec};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum Msg {
        Read(u8),
        ReadRepl(u8),
    }
    mp_model::codec!(enum Msg { 0 = Read(n), 1 = ReadRepl(n) });

    impl Message for Msg {
        fn kind(&self) -> Kind {
            match self {
                Msg::Read(_) => "READ",
                Msg::ReadRepl(_) => "READ_REPL",
            }
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// One proposer-like process (p0) asks three acceptor-like processes
    /// (p1..p3) and collects two replies; the acceptors reply to the asker.
    fn mini_paxos_phase1() -> ProtocolSpec<u8, Msg> {
        let mut b = ProtocolSpec::builder("phase1").process("proposer", 0u8);
        for i in 1..=3 {
            b = b.process(format!("acceptor{i}"), 0u8);
        }
        b = b.transition(
            TransitionSpec::builder("READ", p(0))
                .internal()
                .guard(|l, _| *l == 0)
                .sends(&["READ"])
                .sends_to([p(1), p(2), p(3)])
                .effect(|_, _| {
                    Outcome::new(1)
                        .send(p(1), Msg::Read(0))
                        .send(p(2), Msg::Read(0))
                        .send(p(3), Msg::Read(0))
                })
                .build(),
        );
        for i in 1..=3usize {
            b = b.transition(
                TransitionSpec::builder(format!("READ_ACC_{i}"), p(i))
                    .single_input("READ")
                    .reply()
                    .sends(&["READ_REPL"])
                    .effect(move |_, m: &[mp_model::Envelope<Msg>]| {
                        Outcome::new(1).send(m[0].sender, Msg::ReadRepl(i as u8))
                    })
                    .build(),
            );
        }
        b.transition(
            TransitionSpec::builder("READ_REPL", p(0))
                .quorum_input("READ_REPL", QuorumSpec::Exact(2))
                .guard(|l, _| *l == 1)
                .sends_nothing()
                .effect(|_, _| Outcome::new(2))
                .build(),
        )
        .build()
        .unwrap()
    }

    #[test]
    fn strategies_produce_expected_transition_counts() {
        let spec = mini_paxos_phase1();
        assert_eq!(spec.num_transitions(), 5);
        // The acceptor replies have a single candidate partner (the only
        // proposer), so reply-split leaves them alone.
        let reply = SplitStrategy::ReplySplit.apply(&spec).unwrap();
        assert_eq!(reply.num_transitions(), 5);
        // READ_REPL (quorum 2 of 3 acceptors) splits into 3 copies.
        let quorum = SplitStrategy::QuorumSplit.apply(&spec).unwrap();
        assert_eq!(quorum.num_transitions(), 7);
        let combined = SplitStrategy::CombinedSplit.apply(&spec).unwrap();
        assert_eq!(combined.num_transitions(), 7);
        let unsplit = SplitStrategy::Unsplit.apply(&spec).unwrap();
        assert_eq!(unsplit.num_transitions(), 5);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SplitStrategy::Unsplit.label(), "quorum (unsplit)");
        assert_eq!(SplitStrategy::ReplySplit.label(), "reply-split");
        assert_eq!(SplitStrategy::QuorumSplit.label(), "quorum-split");
        assert_eq!(SplitStrategy::CombinedSplit.label(), "combined-split");
        assert_eq!(SplitStrategy::ALL.len(), 4);
    }

    #[test]
    fn combined_split_renames_the_protocol() {
        let spec = mini_paxos_phase1();
        let combined = combined_split(&spec).unwrap();
        assert!(combined.name().contains("combined-split"));
    }
}
