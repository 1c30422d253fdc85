//! Un-canonicalizing a cycle that closed modulo a non-identity permutation.

use std::sync::Arc;

use mp_model::{GlobalState, LocalState, Message, TransitionInstance};
use mp_symmetry::Symmetry;

use super::fair_pending_cycle;
use crate::successors::Successors;
use crate::{Observer, Property};

/// The DFS found `e →segment→ f` from the product state `entry` = `e` with
/// `canon(e) = canon(f)` via elements `g_e(e) = c = g_f(f)`, so `f = δ(e)`
/// with `δ = g_f⁻¹ ∘ g_e`. By equivariance, repeating the segment with
/// `δ`-powers applied walks `e → δ(e) → δ²(e) → … → δᵏ(e) = e` where `k` is
/// the order of `δ` — a genuine concrete cycle. The unrolled instance list
/// is validated by re-execution (each step enabled, the obligation pending
/// throughout, the walk returning exactly to the entry product state) and
/// by the weak fairness test on the concrete enabled sets collected along
/// the way. Returns the unrolled cycle when it is a real fair violation;
/// `None` otherwise (including when a structurally-validated but
/// semantically asymmetric role declaration makes a permuted instance
/// non-executable — the conservative answer).
pub(super) fn unroll_symmetric_cycle<S, M, O>(
    successors: &Successors<'_, S, M, O>,
    property: &Property<S, M, O>,
    symmetry: &Arc<dyn Symmetry<S, M, O>>,
    entry: (&GlobalState<S, M>, &O),
    (entry_elem, closing_elem): (usize, usize),
    segment: &[TransitionInstance<M>],
) -> Option<Vec<TransitionInstance<M>>>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    // δ = g_f⁻¹ ∘ g_e; its order is bounded by the group order.
    let delta = symmetry.compose(symmetry.inverse(closing_elem), entry_elem);
    let mut unrolled: Vec<TransitionInstance<M>> = Vec::new();
    let mut power = 0usize; // identity
    loop {
        for instance in segment {
            unrolled.push(symmetry.permute_instance(power, instance));
        }
        power = symmetry.compose(delta, power);
        if power == 0 {
            break;
        }
    }

    // Validate the unrolled lasso by concrete re-execution.
    fair_pending_cycle(successors, property, entry, &unrolled).then_some(unrolled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::tests::Tok;
    use crate::NullObserver;
    use mp_model::{
        enabled_instances, execute_enabled, Outcome, Permutable, Permutation, ProcessId,
        ProtocolSpec, TransitionSpec,
    };
    use mp_symmetry::{OrbitReduction, RoleMap, SymmetryGroup};

    impl Permutable for Tok {
        fn permute(&self, _: &Permutation) -> Self {
            Tok
        }
    }

    /// Two interchangeable processes, each flipping its own bit forever.
    #[test]
    fn a_swap_closed_segment_unrolls_to_the_concrete_square() {
        let mut builder = ProtocolSpec::builder("togglers");
        for i in 0..2 {
            builder = builder.process(format!("t{i}"), 0u8).transition(
                TransitionSpec::builder(format!("flip{i}"), ProcessId(i))
                    .internal()
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(1 - *l))
                    .build(),
            );
        }
        let spec: ProtocolSpec<u8, Tok> = builder.build().unwrap();
        let roles = RoleMap::new(2).role([ProcessId(0), ProcessId(1)]);
        let symmetry: Arc<dyn Symmetry<u8, Tok, NullObserver>> =
            Arc::new(OrbitReduction::new(SymmetryGroup::build(&spec, &roles)));

        // [1,0] →flip0→ [0,0] →flip1→ [0,1]: the segment ends in the swap
        // image of where it began, not in the state itself.
        let entry = GlobalState::new(vec![1u8, 0]);
        let segment = enabled_instances(&spec, &entry); // flip0, flip1
        let run = |from: &GlobalState<u8, Tok>, instances: &[TransitionInstance<Tok>]| {
            let step = |s, i| execute_enabled(&spec, &s, i);
            instances.iter().fold(from.clone(), step)
        };
        let state = run(&entry, &segment);
        assert_eq!(state, GlobalState::new(vec![0u8, 1]));
        let (canon_entry, _, entry_elem) = symmetry.canonicalize(&entry, &NullObserver);
        let (canon_end, _, closing_elem) = symmetry.canonicalize(&state, &NullObserver);
        assert_eq!(canon_entry, canon_end);
        assert_ne!(entry_elem, closing_elem, "closed by the swap only");

        let unroll = |property: &Property<u8, Tok, NullObserver>| {
            let elems = (entry_elem, closing_elem);
            let at = (&entry, &NullObserver);
            let successors = Successors::exact(&spec);
            unroll_symmetric_cycle(&successors, property, &symmetry, at, elems, &segment)
        };
        let never = Property::termination("reaches-2", |s: &GlobalState<u8, Tok>, _| {
            s.locals.contains(&2)
        });
        let cycle = unroll(&never).expect("the square is a fair all-pending cycle");
        let processes: Vec<usize> = cycle.iter().map(|i| i.process.0).collect();
        assert_eq!(processes, [0, 1, 1, 0], "the segment, then its swap image");
        assert_eq!(
            run(&entry, &cycle),
            entry,
            "the unrolled cycle closes exactly"
        );

        // The same walk passes through [0,0]: a goal there discharges the
        // obligation and the cycle is no violation.
        let both_zero =
            Property::termination("both-0", |s: &GlobalState<u8, Tok>, _| s.locals == [0, 0]);
        assert_eq!(unroll(&both_zero), None);
    }
}
