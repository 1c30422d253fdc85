//! The engine-facing symmetry interface.
//!
//! `mp-checker`'s engines are generic over state, message and observer
//! types and must not force [`Permutable`] bounds onto every protocol; they
//! therefore program against the object-safe [`Symmetry`] trait. Two
//! implementations exist:
//!
//! * [`NoSymmetry`] — the default: trivial, and the engines skip every
//!   symmetry code path (zero cost, byte-identical exploration);
//! * [`OrbitReduction`] — canonicalizes `(state, observer)` pairs under a
//!   validated [`SymmetryGroup`], turning the visited set into a set of
//!   **orbit representatives**.
//!
//! The engines keep exploring *concrete* states and only canonicalize the
//! **keys** they insert into the visited store: when a successor's orbit
//! was already visited, some symmetric sibling's subtree has been (or is
//! being) explored, and — provided the property is invariant under the
//! group, which the validated role declarations assert — its verdict covers
//! the pruned sibling. Safety counterexamples therefore remain fully
//! concrete with no un-canonicalization step; liveness cycles that close
//! *modulo* a permutation are un-canonicalized by unrolling the closing
//! element (see `mp-checker`'s liveness engine).

use std::cmp::Ordering;
use std::marker::PhantomData;
use std::sync::Arc;

use mp_model::{Channels, GlobalState, LocalState, Message, Permutable, TransitionInstance};
use mp_trace::{Histogram, Phase, TraceHandle};

use crate::SymmetryGroup;

/// Object-safe symmetry interface consumed by the search engines.
///
/// Element indices refer to the underlying validated group; index `0` is
/// always the identity.
pub trait Symmetry<S, M: Ord, O>: Send + Sync {
    /// `true` if the group is identity-only; engines then skip every
    /// symmetry code path.
    fn is_trivial(&self) -> bool;

    /// Order of the validated group (1 = trivial).
    fn order(&self) -> usize;

    /// Returns the canonical (minimal under `Ord`) image of
    /// `(state, observer)` over the whole group, together with the index of
    /// the element that produced it.
    fn canonicalize(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> (GlobalState<S, M>, O, usize);

    /// [`Symmetry::canonicalize`] with observability: times the group sweep
    /// under [`Phase::Canonicalize`]. [`OrbitReduction`] also records the
    /// orbit size, which its sweep counts on the way, into the orbit
    /// histogram. A disabled handle makes this identical to `canonicalize`
    /// (no clock read).
    fn canonicalize_traced(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
        trace: &TraceHandle,
    ) -> (GlobalState<S, M>, O, usize) {
        let _span = trace.span(Phase::Canonicalize);
        self.canonicalize(state, observer)
    }

    /// The composition `a ∘ b` (apply `b` first) as an element index.
    fn compose(&self, a: usize, b: usize) -> usize;

    /// The inverse of element `e`.
    fn inverse(&self, e: usize) -> usize;

    /// Applies element `e` to a `(state, observer)` pair.
    ///
    /// This is what lets a disk-spilled frontier hold canonical orbit
    /// representatives: the BFS engines enqueue
    /// `canonicalize(s) = (ŝ, δ)` and recover the concrete state on
    /// dequeue as `apply_element(inverse(δ), ŝ)`, so exploration and
    /// counterexample paths stay concrete.
    fn apply_element(
        &self,
        e: usize,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> (GlobalState<S, M>, O);

    /// Applies element `e` to a transition instance (relabelling the
    /// transition id to the image process's corresponding transition).
    fn permute_instance(&self, e: usize, instance: &TransitionInstance<M>)
        -> TransitionInstance<M>;

    /// Short label appended to engine strategy names (`"sym(k)"`).
    fn label(&self) -> String;
}

/// The trivial symmetry: identity only. The default of every checker run.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoSymmetry;

impl<S, M, O> Symmetry<S, M, O> for NoSymmetry
where
    S: Clone + Send + Sync,
    M: Ord + Clone + Send + Sync,
    O: Clone + Send + Sync,
{
    fn is_trivial(&self) -> bool {
        true
    }

    fn order(&self) -> usize {
        1
    }

    fn canonicalize(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> (GlobalState<S, M>, O, usize) {
        (state.clone(), observer.clone(), 0)
    }

    fn compose(&self, _a: usize, _b: usize) -> usize {
        0
    }

    fn inverse(&self, _e: usize) -> usize {
        0
    }

    fn apply_element(
        &self,
        _e: usize,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> (GlobalState<S, M>, O) {
        (state.clone(), observer.clone())
    }

    fn permute_instance(
        &self,
        _e: usize,
        instance: &TransitionInstance<M>,
    ) -> TransitionInstance<M> {
        instance.clone()
    }

    fn label(&self) -> String {
        "none".to_string()
    }
}

/// Orbit canonicalization under a validated [`SymmetryGroup`].
///
/// The canonical representative of a pair is its minimal image under `Ord`
/// across all group elements — a total, deterministic choice, so two states
/// of the same orbit always produce the same key.
pub struct OrbitReduction<S, M: Ord, O> {
    group: Arc<SymmetryGroup<S, M>>,
    _marker: PhantomData<fn() -> O>,
}

impl<S, M, O> OrbitReduction<S, M, O>
where
    S: LocalState + Permutable,
    M: Message + Permutable,
{
    /// Wraps a validated group.
    pub fn new(group: SymmetryGroup<S, M>) -> Self {
        OrbitReduction {
            group: Arc::new(group),
            _marker: PhantomData,
        }
    }

    /// The underlying group.
    pub fn group(&self) -> &SymmetryGroup<S, M> {
        &self.group
    }
}

impl<S, M, O> OrbitReduction<S, M, O>
where
    S: LocalState + Permutable,
    M: Message + Permutable,
    O: Permutable + Ord + Clone,
{
    /// The one group sweep: the `Ord`-minimal image of `(state, observer)`,
    /// the first element that produces it, and how many elements produce it
    /// (|Stab|, so the orbit has `order / |Stab|` members).
    ///
    /// The derived `Ord` reads locals slot by slot, then channels, then the
    /// observer; each element's image is compared with the winner's in that
    /// order as it is generated, so most lose at a local slot with nothing
    /// past it built. Channel and observer images are built only on ties,
    /// and only the final winner is completed.
    fn sweep(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> (GlobalState<S, M>, O, usize, usize) {
        let elements = self.group.elements();
        let n = state.locals.len();
        // The winner so far. The identity's image is `(state, observer)`
        // itself; a later winner's channel and observer images are `None`
        // until built.
        let (mut best, mut stabilizer) = (0, 1);
        let (mut best_locals, mut best_channels, mut best_observer) = (Vec::new(), None, None);
        // Candidate buffers, swapped with the winner's when a candidate wins.
        let (mut locals, mut channels) = (Vec::with_capacity(n), None);
        for (i, elem) in elements.iter().enumerate().skip(1) {
            let (perm, best_perm) = (elem.permutation(), elements[best].permutation());
            let inverse = elements[self.group.inverse(i)].permutation();
            let image = |k: usize| state.locals[inverse.apply_index(k)].permute(perm);
            let winner_locals = if best == 0 {
                &state.locals
            } else {
                &best_locals
            };
            locals.clear();
            let mut order = Ordering::Equal;
            for (k, winner) in winner_locals.iter().enumerate() {
                let local = image(k);
                order = local.cmp(winner);
                if order.is_gt() {
                    break;
                }
                locals.push(local);
                if order.is_lt() {
                    locals.extend((k + 1..n).map(image));
                    break;
                }
            }
            let tied_locals = order.is_eq();
            if tied_locals {
                let candidate = channels.get_or_insert_with(|| Channels::new(n));
                state.channels.permute_into(perm, candidate);
                let winner: &Channels<M> = if best == 0 {
                    &state.channels
                } else {
                    best_channels.get_or_insert_with(|| state.channels.permute(best_perm))
                };
                order = (*candidate).cmp(winner);
            }
            let mut observer_image = None;
            if order.is_eq() {
                let candidate = observer.permute(perm);
                let winner: &O = if best == 0 {
                    observer
                } else {
                    best_observer.get_or_insert_with(|| observer.permute(best_perm))
                };
                order = candidate.cmp(winner);
                observer_image = Some(candidate);
            }

            match order {
                Ordering::Less => {
                    best = i;
                    std::mem::swap(&mut best_locals, &mut locals);
                    if tied_locals {
                        std::mem::swap(&mut best_channels, &mut channels);
                    } else {
                        best_channels = None;
                    }
                    best_observer = observer_image;
                    stabilizer = 1;
                }
                Ordering::Equal => stabilizer += 1,
                Ordering::Greater => {}
            }
        }

        if best == 0 {
            return (state.clone(), observer.clone(), 0, stabilizer);
        }
        let perm = elements[best].permutation();
        let representative = GlobalState {
            locals: best_locals,
            channels: best_channels.unwrap_or_else(|| state.channels.permute(perm)),
        };
        let observer = best_observer.unwrap_or_else(|| observer.permute(perm));
        (representative, observer, best, stabilizer)
    }
}

impl<S, M, O> Clone for OrbitReduction<S, M, O>
where
    M: Ord,
{
    fn clone(&self) -> Self {
        OrbitReduction {
            group: self.group.clone(),
            _marker: PhantomData,
        }
    }
}

impl<S, M, O> Symmetry<S, M, O> for OrbitReduction<S, M, O>
where
    S: LocalState + Permutable,
    M: Message + Permutable,
    O: Permutable + Ord + Clone + Send + Sync + 'static,
{
    fn is_trivial(&self) -> bool {
        self.group.is_trivial()
    }

    fn order(&self) -> usize {
        self.group.order()
    }

    fn canonicalize(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> (GlobalState<S, M>, O, usize) {
        let (state, observer, elem, _) = self.sweep(state, observer);
        (state, observer, elem)
    }

    fn canonicalize_traced(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
        trace: &TraceHandle,
    ) -> (GlobalState<S, M>, O, usize) {
        let (state, observer, elem, stabilizer) = {
            let _span = trace.span(Phase::Canonicalize);
            self.sweep(state, observer)
        };
        trace.record(
            Histogram::OrbitSize,
            (self.group.order() / stabilizer) as u64,
        );
        (state, observer, elem)
    }

    fn compose(&self, a: usize, b: usize) -> usize {
        self.group.compose(a, b)
    }

    fn inverse(&self, e: usize) -> usize {
        self.group.inverse(e)
    }

    fn apply_element(
        &self,
        e: usize,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> (GlobalState<S, M>, O) {
        let perm = self.group.elements()[e].permutation();
        (state.permute(perm), observer.permute(perm))
    }

    fn permute_instance(
        &self,
        e: usize,
        instance: &TransitionInstance<M>,
    ) -> TransitionInstance<M> {
        self.group.permute_instance(e, instance)
    }

    fn label(&self) -> String {
        format!("sym({})", self.group.order())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoleMap;
    use mp_model::{Kind, Outcome, Permutation, ProcessId, ProtocolSpec, TransitionSpec};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Tok;
    mp_model::codec!(struct Tok);

    impl Message for Tok {
        fn kind(&self) -> Kind {
            "TOK"
        }
    }

    impl Permutable for Tok {
        fn permute(&self, _perm: &Permutation) -> Self {
            Tok
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    fn twins() -> ProtocolSpec<u8, Tok> {
        let mut builder = ProtocolSpec::builder("twins");
        for i in 0..2 {
            builder = builder.process(format!("t{i}"), 0u8);
        }
        for i in 0..2 {
            builder = builder.transition(
                TransitionSpec::builder(format!("step{i}"), p(i))
                    .internal()
                    .guard(|l, _| *l < 3)
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(l + 1))
                    .build(),
            );
        }
        builder.build().unwrap()
    }

    #[test]
    fn canonical_keys_identify_orbit_members() {
        let spec = twins();
        let group = SymmetryGroup::build(&spec, &RoleMap::new(2).role([p(0), p(1)]));
        let reduction: OrbitReduction<u8, Tok, ()> = OrbitReduction::new(group);
        let mut a = spec.initial_state();
        a.locals = vec![2, 0];
        let mut b = spec.initial_state();
        b.locals = vec![0, 2];
        let (ca, _, ea) = Symmetry::<u8, Tok, ()>::canonicalize(&reduction, &a, &());
        let (cb, _, eb) = Symmetry::<u8, Tok, ()>::canonicalize(&reduction, &b, &());
        assert_eq!(ca, cb, "orbit members share a canonical representative");
        assert_ne!(ea, eb, "one of the two needed the swap");
        // The representative is itself a member of the orbit.
        assert!(ca == a || ca == b);
        assert!(Symmetry::<u8, Tok, ()>::label(&reduction).contains("sym(2)"));
    }

    #[test]
    fn apply_inverse_element_undoes_canonicalization() {
        let spec = twins();
        let group = SymmetryGroup::build(&spec, &RoleMap::new(2).role([p(0), p(1)]));
        let reduction: OrbitReduction<u8, Tok, ()> = OrbitReduction::new(group);
        let sym: &dyn Symmetry<u8, Tok, ()> = &reduction;
        let mut concrete = spec.initial_state();
        concrete.locals = vec![3, 1];
        let (canonical, _, delta) = sym.canonicalize(&concrete, &());
        // This is the spillable-frontier contract: the canonical
        // representative plus δ⁻¹ recovers the concrete state exactly.
        let (back, _) = sym.apply_element(sym.inverse(delta), &canonical, &());
        assert_eq!(back, concrete);
        // NoSymmetry's apply is the identity.
        let nosym: &dyn Symmetry<u8, Tok, ()> = &NoSymmetry;
        let (same, _) = nosym.apply_element(0, &concrete, &());
        assert_eq!(same, concrete);
    }

    #[test]
    fn orbit_size_counts_distinct_images_and_traced_form_records_it() {
        use mp_trace::{Histogram, Phase, SharedBuffer, Tracer};
        let spec = twins();
        let group = SymmetryGroup::build(&spec, &RoleMap::new(2).role([p(0), p(1)]));
        let reduction: OrbitReduction<u8, Tok, ()> = OrbitReduction::new(group);
        let sym: &dyn Symmetry<u8, Tok, ()> = &reduction;
        let mut asymmetric = spec.initial_state();
        asymmetric.locals = vec![2, 0];
        assert_eq!(reference_orbit_size(reduction.group(), &asymmetric, &()), 2);
        // The all-equal state is fixed by the swap: a singleton orbit.
        let symmetric = spec.initial_state();
        assert_eq!(reference_orbit_size(reduction.group(), &symmetric, &()), 1);

        let tracer = Tracer::to_writer(false, Box::new(SharedBuffer::new()));
        let run = tracer.begin_run("twins", "test", "p");
        let (c1, _, e1) = sym.canonicalize(&asymmetric, &());
        let (c2, _, e2) = sym.canonicalize_traced(&asymmetric, &(), &run.handle());
        assert_eq!(c1, c2, "traced form must not change the representative");
        assert_eq!(e1, e2);
        let snap = run.snapshot();
        assert_eq!(snap.histogram(Histogram::OrbitSize).count, 1);
        assert_eq!(snap.histogram(Histogram::OrbitSize).max, 2);
        assert!(snap.phases.nanos(Phase::Canonicalize) > 0);
        // The sweep counted the swap as a second image of the symmetric
        // state: one stabilizer of order 2, orbit 1.
        sym.canonicalize_traced(&symmetric, &(), &run.handle());
        let snap = run.snapshot();
        assert_eq!(snap.histogram(Histogram::OrbitSize).count, 2);
        assert_eq!(snap.histogram(Histogram::OrbitSize).sum, 2 + 1);
        run.finish("verified");
    }

    // --- The sweep against the one it replaced ---------------------------

    /// The sweep as it was before it compared lazily: every image built in
    /// full, the first strictly smaller one kept. The reference the lazy
    /// sweep is checked against.
    fn reference_canonicalize<S, M, O>(
        group: &SymmetryGroup<S, M>,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> (GlobalState<S, M>, O, usize)
    where
        S: LocalState + Permutable,
        M: Message + Permutable,
        O: Permutable + Ord + Clone,
    {
        let mut best_state = state.clone();
        let mut best_observer = observer.clone();
        let mut best = 0usize;
        for (i, elem) in group.elements().iter().enumerate().skip(1) {
            let candidate_state = state.permute(elem.permutation());
            let candidate_observer = observer.permute(elem.permutation());
            if (&candidate_state, &candidate_observer) < (&best_state, &best_observer) {
                best_state = candidate_state;
                best_observer = candidate_observer;
                best = i;
            }
        }
        (best_state, best_observer, best)
    }

    /// The orbit size as the second sweep of a traced run used to count it:
    /// the number of distinct images.
    fn reference_orbit_size<S, M, O>(
        group: &SymmetryGroup<S, M>,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> usize
    where
        S: LocalState + Permutable,
        M: Message + Permutable,
        O: Permutable + Ord,
    {
        let mut images: Vec<(GlobalState<S, M>, O)> = group
            .elements()
            .iter()
            .map(|elem| {
                (
                    state.permute(elem.permutation()),
                    observer.permute(elem.permutation()),
                )
            })
            .collect();
        images.sort_unstable();
        images.dedup();
        images.len()
    }

    /// The lazy sweep's representative, element and orbit size are the
    /// references' exactly. Returns the representative.
    fn assert_matches_reference<S, M, O>(
        reduction: &OrbitReduction<S, M, O>,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> (GlobalState<S, M>, O)
    where
        S: LocalState + Permutable,
        M: Message + Permutable,
        O: Permutable + Ord + Clone + std::fmt::Debug,
    {
        let group = reduction.group();
        let (representative, image, elem, stabilizer) = reduction.sweep(state, observer);
        let swept = (representative, image, elem);
        assert_eq!(
            swept,
            reference_canonicalize(group, state, observer),
            "{state:?} / {observer:?}"
        );
        assert_eq!(group.order() % stabilizer, 0, "|Stab| divides |G|");
        assert_eq!(
            group.order() / stabilizer,
            reference_orbit_size(group, state, observer),
            "{state:?} / {observer:?}"
        );
        (swept.0, swept.1)
    }

    /// A message that names a process, so channel images differ in payload
    /// as well as in endpoints.
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum Note {
        Tok,
        From(ProcessId),
    }
    mp_model::codec!(enum Note { 0 = Tok, 1 = From(p) });

    impl Message for Note {
        fn kind(&self) -> Kind {
            "NOTE"
        }
    }

    impl Permutable for Note {
        fn permute(&self, perm: &Permutation) -> Self {
            match self {
                Note::Tok => Note::Tok,
                Note::From(q) => Note::From(perm.apply(*q)),
            }
        }
    }

    /// `initials.len()` counters stepping to 2, one role over all of them:
    /// equal initials validate the full symmetric group, unequal ones a
    /// subgroup.
    fn counters(initials: &[u8]) -> ProtocolSpec<u8, Note> {
        let mut builder = ProtocolSpec::builder("counters");
        for (i, &initial) in initials.iter().enumerate() {
            builder = builder.process(format!("c{i}"), initial);
        }
        for i in 0..initials.len() {
            builder = builder.transition(
                TransitionSpec::builder(format!("step{i}"), p(i))
                    .internal()
                    .guard(|l, _| *l < 2)
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(l + 1))
                    .build(),
            );
        }
        builder.build().unwrap()
    }

    fn role_over_all(n: usize) -> RoleMap {
        RoleMap::new(n).role((0..n).map(p))
    }

    /// SplitMix64, as in the other deterministic property tests.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    #[test]
    fn ties_on_locals_are_decided_by_the_channels() {
        let spec = counters(&[0, 0, 0]);
        let reduction: OrbitReduction<u8, Note, ()> =
            OrbitReduction::new(SymmetryGroup::build(&spec, &role_over_all(3)));
        assert_eq!(reduction.group().order(), 6);
        // Equal locals: every element ties on them, the channels decide.
        let mut state = spec.initial_state();
        state.channels.send(p(2), p(0), Note::From(p(2)));
        state.channels.send(p(0), p(1), Note::Tok);
        assert_matches_reference(&reduction, &state, &());
        let (representative, _, elem) = reduction.canonicalize(&state, &());
        assert_ne!(elem, 0, "only an image has p0 hear from p1 first");
        assert_eq!(representative.locals, state.locals);
        // Locals that tie under the swap of p0 and p1 only.
        state.locals = vec![1, 1, 0];
        assert_matches_reference(&reduction, &state, &());
        // Channels that tie too: the swap fixes the whole state, so the
        // stabilizer has order 2 and the orbit three members.
        let mut fixed = spec.initial_state();
        fixed.locals = vec![1, 1, 0];
        fixed.channels.send(p(2), p(0), Note::Tok);
        fixed.channels.send(p(2), p(1), Note::Tok);
        assert_matches_reference(&reduction, &fixed, &());
        assert_eq!(reduction.sweep(&fixed, &()).3, 2);
    }

    #[test]
    fn ties_on_locals_and_channels_are_decided_by_the_observer() {
        let spec = counters(&[0, 0, 0]);
        let reduction: OrbitReduction<u8, Note, ProcessId> =
            OrbitReduction::new(SymmetryGroup::build(&spec, &role_over_all(3)));
        let mut state = spec.initial_state();
        state.channels.send(p(0), p(1), Note::Tok);
        state.channels.send(p(1), p(0), Note::Tok);
        // {0, 1} tie on everything but the observer, which names p1: the
        // swap's image names p0 and wins.
        assert_matches_reference(&reduction, &state, &p(1));
        let (_, observer, elem) = reduction.canonicalize(&state, &p(1));
        assert_eq!(observer, p(0));
        assert_ne!(elem, 0);
        // Naming p2 breaks no tie the state left: the swap fixes the pair.
        assert_matches_reference(&reduction, &state, &p(2));
        assert_eq!(reduction.sweep(&state, &p(2)).3, 2);
        // And naming p0 keeps the identity.
        assert_eq!(reduction.canonicalize(&state, &p(0)).2, 0);
    }

    #[test]
    fn lazy_sweep_matches_the_full_sweep_on_random_tied_states() {
        // Three or four processes over tiny domains: most images tie on a
        // prefix of the locals, many on all of them and on the channels.
        let mut rng = 25;
        for n in [3, 4] {
            let spec = counters(&vec![0; n]);
            let reduction: OrbitReduction<u8, Note, Option<ProcessId>> =
                OrbitReduction::new(SymmetryGroup::build(&spec, &role_over_all(n)));
            for _ in 0..2000 {
                let mut state = spec.initial_state();
                for local in &mut state.locals {
                    *local = (next(&mut rng) % 2) as u8;
                }
                for _ in 0..next(&mut rng) % 4 {
                    let from = p(next(&mut rng) as usize % n);
                    let to = p(next(&mut rng) as usize % n);
                    let note = if next(&mut rng).is_multiple_of(2) {
                        Note::Tok
                    } else {
                        Note::From(from)
                    };
                    state.channels.send(from, to, note);
                }
                let observer = match next(&mut rng) % 3 {
                    0 => None,
                    _ => Some(p(next(&mut rng) as usize % n)),
                };
                assert_matches_reference(&reduction, &state, &observer);
            }
        }
    }

    #[test]
    fn lazy_sweep_matches_the_full_sweep_on_a_partial_group() {
        // p2 starts elsewhere, so only the swap of p0 and p1 validates.
        let spec = counters(&[0, 0, 1]);
        let reduction: OrbitReduction<u8, Note, ()> =
            OrbitReduction::new(SymmetryGroup::build(&spec, &role_over_all(3)));
        assert_eq!(reduction.group().order(), 2);
        let graph = mp_model::StateGraph::build(&spec, 1000).unwrap();
        for i in 0..graph.num_states() {
            assert_matches_reference(&reduction, graph.state(i), &());
        }
    }

    /// Walks the orbit quotient of `spec` from its initial pair the way the
    /// engines do — expand a representative, canonicalize every successor —
    /// checking every successor against the references, until `expansions`
    /// representatives are expanded or none is left. Returns the group
    /// order, the representatives found and the successors checked.
    fn check_quotient<S, M, O>(
        spec: &ProtocolSpec<S, M>,
        (n, roles): (usize, &[Vec<ProcessId>]),
        observer: O,
        expansions: usize,
    ) -> (usize, usize, usize)
    where
        S: LocalState + Permutable,
        M: Message + Permutable,
        O: mp_checker::Observer<S, M> + Permutable + Ord,
    {
        // The protocols declare their roles in the library build of this
        // crate; rebuild the map in this one.
        let roles = roles
            .iter()
            .fold(RoleMap::new(n), |map, role| map.role(role.iter().copied()));
        let reduction = OrbitReduction::new(SymmetryGroup::build(spec, &roles));
        let root = assert_matches_reference(&reduction, &spec.initial_state(), &observer);
        let mut seen = std::collections::HashSet::from([root.clone()]);
        let mut queue = std::collections::VecDeque::from([root]);
        let mut checked = 0;
        for _ in 0..expansions {
            let Some((state, observer)) = queue.pop_front() else {
                break;
            };
            for instance in mp_model::enabled_instances(spec, &state) {
                let post = mp_model::execute_enabled(spec, &state, &instance);
                let observed = observer.update(spec, &state, &instance, &post);
                let representative = assert_matches_reference(&reduction, &post, &observed);
                checked += 1;
                if seen.insert(representative.clone()) {
                    queue.push_back(representative);
                }
            }
        }
        (reduction.group().order(), seen.len(), checked)
    }

    #[test]
    fn lazy_sweep_matches_the_full_sweep_on_the_protocols() {
        use mp_checker::NullObserver;
        use mp_faults::FaultBudget;
        use mp_protocols::{echo_multicast, paxos, storage};
        let crash1 = FaultBudget::none().crashes(1);

        // The `paxos-sym` cell. Its whole quotient (185 372 representatives,
        // 845 511 successors) takes most of a minute unoptimized; the first
        // 20 000 expansions, breadth first, are `expand_probe`'s sample size.
        let setting = paxos::PaxosSetting::new(2, 3, 1);
        let spec =
            paxos::faulty_quorum_model(setting, paxos::PaxosVariant::Correct, crash1.drops(1));
        let roles = paxos::symmetry_roles(setting);
        let counts = check_quotient(
            &spec,
            (roles.num_processes(), roles.roles()),
            NullObserver,
            20_000,
        );
        assert_eq!(counts, (6, 33_938, 126_435));

        // The lifted regularity observer embeds process ids: its images
        // differ, and break ties the state leaves.
        let setting = storage::StorageSetting::new(3, 1);
        let spec = storage::faulty_quorum_model(setting, crash1);
        let roles = storage::symmetry_roles(setting);
        let observer = storage::faulty_regularity_observer(setting);
        let counts = check_quotient(
            &spec,
            (roles.num_processes(), roles.roles()),
            observer,
            usize::MAX,
        );
        assert_eq!(counts, (6, 22_129, 80_264));

        let setting = echo_multicast::MulticastSetting::new(3, 1, 1, 1);
        let spec = echo_multicast::quorum_model(setting);
        let roles = echo_multicast::symmetry_roles(setting);
        let counts = check_quotient(
            &spec,
            (roles.num_processes(), roles.roles()),
            NullObserver,
            usize::MAX,
        );
        assert_eq!(counts, (2, 2_297, 10_329));
    }

    #[test]
    fn no_symmetry_is_trivial_and_identity() {
        let spec = twins();
        let state = spec.initial_state();
        let sym: &dyn Symmetry<u8, Tok, ()> = &NoSymmetry;
        assert!(sym.is_trivial());
        let (c, _, e) = sym.canonicalize(&state, &());
        assert_eq!(c, state);
        assert_eq!(e, 0);
    }
}
