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
use std::ops::Range;
use std::sync::Arc;

use mp_model::{
    combine, write_varint, Channels, Encode, GlobalState, LocalState, Message, Permutable,
    Permutation, ProcessId, TransitionInstance,
};
use mp_trace::{Phase, TraceHandle};

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

    /// Returns the canonical image of `(state, observer)`, together with
    /// the index of the element that produced it: the orbit representative,
    /// the same for every member of the orbit. Which member that is belongs
    /// to the implementation (see [`OrbitReduction`]).
    fn canonicalize(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> (GlobalState<S, M>, O, usize);

    /// Appends the encoding of the canonical pair, `(ŝ, ô).encode(out)`,
    /// and returns the element that produced it, as
    /// [`Symmetry::canonicalize`] would, timed, encoding included, under
    /// [`Phase::Canonicalize`] (a disabled handle reads no clock). This
    /// default canonicalizes, then encodes; [`OrbitReduction`] writes the
    /// image without building it.
    fn canonical_encode(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
        out: &mut Vec<u8>,
        trace: &TraceHandle,
    ) -> usize
    where
        S: Encode,
        M: Message,
        O: Encode,
    {
        let _span = trace.span(Phase::Canonicalize);
        let (state, observer, elem) = self.canonicalize(state, observer);
        state.encode(out);
        observer.encode(out);
        elem
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
/// The canonical representative of a pair is the `Ord`-minimal image over
/// a set of *candidate* elements that is the same for every member of the
/// orbit, so two states of one orbit always produce the same key. The
/// candidates are the elements that sort each block's members by a
/// permutation-invariant signature — the member's
/// [`Permutable::signature`] plus a multiset hash of its channel entries
/// (the scalarset construction). Only members whose signatures tie are
/// tried in every order, so the cost follows the ties, not the group
/// order.
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
}

impl<S, M, O> OrbitReduction<S, M, O>
where
    S: LocalState + Permutable,
    M: Message + Permutable,
    O: Permutable + Ord + Clone,
{
    /// The canonical image of `(state, observer)`: the least image over the
    /// sorted candidates, and its rank.
    fn canonical(&self, state: &GlobalState<S, M>, observer: &O) -> Winner<S, M, O> {
        let (arrangement, ties) = sorted_arrangement(&self.group, state);
        let identity = arrangement.iter().enumerate().all(|(i, &from)| i == from);
        let mut best = Winner {
            elem: 0,
            perm: (!identity).then(|| self.group.permutation_of(&arrangement)),
            arrangement,
            locals: None,
            channels: None,
            observer: None,
        };
        if !ties.is_empty() {
            self.least_image(state, observer, &ties, &mut best);
        }
        best.elem = self.group.rank(&best.arrangement);
        best
    }

    /// Replaces `best`, the first candidate, with the `Ord`-minimal image
    /// over every ordering of the `ties`, and the first candidate that
    /// produces it.
    ///
    /// The derived `Ord` reads locals slot by slot, then channels, then the
    /// observer; each candidate's image is compared with the winner's in
    /// that order as it is generated, so most lose at a local slot with
    /// nothing past it built. Channel and observer images are built only on
    /// ties.
    fn least_image(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
        ties: &[Range<usize>],
        best: &mut Winner<S, M, O>,
    ) {
        let n = state.locals.len();
        let members = &self.group.members;
        // The candidate, stepped through every ordering of every tie
        // odometer-style (a tie that wraps back to ascending order carries
        // into the next), and its buffers, swapped with the winner's when it
        // wins.
        let mut candidate = Candidate {
            arrangement: best.arrangement.clone(),
            perm: best
                .perm
                .clone()
                .unwrap_or_else(|| Permutation::identity(n)),
        };
        let (mut locals, mut channels) = (Vec::new(), None);
        while ties.iter().any(|tie| candidate.next(members, tie.clone())) {
            let Candidate { arrangement, perm } = &candidate;
            let image = |k: usize| self.image_local(state, arrangement, perm, k);
            if let (Some(best_perm), None) = (&best.perm, &best.locals) {
                best.locals = Some(
                    (0..n)
                        .map(|k| self.image_local(state, &best.arrangement, best_perm, k))
                        .collect(),
                );
            }
            let winner_locals = best.locals.as_ref().unwrap_or(&state.locals);
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
                let winner: &Channels<M> = match &best.perm {
                    None => &state.channels,
                    Some(best_perm) => best
                        .channels
                        .get_or_insert_with(|| state.channels.permute(best_perm)),
                };
                order = (*candidate).cmp(winner);
            }
            let mut observer_image = None;
            if order.is_eq() {
                let candidate = observer.permute(perm);
                let winner: &O = match &best.perm {
                    None => observer,
                    Some(best_perm) => best
                        .observer
                        .get_or_insert_with(|| observer.permute(best_perm)),
                };
                order = candidate.cmp(winner);
                observer_image = Some(candidate);
            }

            match order {
                Ordering::Less => {
                    best.arrangement.copy_from_slice(arrangement);
                    best.perm = Some(perm.clone());
                    if let Some(previous) = best.locals.replace(std::mem::take(&mut locals)) {
                        locals = previous;
                    }
                    if tied_locals {
                        std::mem::swap(&mut best.channels, &mut channels);
                    } else {
                        best.channels = None;
                    }
                    best.observer = observer_image;
                }
                Ordering::Equal | Ordering::Greater => {}
            }
        }
    }

    /// Slot `k` of the image of the locals under the element with
    /// `arrangement` and permutation `perm`.
    fn image_local(
        &self,
        state: &GlobalState<S, M>,
        arrangement: &[usize],
        perm: &Permutation,
        k: usize,
    ) -> S {
        let source = match self.group.of[k] {
            Some((_, i)) => self.group.members[arrangement[i]].index(),
            None => k,
        };
        state.locals[source].permute(perm)
    }

    /// The winner's image, completed.
    fn build(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
        winner: Winner<S, M, O>,
    ) -> (GlobalState<S, M>, O) {
        let Some(perm) = &winner.perm else {
            return (state.clone(), observer.clone());
        };
        let n = state.locals.len();
        let representative = GlobalState {
            locals: winner.locals.unwrap_or_else(|| {
                (0..n)
                    .map(|k| self.image_local(state, &winner.arrangement, perm, k))
                    .collect()
            }),
            channels: winner
                .channels
                .unwrap_or_else(|| state.channels.permute(perm)),
        };
        let observer = winner.observer.unwrap_or_else(|| observer.permute(perm));
        (representative, observer)
    }

    /// Appends `build(winner).encode(out)` without building the parts no
    /// comparison built; the identity's are the concrete pair's own.
    fn encode_image(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
        winner: &Winner<S, M, O>,
        out: &mut Vec<u8>,
    ) where
        O: Encode,
    {
        let Some(perm) = &winner.perm else {
            state.encode(out);
            observer.encode(out);
            return;
        };
        match &winner.locals {
            Some(locals) => locals.encode(out),
            None => {
                // The layout of `Vec<S>`: the length, then each slot.
                let n = state.locals.len();
                write_varint(n as u64, out);
                for k in 0..n {
                    self.image_local(state, &winner.arrangement, perm, k)
                        .encode(out);
                }
            }
        }
        match &winner.channels {
            Some(channels) => channels.encode(out),
            None => state.channels.encode_permuted(perm, out),
        }
        match &winner.observer {
            Some(image) => image.encode(out),
            None => observer.permute(perm).encode(out),
        }
    }
}

/// The least image a comparison of candidates found, and what it built of
/// it.
struct Winner<S, M: Ord, O> {
    /// The rank of the first candidate that produced it.
    elem: usize,
    /// That candidate's arrangement and permutation; `None` for the
    /// identity, whose parts are the concrete pair's own.
    arrangement: Vec<usize>,
    perm: Option<Permutation>,
    /// Its parts where a comparison built them (`None` otherwise).
    locals: Option<Vec<S>>,
    channels: Option<Channels<M>>,
    observer: Option<O>,
}

/// The first candidate's arrangement — each block's members in ascending
/// signature order — and the ranges of it where signatures tie. Every
/// ordering of every tie is a candidate.
///
/// For `t = g·s` the candidates are those of `s` composed with `g⁻¹` (the
/// signatures move with `g`), so `s` and `t` have the same candidate
/// images, and the least of them is canonical.
fn sorted_arrangement<S, M>(
    group: &SymmetryGroup<S, M>,
    state: &GlobalState<S, M>,
) -> (Vec<usize>, Vec<Range<usize>>)
where
    S: LocalState + Permutable,
    M: Message + Permutable,
{
    let signature = signatures(group, state);
    let key = |i: usize| signature[group.members[i].index()];
    let mut arrangement: Vec<usize> = (0..group.members.len()).collect();
    let mut ties = Vec::new();
    for block in &group.blocks {
        arrangement[block.clone()].sort_unstable_by_key(|&i| (key(i), i));
        let mut i = block.start;
        while i < block.end {
            let tied = key(arrangement[i]);
            let len = arrangement[i..block.end]
                .iter()
                .take_while(|&&j| key(j) == tied)
                .count();
            if len > 1 {
                ties.push(i..i + len);
            }
            i += len;
        }
    }
    (arrangement, ties)
}

/// Each block member's signature: its local's, plus a wrapping sum over its
/// channel entries of a hash of the entry's direction, its other endpoint
/// (a fixed process by id, a block member by block and whether it is the
/// member itself), its payload's signature and its count. Every part is
/// invariant under the group, so `g` moves signatures with the members.
/// Processes the group fixes keep 0.
fn signatures<S, M>(group: &SymmetryGroup<S, M>, state: &GlobalState<S, M>) -> Vec<u64>
where
    S: LocalState + Permutable,
    M: Message + Permutable,
{
    let mut signature: Vec<u64> = state
        .locals
        .iter()
        .zip(&group.of)
        .map(|(local, block)| block.map_or(0, |_| local.signature()))
        .collect();
    // One word per (direction, other endpoint): the direction in bit 40, a
    // block member flagged in bit 32.
    let endpoint = |other: ProcessId, me: ProcessId| match group.of[other.index()] {
        None => other.index() as u64,
        Some((block, _)) => (1 << 32) | (block as u64) << 1 | u64::from(other == me),
    };
    for ((sender, receiver), payload, count) in state.channels.iter() {
        let content = combine(payload.signature(), count as u64);
        for (me, other, direction) in [(receiver, sender, 1u64), (sender, receiver, 2)] {
            if group.of[me.index()].is_some() {
                let entry = combine(direction << 40 | endpoint(other, me), content);
                signature[me.index()] = signature[me.index()].wrapping_add(entry);
            }
        }
    }
    signature
}

/// An element as the candidates step through the group: its arrangement
/// and its permutation, kept in step.
struct Candidate {
    arrangement: Vec<usize>,
    perm: Permutation,
}

impl Candidate {
    /// Steps `tie` of the arrangement to its next ordering in lexicographic
    /// order; the last wraps to the first (ascending) and returns `false`.
    fn next(&mut self, members: &[ProcessId], tie: Range<usize>) -> bool {
        let items = &self.arrangement;
        let pivot = (tie.start + 1..tie.end)
            .rev()
            .find(|&i| items[i - 1] < items[i]);
        if let Some(i) = pivot {
            let j = (i..tie.end)
                .rev()
                .find(|&j| items[j] > items[i - 1])
                .expect("items[i] is larger");
            self.swap(members, i - 1, j);
        }
        // What follows the pivot (all of the tie, if there is none) is in
        // descending order: reversed, it ascends.
        let (mut start, mut end) = (pivot.unwrap_or(tie.start), tie.end);
        while start + 1 < end {
            end -= 1;
            self.swap(members, start, end);
            start += 1;
        }
        pivot.is_some()
    }

    /// Swaps positions `p` and `q` of the arrangement, and with them the
    /// images of the members those positions hold.
    fn swap(&mut self, members: &[ProcessId], p: usize, q: usize) {
        let (a, b) = (self.arrangement[p], self.arrangement[q]);
        self.perm.swap(members[a].index(), members[b].index());
        self.arrangement.swap(p, q);
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
        let winner = self.canonical(state, observer);
        let elem = winner.elem;
        let (state, observer) = self.build(state, observer, winner);
        (state, observer, elem)
    }

    fn canonical_encode(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
        out: &mut Vec<u8>,
        trace: &TraceHandle,
    ) -> usize
    where
        S: Encode,
        M: Message,
        O: Encode,
    {
        let _span = trace.span(Phase::Canonicalize);
        let winner = self.canonical(state, observer);
        self.encode_image(state, observer, &winner, out);
        winner.elem
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
        let perm = self.group.permutation(e);
        (state.permute(&perm), observer.permute(&perm))
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
pub(crate) mod tests {
    use super::*;
    use crate::RoleMap;
    use mp_model::{Kind, Outcome, Permutation, ProcessId, ProtocolSpec, TransitionSpec};

    pub(crate) fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn canonical_keys_identify_orbit_members() {
        let spec = counters(&[0, 0]);
        let group = SymmetryGroup::build(&spec, &RoleMap::new(2).role([p(0), p(1)]));
        let reduction: OrbitReduction<u8, Note, ()> = OrbitReduction::new(group);
        let mut a = spec.initial_state();
        a.locals = vec![2, 0];
        let mut b = spec.initial_state();
        b.locals = vec![0, 2];
        let (ca, _, ea) = Symmetry::<u8, Note, ()>::canonicalize(&reduction, &a, &());
        let (cb, _, eb) = Symmetry::<u8, Note, ()>::canonicalize(&reduction, &b, &());
        assert_eq!(ca, cb, "orbit members share a canonical representative");
        assert_ne!(ea, eb, "one of the two needed the swap");
        // The representative is itself a member of the orbit.
        assert!(ca == a || ca == b);
        assert!(Symmetry::<u8, Note, ()>::label(&reduction).contains("sym(2)"));
    }

    #[test]
    fn apply_inverse_element_undoes_canonicalization() {
        let spec = counters(&[0, 0]);
        let group = SymmetryGroup::build(&spec, &RoleMap::new(2).role([p(0), p(1)]));
        let reduction: OrbitReduction<u8, Note, ()> = OrbitReduction::new(group);
        let sym: &dyn Symmetry<u8, Note, ()> = &reduction;
        let mut concrete = spec.initial_state();
        concrete.locals = vec![3, 1];
        let (canonical, _, delta) = sym.canonicalize(&concrete, &());
        // This is the spillable-frontier contract: the canonical
        // representative plus δ⁻¹ recovers the concrete state exactly.
        let (back, _) = sym.apply_element(sym.inverse(delta), &canonical, &());
        assert_eq!(back, concrete);
        // NoSymmetry's apply is the identity.
        let nosym: &dyn Symmetry<u8, Note, ()> = &NoSymmetry;
        let (same, _) = nosym.apply_element(0, &concrete, &());
        assert_eq!(same, concrete);
    }

    #[test]
    fn traced_canonical_encode_times_the_canonicalize_phase() {
        use mp_trace::{SharedBuffer, Tracer};
        let spec = counters(&[0, 0]);
        let group = SymmetryGroup::build(&spec, &RoleMap::new(2).role([p(0), p(1)]));
        let reduction: OrbitReduction<u8, Note, ()> = OrbitReduction::new(group);
        let sym: &dyn Symmetry<u8, Note, ()> = &reduction;
        let mut asymmetric = spec.initial_state();
        asymmetric.locals = vec![2, 0];

        let tracer = Tracer::to_writer(false, Box::new(SharedBuffer::new()));
        let run = tracer.begin_run("twins", "test", "p");
        let (c1, _, e1) = sym.canonicalize(&asymmetric, &());
        let mut key = Vec::new();
        let e2 = sym.canonical_encode(&asymmetric, &(), &mut key, &run.handle());
        assert_eq!((e2, key), (e1, mp_model::encode_to_vec(&(c1, ()))));
        assert!(run.phase_times().nanos(Phase::Canonicalize) > 0);
        run.finish("verified");
    }

    // --- The references --------------------------------------------------

    /// The reference: every image built in full, and the `Ord`-minimal one
    /// — the representative the canonical forms are checked against.
    fn reference<S, M, O>(
        group: &SymmetryGroup<S, M>,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> (GlobalState<S, M>, O)
    where
        S: LocalState + Permutable,
        M: Message + Permutable,
        O: Permutable + Ord,
    {
        (0..group.order())
            .map(|e| {
                let perm = group.permutation(e);
                (state.permute(&perm), observer.permute(&perm))
            })
            .min()
            .expect("the identity is an element")
    }

    /// The partition test: every input passes [`assert_canonical`], and two
    /// inputs get one representative exactly when they get one [`reference`]
    /// representative.
    fn assert_partitions_like_the_reference<S, M, O>(
        reduction: &OrbitReduction<S, M, O>,
        inputs: &[(GlobalState<S, M>, O)],
    ) where
        S: LocalState + Permutable,
        M: Message + Permutable,
        O: Permutable + Ord + Clone + Encode + Send + Sync + std::fmt::Debug + 'static,
    {
        let mut ours = std::collections::BTreeMap::new();
        let mut theirs = std::collections::BTreeMap::new();
        for (state, observer) in inputs {
            let mine = assert_canonical(reduction, state, observer);
            let reference = reference(&reduction.group, state, observer);
            let paired = ours
                .entry(mine.clone())
                .or_insert_with(|| reference.clone());
            assert_eq!(*paired, reference, "{state:?} / {observer:?}");
            assert_eq!(*theirs.entry(reference).or_insert(mine.clone()), mine);
        }
    }

    /// The partition oracle: whichever member [`Symmetry::canonicalize`]
    /// picks, every image `g·s` gets the same one, the returned element
    /// maps `s` to it, and the fused encode writes its encoding. Returns
    /// the representative.
    fn assert_canonical<S, M, O>(
        reduction: &OrbitReduction<S, M, O>,
        state: &GlobalState<S, M>,
        observer: &O,
    ) -> (GlobalState<S, M>, O)
    where
        S: LocalState + Permutable,
        M: Message + Permutable,
        O: Permutable + Ord + Clone + Encode + Send + Sync + std::fmt::Debug + 'static,
    {
        let group = &reduction.group;
        let winner = reduction.canonical(state, observer);
        let (representative, image, elem) = reduction.canonicalize(state, observer);
        assert_eq!(elem, winner.elem);
        assert_eq!(
            reduction.apply_element(elem, state, observer),
            (representative.clone(), image.clone()),
            "the element maps {state:?} / {observer:?} to its representative"
        );
        let mut key = Vec::new();
        let trace = TraceHandle::disabled();
        assert_eq!(
            reduction.canonical_encode(state, observer, &mut key, &trace),
            elem
        );
        assert_eq!(
            key,
            mp_model::encode_to_vec(&(representative.clone(), image.clone()))
        );
        for g in 0..group.order() {
            let (moved, moved_observer) = reduction.apply_element(g, state, observer);
            let (other, other_image, _) = reduction.canonicalize(&moved, &moved_observer);
            assert_eq!(
                (&other, &other_image),
                (&representative, &image),
                "element {g} moves {state:?} / {observer:?} to another representative"
            );
        }
        (representative, image)
    }

    /// A message that names a process, so channel images differ in payload
    /// as well as in endpoints.
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub(crate) enum Note {
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
    pub(crate) fn counters(initials: &[u8]) -> ProtocolSpec<u8, Note> {
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
        assert_eq!(reduction.group.order(), 6);
        // Equal locals: only the channels tell the members apart.
        let mut state = spec.initial_state();
        state.channels.send(p(2), p(0), Note::From(p(2)));
        state.channels.send(p(0), p(1), Note::Tok);
        let (representative, _) = assert_canonical(&reduction, &state, &());
        assert_eq!(representative.locals, state.locals);
        // Locals that tie under the swap of p0 and p1 only.
        let mut swapped = state.clone();
        swapped.locals = vec![1, 1, 0];
        // Channels that tie too: the swap fixes the whole state.
        let mut fixed = spec.initial_state();
        fixed.locals = vec![1, 1, 0];
        fixed.channels.send(p(2), p(0), Note::Tok);
        fixed.channels.send(p(2), p(1), Note::Tok);
        assert_partitions_like_the_reference(
            &reduction,
            &[(state, ()), (swapped, ()), (fixed, ())],
        );
    }

    #[test]
    fn ties_on_locals_and_channels_are_decided_by_the_observer() {
        let spec = counters(&[0, 0, 0]);
        let reduction: OrbitReduction<u8, Note, ProcessId> =
            OrbitReduction::new(SymmetryGroup::build(&spec, &role_over_all(3)));
        let mut state = spec.initial_state();
        state.channels.send(p(0), p(1), Note::Tok);
        state.channels.send(p(1), p(0), Note::Tok);
        // {0, 1} tie on everything but the observer: naming p0 and naming
        // p1 are one orbit, and the observer leaves no tie.
        let named_p1 = assert_canonical(&reduction, &state, &p(1));
        assert_eq!(assert_canonical(&reduction, &state, &p(0)), named_p1);
        // Naming p2, the member with no channels, is another orbit; it
        // breaks no tie the state left, so the swap fixes the pair.
        let named_p2 = assert_canonical(&reduction, &state, &p(2));
        assert_ne!(named_p2, named_p1);
        let inputs = [(state.clone(), p(0)), (state.clone(), p(1)), (state, p(2))];
        assert_partitions_like_the_reference(&reduction, &inputs);
    }

    /// A random state of `spec` over tiny domains, its locals made by
    /// `local`, and a random observer: most images tie on a prefix of the
    /// locals, many on all of them and on the channels.
    fn random_tied_state<S: LocalState>(
        spec: &ProtocolSpec<S, Note>,
        local: fn(u8) -> S,
        rng: &mut u64,
    ) -> (GlobalState<S, Note>, Option<ProcessId>) {
        let n = spec.num_processes();
        let mut state = spec.initial_state();
        for slot in &mut state.locals {
            *slot = local((next(rng) % 2) as u8);
        }
        for _ in 0..next(rng) % 4 {
            let from = p(next(rng) as usize % n);
            let to = p(next(rng) as usize % n);
            let note = if next(rng).is_multiple_of(2) {
                Note::Tok
            } else {
                Note::From(from)
            };
            state.channels.send(from, to, note);
        }
        let observer = match next(rng) % 3 {
            0 => None,
            _ => Some(p(next(rng) as usize % n)),
        };
        (state, observer)
    }

    #[test]
    fn canonical_forms_partition_random_tied_states_like_the_reference() {
        let mut rng = 25;
        for n in [3, 4] {
            let spec = counters(&vec![0; n]);
            let reduction: OrbitReduction<u8, Note, Option<ProcessId>> =
                OrbitReduction::new(SymmetryGroup::build(&spec, &role_over_all(n)));
            let inputs: Vec<_> = (0..2000)
                .map(|_| random_tied_state(&spec, |v| v, &mut rng))
                .collect();
            assert_partitions_like_the_reference(&reduction, &inputs);
        }
    }

    /// A local that keeps the default signature `0`.
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Level(u8);
    mp_model::codec!(struct Level(n));

    impl Permutable for Level {
        fn permute(&self, _perm: &Permutation) -> Self {
            self.clone()
        }
    }

    #[test]
    fn default_signatures_tie_every_member_and_still_canonicalize() {
        assert_eq!(Level(1).signature(), 0);
        assert_eq!(Note::From(p(0)).signature(), 0);
        let mut builder = ProtocolSpec::builder("levels");
        for i in 0..3 {
            builder = builder.process(format!("l{i}"), Level(0));
        }
        for i in 0..3 {
            builder = builder.transition(
                TransitionSpec::builder(format!("step{i}"), p(i))
                    .internal()
                    .guard(|l: &Level, _| l.0 < 2)
                    .sends_nothing()
                    .effect(|l: &Level, _| Outcome::new(Level(l.0 + 1)))
                    .build(),
            );
        }
        let spec = builder.build().unwrap();
        let reduction: OrbitReduction<Level, Note, Option<ProcessId>> =
            OrbitReduction::new(SymmetryGroup::build(&spec, &role_over_all(3)));
        // Locals that differ, and nothing else: every ordering is tried.
        let mut state = spec.initial_state();
        state.locals = vec![Level(2), Level(0), Level(1)];
        assert_eq!(candidates(&reduction.group, &state), 6);
        assert_canonical(&reduction, &state, &None);
        let mut rng = 31;
        for _ in 0..1000 {
            let (state, observer) = random_tied_state(&spec, Level, &mut rng);
            assert_canonical(&reduction, &state, &observer);
        }
    }

    /// How many candidates `state` has: every ordering of every tie.
    fn candidates<S, M>(group: &SymmetryGroup<S, M>, state: &GlobalState<S, M>) -> usize
    where
        S: LocalState + Permutable,
        M: Message + Permutable,
    {
        let (_, ties) = sorted_arrangement(group, state);
        ties.iter()
            .map(|tie| (1..=tie.len()).product::<usize>())
            .product()
    }

    #[test]
    fn canonical_forms_partition_a_partial_group_like_the_reference() {
        // p2 starts elsewhere, so only the swap of p0 and p1 validates.
        let spec = counters(&[0, 0, 1]);
        let reduction: OrbitReduction<u8, Note, ()> =
            OrbitReduction::new(SymmetryGroup::build(&spec, &role_over_all(3)));
        assert_eq!(reduction.group.order(), 2);
        let graph = mp_model::StateGraph::build(&spec, 1000).unwrap();
        let inputs: Vec<_> = (0..graph.num_states())
            .map(|i| (graph.state(i).clone(), ()))
            .collect();
        assert_partitions_like_the_reference(&reduction, &inputs);
    }

    #[test]
    fn a_role_past_eight_members_sorts_without_listing_its_group() {
        let spec = counters(&[0; 9]);
        let reduction: OrbitReduction<u8, Note, ()> =
            OrbitReduction::new(SymmetryGroup::build(&spec, &role_over_all(9)));
        assert_eq!(reduction.group.order(), 362_880);
        // Distinct locals have distinct signatures: one candidate, and
        // every image sorts back to it.
        let mut state = spec.initial_state();
        state.locals = vec![4, 7, 0, 8, 2, 5, 1, 6, 3];
        state.channels.send(p(3), p(5), Note::From(p(3)));
        assert_eq!(candidates(&reduction.group, &state), 1);
        let (representative, (), elem) = reduction.canonicalize(&state, &());
        assert_eq!(reduction.apply_element(elem, &state, &()).0, representative);
        for g in [1, 2, 5_039, 40_320, 181_440, 362_879] {
            let (moved, ()) = reduction.apply_element(g, &state, &());
            assert_ne!(moved, state);
            assert_eq!(reduction.canonicalize(&moved, &()).0, representative);
        }
    }

    /// Walks the orbit quotient of `spec` from its initial pair the way the
    /// engines do — expand a representative, canonicalize every successor —
    /// checking every successor against the partition oracle, until
    /// `expansions` representatives are expanded or none is left. Then
    /// checks the signature contract on every local and message the
    /// successors held. Returns the group order, the representatives found
    /// and the successors checked.
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
        let root = assert_canonical(&reduction, &spec.initial_state(), &observer);
        let mut seen = std::collections::HashSet::from([root.clone()]);
        let mut queue = std::collections::VecDeque::from([root]);
        let (mut locals, mut messages) = (
            std::collections::HashSet::new(),
            std::collections::HashSet::new(),
        );
        let mut checked = 0;
        for _ in 0..expansions {
            let Some((state, observer)) = queue.pop_front() else {
                break;
            };
            for instance in mp_model::enabled_instances(spec, &state) {
                let post = mp_model::execute_enabled(spec, &state, &instance);
                let observed = observer.update(spec, &state, &instance, &post);
                let representative = assert_canonical(&reduction, &post, &observed);
                checked += 1;
                // Expand the reference member of each orbit, so the walk,
                // and with it the counts, are the same whichever member the
                // canonical form picks; they match the reference walk
                // exactly when the two forms partition the successors alike.
                let least = reference(&reduction.group, &post, &observed);
                locals.extend(post.locals.iter().cloned());
                messages.extend(post.channels.iter().map(|(_, payload, _)| payload.clone()));
                if seen.insert(representative) {
                    queue.push_back(least);
                }
            }
        }
        for e in 0..reduction.group.order() {
            let perm = &reduction.group.permutation(e);
            for local in &locals {
                assert_eq!(
                    local.permute(perm).signature(),
                    local.signature(),
                    "{local:?}"
                );
            }
            for message in &messages {
                assert_eq!(
                    message.permute(perm).signature(),
                    message.signature(),
                    "{message:?}"
                );
            }
        }
        (reduction.group.order(), seen.len(), checked)
    }

    #[test]
    fn canonical_forms_partition_the_protocol_quotients() {
        use mp_checker::NullObserver;
        use mp_faults::FaultBudget;
        use mp_protocols::{echo_multicast, paxos, storage};
        let crash1 = FaultBudget::none().crashes(1);

        // The `paxos-sym` cell. Its whole quotient (185 372 representatives,
        // 845 511 successors) takes most of a minute unoptimized; the first
        // 20 000 expansions, breadth first, are the benchmark probes' sample size.
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
        let spec = counters(&[0, 0]);
        let state = spec.initial_state();
        let sym: &dyn Symmetry<u8, Note, ()> = &NoSymmetry;
        assert!(sym.is_trivial());
        let (c, _, e) = sym.canonicalize(&state, &());
        assert_eq!(c, state);
        assert_eq!(e, 0);
    }
}
