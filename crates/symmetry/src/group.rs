//! Validated symmetry groups over a concrete protocol.

use std::collections::{BTreeSet, HashMap};
use std::marker::PhantomData;

use mp_model::{
    LocalState, Message, Permutable, Permutation, ProcessId, ProtocolSpec, RecipientSet,
    TransitionId, TransitionInstance, TransitionSpec,
};

use crate::RoleMap;

/// Hard cap on the candidate group order; declarations beyond this are a
/// modelling mistake (canonicalization enumerates the whole group per state).
pub const MAX_GROUP_ORDER: usize = 40_320; // 8!

/// One validated element of a [`SymmetryGroup`]: a process permutation plus
/// the induced transition-id relabelling (`transitions[t]` is the transition
/// of the image process that corresponds to `t`).
#[derive(Clone, Debug)]
pub struct GroupElement {
    pub(crate) perm: Permutation,
    pub(crate) transitions: Vec<TransitionId>,
}

impl GroupElement {
    /// The process permutation of this element.
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// The transition `t` corresponds to under this element.
    pub fn map_transition(&self, t: TransitionId) -> TransitionId {
        self.transitions[t.index()]
    }
}

/// A group of process permutations validated against one protocol.
///
/// Built by [`SymmetryGroup::build`] from a [`RoleMap`] declaration: every
/// candidate permutation (a product of within-role permutations) is kept
/// only if it maps the protocol onto itself **structurally**:
///
/// * the initial state is a fixed point (distinct initial local states of
///   role members — e.g. acceptors seeded with different accepted values —
///   degenerate the group toward identity);
/// * the transition lists of a process and its image align positionally,
///   with equal inputs, quorums and annotations, and with sender/recipient
///   sets mapped through the permutation.
///
/// Structural validation catches asymmetric wiring and asymmetric initial
/// states. It cannot inspect guard/effect closures, so declaring a role
/// asserts that the members' transition *semantics* are interchangeable too
/// (which holds for roles built in a loop over the role's processes, the
/// construction every bundled protocol uses). The soundness tests in
/// `tests/symmetry.rs` check the declarations shipped with `mp-protocols`
/// by comparing reduced and unreduced verdicts.
///
/// The validated set is closed under composition and inverse (both preserve
/// every check), so it is a genuine subgroup; element `0` is always the
/// identity.
pub struct SymmetryGroup<S, M: Ord> {
    elements: Vec<GroupElement>,
    /// `inverses[e]` is the index of `e`'s inverse element.
    inverses: Vec<usize>,
    _marker: PhantomData<fn() -> (S, M)>,
}

impl<S, M> SymmetryGroup<S, M>
where
    S: LocalState + Permutable,
    M: Message + Permutable,
{
    /// Builds the validated group of `roles` over `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the role map's process count does not match the protocol,
    /// or if the candidate order exceeds [`MAX_GROUP_ORDER`].
    pub fn build(spec: &ProtocolSpec<S, M>, roles: &RoleMap) -> Self {
        assert_eq!(
            roles.num_processes(),
            spec.num_processes(),
            "role map declared for {} processes but the protocol has {}",
            roles.num_processes(),
            spec.num_processes()
        );
        assert!(
            roles.candidate_order() <= MAX_GROUP_ORDER,
            "candidate group order {} exceeds the {MAX_GROUP_ORDER} cap",
            roles.candidate_order()
        );

        let initial = spec.initial_state();
        let mut elements = vec![GroupElement {
            perm: Permutation::identity(spec.num_processes()),
            transitions: spec.transition_ids().collect(),
        }];
        for perm in candidate_permutations(roles) {
            if perm.is_identity() {
                continue;
            }
            if initial.permute(&perm) != initial {
                continue;
            }
            if let Some(transitions) = transition_map(spec, &perm) {
                elements.push(GroupElement { perm, transitions });
            }
        }
        // The inverse table, through one map over the elements: O(order).
        let index: HashMap<&Permutation, usize> = elements
            .iter()
            .enumerate()
            .map(|(i, e)| (&e.perm, i))
            .collect();
        let inverses = elements.iter().map(|e| index[&e.perm.inverse()]).collect();
        SymmetryGroup {
            elements,
            inverses,
            _marker: PhantomData,
        }
    }

    /// The trivial (identity-only) group for a system of `n` processes.
    pub fn identity(spec: &ProtocolSpec<S, M>) -> Self {
        SymmetryGroup {
            elements: vec![GroupElement {
                perm: Permutation::identity(spec.num_processes()),
                transitions: spec.transition_ids().collect(),
            }],
            inverses: vec![0],
            _marker: PhantomData,
        }
    }

    /// Number of validated elements (1 = identity only, no reduction).
    pub fn order(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if only the identity survived validation.
    pub fn is_trivial(&self) -> bool {
        self.elements.len() == 1
    }

    /// The validated elements; element `0` is the identity.
    pub fn elements(&self) -> &[GroupElement] {
        &self.elements
    }

    /// Index of the element whose permutation equals `perm`, if validated.
    pub fn element_index(&self, perm: &Permutation) -> Option<usize> {
        self.elements.iter().position(|e| &e.perm == perm)
    }

    /// The composition `a ∘ b` (apply `b` first) as an element index.
    ///
    /// # Panics
    ///
    /// Panics if the composition is not in the group — impossible for
    /// elements of the same validated group (it is closed).
    pub fn compose(&self, a: usize, b: usize) -> usize {
        let perm = self.elements[a].perm.compose(&self.elements[b].perm);
        self.element_index(&perm)
            .expect("a validated group is closed under composition")
    }

    /// The inverse of element `e`.
    pub fn inverse(&self, e: usize) -> usize {
        self.inverses[e]
    }

    /// Applies element `e` to a transition instance: the transition id is
    /// relabelled to the image process's corresponding transition, the
    /// executing process and envelope senders are mapped, payloads are
    /// rewritten.
    pub fn permute_instance(
        &self,
        e: usize,
        instance: &TransitionInstance<M>,
    ) -> TransitionInstance<M> {
        let elem = &self.elements[e];
        TransitionInstance::new(
            elem.map_transition(instance.transition),
            elem.perm.apply(instance.process),
            instance
                .envelopes
                .iter()
                .map(|env| {
                    mp_model::Envelope::new(
                        elem.perm.apply(env.sender),
                        env.payload.permute(&elem.perm),
                    )
                })
                .collect(),
        )
    }
}

/// All products of within-role permutations (including the identity).
fn candidate_permutations(roles: &RoleMap) -> Vec<Permutation> {
    let n = roles.num_processes();
    let mut out = vec![Permutation::identity(n)];
    for role in roles.roles() {
        let orders = permutations_of(role.len());
        let mut next = Vec::with_capacity(out.len() * orders.len());
        for base in &out {
            for order in &orders {
                // Rearrange the role's slots according to `order`: member i
                // moves to the slot of member order[i].
                let mut map: Vec<usize> = (0..n).collect();
                for (i, &slot) in order.iter().enumerate() {
                    map[role[i].index()] = role[slot].index();
                }
                let perm = Permutation::from_map(map).expect("role rearrangement is a bijection");
                next.push(perm.compose(base));
            }
        }
        out = next;
    }
    out
}

/// All orderings of `0..k` (plain recursive enumeration; role sizes are
/// bounded by [`MAX_GROUP_ORDER`]).
fn permutations_of(k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for smaller in permutations_of(k - 1) {
        for slot in 0..=smaller.len() {
            let mut next = smaller.clone();
            next.insert(slot, k - 1);
            out.push(next);
        }
    }
    out
}

/// Builds the transition relabelling induced by `perm`, or `None` if some
/// transition has no structural correspondent.
fn transition_map<S, M>(spec: &ProtocolSpec<S, M>, perm: &Permutation) -> Option<Vec<TransitionId>>
where
    S: LocalState,
    M: Message,
{
    let mut map = vec![TransitionId(0); spec.num_transitions()];
    for p in spec.processes() {
        let from = spec.transitions_of(p);
        let to = spec.transitions_of(perm.apply(p));
        if from.len() != to.len() {
            return None;
        }
        for (&t, &u) in from.iter().zip(to.iter()) {
            if !corresponds(spec.transition(t), spec.transition(u), perm) {
                return None;
            }
            map[t.index()] = u;
        }
    }
    Some(map)
}

/// Structural correspondence of two transitions under `perm`: equal inputs
/// and annotations, with process sets mapped through the permutation.
fn corresponds<S, M>(t: &TransitionSpec<S, M>, u: &TransitionSpec<S, M>, perm: &Permutation) -> bool
where
    S: LocalState,
    M: Message,
{
    if t.input() != u.input() {
        return false;
    }
    let mapped_senders: Option<BTreeSet<ProcessId>> = t
        .allowed_senders()
        .map(|s| s.iter().map(|p| perm.apply(*p)).collect());
    if mapped_senders.as_ref() != u.allowed_senders() {
        return false;
    }
    let mut mapped = t.annotations().clone();
    if let RecipientSet::Only(set) = &mapped.recipients {
        mapped.recipients = RecipientSet::Only(set.iter().map(|p| perm.apply(*p)).collect());
    }
    mapped == *u.annotations()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::{Kind, Outcome, TransitionSpec};

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

    /// `n` interchangeable counters with the given initial values.
    fn counters(initials: &[u8]) -> ProtocolSpec<u8, Tok> {
        let mut builder = ProtocolSpec::builder("counters");
        for (i, &init) in initials.iter().enumerate() {
            builder = builder.process(format!("c{i}"), init);
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

    #[test]
    fn symmetric_counters_validate_the_full_role_group() {
        let spec = counters(&[0, 0, 0]);
        let roles = RoleMap::new(3).role([p(0), p(1), p(2)]);
        let group = SymmetryGroup::build(&spec, &roles);
        assert_eq!(group.order(), 6);
        assert!(!group.is_trivial());
        // Closure: composing any two elements stays inside.
        for a in 0..group.order() {
            for b in 0..group.order() {
                let _ = group.compose(a, b);
            }
            let inv = group.inverse(a);
            assert_eq!(group.compose(a, inv), 0, "e ∘ e⁻¹ = identity");
        }
    }

    #[test]
    fn distinct_initial_values_degenerate_to_identity() {
        let spec = counters(&[0, 1]);
        let roles = RoleMap::new(2).role([p(0), p(1)]);
        let group = SymmetryGroup::build(&spec, &roles);
        assert!(
            group.is_trivial(),
            "asymmetric initial states must reject the swap"
        );
    }

    #[test]
    fn partial_symmetry_survives() {
        // p0 and p1 symmetric, p2 starts differently: only the 0<->1 swap
        // validates.
        let spec = counters(&[0, 0, 1]);
        let roles = RoleMap::new(3).role([p(0), p(1), p(2)]);
        let group = SymmetryGroup::build(&spec, &roles);
        assert_eq!(group.order(), 2);
    }

    #[test]
    fn asymmetric_transition_structure_is_rejected() {
        // p1 has an extra transition: the swap cannot align the lists.
        let spec: ProtocolSpec<u8, Tok> = ProtocolSpec::builder("uneven")
            .process("a", 0u8)
            .process("b", 0u8)
            .transition(
                TransitionSpec::builder("ta", p(0))
                    .internal()
                    .sends_nothing()
                    .guard(|l, _| *l == 0)
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("tb", p(1))
                    .internal()
                    .sends_nothing()
                    .guard(|l, _| *l == 0)
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("tb2", p(1))
                    .internal()
                    .sends_nothing()
                    .guard(|l, _| *l == 1)
                    .effect(|_, _| Outcome::new(2))
                    .build(),
            )
            .build()
            .unwrap();
        let roles = RoleMap::new(2).role([p(0), p(1)]);
        assert!(SymmetryGroup::build(&spec, &roles).is_trivial());
    }

    #[test]
    fn instance_permutation_relabels_transition_and_senders() {
        let spec = counters(&[0, 0]);
        let roles = RoleMap::new(2).role([p(0), p(1)]);
        let group = SymmetryGroup::build(&spec, &roles);
        assert_eq!(group.order(), 2);
        let swap = 1usize;
        let inst = TransitionInstance::<Tok>::new(TransitionId(0), p(0), Vec::new());
        let mapped = group.permute_instance(swap, &inst);
        assert_eq!(mapped.process, p(1));
        assert_eq!(mapped.transition, TransitionId(1));
        assert_eq!(
            spec.transition(mapped.transition).name(),
            "step1",
            "step0@p0 maps to step1@p1"
        );
    }
}
