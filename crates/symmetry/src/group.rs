//! Validated symmetry groups over a concrete protocol.

use std::collections::{BTreeSet, HashMap};
use std::marker::PhantomData;

use mp_model::{
    LocalState, Message, Permutable, Permutation, ProcessId, ProtocolSpec, RecipientSet,
    TransitionId, TransitionInstance, TransitionSpec,
};

use crate::RoleMap;

/// Hard cap on the candidate group order; declarations beyond this are a
/// modelling mistake (the group's elements are listed, and a group that is
/// not a full product of its roles is swept element by element per state).
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
///
/// Validation first tries each role's adjacent transpositions. They
/// generate the role's symmetric group, so if all of them pass, the group
/// is the full product of the roles' symmetric groups: its elements are
/// then listed in rank order (a mixed-radix Lehmer code of the role
/// arrangements, identity first) without checking each one,
/// and canonicalization sorts role members instead of sweeping the group.
/// If any fails, every candidate is checked on its own.
pub struct SymmetryGroup<S, M: Ord> {
    elements: Vec<GroupElement>,
    /// `inverses[e]` is the index of `e`'s inverse element.
    inverses: Vec<usize>,
    /// The roles, when the group is their full product.
    roles: Option<Roles>,
    _marker: PhantomData<fn() -> (S, M)>,
}

/// The roles of a group that is their full product, and the rank that
/// indexes its elements.
///
/// Slot `j` of a role is its `j`-th declared member. An element `π` is
/// described per role by its *arrangement* `τ`: slot `j` of the image holds
/// what slot `τ[j]` held, i.e. `π(member τ[j]) = member j`. Its rank is the
/// mixed-radix number whose digits are the roles' arrangements in Lehmer
/// code, the first role least significant; the identity has rank 0.
#[derive(Clone, Debug)]
pub(crate) struct Roles {
    /// Each role's members in declaration order.
    pub(crate) members: Vec<Vec<ProcessId>>,
    /// Per process: its `(role, slot)`, or `None` if no role moves it.
    pub(crate) of: Vec<Option<(usize, usize)>>,
    /// Per role: the product of the earlier roles' orders.
    weights: Vec<usize>,
}

impl Roles {
    fn new(roles: &RoleMap) -> Self {
        let mut of = vec![None; roles.num_processes()];
        let mut weights = Vec::new();
        let mut weight = 1;
        for (r, members) in roles.roles().iter().enumerate() {
            for (slot, p) in members.iter().enumerate() {
                of[p.index()] = Some((r, slot));
            }
            weights.push(weight);
            weight *= (1..=members.len()).product::<usize>();
        }
        Roles {
            members: roles.roles().to_vec(),
            of,
            weights,
        }
    }

    /// The rank of the element whose arrangements, role after role, are
    /// concatenated in `arrangement`.
    pub(crate) fn rank(&self, arrangement: &[usize]) -> usize {
        let mut rank = 0;
        let mut start = 0;
        for (members, weight) in self.members.iter().zip(&self.weights) {
            let tau = &arrangement[start..start + members.len()];
            start += members.len();
            let mut digit = 0;
            for (i, &t) in tau.iter().enumerate() {
                let smaller = tau[i + 1..].iter().filter(|&&u| u < t).count();
                digit = digit * (tau.len() - i) + smaller;
            }
            rank += digit * weight;
        }
        rank
    }

    /// The rank of `perm`, or `None` if it moves a process out of its role.
    fn rank_of(&self, perm: &Permutation) -> Option<usize> {
        let mut arrangement = Vec::with_capacity(self.of.len());
        for (role, members) in self.members.iter().enumerate() {
            let start = arrangement.len();
            arrangement.resize(start + members.len(), 0);
            for (slot, &p) in members.iter().enumerate() {
                match self.of[perm.apply(p).index()] {
                    Some((r, image)) if r == role => arrangement[start + image] = slot,
                    _ => return None,
                }
            }
        }
        let fixed = (0..self.of.len()).all(|i| self.of[i].is_some() || perm.apply_index(i) == i);
        fixed.then(|| self.rank(&arrangement))
    }

    /// The permutation of rank `rank` on `n` processes.
    fn unrank(&self, mut rank: usize, n: usize) -> Permutation {
        let mut map: Vec<usize> = (0..n).collect();
        for members in &self.members {
            let k = members.len();
            let order: usize = (1..=k).product();
            let mut digit = rank % order;
            rank /= order;
            // Lehmer digits, least significant last.
            let mut digits = vec![0; k];
            for (i, d) in digits.iter_mut().enumerate().rev() {
                *d = digit % (k - i);
                digit /= k - i;
            }
            let mut free: Vec<usize> = (0..k).collect();
            for (j, d) in digits.into_iter().enumerate() {
                let slot = free.remove(d);
                map[members[slot].index()] = members[j].index();
            }
        }
        Permutation::from_map(map).expect("a product of role arrangements is a bijection")
    }
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
        let n = spec.num_processes();
        let valid = |perm: &Permutation| {
            if initial.permute(perm) != initial {
                return None;
            }
            transition_map(spec, perm)
        };
        let full = roles.roles().iter().all(|members| {
            members.windows(2).all(|pair| {
                let mut map: Vec<usize> = (0..n).collect();
                map.swap(pair[0].index(), pair[1].index());
                valid(&Permutation::from_map(map).expect("a transposition")).is_some()
            })
        });
        if full {
            let order = roles.candidate_order();
            let roles = Roles::new(roles);
            let elements: Vec<GroupElement> = (0..order)
                .map(|rank| {
                    let perm = roles.unrank(rank, n);
                    let transitions = positional_map(spec, &perm)
                        .expect("products of valid transpositions align transitions");
                    GroupElement { perm, transitions }
                })
                .collect();
            let inverses = elements
                .iter()
                .map(|e| roles.rank_of(&e.perm.inverse()).expect("closed"))
                .collect();
            return SymmetryGroup {
                elements,
                inverses,
                roles: Some(roles),
                _marker: PhantomData,
            };
        }

        let mut elements = vec![GroupElement {
            perm: Permutation::identity(n),
            transitions: spec.transition_ids().collect(),
        }];
        for perm in candidate_permutations(roles) {
            if perm.is_identity() {
                continue;
            }
            if let Some(transitions) = valid(&perm) {
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
            roles: None,
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
            roles: None,
            _marker: PhantomData,
        }
    }

    /// The roles, if the group is the full product of their symmetric
    /// groups (its elements are then in rank order).
    pub(crate) fn roles(&self) -> Option<&Roles> {
        self.roles.as_ref()
    }

    /// `true` if the group is the full product of its roles' symmetric
    /// groups, so canonical forms are computed by sorting role members.
    pub fn is_full_product(&self) -> bool {
        self.roles.is_some()
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
        match &self.roles {
            Some(roles) => roles.rank_of(perm),
            None => self.elements.iter().position(|e| &e.perm == perm),
        }
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
    let map = positional_map(spec, perm)?;
    spec.transition_ids()
        .all(|t| corresponds(spec.transition(t), spec.transition(map[t.index()]), perm))
        .then_some(map)
}

/// The relabelling that pairs each process's transitions with its image's
/// by position, unchecked; `None` if two lists differ in length.
fn positional_map<S, M>(spec: &ProtocolSpec<S, M>, perm: &Permutation) -> Option<Vec<TransitionId>>
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
    fn a_full_product_lists_its_elements_in_rank_order() {
        let spec = counters(&[0, 0, 0, 0, 0]);
        let roles = RoleMap::new(5).role([p(0), p(1), p(2)]).role([p(3), p(4)]);
        let group = SymmetryGroup::build(&spec, &roles);
        assert!(group.is_full_product());
        assert_eq!(group.order(), 12);
        assert!(group.elements()[0].permutation().is_identity());
        let distinct: BTreeSet<&Permutation> =
            group.elements().iter().map(|e| e.permutation()).collect();
        assert_eq!(distinct.len(), 12);
        for (i, e) in group.elements().iter().enumerate() {
            assert_eq!(group.element_index(e.permutation()), Some(i));
            let inverse = group.elements()[group.inverse(i)].permutation();
            assert!(e.permutation().compose(inverse).is_identity());
            for t in spec.transition_ids() {
                let u = e.map_transition(t);
                assert_eq!(
                    spec.transition(u).process(),
                    e.permutation().apply(spec.transition(t).process())
                );
            }
        }
        // A permutation across roles is no element.
        let across = Permutation::from_map(vec![3, 1, 2, 0, 4]).unwrap();
        assert_eq!(group.element_index(&across), None);
        // A partial group keeps the per-element check.
        assert!(!SymmetryGroup::build(
            &counters(&[0, 0, 1]),
            &RoleMap::new(3).role([p(0), p(1), p(2)])
        )
        .is_full_product());
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
