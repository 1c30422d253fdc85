//! Validated symmetry groups over a concrete protocol.

use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::ops::Range;

use mp_model::{
    GlobalState, LocalState, Message, Permutable, Permutation, ProcessId, ProtocolSpec,
    RecipientSet, TransitionId, TransitionInstance, TransitionSpec,
};

use crate::roles::times_factorial;
use crate::RoleMap;

/// A group of process permutations validated against one protocol.
///
/// Built by [`SymmetryGroup::build`] from a [`RoleMap`] declaration, which
/// splits each role into **blocks**: two members share a block when their
/// transposition maps the protocol onto itself **structurally**:
///
/// * the initial state is a fixed point (distinct initial local states of
///   role members — e.g. acceptors seeded with different accepted values —
///   put them in different blocks);
/// * the transition lists of a process and its image align positionally,
///   with equal inputs, quorums and annotations, and with sender/recipient
///   sets mapped through the permutation.
///
/// Sharing a block is an equivalence: structural automorphisms compose,
/// and `(i k) = (i j)(j k)(i j)`. So a member joins the first block whose
/// first member it swaps with, at one check per block. Transpositions
/// generate the symmetric group, so the group is the full product of the
/// blocks' symmetric groups (see [`RoleMap`] for a protocol whose
/// automorphisms are not such a product).
///
/// Structural validation catches asymmetric wiring and asymmetric initial
/// states. It cannot inspect guard/effect closures, so declaring a role
/// asserts that the members' transition *semantics* are interchangeable too
/// (which holds for roles built in a loop over the role's processes, the
/// construction every bundled protocol uses). The differential driver,
/// `tests/common/differential.rs`, checks the declarations shipped with
/// `mp-protocols` by judging reduced verdicts against unreduced ground
/// truth.
///
/// The elements are never listed. The blocks' members stand in a row,
/// block after block; an element `π` is described by its *arrangement* `τ`
/// of that row (position `i` of the image holds what position `τ[i]` held,
/// i.e. `π(members[τ[i]]) = members[i]`), and is indexed by its **rank**:
/// the mixed-radix number whose digits are the blocks' arrangements in
/// Lehmer code, the first block least significant. The identity has rank
/// 0. [`permutation`](Self::permutation), [`compose`](Self::compose),
/// [`inverse`](Self::inverse) and [`permute_instance`](Self::permute_instance)
/// unrank on demand.
pub struct SymmetryGroup<S, M: Ord> {
    /// The blocks' members, block after block, each in declaration order.
    pub(crate) members: Vec<ProcessId>,
    /// Each block's range of `members`.
    pub(crate) blocks: Vec<Range<usize>>,
    /// Per process: its block and its position in `members`, or `None` if
    /// the group fixes it.
    pub(crate) of: Vec<Option<(usize, usize)>>,
    /// Per block: the product of the earlier blocks' orders.
    weights: Vec<usize>,
    order: usize,
    /// `transitions_of[p]`: the transitions of process `p`, in order.
    transitions_of: Vec<Vec<TransitionId>>,
    /// Per transition: its process and its position in that process's list.
    positions: Vec<(ProcessId, usize)>,
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
    /// or if the group's order does not fit `usize`.
    pub fn build(spec: &ProtocolSpec<S, M>, roles: &RoleMap) -> Self {
        assert_eq!(
            roles.num_processes(),
            spec.num_processes(),
            "role map declared for {} processes but the protocol has {}",
            roles.num_processes(),
            spec.num_processes()
        );
        let initial = spec.initial_state();
        let n = spec.num_processes();
        let swaps = |a: ProcessId, b: ProcessId| {
            let mut map: Vec<usize> = (0..n).collect();
            map.swap(a.index(), b.index());
            validates(
                spec,
                &initial,
                &Permutation::from_map(map).expect("a transposition"),
            )
        };
        let mut blocks: Vec<Vec<ProcessId>> = Vec::new();
        for role in roles.roles() {
            let first = blocks.len();
            for &p in role {
                match blocks[first..].iter_mut().find(|block| swaps(block[0], p)) {
                    Some(block) => block.push(p),
                    None => blocks.push(vec![p]),
                }
            }
        }
        blocks.retain(|block| block.len() >= 2);
        let mut group = SymmetryGroup {
            members: Vec::new(),
            blocks: Vec::new(),
            of: vec![None; n],
            weights: Vec::new(),
            order: 1,
            transitions_of: spec
                .processes()
                .map(|p| spec.transitions_of(p).to_vec())
                .collect(),
            positions: vec![(ProcessId(0), 0); spec.num_transitions()],
            _marker: PhantomData,
        };
        for (b, block) in blocks.into_iter().enumerate() {
            let start = group.members.len();
            for p in block {
                group.of[p.index()] = Some((b, group.members.len()));
                group.members.push(p);
            }
            group.blocks.push(start..group.members.len());
            group.weights.push(group.order);
            group.order = times_factorial(group.order, group.members.len() - start);
        }
        for (p, transitions) in group.transitions_of.iter().enumerate() {
            for (position, &t) in transitions.iter().enumerate() {
                group.positions[t.index()] = (ProcessId(p), position);
            }
        }
        group
    }

    /// Number of elements (1 = identity only, no reduction).
    pub fn order(&self) -> usize {
        self.order
    }

    /// Returns `true` if only the identity survived validation.
    pub fn is_trivial(&self) -> bool {
        self.order == 1
    }

    /// The permutation of element `e`.
    pub fn permutation(&self, e: usize) -> Permutation {
        self.permutation_of(&self.arrangement(e))
    }

    /// The composition `a ∘ b` (apply `b` first) as an element index.
    pub fn compose(&self, a: usize, b: usize) -> usize {
        let (first, second) = (self.arrangement(b), self.arrangement(a));
        // `a` sends `members[second[i]]` to `members[i]`, and `b` sends
        // `members[first[second[i]]]` to `members[second[i]]`.
        let composed: Vec<usize> = second.iter().map(|&j| first[j]).collect();
        self.rank(&composed)
    }

    /// The inverse of element `e`.
    pub fn inverse(&self, e: usize) -> usize {
        let mut inverse = vec![0; self.members.len()];
        for (i, from) in self.arrangement(e).into_iter().enumerate() {
            inverse[from] = i;
        }
        self.rank(&inverse)
    }

    /// Applies element `e` to a transition instance: the transition id is
    /// relabelled to the image process's transition at the same position,
    /// the executing process and envelope senders are mapped, payloads are
    /// rewritten.
    pub fn permute_instance(
        &self,
        e: usize,
        instance: &TransitionInstance<M>,
    ) -> TransitionInstance<M> {
        let perm = self.permutation(e);
        let (process, position) = self.positions[instance.transition.index()];
        TransitionInstance::new(
            self.transitions_of[perm.apply(process).index()][position],
            perm.apply(instance.process),
            instance
                .envelopes
                .iter()
                .map(|env| {
                    mp_model::Envelope::new(perm.apply(env.sender), env.payload.permute(&perm))
                })
                .collect(),
        )
    }

    /// The rank of the element with arrangement `arrangement`.
    pub(crate) fn rank(&self, arrangement: &[usize]) -> usize {
        let mut rank = 0;
        for (block, weight) in self.blocks.iter().zip(&self.weights) {
            let tau = &arrangement[block.clone()];
            let mut digit = 0;
            for (i, &t) in tau.iter().enumerate() {
                let smaller = tau[i + 1..].iter().filter(|&&u| u < t).count();
                digit = digit * (tau.len() - i) + smaller;
            }
            rank += digit * weight;
        }
        rank
    }

    /// The arrangement of the element of rank `rank`.
    fn arrangement(&self, mut rank: usize) -> Vec<usize> {
        let mut arrangement = vec![0; self.members.len()];
        for block in &self.blocks {
            let tau = &mut arrangement[block.clone()];
            // The Lehmer digits, least significant last...
            for (i, d) in tau.iter_mut().enumerate().rev() {
                let radix = block.len() - i;
                *d = rank % radix;
                rank /= radix;
            }
            // ...each the count of smaller entries to its right: decoded
            // from the right, every entry at or above a new one moves up.
            for i in (0..tau.len()).rev() {
                for j in i + 1..tau.len() {
                    if tau[j] >= tau[i] {
                        tau[j] += 1;
                    }
                }
            }
            tau.iter_mut().for_each(|t| *t += block.start);
        }
        arrangement
    }

    /// The permutation with arrangement `arrangement`.
    pub(crate) fn permutation_of(&self, arrangement: &[usize]) -> Permutation {
        let mut map: Vec<usize> = (0..self.of.len()).collect();
        for (i, &from) in arrangement.iter().enumerate() {
            map[self.members[from].index()] = self.members[i].index();
        }
        Permutation::from_map(map).expect("an arrangement within blocks is a bijection")
    }
}

/// Whether `perm` maps the protocol onto itself structurally: `initial` is
/// a fixed point, and each process's transitions correspond, position by
/// position, to its image's.
fn validates<S, M>(
    spec: &ProtocolSpec<S, M>,
    initial: &GlobalState<S, M>,
    perm: &Permutation,
) -> bool
where
    S: LocalState + Permutable,
    M: Message + Permutable,
{
    initial.permute(perm) == *initial
        && spec.processes().all(|p| {
            let (from, to) = (spec.transitions_of(p), spec.transitions_of(perm.apply(p)));
            from.len() == to.len()
                && from
                    .iter()
                    .zip(to)
                    .all(|(&t, &u)| corresponds(spec.transition(t), spec.transition(u), perm))
        })
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
    use crate::reduction::tests::{counters, p, Note};
    use mp_faults::{FaultBudget, FaultLocal};
    use mp_model::{Outcome, TransitionSpec};

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
        assert_eq!(group.order(), 12);
        let elements: Vec<Permutation> = (0..12).map(|e| group.permutation(e)).collect();
        assert!(elements[0].is_identity());
        // The first block's Lehmer digit is the least significant.
        assert_eq!(
            elements[1],
            Permutation::from_map(vec![0, 2, 1, 3, 4]).unwrap()
        );
        assert_eq!(
            elements[6],
            Permutation::from_map(vec![0, 1, 2, 4, 3]).unwrap()
        );
        assert_eq!(elements.iter().collect::<BTreeSet<_>>().len(), 12);
        for (a, perm) in elements.iter().enumerate() {
            assert!(perm.compose(&elements[group.inverse(a)]).is_identity());
            for (b, other) in elements.iter().enumerate() {
                assert_eq!(elements[group.compose(a, b)], perm.compose(other));
            }
            for t in spec.transition_ids() {
                let process = spec.transition(t).process();
                let instance = TransitionInstance::<Note>::new(t, process, Vec::new());
                let u = group.permute_instance(a, &instance).transition;
                assert_eq!(spec.transition(u).process(), perm.apply(process));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit usize")]
    fn a_group_order_past_usize_panics() {
        // 21! > 2^64; unchecked, the order wrapped (to 0 from 66 members).
        let _ = SymmetryGroup::build(&counters(&[0; 21]), &RoleMap::new(21).role((0..21).map(p)));
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
        assert_eq!((group.members, group.blocks.len()), (vec![p(0), p(1)], 1));
    }

    #[test]
    fn asymmetric_transition_structure_is_rejected() {
        // p1 has an extra transition: the swap cannot align the lists.
        let spec: ProtocolSpec<u8, Note> = ProtocolSpec::builder("uneven")
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
        let inst = TransitionInstance::<Note>::new(TransitionId(0), p(0), Vec::new());
        let mapped = group.permute_instance(swap, &inst);
        assert_eq!(mapped.process, p(1));
        assert_eq!(mapped.transition, TransitionId(1));
        assert_eq!(
            spec.transition(mapped.transition).name(),
            "step1",
            "step0@p0 maps to step1@p1"
        );
    }

    // --- The reference group ----------------------------------------------

    /// All products of within-role permutations, the identity included:
    /// member `i` of each role swaps its image with one of members `0..=i`.
    fn candidate_permutations(roles: &RoleMap) -> Vec<Permutation> {
        let mut maps = vec![(0..roles.num_processes()).collect::<Vec<_>>()];
        for role in roles.roles() {
            for i in 1..role.len() {
                maps = maps
                    .into_iter()
                    .flat_map(|map| {
                        (0..=i).map(move |j| {
                            let mut map = map.clone();
                            map.swap(role[i].index(), role[j].index());
                            map
                        })
                    })
                    .collect();
            }
        }
        maps.into_iter()
            .map(|map| Permutation::from_map(map).unwrap())
            .collect()
    }

    /// Builds the group of `roles` (declared by the library build of this
    /// crate; rebuilt here) over `spec` and checks that its elements are
    /// exactly the candidates that validate one by one.
    fn assert_block_product_is_the_reference<S, M>(
        spec: &ProtocolSpec<S, M>,
        roles: &[Vec<ProcessId>],
        cell: &str,
    ) -> SymmetryGroup<S, M>
    where
        S: LocalState + Permutable,
        M: Message + Permutable,
    {
        let roles = roles
            .iter()
            .fold(RoleMap::new(spec.num_processes()), |map, role| {
                map.role(role.iter().copied())
            });
        let group = SymmetryGroup::build(spec, &roles);
        let elements: BTreeSet<Permutation> =
            (0..group.order()).map(|e| group.permutation(e)).collect();
        assert_eq!(elements.len(), group.order(), "{cell}");
        let initial = spec.initial_state();
        let reference: BTreeSet<Permutation> = candidate_permutations(&roles)
            .into_iter()
            .filter(|perm| validates(spec, &initial, perm))
            .collect();
        assert_eq!(elements, reference, "{cell}");
        group
    }

    /// [`assert_block_product_is_the_reference`] on a setting's model with
    /// no fault layer and under each of five fault budgets: six cells.
    /// Returns the group of the model with no fault layer.
    fn assert_setting_is_a_block_product<S, M>(
        setting: &str,
        plain: ProtocolSpec<S, M>,
        faulty: impl Fn(FaultBudget) -> ProtocolSpec<FaultLocal<S>, M>,
        roles: &[Vec<ProcessId>],
    ) -> SymmetryGroup<S, M>
    where
        S: LocalState + Permutable,
        M: Message + Permutable,
    {
        let crash1 = FaultBudget::none().crashes(1);
        let budgets = [
            ("none", FaultBudget::none()),
            ("crash1", crash1),
            ("drop1", FaultBudget::none().drops(1)),
            ("dup1", FaultBudget::none().dups(1)),
            ("crash1+drop1", crash1.drops(1)),
        ];
        for (name, budget) in budgets {
            let cell = format!("{setting} {name}");
            assert_block_product_is_the_reference(&faulty(budget), roles, &cell);
        }
        assert_block_product_is_the_reference(&plain, roles, setting)
    }

    #[test]
    fn block_products_are_the_reference_groups_of_the_protocol_cells() {
        use mp_protocols::{echo_multicast as mc, paxos, storage};
        let mut cells = 0;
        let paxos = [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3)];
        for (proposers, acceptors) in paxos {
            let setting = paxos::PaxosSetting::new(proposers, acceptors, 1);
            let variant = paxos::PaxosVariant::Correct;
            assert_setting_is_a_block_product(
                &format!("{setting:?}"),
                paxos::quorum_model(setting, variant),
                |budget| paxos::faulty_quorum_model(setting, variant, budget),
                paxos::symmetry_roles(setting).roles(),
            );
            cells += 6;
        }
        for base_objects in [2, 3] {
            let setting = storage::StorageSetting::new(base_objects, 1);
            assert_setting_is_a_block_product(
                &format!("{setting:?}"),
                storage::quorum_model(setting),
                |budget| storage::faulty_quorum_model(setting, budget),
                storage::symmetry_roles(setting).roles(),
            );
            cells += 6;
        }
        let multicast = [
            (2, 1, 0),
            (3, 1, 1),
            (2, 1, 2),
            (3, 0, 1),
            (4, 1, 1),
            (4, 0, 2),
        ];
        for (honest, initiators, byzantine) in multicast {
            let setting = mc::MulticastSetting::new(honest, initiators, byzantine, 1);
            let group = assert_setting_is_a_block_product(
                &format!("{setting:?}"),
                mc::quorum_model(setting),
                |budget| mc::faulty_quorum_model(setting, budget),
                mc::symmetry_roles(setting).roles(),
            );
            if (honest, initiators, byzantine) == (3, 1, 1) {
                // The honest receivers p2, p3, p4 split into {p2, p3} and
                // {p4}; a lone member moves nowhere and is dropped.
                assert_eq!(group.order(), 2);
                let blocks = (group.members, group.blocks.len());
                assert_eq!(blocks, (vec![p(2), p(3)], 1));
            }
            cells += 6;
        }
        assert_eq!(cells, 90);
    }
}
