//! Role declarations: which processes a protocol considers interchangeable.

use std::collections::BTreeSet;

use mp_model::ProcessId;

/// A declaration of interchangeable process *roles*.
///
/// A role is a set of processes the protocol treats identically — the
/// acceptors of Paxos, the base objects of a replicated register. Processes
/// not mentioned in any role are fixed points (the Paxos proposer and
/// learner stay where they are). The candidate symmetry group is the direct
/// product of the full symmetric groups on each role;
/// [`SymmetryGroup::build`](crate::SymmetryGroup::build) splits each role
/// into *blocks* of members whose swap it validates against the actual
/// protocol structure, and keeps the product of the blocks' symmetric
/// groups, so an over-eager declaration degenerates instead of corrupting
/// the search.
///
/// Every group the bundled protocols validate is such a block product. A
/// protocol whose structural automorphisms within a role are not (say, the
/// rotations of a ring, with no swap among them) is reduced by the block
/// product alone, a smaller subgroup: sound, but it reduces less.
///
/// # Examples
///
/// ```
/// use mp_model::ProcessId;
/// use mp_symmetry::RoleMap;
///
/// // Paxos (1,2,1): proposer p0 fixed, acceptors p1/p2 interchangeable,
/// // learner p3 fixed.
/// let roles = RoleMap::new(4).role([ProcessId(1), ProcessId(2)]);
/// assert_eq!(roles.candidate_order(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoleMap {
    num_processes: usize,
    roles: Vec<Vec<ProcessId>>,
}

impl RoleMap {
    /// Starts a declaration for a system of `num_processes` processes with
    /// no interchangeable roles (every process a fixed point).
    pub fn new(num_processes: usize) -> Self {
        RoleMap {
            num_processes,
            roles: Vec::new(),
        }
    }

    /// Declares the given processes interchangeable (builder style). Roles
    /// of fewer than two members add no symmetry and are dropped.
    ///
    /// # Panics
    ///
    /// Panics if a member is out of range or already part of another role.
    pub fn role<I: IntoIterator<Item = ProcessId>>(mut self, members: I) -> Self {
        let members: Vec<ProcessId> = members.into_iter().collect();
        let distinct: BTreeSet<ProcessId> = members.iter().copied().collect();
        assert_eq!(distinct.len(), members.len(), "duplicate role member");
        for p in &members {
            assert!(
                p.index() < self.num_processes,
                "role member {p} out of range ({} processes)",
                self.num_processes
            );
            assert!(
                self.roles.iter().all(|r| !r.contains(p)),
                "process {p} already belongs to another role"
            );
        }
        if members.len() >= 2 {
            self.roles.push(members);
        }
        self
    }

    /// Number of processes of the system.
    pub fn num_processes(&self) -> usize {
        self.num_processes
    }

    /// The declared roles (each with at least two members).
    pub fn roles(&self) -> &[Vec<ProcessId>] {
        &self.roles
    }

    /// Order of the *candidate* group (the product of the factorials of the
    /// role sizes) — an upper bound on the validated group's order.
    ///
    /// # Panics
    ///
    /// Panics if the order does not fit `usize`.
    pub fn candidate_order(&self) -> usize {
        self.roles
            .iter()
            .fold(1, |order, role| times_factorial(order, role.len()))
    }
}

/// `order · k!`; panics if that does not fit `usize`.
pub(crate) fn times_factorial(order: usize, k: usize) -> usize {
    (1..=k)
        .try_fold(order, usize::checked_mul)
        .unwrap_or_else(|| panic!("group order {order} · {k}! does not fit usize"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_roles_are_dropped() {
        let roles = RoleMap::new(3).role([ProcessId(0)]);
        assert!(roles.roles().is_empty());
        assert_eq!(roles.candidate_order(), 1);
    }

    #[test]
    fn candidate_order_multiplies_factorials() {
        let roles = RoleMap::new(6)
            .role([ProcessId(0), ProcessId(1), ProcessId(2)])
            .role([ProcessId(3), ProcessId(4)]);
        assert_eq!(roles.candidate_order(), 6 * 2);
    }

    #[test]
    #[should_panic(expected = "already belongs")]
    fn overlapping_roles_panic() {
        let _ = RoleMap::new(3)
            .role([ProcessId(0), ProcessId(1)])
            .role([ProcessId(1), ProcessId(2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_member_panics() {
        let _ = RoleMap::new(2).role([ProcessId(1), ProcessId(2)]);
    }
}
