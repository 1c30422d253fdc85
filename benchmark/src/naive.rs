//! The reference search: breadth-first over `mp_model::successors` with a
//! std `HashSet` — no engine, no store backend, no reduction, no symmetry.
//!
//! `derive-answers` uses it so that a pinned count never rests on the
//! engine under test alone: on every cell small enough, the engine's
//! unreduced search must reproduce these numbers before anything is
//! written to `answers.json`.

use std::collections::HashSet;

use mp_checker::{Observer, PropertyStatus};
use mp_model::{successors, LocalState, Message};

use crate::json::Json;
use crate::workloads::Cell;

/// Counts the reachable `(state, observer)` pairs of the cell's model.
///
/// Reports `complete: false` once more than `max_states` pairs are known.
/// For a safety property the search stops at the first violating level and
/// reports its depth — the length of a shortest counterexample.
pub fn count<S, M, O>(cell: &Cell<S, M, O>, max_states: usize) -> Json
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let spec = &cell.spec;
    let invariant = cell.property.as_safety();
    let violates = |state: &_, observer: &O| {
        invariant
            .is_some_and(|inv| matches!(inv.evaluate(state, observer), PropertyStatus::Violated(_)))
    };

    let root = (spec.initial_state(), cell.observer.clone());
    let mut shortest_violation = violates(&root.0, &root.1).then_some(0usize);
    let mut seen = HashSet::new();
    seen.insert(root.clone());
    let mut level = vec![root];
    let mut transitions = 0usize;
    // Distance of the level being expanded from the initial state.
    let mut distance = 0usize;
    let mut complete = true;

    'search: while !level.is_empty() && shortest_violation.is_none() {
        let mut next = Vec::new();
        for (state, observer) in &level {
            for (instance, successor) in successors(spec, state) {
                transitions += 1;
                let observed = observer.update(spec, state, &instance, &successor);
                let pair = (successor, observed);
                if seen.contains(&pair) {
                    continue;
                }
                if violates(&pair.0, &pair.1) {
                    shortest_violation = Some(distance + 1);
                    break 'search;
                }
                if seen.len() >= max_states {
                    complete = false;
                    break 'search;
                }
                seen.insert(pair.clone());
                next.push(pair);
            }
        }
        if !next.is_empty() {
            distance += 1;
        }
        level = next;
    }

    Json::obj()
        .set("safety", invariant.is_some())
        .set("complete", complete)
        .set("states", seen.len())
        .set("transitions", transitions)
        // The engines' BFS depth counts levels, the initial state's included.
        .set("depth", distance + 1)
        .set("shortest_violation", shortest_violation)
}
