//! The pinned answers: verdict class and counts of every cell, checked on
//! every run, and `derive-answers`, which recomputes them.
//!
//! `answers.json` is compiled in, so a run cannot pick up a stale or
//! missing file. `derive-answers` never lets a count rest on the engine
//! under test alone: on every cell whose full state space has at most
//! [`REFERENCE_LIMIT`] states, the engine-free BFS of `naive.rs` must agree
//! with the engine's plain unreduced search before the file is written.

use crate::json::Json;
use crate::runner::Runner;
use crate::workloads::{quick_cell, ORACLES, WORKLOADS};

/// Largest state space the reference search is asked to finish.
pub const REFERENCE_LIMIT: usize = 200_000;

/// Fields of a check's result that must equal the pinned answer.
const PINNED: [&str; 6] = [
    "verdict",
    "states",
    "transitions",
    "depth",
    "ce_len",
    "lasso",
];

pub struct Answers(Json);

impl Answers {
    pub fn embedded() -> Result<Answers, String> {
        Json::parse(include_str!("../answers.json"))
            .map(Answers)
            .map_err(|e| format!("answers.json: {e}"))
    }

    fn cell(&self, cell: &str) -> Option<&Json> {
        self.0.get("cells")?.get(cell)
    }

    /// Pinned visited-state count of `cell`.
    pub fn states(&self, cell: &str) -> Option<u64> {
        self.cell(cell)?.get("states")?.as_u64()
    }

    /// Everything in which `result` (a check job's output) differs from the
    /// pinned answer; empty when it is correct.
    pub fn check(&self, cell: &str, result: &Json) -> Vec<String> {
        let Some(expected) = self.cell(cell) else {
            return vec![format!("{cell}: no pinned answer")];
        };
        let mut wrong = Vec::new();
        if result.get("verdict").and_then(Json::as_str) == Some("limit") {
            wrong.push(format!(
                "{cell}: hit a budget ({})",
                text(result.get("verdict_text"))
            ));
        }
        for field in PINNED {
            let (want, got) = (expected.get(field), result.get(field));
            if want != got {
                wrong.push(format!(
                    "{cell}: {field} is {}, pinned {}",
                    text(got),
                    text(want)
                ));
            }
        }
        wrong
    }
}

fn text(value: Option<&Json>) -> String {
    value.map_or_else(|| "absent".to_string(), Json::to_line)
}

/// The relations between oracle cells that hold whatever the counts are. A
/// relation is judged when both its cells reported: a cell that did not has
/// either failed its own check or, in a `--quick` run, was not asked.
pub fn oracle_relations(results: &[(String, Json)]) -> Vec<String> {
    let states = |cell: &str| {
        results
            .iter()
            .find(|(name, _)| name == cell)
            .and_then(|(_, r)| r.get("states"))
            .and_then(Json::as_u64)
    };
    let mut wrong = Vec::new();
    let mut require = |holds: Option<bool>, what: &str| {
        if holds == Some(false) {
            wrong.push(format!("oracle relation broken: {what}"));
        }
    };
    let pair = |a: &str, b: &str| states(a).zip(states(b));
    require(
        pair("oracle.paxos-131-quorum", "oracle.paxos-131-single").map(|(q, s)| q < s),
        "Paxos (1,3,1): quorum model smaller than single-message model (Table I)",
    );
    require(
        pair("oracle.paxos-131-zero-budget", "oracle.paxos-131-quorum").map(|(z, q)| z == q),
        "zero-budget injection explores exactly the seed model's states",
    );
    require(
        pair("oracle.mc-combined-split", "oracle.mc-unsplit").map(|(c, u)| c <= u),
        "Echo Multicast (2,1,0,1): combined-split not larger than unsplit (Table II)",
    );
    wrong
}

/// Recomputes every pinned answer and returns the new `answers.json`.
pub fn derive(runner: &Runner) -> Result<Json, String> {
    let mut cells = Json::obj();
    let names = WORKLOADS
        .iter()
        .flat_map(|w| [w.name.to_string(), quick_cell(w.name)])
        .chain(ORACLES.iter().map(|o| o.to_string()));
    for name in names {
        eprintln!("deriving {name}");
        let result = runner.child(&name, &["check"])?;
        if result.text("verdict")? == "limit" {
            return Err(format!("{name}: hit a budget"));
        }
        let mut pinned = Json::obj();
        for field in PINNED {
            pinned.insert(field, result.get(field).cloned());
        }
        pinned.insert("reference", reference(runner, &name, &result)?);
        cells.insert(&name, pinned);
    }
    Ok(Json::obj()
        .set(
            "about",
            "Pinned verdict class and counts of every benchmark cell. Written by \
             `mp-benchmark derive-answers`; `reference` holds the engine-free BFS \
             counts the engine's unreduced search was checked against (null where \
             the full state space exceeds the reference limit).",
        )
        .set("reference_limit", REFERENCE_LIMIT)
        .set("cells", cells))
}

/// Cross-derivation of one cell: the naive BFS against the engine's own
/// unreduced exact BFS of the same model, then the pinned (possibly reduced)
/// answer against both.
fn reference(runner: &Runner, name: &str, pinned: &Json) -> Result<Json, String> {
    let limit = REFERENCE_LIMIT.to_string();
    let naive = runner.child(name, &["naive", "--max-states", &limit])?;
    if naive.get("complete").and_then(Json::as_bool) != Some(true) {
        return Ok(Json::Null);
    }
    let plain = runner.child(name, &["check", "--plain"])?;
    let fail = |what: &str| {
        Err(format!(
            "{name}: {what}\n  naive {}\n  engine {}",
            naive.to_line(),
            plain.to_line()
        ))
    };
    match naive.get("shortest_violation").and_then(Json::as_u64) {
        Some(shortest) => {
            // Breadth-first engines report shortest counterexamples.
            if plain.get("ce_len").and_then(Json::as_u64) != Some(shortest) {
                return fail("engine BFS and naive BFS disagree on the shortest counterexample");
            }
            if pinned
                .get("ce_len")
                .and_then(Json::as_u64)
                .is_none_or(|len| len < shortest)
            {
                return fail("pinned counterexample is shorter than the shortest one");
            }
        }
        None => {
            if pinned.text("verdict")? == "violated" {
                // A fair lasso is not something the naive search looks for,
                // and the engine stopped at it: nothing to compare. A safety
                // violation the naive search missed is a disagreement.
                if pinned.get("lasso").and_then(Json::as_bool) != Some(true) {
                    return fail("engine reports a violation the naive BFS does not find");
                }
                return Ok(naive);
            }
            // The engine sends a liveness property to its depth-first
            // lasso search whatever the configuration says, and that search
            // counts transitions and depth its own way: only the states
            // are comparable there.
            let safety = naive.get("safety").and_then(Json::as_bool) == Some(true);
            let comparable: &[&str] = if safety {
                &["states", "transitions", "depth"]
            } else {
                &["states"]
            };
            for field in comparable {
                if naive.get(field) != plain.get(field) {
                    return fail("engine's unreduced search and naive BFS disagree");
                }
            }
            // A stateful search stores each state once, reduced or not; the
            // stateless one counts tree nodes, which no state count bounds.
            let stateful = pinned.get("store_backend").is_some();
            if stateful && pinned.count("states")? > naive.count("states")? {
                return fail("pinned count exceeds the full state space");
            }
        }
    }
    Ok(naive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_has_a_pinned_answer() {
        let answers = Answers::embedded().unwrap();
        for workload in &WORKLOADS {
            assert!(answers.states(workload.name).is_some(), "{}", workload.name);
            assert!(
                answers.states(&quick_cell(workload.name)).is_some(),
                "{}",
                workload.name
            );
        }
        for oracle in ORACLES {
            assert!(answers.cell(oracle).is_some(), "{oracle}");
        }
    }

    #[test]
    fn check_names_each_differing_field() {
        let answers = Answers(
            Json::parse(
                r#"{"cells":{"c":{"verdict":"verified","states":10,"transitions":20,"depth":3,
                    "ce_len":null,"lasso":false}}}"#,
            )
            .unwrap(),
        );
        let good = Json::parse(
            r#"{"verdict":"verified","states":10,"transitions":20,"depth":3,"ce_len":null,
                "lasso":false,"spill_bytes":0,"wall_s":1.5}"#,
        )
        .unwrap();
        assert!(answers.check("c", &good).is_empty());
        let bad = good.clone().set("states", 11u64).set("verdict", "violated");
        let wrong = answers.check("c", &bad);
        assert_eq!(wrong.len(), 2, "{wrong:?}");
        assert!(wrong[0].contains("verdict") && wrong[1].contains("states is 11, pinned 10"));
        let limit = good.clone().set("verdict", "limit");
        assert!(answers.check("c", &limit)[0].contains("budget"));
        assert!(answers.check("unknown", &good)[0].contains("no pinned answer"));
    }

    #[test]
    fn oracle_relations_hold_or_are_named() {
        let cell = |name: &str, states: u64| (name.to_string(), Json::obj().set("states", states));
        let mut results = vec![
            cell("oracle.paxos-131-quorum", 106),
            cell("oracle.paxos-131-single", 209),
            cell("oracle.paxos-131-zero-budget", 106),
            cell("oracle.mc-unsplit", 50),
            cell("oracle.mc-combined-split", 40),
        ];
        assert!(oracle_relations(&results).is_empty());
        results[2] = cell("oracle.paxos-131-zero-budget", 107);
        results[4] = cell("oracle.mc-combined-split", 51);
        let wrong = oracle_relations(&results);
        assert_eq!(wrong.len(), 2, "{wrong:?}");
        // A cell that did not report leaves its relation unjudged.
        results.pop();
        assert_eq!(oracle_relations(&results).len(), 1);
    }
}
