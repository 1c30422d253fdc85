//! The metric tables: every name the benchmark reports, with its unit,
//! direction and — for end-to-end metrics — the bound by which a later
//! change may worsen it. `BENCHMARK.json` is generated from these tables
//! ([`manifest`]), so the file and the program cannot drift apart.

use crate::json::Json;
use crate::stats::Better;
use crate::workloads::WORKLOADS;

/// Seconds of untraced repetitions one `run --workload` invocation measures
/// (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// A metric a user of the checker sees, per workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
    /// A count that must repeat digit for digit (see `stats::judge`).
    pub exact: bool,
}

/// The bound of the two counts. Exactness is enforced by `answers.json` —
/// any other count is a failed check — so the bound only has to be a
/// positive share that a zero spread sits strictly inside.
const COUNT_BOUND: f64 = 0.0001;

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        // Not the 10 % one would want: see "Why `wall_s` is bound at 25 %"
        // in the README for the measured noise of the sandbox.
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "states",
        unit: "count",
        better: Better::Lower,
        bound: COUNT_BOUND,
        exact: true,
    },
    EndToEnd {
        name: "transitions",
        unit: "count",
        better: Better::Lower,
        bound: COUNT_BOUND,
        exact: true,
    },
];

/// A metric of one layer (layer = crate; the prefix names it). No bound:
/// these explain a change, they do not gate it.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 56] = [
    // mp-model, probed.
    lower("model.enabled_ns", "ns"),
    lower("model.enabled_per_state", "count"),
    lower("model.execute_ns", "ns"),
    lower("model.clone_ns", "ns"),
    lower("model.hash_ns", "ns"),
    lower("model.encode_ns", "ns"),
    lower("model.decode_ns", "ns"),
    lower("model.encoded_bytes", "bytes"),
    // mp-faults.
    lower("faults.inject_s", "s"),
    lower("faults.env_instance_share", "ratio"),
    // mp-por.
    lower("por.build_s", "s"),
    lower("por.reduce_ns", "ns"),
    lower("por.explore_share", "ratio"),
    higher("por.reduced_state_share", "ratio"),
    higher("por.dpor_expansions_per_s", "1/s"),
    // mp-symmetry.
    lower("symmetry.build_s", "s"),
    higher("symmetry.group_order", "count"),
    lower("symmetry.canonicalize_ns", "ns"),
    higher("symmetry.orbit_collapse", "ratio"),
    // mp-store, probed.
    lower("store.exact.insert_new_ns", "ns"),
    lower("store.exact.insert_hit_ns", "ns"),
    lower("store.exact.bytes_per_key", "bytes"),
    lower("store.sharded.insert_new_ns", "ns"),
    lower("store.sharded.insert_hit_ns", "ns"),
    lower("store.sharded.bytes_per_key", "bytes"),
    lower("store.fingerprint.insert_new_ns", "ns"),
    lower("store.fingerprint.insert_hit_ns", "ns"),
    lower("store.fingerprint.bytes_per_key", "bytes"),
    lower("store.runs.insert_new_ns", "ns"),
    lower("store.runs.insert_hit_ns", "ns"),
    lower("store.runs.bytes_per_key", "bytes"),
    lower("store.runs.merge_ns_per_key", "ns"),
    lower("store.frontier_mem.push_pop_ns", "ns"),
    lower("store.frontier_disk.push_pop_ns", "ns"),
    lower("store.frontier_disk.bytes_per_item", "bytes"),
    // mp-store, from the traced run's statistics.
    higher("store.hit_rate", "ratio"),
    lower("store.reported_bytes", "bytes"),
    lower("store.rss_bytes_per_state", "bytes"),
    lower("store.frontier_peak_bytes", "bytes"),
    lower("store.spill_bytes", "bytes"),
    // mp-checker: the engine's own phases in the traced run.
    lower("checker.expansion_s", "s"),
    lower("checker.store_lookup_s", "s"),
    lower("checker.canonicalize_s", "s"),
    lower("checker.stubborn_set_s", "s"),
    lower("checker.frontier_encode_s", "s"),
    lower("checker.frontier_decode_s", "s"),
    lower("checker.spill_io_s", "s"),
    lower("checker.run_merge_s", "s"),
    lower("checker.scc_backstop_s", "s"),
    lower("checker.untimed_s", "s"),
    higher("checker.states_per_s", "1/s"),
    higher("checker.transitions_per_s", "1/s"),
    higher("checker.par2_speedup", "ratio"),
    lower("checker.worker_spawns", "count"),
    // mp-trace: what tracing itself costs.
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.traced_wall_s", "s"),
];

/// The rule `BENCHMARK.json` sets for workload and metric names: starts
/// with a letter or digit, at most 64 of letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The content of the root `BENCHMARK.json`.
pub fn manifest() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj().set("name", w.name).set("why", w.why))
        .collect::<Vec<_>>();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.as_str())
                .set("bound", m.bound)
        })
        .collect::<Vec<_>>();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.as_str())
        })
        .collect::<Vec<_>>();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj()
        .set(
            "command",
            command.iter().map(|s| Json::from(*s)).collect::<Vec<_>>(),
        )
        .set("paths", vec![Json::from("benchmark")])
        .set("run_seconds", RUN_SECONDS)
        .set("workloads", workloads)
        .set("end_to_end", end_to_end)
        .set("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_validation() {
        for good in [
            "wall_s",
            "paxos-1m-ext",
            "store.exact.insert_new_ns",
            "9lives",
            "a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            "-lead",
            ".lead",
            "_lead",
            "has space",
            "slash/inside",
            "per%",
            "ünï",
            &too_long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn every_table_entry_meets_the_benchmark_json_contract() {
        let mut names = BTreeSet::new();
        let units = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in units.chain(WORKLOADS.iter().map(|w| (w.name, "count"))) {
            assert!(valid_name(name), "{name}");
            assert!(names.insert(name), "{name} is used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit} of {name}"
            );
        }
        for workload in &WORKLOADS {
            assert!(
                workload.why.len() <= 200 && !workload.why.contains('\n'),
                "{}",
                workload.name
            );
        }
        for metric in &END_TO_END {
            assert!((0.0..=0.25).contains(&metric.bound), "{}", metric.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn the_committed_benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 << 10);
        let manifest = manifest();
        assert_eq!(
            Json::parse(&text).unwrap(),
            manifest,
            "regenerate with `mp-benchmark manifest`"
        );
        let keys: Vec<&str> = manifest.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
