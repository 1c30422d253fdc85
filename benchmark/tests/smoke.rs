//! `run --quick`: the whole benchmark on Paxos (1,3,1)-sized cells — child
//! re-exec, repetitions, traced runs, probes, span files, oracle cells, the
//! results file and the one-line summary — in a few seconds.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mp_benchmark::json::Json;
use mp_benchmark::metrics::{END_TO_END, PER_LAYER};
use mp_benchmark::workloads::{quick_cell, QUICK_ORACLES, WORKLOADS};

const EXE: &str = env!("CARGO_BIN_EXE_mp-benchmark");

/// Runs share `benchmark/out/` (and the machine): one at a time.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn out_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn value(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

#[test]
fn quick_run_exercises_every_path() {
    let _guard = one_at_a_time();
    let results_path = out_dir().join("quick-smoke.results.json");
    let started = Instant::now();
    let output = Command::new(EXE)
        .args(["run", "--quick", "--seed", "7", "--out"])
        .arg(&results_path)
        .output()
        .expect("the benchmark binary starts");
    let elapsed = started.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stdout}\n{stderr}");
    assert!(
        elapsed < Duration::from_secs(10),
        "quick run took {elapsed:?}"
    );

    // The last line is the machine-readable summary.
    let summary = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = summary.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(summary.count("failed").unwrap(), 0);
    // Per workload: two repetitions, a traced run and a probe pass.
    assert!(summary.count("attempted").unwrap() >= 4 * WORKLOADS.len() as u64);
    // Every metric is printed by name with its unit.
    for metric in &END_TO_END {
        assert!(
            stdout.contains(&format!("  {} ", metric.name)),
            "{} not printed",
            metric.name
        );
    }
    for metric in &PER_LAYER {
        assert!(
            stdout.contains(&format!("  {} ", metric.name)),
            "{} not printed",
            metric.name
        );
    }

    let results = Json::parse(&std::fs::read_to_string(&results_path).unwrap()).unwrap();
    assert!(results.get("machine").unwrap().count("nproc").unwrap() >= 1);
    let oracles = results.get("oracles").unwrap().fields();
    assert_eq!(oracles.len(), QUICK_ORACLES.len());
    for workload in &WORKLOADS {
        let name = workload.name;
        let entry = results.get("workloads").unwrap().get(name).unwrap();
        let end_to_end = entry.get("end_to_end").unwrap();
        for metric in &END_TO_END {
            let v = value(end_to_end, metric.name)
                .unwrap_or_else(|| panic!("{name} lacks {}", metric.name));
            assert!(v > 0.0, "{name} {} = {v}", metric.name);
        }
        let per_layer = entry.get("per_layer").unwrap();
        let has = |metric: &str| value(per_layer, metric).is_some();
        let positive = |metric: &str| value(per_layer, metric).is_some_and(|v| v > 0.0);

        // The interaction map, on the quick cells.
        assert!(
            positive("model.enabled_ns") && positive("trace.overhead_ratio"),
            "{name}"
        );
        assert_eq!(
            positive("checker.canonicalize_s"),
            name == "paxos-sym",
            "{name}"
        );
        assert_eq!(
            has("symmetry.canonicalize_ns"),
            name == "paxos-sym",
            "{name}"
        );
        assert_eq!(
            positive("store.spill_bytes"),
            name == "paxos-1m-ext",
            "{name}"
        );
        assert_eq!(
            positive("checker.spill_io_s"),
            name == "paxos-1m-ext",
            "{name}"
        );
        // The BFS engines open the merge span at every level boundary, so
        // an in-memory store shows the cost of an empty span, not zero.
        let merge = value(per_layer, "checker.run_merge_s").unwrap();
        assert!(
            if name == "paxos-1m-ext" {
                merge > 0.0
            } else {
                merge < 1e-3
            },
            "{name}: {merge}"
        );
        assert_eq!(has("store.hit_rate"), name != "paxos-dpor", "{name}");
        assert_eq!(
            has("store.exact.insert_new_ns"),
            name != "paxos-dpor",
            "{name}"
        );
        assert_eq!(
            has("por.dpor_expansions_per_s"),
            name == "paxos-dpor",
            "{name}"
        );
        assert_eq!(
            has("por.reduce_ns"),
            !name.starts_with("storage-") && name != "paxos-dpor",
            "{name}"
        );
        assert_eq!(has("faults.inject_s"), name != "paxos-dpor", "{name}");
        assert_eq!(has("checker.untimed_s"), name != "storage-par2", "{name}");
        assert_eq!(
            has("checker.worker_spawns"),
            name == "storage-par2",
            "{name}"
        );
        if name == "paxos-sym" {
            assert!(value(per_layer, "symmetry.orbit_collapse").unwrap() > 1.0);
        }
        if !matches!(name, "storage-par2") {
            // Phase sum + untimed remainder is the traced wall, exactly.
            let phases: f64 = PER_LAYER
                .iter()
                .map(|m| m.name)
                .filter(|n| {
                    n.starts_with("checker.") && n.ends_with("_s") && !n.ends_with("_per_s")
                })
                .filter_map(|n| value(per_layer, n))
                .sum();
            let wall = value(per_layer, "trace.traced_wall_s").unwrap();
            assert!(
                (phases - wall).abs() < 1e-9 * wall.max(1.0),
                "{name}: {phases} vs {wall}"
            );
        }

        // The span file parses, and each probe time is its batch spans'
        // total duration over their total operation count.
        let spans_path = out_dir().join(format!("{}.spans.ndjson", quick_cell(name)));
        let mut totals: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        let text = std::fs::read_to_string(&spans_path).unwrap();
        assert!(text.lines().count() >= 8, "{name}: too few spans");
        for line in text.lines() {
            let span = Json::parse(line).unwrap();
            assert_eq!(span.text("workload").unwrap(), name);
            let duration = span.num("end_ns").unwrap() - span.num("start_ns").unwrap();
            assert!(duration >= 0.0);
            if span.text("name").unwrap() != "probe" {
                assert_eq!(
                    span.count("parent").unwrap(),
                    0,
                    "batch spans hang off the root"
                );
            }
            let total = totals
                .entry(span.text("name").unwrap().to_string())
                .or_default();
            total.0 += duration;
            total.1 += span.num("ops").unwrap();
        }
        let probe = entry.get("probe").unwrap();
        let mut compared = 0;
        for (metric, reported) in probe.fields() {
            if let (true, Some((ns, ops))) = (
                metric.ends_with("_ns") || metric.ends_with("_per_key"),
                totals.get(metric),
            ) {
                let reported = reported.as_f64().unwrap();
                assert!(
                    (ns / ops - reported).abs() <= 1e-9 * reported,
                    "{name} {metric}"
                );
                compared += 1;
            }
        }
        assert!(
            compared >= 6,
            "{name}: only {compared} probe times matched to spans"
        );
    }
}

#[test]
fn a_single_traced_workload_reports_every_per_layer_metric() {
    let _guard = one_at_a_time();
    let results_path = out_dir().join("quick-smoke.traced.json");
    let output = Command::new(EXE)
        .args([
            "run",
            "--quick",
            "--workload",
            "paxos-dpor",
            "--trace",
            "1",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--out",
        ])
        .arg(&results_path)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let summary = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let metrics = summary.get("metrics").unwrap();
    let names: Vec<&str> = metrics.fields().iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    // A layer off the workload's path reads 0 in the summary line.
    assert_eq!(value(metrics, "store.hit_rate"), Some(0.0));
    assert!(value(metrics, "por.dpor_expansions_per_s").unwrap() > 0.0);
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["run", "--workload", "no-such-workload"][..],
        &["run", "--workload", "../escape"],
        &["run", "--trace", "2"],
        &["run", "--seconds", "0"],
        &["run", "--sed", "1"],
        &["run", "--quick", "--oracles"],
        &["frobnicate"],
        &[],
    ] {
        let output = Command::new(EXE).args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
