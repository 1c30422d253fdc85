//! The parent side of `run`: one fresh child process per measurement, one
//! at a time, and the bookkeeping that turns their results into metrics.
//!
//! Every timed run re-executes this binary as `cell <name> check`, so
//! `peak_rss_bytes` belongs to one run alone and never more than one check
//! is runnable (only `storage-par2` itself uses two threads). The load is
//! closed-loop batch work: one check finishes, the next starts.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::answers::{self, Answers};
use crate::env;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::rng::Rng;
use crate::stats::{display as format_value, Summary};
use crate::workloads::{quick_cell, Workload, ORACLES, QUICK_ORACLES};

/// What `--quick` scales down besides the cells themselves.
struct Scale {
    /// Reachable states in the probe sample.
    probe_sample: usize,
    /// Untraced repetitions per workload, when not decided by run time.
    fixed_reps: Option<usize>,
    /// The oracle cells a run of everything checks.
    oracles: &'static [&'static str],
    /// Length of one set-up slice, in seconds (the text a child is given).
    setup_slice: &'static str,
    /// Set-up slices per workload after the repetitions.
    setup_rounds: usize,
}

const FULL: Scale = Scale {
    probe_sample: 20_000,
    fixed_reps: None,
    oracles: &ORACLES,
    setup_slice: "0.25",
    setup_rounds: 4,
};

const QUICK: Scale = Scale {
    probe_sample: 500,
    fixed_reps: Some(2),
    oracles: &QUICK_ORACLES,
    setup_slice: "0.02",
    setup_rounds: 1,
};

/// Which measurements `run` takes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// `--trace 0`: untraced repetitions, end-to-end metrics.
    Untraced,
    /// `--trace 1`: one traced run and the probe pass, per-layer metrics.
    Traced,
    Both,
}

pub struct Options {
    pub workloads: Vec<&'static Workload>,
    pub mode: Mode,
    pub seed: u64,
    /// Budget of untraced repetitions per workload; `None` uses the fixed
    /// counts of a full run (5 below 10 s a run, else 3).
    pub seconds: Option<f64>,
    pub quick: bool,
    pub oracles: bool,
    pub out: Option<PathBuf>,
}

/// Spawns children and knows where their files go.
pub struct Runner {
    exe: PathBuf,
    pub out_dir: PathBuf,
}

impl Runner {
    /// `benchmark/out/` of the checkout this binary was built in; spill
    /// files of the children go to `out/tmp/` so nothing is written outside.
    pub fn new() -> Result<Runner, String> {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        fs::create_dir_all(out_dir.join("tmp"))
            .map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        Ok(Runner { exe, out_dir })
    }

    pub fn out_file(&self, cell: &str, suffix: &str) -> PathBuf {
        self.out_dir.join(format!("{cell}.{suffix}"))
    }

    /// Runs `cell <cell> <args>` to completion and parses the JSON object on
    /// the last line of its output.
    pub fn child(&self, cell: &str, args: &[&str]) -> Result<Json, String> {
        let what = format!("cell {cell} {}", args.join(" "));
        let output = Command::new(&self.exe)
            .arg("cell")
            .arg(cell)
            .args(args)
            .env("TMPDIR", self.out_dir.join("tmp"))
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("`{what}` did not start: {e}"))?;
        if !output.status.success() {
            let stderr = String::from_utf8_lossy(&output.stderr);
            let tail: Vec<&str> = stderr.lines().rev().take(6).collect();
            return Err(format!(
                "`{what}` ended with {}: {}",
                output.status,
                tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("`{what}` printed nothing"))?;
        Json::parse(line).map_err(|e| format!("`{what}`: {e}"))
    }
}

/// Every timed, traced, probe and oracle run is one check.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for problem in &problems {
                eprintln!("FAILED {problem}");
            }
            self.failures.extend(problems);
        }
    }
}

/// What was measured for one workload.
struct Measured {
    workload: &'static Workload,
    cell: String,
    reps: Vec<Json>,
    /// `setup_s` of each set-up slice.
    setups: Vec<f64>,
    traced: Option<Json>,
    probe: Option<Json>,
    /// `wall(storage-ram) / wall(storage-par2)`, on `storage-par2`.
    par2_speedup: Option<f64>,
}

/// How many untraced repetitions a workload gets once the first took
/// `first_s`: as many as fit the budget (1 to 5), or the full run's 5/3.
pub fn rep_count(first_s: f64, seconds: Option<f64>) -> usize {
    match seconds {
        Some(budget) => ((budget / first_s) as usize).clamp(1, 5),
        None if first_s < 10.0 => 5,
        None => 3,
    }
}

struct Session<'a> {
    runner: &'a Runner,
    answers: &'a Answers,
    checks: Checks,
    scale: &'static Scale,
}

impl Session<'_> {
    /// One check of `cell`: the child must end well and agree with the
    /// pinned answer. A failed check yields no measurement.
    fn check(&mut self, cell: &str, args: &[&str]) -> Option<Json> {
        match self.runner.child(cell, args) {
            Ok(result) => {
                let problems = self.answers.check(cell, &result);
                let ok = problems.is_empty();
                self.checks.record(problems);
                ok.then_some(result)
            }
            Err(e) => {
                self.checks.record(vec![e]);
                None
            }
        }
    }

    /// One slice of set-up sampling: a child that sets the check up over
    /// and over and reports the median pass at the reference clock.
    fn setup_slice(&mut self, m: &mut Measured) {
        let args = ["setup", "--seconds", self.scale.setup_slice];
        match self
            .runner
            .child(&m.cell, &args)
            .and_then(|r| r.num("setup_s"))
        {
            Ok(setup_s) => m.setups.push(setup_s),
            Err(e) => self.checks.record(vec![e]),
        }
    }

    /// One untraced check of `cell`, a set-up slice before it; its `wall_s`.
    fn untraced_rep(&mut self, m: &mut Measured) -> Option<f64> {
        self.setup_slice(m);
        let rep = self.check(&m.cell, &["check"])?;
        let wall = rep.num("wall_s").ok();
        m.reps.push(rep);
        wall
    }
}

/// `field` of every repetition that reported it.
fn rep_values(reps: &[Json], field: &str) -> Vec<f64> {
    reps.iter().filter_map(|r| r.num(field).ok()).collect()
}

/// Median untraced `wall_s`, which the traced run is compared with.
fn untraced_wall(m: &Measured) -> Option<f64> {
    let walls = rep_values(&m.reps, "wall_s");
    (!walls.is_empty()).then(|| Summary::of(&walls).median)
}

/// `run`: measures, prints every metric, writes the results file and ends
/// with the one-line summary. Returns whether every check passed.
pub fn run(options: &Options) -> Result<bool, String> {
    let runner = Runner::new()?;
    let answers = Answers::embedded()?;
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let machine = env::machine(&repo);
    if let Some(load) = env::load_average().filter(|l| *l > env::LOAD_WARNING) {
        eprintln!(
            "warning: 1-minute load average is {load:.2} (> {}); timings will be noisy",
            env::LOAD_WARNING
        );
    }
    let mut session = Session {
        runner: &runner,
        answers: &answers,
        checks: Checks::default(),
        scale: if options.quick { &QUICK } else { &FULL },
    };
    let mut rng = Rng::new(options.seed);
    let mut measured: Vec<Measured> = options
        .workloads
        .iter()
        .map(|workload| Measured {
            workload,
            cell: if options.quick {
                quick_cell(workload.name)
            } else {
                workload.name.to_string()
            },
            reps: Vec::new(),
            setups: Vec::new(),
            traced: None,
            probe: None,
            par2_speedup: None,
        })
        .collect();
    // The seed decides the order of workloads and of repetitions.
    let mut order: Vec<usize> = (0..measured.len()).collect();
    rng.shuffle(&mut order);

    if options.mode != Mode::Traced {
        let mut remaining = Vec::new();
        for &w in &order {
            eprintln!("{}: untraced", measured[w].cell);
            if let Some(first) = session.untraced_rep(&mut measured[w]) {
                let count = session
                    .scale
                    .fixed_reps
                    .unwrap_or_else(|| rep_count(first, options.seconds));
                remaining.extend(std::iter::repeat_n(w, count - 1));
            }
        }
        rng.shuffle(&mut remaining);
        for w in remaining {
            session.untraced_rep(&mut measured[w]);
        }
        // A workload with one repetition has had one set-up slice so far,
        // and a neighbour's burst spoils one slice in fifteen.
        for _ in 0..session.scale.setup_rounds {
            for &w in &order {
                session.setup_slice(&mut measured[w]);
            }
        }
    }

    if options.mode != Mode::Untraced {
        let sample = session.scale.probe_sample;
        for &w in &order {
            let m = &mut measured[w];
            eprintln!("{}: traced run and probes", m.cell);
            let trace = runner.out_file(&m.cell, "trace.ndjson");
            m.traced = session.check(&m.cell, &["check", "--trace", &trace.to_string_lossy()]);
            let spans = runner.out_file(&m.cell, "spans.ndjson");
            let probe = runner.child(
                &m.cell,
                &[
                    "probe",
                    "--workload",
                    m.workload.name,
                    "--seed",
                    &options.seed.to_string(),
                    "--sample",
                    &sample.to_string(),
                    "--spans",
                    &spans.to_string_lossy(),
                ],
            );
            session
                .checks
                .record(probe.as_ref().err().cloned().into_iter().collect());
            m.probe = probe.ok();
            // The ratios to an untraced run need one from this invocation:
            // a wall time from another build or commit would say nothing.
            if m.reps.is_empty() {
                session.untraced_rep(m);
            }
        }
        // The 2-thread speed-up pairs two workloads; with one core it says
        // nothing and stays unresolved.
        if let Some(par2) = measured
            .iter()
            .position(|m| m.workload.name == "storage-par2")
        {
            if env::nproc() >= 2 {
                let ram_cell = if options.quick {
                    quick_cell("storage-ram")
                } else {
                    "storage-ram".to_string()
                };
                let ram = match measured.iter().find(|m| m.cell == ram_cell) {
                    Some(m) => untraced_wall(m),
                    None => session
                        .check(&ram_cell, &["check"])
                        .and_then(|rep| rep.num("wall_s").ok()),
                };
                measured[par2].par2_speedup =
                    ram.zip(untraced_wall(&measured[par2])).map(|(r, p)| r / p);
            } else {
                eprintln!("warning: nproc < 2, checker.par2_speedup is unresolved");
            }
        }
    }

    // `spill_bytes` may fall in a later change, so no answer pins it; the
    // runs of one invocation must still agree on it.
    for m in &measured {
        let runs = || m.reps.iter().chain(&m.traced);
        if runs().count() >= 2 {
            let first = runs().next().and_then(|r| r.get("spill_bytes"));
            let agree = runs().all(|r| r.get("spill_bytes") == first);
            session.checks.record(if agree {
                Vec::new()
            } else {
                vec![format!("{}: runs disagree on spill_bytes", m.cell)]
            });
        }
    }

    let mut oracle_results = Vec::new();
    if options.oracles {
        for oracle in session.scale.oracles {
            eprintln!("{oracle}");
            if let Some(result) = session.check(oracle, &["check"]) {
                oracle_results.push((oracle.to_string(), result));
            }
        }
        session
            .checks
            .record(answers::oracle_relations(&oracle_results));
    }

    // --- assemble, print, store ---------------------------------------------
    let checks = session.checks;
    let mut workloads_json = Json::obj();
    let mut line_metrics = Json::obj();
    let single = measured.len() == 1;
    for m in &measured {
        println!("== {} ==  {}", m.workload.name, m.workload.why);
        let mut end_to_end = Json::obj();
        let mut per_layer = Json::obj();
        if options.mode != Mode::Traced {
            for (metric, entry) in END_TO_END.iter().zip(end_to_end_values(m)) {
                let Some((value, summary)) = entry else {
                    continue;
                };
                println!(
                    "  {:<34} {:>16} {:<6} median {} min {} max {} reps {}",
                    metric.name,
                    format_value(value),
                    metric.unit,
                    format_value(summary.median),
                    format_value(summary.min),
                    format_value(summary.max),
                    summary.reps
                );
                end_to_end.insert(metric.name, summary.to_json(value, metric.unit));
                line_metrics.insert(
                    &line_key(single, m.workload.name, metric.name),
                    Json::obj().set("value", value).set("unit", metric.unit),
                );
            }
        }
        if options.mode != Mode::Untraced {
            let values = per_layer_values(m, &answers);
            for metric in &PER_LAYER {
                let value = values.get(metric.name).and_then(Json::as_f64);
                match value {
                    Some(v) => {
                        println!(
                            "  {:<34} {:>16} {}",
                            metric.name,
                            format_value(v),
                            metric.unit
                        );
                        per_layer.insert(
                            metric.name,
                            Json::obj().set("value", v).set("unit", metric.unit),
                        );
                    }
                    None => println!("  {:<34} {:>16} {}", metric.name, "-", metric.unit),
                }
                // The one-line summary carries every per-layer name; a layer
                // that is not on this workload's path reads 0.
                line_metrics.insert(
                    &line_key(single, m.workload.name, metric.name),
                    Json::obj()
                        .set("value", value.unwrap_or(0.0))
                        .set("unit", metric.unit),
                );
            }
        }
        workloads_json.insert(
            m.workload.name,
            Json::obj()
                .set("cell", m.cell.as_str())
                .set("why", m.workload.why)
                .set("end_to_end", end_to_end)
                .set("per_layer", per_layer)
                .set("reps", m.reps.clone())
                .set("traced", m.traced.clone())
                .set("probe", m.probe.clone()),
        );
    }
    println!(
        "checks_attempted {}  checks_failed {}",
        checks.attempted, checks.failed
    );

    let results = Json::obj()
        .set("schema", 1u64)
        .set("machine", machine)
        .set("seed", options.seed)
        .set("quick", options.quick)
        .set("checks_attempted", checks.attempted)
        .set("checks_failed", checks.failed)
        .set(
            "failures",
            checks
                .failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect::<Vec<_>>(),
        )
        .set("workloads", workloads_json)
        .set("oracles", Json::Obj(oracle_results.into_iter().collect()));
    let out = options
        .out
        .clone()
        .unwrap_or_else(|| runner.out_dir.join("results.json"));
    fs::write(&out, results.to_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("results written to {}", out.display());

    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{}",
        Json::obj()
            .set("correct", correct)
            .set("attempted", checks.attempted)
            .set("failed", checks.failed)
            .set("metrics", line_metrics)
            .to_line()
    );
    Ok(correct)
}

fn line_key(single: bool, workload: &str, metric: &str) -> String {
    if single {
        metric.to_string()
    } else {
        format!("{workload}:{metric}")
    }
}

/// Reported value and repetition summary of each end-to-end metric, in
/// [`END_TO_END`] order; `None` where nothing was measured.
fn end_to_end_values(m: &Measured) -> Vec<Option<(f64, Summary)>> {
    END_TO_END
        .iter()
        .map(|metric| {
            let values = match metric.name {
                "setup_s" => m.setups.clone(),
                name => rep_values(&m.reps, name),
            };
            if values.is_empty() {
                return None;
            }
            let summary = Summary::of(&values);
            let value = match metric.name {
                // Memory is sized for the worst repetition.
                "peak_rss_bytes" => summary.max,
                _ => summary.median,
            };
            Some((value, summary))
        })
        .collect()
}

/// The per-layer metrics that exist for this workload, by name: the probe's
/// own, the traced run's phases and statistics, and the ratios between
/// runs.
fn per_layer_values(m: &Measured, answers: &Answers) -> Json {
    let mut values = m.probe.clone().unwrap_or_else(Json::obj);
    if let Some(speedup) = m.par2_speedup {
        values.insert("checker.par2_speedup", speedup);
    }
    let Some(traced) = &m.traced else {
        return values;
    };
    let num = |field: &str| traced.num(field).ok();
    let (Some(wall), Some(states), Some(transitions)) =
        (num("wall_s"), num("states"), num("transitions"))
    else {
        return values;
    };
    let stateless = traced.get("store_backend").is_none();
    let parallel = num("worker_threads").is_some_and(|t| t > 0.0);

    values.insert("trace.traced_wall_s", wall);
    if let Some(untraced) = untraced_wall(m) {
        values.insert("trace.overhead_ratio", wall / untraced);
    }
    values.insert("checker.states_per_s", states / wall);
    values.insert("checker.transitions_per_s", transitions / wall);
    let mut phase_sum = 0.0;
    for (phase, seconds) in traced.get("phases").map(Json::fields).unwrap_or_default() {
        let seconds = seconds.as_f64().unwrap_or(0.0);
        phase_sum += seconds;
        values.insert(&format!("checker.{phase}_s"), seconds);
    }
    // Phases of pool workers overlap in time, so only a sequential engine
    // has a meaningful remainder.
    if !parallel {
        values.insert("checker.untimed_s", wall - phase_sum);
    } else {
        values.insert("checker.worker_spawns", num("worker_spawns"));
    }
    if stateless {
        values.insert(
            "por.dpor_expansions_per_s",
            num("expansions").map(|e| e / wall),
        );
    } else {
        let hits = num("store_hits").unwrap_or(0.0);
        values.insert("store.hit_rate", hits / (hits + states));
        values.insert("store.reported_bytes", num("store_bytes"));
        values.insert(
            "store.rss_bytes_per_state",
            num("peak_rss_bytes").map(|rss| rss / states),
        );
        values.insert("store.frontier_peak_bytes", num("frontier_peak_bytes"));
        values.insert("store.spill_bytes", num("spill_bytes"));
    }
    if values.get("por.reduce_ns").is_some() {
        values.insert(
            "por.reduced_state_share",
            num("reduced_states")
                .zip(num("expansions"))
                .map(|(r, e)| r / e),
        );
    }
    let plain = traced.get("plain_cell").and_then(Json::as_str);
    if let Some(plain_states) = plain.and_then(|cell| answers.states(cell)) {
        values.insert("symmetry.orbit_collapse", plain_states as f64 / states);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_counts() {
        // Full run: five below ten seconds a run, else three.
        assert_eq!(rep_count(4.2, None), 5);
        assert_eq!(rep_count(9.99, None), 5);
        assert_eq!(rep_count(15.0, None), 3);
        // Budgeted: what fits, at least one, at most five.
        assert_eq!(rep_count(15.0, Some(20.0)), 1);
        assert_eq!(rep_count(30.0, Some(20.0)), 1);
        assert_eq!(rep_count(5.7, Some(20.0)), 3);
        assert_eq!(rep_count(0.01, Some(20.0)), 5);
    }
}
