//! The repo's one pinned benchmark. See `benchmark/README.md`.
//!
//! ```text
//! mp-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--out FILE] [--quick]
//! mp-benchmark compare A.json B.json [--force]
//! mp-benchmark derive-answers
//! mp-benchmark manifest
//! ```
//!
//! `run` re-executes this binary as `cell <name> <job>` for every
//! measurement; that subcommand is internal.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use mp_benchmark::jobs::Job;
use mp_benchmark::json::Json;
use mp_benchmark::runner::{self, Mode, Options, Runner};
use mp_benchmark::{answers, compare, metrics, workloads};

const USAGE: &str = "usage:
  mp-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--quick]
  mp-benchmark compare A.json B.json [--force]
  mp-benchmark derive-answers
  mp-benchmark manifest";

/// Command-line arguments, consumed flag by flag; whatever is left over at
/// the end is an error, so a mistyped flag never silently does nothing.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(at) => {
                self.0.remove(at);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn parsed<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read `{text}`")),
            None => Ok(None),
        }
    }

    fn positional(&mut self, what: &str) -> Result<String, String> {
        if self.0.is_empty() || self.0[0].starts_with("--") {
            return Err(format!("missing {what}"));
        }
        Ok(self.0.remove(0))
    }

    fn finish(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected arguments: {}", self.0.join(" ")))
        }
    }
}

fn main() -> ExitCode {
    // Before anything else: a `cell` child reports the time from here to
    // `Checker::run()` as its set-up.
    let started = Instant::now();
    let mut args = Args(std::env::args().skip(1).collect());
    let outcome = match args.positional("subcommand") {
        Ok(command) => match command.as_str() {
            "run" => run(args),
            "cell" => cell(args, started),
            "compare" => compare(args),
            "derive-answers" => derive_answers(args),
            "manifest" => args.finish().map(|()| {
                print!("{}", metrics::manifest().to_pretty());
                true
            }),
            other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
        },
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(mut args: Args) -> Result<bool, String> {
    let workload = args.value("--workload")?;
    let trace: Option<u8> = args.parsed("--trace")?;
    let quick = args.flag("--quick");
    let options = Options {
        workloads: match &workload {
            Some(name) => {
                // Checked before it is used to name files.
                if !metrics::valid_name(name) {
                    return Err(format!("`{name}` is not a valid workload name"));
                }
                let found = workloads::WORKLOADS.iter().find(|w| w.name == name);
                vec![found.ok_or_else(|| format!("no workload `{name}`"))?]
            }
            None => workloads::WORKLOADS.iter().collect(),
        },
        mode: match trace {
            None => Mode::Both,
            Some(0) => Mode::Untraced,
            Some(1) => Mode::Traced,
            Some(other) => return Err(format!("--trace is 0 or 1, not {other}")),
        },
        seed: args.parsed("--seed")?.unwrap_or(0),
        seconds: match args.parsed::<f64>("--seconds")? {
            Some(s) if !(s.is_finite() && s > 0.0) => {
                return Err("--seconds must be positive".into())
            }
            seconds => seconds,
        },
        quick,
        // Only a run of everything checks the oracle cells too.
        oracles: workload.is_none() && trace.is_none(),
        out: args.value("--out")?.map(PathBuf::from),
    };
    args.finish()?;
    runner::run(&options)
}

fn cell(mut args: Args, started: Instant) -> Result<bool, String> {
    let name = args.positional("cell name")?;
    let job = args.positional("job")?;
    let result = match job.as_str() {
        "check" => {
            let job = Job::Check {
                trace: args.value("--trace")?.map(PathBuf::from),
                plain: args.flag("--plain"),
            };
            args.finish()?;
            workloads::dispatch(&name, &job, started)?
        }
        "probe" => {
            let job = Job::Probe {
                workload: args.value("--workload")?.unwrap_or_else(|| name.clone()),
                seed: args.parsed("--seed")?.unwrap_or(0),
                sample: args.parsed("--sample")?.unwrap_or(20_000),
                spans: args
                    .value("--spans")?
                    .map(PathBuf::from)
                    .ok_or("probe needs --spans FILE")?,
            };
            args.finish()?;
            workloads::dispatch(&name, &job, started)?
        }
        "naive" => {
            let job = Job::Naive {
                max_states: args
                    .parsed("--max-states")?
                    .unwrap_or(answers::REFERENCE_LIMIT),
            };
            args.finish()?;
            workloads::dispatch(&name, &job, started)?
        }
        "setup" => {
            let job = Job::Setup {
                seconds: args.parsed("--seconds")?.ok_or("setup needs --seconds S")?,
            };
            args.finish()?;
            workloads::dispatch(&name, &job, started)?
        }
        other => return Err(format!("unknown job `{other}`")),
    };
    println!("{}", result.to_line());
    Ok(true)
}

fn compare(mut args: Args) -> Result<bool, String> {
    let force = args.flag("--force");
    let load = |path: String| -> Result<Json, String> {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let base = load(args.positional("base results file")?)?;
    let new = load(args.positional("new results file")?)?;
    args.finish()?;
    let comparison = compare::compare(&base, &new, force)?;
    print!("{}", comparison.table);
    Ok(!comparison.regressed)
}

fn derive_answers(args: Args) -> Result<bool, String> {
    args.finish()?;
    let answers = answers::derive(&Runner::new()?)?;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/answers.json");
    std::fs::write(path, answers.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path}; rebuild to compile it in");
    Ok(true)
}
