//! `mp-harness` — the one entry point of the evaluation reproduction.
//!
//! `mp-harness <subcommand> [flags]` runs one experiment; `mp-harness
//! --help` lists the subcommands and `mp-harness <subcommand> --help` the
//! flags of one, both generated from [`COMMANDS`]. An experiment's rows
//! print as text tables on stdout (`render_text`). `--json [PATH]`
//! additionally writes them (default `BENCH_<subcommand>.json`); without
//! it nothing is written, so no run from the repository root overwrites a
//! committed baseline. Every experiment then exits through [`gate`]: 1 if
//! any of its self-checks failed.

use std::io::Write;
use std::path::Path;
use std::time::Duration;

use mp_faults::FaultBudget;
use mp_harness::bench_gate::{compare, parse_rows, render_rows, Row};
use mp_harness::cli::{
    dispatch, Cli, Command, FlagSpec, PROGRAM, PROGRESS_FLAG, THREADS_FLAG, TRACE_FLAG,
};
use mp_harness::fault_sweep::{fault_sweep_grid, zero_budget_seed_checks, SWEEP_SPILL_WATERMARK};
use mp_harness::parallel_scaling::{bench_cells, parallel_scaling_sweep, smoke_cells, THREAD_GRID};
use mp_harness::scaling::{
    collect_sweep, paxos_frontier_sweep, paxos_sweep, paxos_symmetry_sweep, pooled_paxos_sweep,
    store_backend_sweep,
};
use mp_harness::trace_report::{
    check, diff_markdown, flame_text, load_runs, summary_markdown, timeline_markdown, Class,
};
use mp_harness::{
    debugging, fault_sweep, render_text, table1, table2, Budget, FrontierConfig, Outcome,
};
use mp_protocols::sweep::CollectSetting;

const FULL_FLAG: FlagSpec =
    FlagSpec::switch("--full", "paper-scale settings, per-cell budgets removed");

/// The text-table columns of a checker run's row.
const RUN_COLUMNS: &[&str] = &[
    "protocol",
    "property",
    "strategy",
    "states",
    "transitions",
    "time_ms",
    "verdict",
    "completed",
];

const fn json_flag(help: &'static str) -> FlagSpec {
    FlagSpec::optional_value("--json", "PATH", help)
}

/// Every subcommand: dispatch, the top-level usage and each `--help`.
const COMMANDS: &[Command] = &[
    Command {
        name: "table_i",
        summary: "Table I — quorum semantics results (DSN 2011).",
        flags: &[
            FULL_FLAG,
            json_flag("write the rows as a JSON array (default BENCH_table_i.json)"),
        ],
        positionals: None,
        run: table_i,
    },
    Command {
        name: "table_ii",
        summary: "Table II — transition refinement in action (DSN 2011).",
        flags: &[
            FULL_FLAG,
            json_flag("write the rows as a JSON array (default BENCH_table_ii.json)"),
        ],
        positionals: None,
        run: table_ii,
    },
    Command {
        name: "quorum_scaling",
        summary: "Section II-C: state-space inflation of single-message models.",
        flags: &[
            json_flag("write the Paxos sweeps as a JSON array (default BENCH_quorum_scaling.json)"),
            THREADS_FLAG,
            PROGRESS_FLAG,
            TRACE_FLAG,
        ],
        positionals: None,
        run: quorum_scaling,
    },
    Command {
        name: "debugging",
        summary: "Fast debugging: first counterexample in the faulty protocol variants.",
        flags: &[json_flag(
            "write the rows as a JSON array (default BENCH_debugging.json)",
        )],
        positionals: None,
        run: debugging,
    },
    Command {
        name: "fault_sweep",
        summary: "Budgeted generic fault injection swept over the evaluation protocols.",
        flags: &[
            FlagSpec::switch("--full", "paper-scale budgets (the sweep may take hours)"),
            FlagSpec::switch(
                "--smoke",
                "reduced budget matrix under tight limits (the per-PR CI smoke test)",
            ),
            FlagSpec::switch(
                "--spill",
                "force the disk-backed BFS frontier on for the safety cells",
            ),
            FlagSpec::number(
                "--spill-watermark",
                "BYTES",
                "disk-frontier spill watermark used with --spill (default 4096)",
            ),
            FlagSpec::value(
                "--checkpoint-dir",
                "DIR",
                "checkpoint every safety cell under DIR and resume from it if present",
            ),
            json_flag("write the sweep as a JSON array (default BENCH_fault_sweep.json)"),
            THREADS_FLAG,
            PROGRESS_FLAG,
            TRACE_FLAG,
        ],
        positionals: None,
        run: fault_sweep,
    },
    Command {
        name: "parallel_scaling",
        summary: "Thread-scaling benchmark of the parallel BFS worker pool.",
        flags: &[
            FlagSpec::switch(
                "--smoke",
                "reduced cell sizes under tight limits (the per-PR CI smoke test)",
            ),
            json_flag("write the sweep as a JSON array (default BENCH_parallel_scaling.json)"),
            PROGRESS_FLAG,
            TRACE_FLAG,
        ],
        positionals: None,
        run: parallel_scaling,
    },
    Command {
        name: "bench_gate",
        summary: "Bench-regression gate over committed BENCH_*.json baselines.",
        flags: &[],
        positionals: Some("<baseline.json> <fresh.json> [more pairs...]"),
        run: bench_gate,
    },
    Command {
        name: "trace_report",
        summary: "Markdown reports of --trace NDJSON streams, and their check.

reports:
  summary FILE...   per-run counters, phase shares, memory-gauge peaks
  diff A B          cross-run deltas (runs paired by protocol · strategy · property)
  timeline FILE...  per-level `level_summary` time-series tables
  flame FILE...     folded engine;phase stacks (speedscope/inferno input)
  check FILE...     schema and per-run event order, one line per file; exits with the
                    worst file's class: 0 clean, 1 invalid or unreadable, 2 truncated,
                    3 aborted (2 is also every usage error's exit code)",
        flags: &[],
        positionals: Some("<summary|diff|timeline|flame|check> <file.ndjson> [...]"),
        run: trace_report,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(COMMANDS, &args) {
        Ok((command, cli)) => (command.run)(&cli),
        Err((error, usage)) => error.exit(PROGRAM, &usage),
    }
}

/// Writes `rows` to the `--json [PATH]` destination when the flag is given.
fn write_json(cli: &Cli, default: &str, rows: &[Row]) {
    if let Some(path) = cli.json_path(default) {
        std::fs::write(&path, render_rows(rows))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {} rows to {path}", rows.len());
    }
}

/// The one exit of an experiment: prints `ok` when none of its self-checks
/// failed, otherwise every failure line on stderr and exits 1.
fn gate(ok: &str, failures: Vec<String>) {
    if failures.is_empty() {
        println!("{ok}");
        return;
    }
    for line in failures {
        eprintln!("{line}");
    }
    std::process::exit(1);
}

/// The shared body of `table_i` and `table_ii`: bounded by default,
/// paper-scale and unbudgeted with `--full`.
fn paper_table(cli: &Cli, title: &str, json: &str, table: fn(&Budget, bool) -> Outcome) {
    let full = cli.has(FULL_FLAG.name);
    let budget = if full {
        Budget::unbounded()
    } else {
        Budget::default()
    };
    eprintln!(
        "running {title} ({} mode); a row with completed = false hit the per-cell budget",
        if full { "full/paper-scale" } else { "bounded" }
    );
    let (rows, failures) = table(&budget, full);
    println!("{title}\n");
    print!("{}", render_text(RUN_COLUMNS, &rows));
    write_json(cli, json, &rows);
    gate(
        "expectations: OK (no verdict contradicts its row's expectation)",
        failures,
    );
}

fn table_i(cli: &Cli) {
    paper_table(
        cli,
        "Table I — quorum semantics results",
        "BENCH_table_i.json",
        table1::table_i,
    );
}

fn table_ii(cli: &Cli) {
    paper_table(
        cli,
        "Table II — transition refinement in action",
        "BENCH_table_ii.json",
        table2::table_ii,
    );
}

fn quorum_scaling(cli: &Cli) {
    const COLUMNS: &[&str] = &[
        "protocol",
        "strategy",
        "threads",
        "states",
        "transitions",
        "frontier_bytes",
        "time_ms",
        "verdict",
    ];
    let budget = Budget::default().with_trace(cli.tracer());

    println!("Section II-C: state-space inflation of single-message models\n");
    println!("Quorum-collection protocol (4 voters, 1 collector):");
    let inflation = ["quorum", "quorum_states", "single_states", "inflation"];
    print!(
        "{}",
        render_text(&inflation, &collect_sweep(4, 1, 5_000_000))
    );
    let mut sweeps = vec![
        (
            "Paxos with growing acceptor sets (1 proposer, 1 learner, SPOR):".to_string(),
            paxos_sweep(3, &budget),
        ),
        (
            "Symmetry (orbit) reduction on the quorum models — the validated\n\
             group is the acceptor+learner role symmetry, order acceptors!:"
                .to_string(),
            paxos_symmetry_sweep(5, &budget),
        ),
        (
            "Disk-backed BFS frontier (spill) on the quorum models — the\n\
             spilled run must reproduce the in-memory run exactly:"
                .to_string(),
            paxos_frontier_sweep(3, &budget),
        ),
    ];
    // With `--threads N`: the acceptor sweep again, on the worker pool.
    if cli.has(THREADS_FLAG.name) {
        let threads = cli.usize_value(THREADS_FLAG.name, 0);
        sweeps.push((
            format!("Paxos acceptor sweep on the parallel BFS worker pool ({threads} thread(s)):"),
            pooled_paxos_sweep(3, threads, &budget),
        ));
    }
    // One array: the plain sweep rows plus the symmetry, frontier and
    // (with `--threads`) worker-pool rows — distinct strategy labels keep
    // the bench-gate keys unique.
    let (mut json, mut failures) = (Vec::new(), Vec::new());
    for (caption, (rows, sweep_failures)) in sweeps {
        println!("\n{caption}");
        print!("{}", render_text(COLUMNS, &rows));
        json.extend(rows);
        failures.extend(sweep_failures);
    }
    println!("\nVisited-store backends on the single-message collect model (4 voters, quorum 2):");
    println!("(fingerprint verdicts are probabilistic; see the mp-store docs)");
    let (stores, store_failures) =
        store_backend_sweep(CollectSetting::new(4, 2, 1), false, &budget);
    let columns = [
        "backend",
        "states",
        "store_bytes",
        "verdict",
        "omission_probability",
    ];
    print!("{}", render_text(&columns, &stores));
    failures.extend(store_failures);
    write_json(cli, "BENCH_quorum_scaling.json", &json);
    gate(
        "agreement: OK (symmetry on/off, spilled vs in-memory frontier and every store \
         backend agree; every run verified)",
        failures,
    );
}

fn debugging(cli: &Cli) {
    let (rows, failures) = debugging::debugging_experiments(&Budget::default());
    println!("Debugging: first counterexample in faulty variants\n");
    print!("{}", render_text(RUN_COLUMNS, &rows));
    write_json(cli, "BENCH_debugging.json", &rows);
    gate(
        "expectations: OK (every faulty variant yields a counterexample)",
        failures,
    );
}

fn fault_sweep(cli: &Cli) {
    const COLUMNS: &[&str] = &[
        "protocol",
        "budget",
        "strategy",
        "backend",
        "states",
        "sym_states",
        "state_ratio",
        "store_bytes",
        "frontier_bytes",
        "sym_frontier_bytes",
        "time_ms",
        "verdict",
        "omission_probability",
        "liveness",
    ];
    let smoke = cli.has("--smoke");
    let spill = cli.has("--spill");
    let mut budget = if cli.has("--full") {
        Budget::unbounded()
    } else {
        let (max_states, secs) = if smoke { (100_000, 20) } else { (500_000, 60) };
        Budget {
            max_states,
            time_limit: Some(Duration::from_secs(secs)),
            ..Budget::default()
        }
    };
    if spill {
        let watermark = cli.usize_value("--spill-watermark", SWEEP_SPILL_WATERMARK);
        budget = budget.with_frontier(FrontierConfig::disk_with_watermark(watermark));
    }
    if let Some(dir) = cli.value("--checkpoint-dir") {
        budget = budget.with_checkpoint_dir(dir);
    }
    budget = budget.with_trace(cli.tracer());

    println!("Generic fault injection: budget sweep over the evaluation protocols");
    println!("(crash-stop / message loss / duplication / Byzantine corruption)");
    if spill {
        println!("(disk-backed BFS frontier forced on: safety cells spill at the sweep watermark)");
    }
    if let Some(dir) = &budget.checkpoint_dir {
        println!(
            "(checkpointing safety cells under {} at every level; \
             an existing manifest resumes the cell)",
            dir.display()
        );
    }
    println!();

    let (cells, mut failures) = if smoke {
        let none = FaultBudget::none();
        fault_sweep_grid(&budget, &[none, none.crashes(1), none.drops(1)], false)
    } else {
        fault_sweep::fault_sweep(&budget)
    };
    print!("{}", render_text(COLUMNS, &cells));
    let mut ok = "store backends, symmetry on/off, spilled vs in-memory frontier".to_string();
    // With `--threads N`, the pooled mode of the BFS core at N threads
    // against the sequential reference on the sweep's protocol cells.
    if cli.has(THREADS_FLAG.name) {
        let threads = cli.usize_value(THREADS_FLAG.name, 0);
        let (paxos, multicast) = smoke_cells();
        failures.extend(parallel_scaling_sweep(&[threads], paxos, multicast, &budget).1);
        ok += &format!(", worker pool at {threads} thread(s) vs sequential BFS");
    }

    println!("\nall-zero budget vs seed models:");
    let (seeds, seed_failures) = zero_budget_seed_checks(&budget);
    let columns = ["protocol", "strategy", "base_states", "faulted_states"];
    print!("{}", render_text(&columns, &seeds));
    failures.extend(seed_failures);
    write_json(cli, "BENCH_fault_sweep.json", &cells);
    gate(
        &format!("agreement: OK ({ok} and zero-budget vs seed models agree)"),
        failures,
    );
}

fn parallel_scaling(cli: &Cli) {
    let smoke = cli.has("--smoke");
    let (paxos, multicast) = if smoke { smoke_cells() } else { bench_cells() };
    let budget = if smoke {
        Budget::small()
    } else {
        Budget::default()
    }
    .with_trace(cli.tracer());

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("Thread scaling of the parallel BFS worker pool ({cores} core(s) available)");
    println!("(speedup is wall-clock vs each family's own 1-thread pooled run;");
    println!(" it is bounded by the machine's physical parallelism)\n");
    let (rows, failures) = parallel_scaling_sweep(&THREAD_GRID, paxos, multicast, &budget);
    let columns = [
        "protocol", "strategy", "threads", "states", "time_ms", "speedup", "verdict",
    ];
    print!("{}", render_text(&columns, &rows));
    write_json(cli, "BENCH_parallel_scaling.json", &rows);
    gate(
        "cross-engine agreement: OK (every pooled run matches sequential BFS)",
        failures,
    );
}

fn bench_gate(cli: &Cli) {
    let files = cli.positionals();
    if files.is_empty() || !files.len().is_multiple_of(2) {
        cli.usage_error("expects pairs of <baseline.json> <fresh.json>");
    }

    let read = |path: &str| -> Vec<Row> {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        parse_rows(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
    };
    let mut failed = false;
    for pair in files.chunks(2) {
        let (baseline_path, fresh_path) = (&pair[0], &pair[1]);
        let stem = Path::new(baseline_path).file_stem();
        let label = stem.and_then(|s| s.to_str()).unwrap_or(baseline_path);
        let baseline = read(baseline_path);
        let report = compare(label, &baseline, &read(fresh_path));
        for warning in &report.warnings {
            println!("::warning::{warning}");
        }
        for error in &report.errors {
            println!("::error::{error}");
        }
        let (errors, warnings) = (report.errors.len(), report.warnings.len());
        if report.passed() {
            println!(
                "{label}: OK ({} baseline rows gated, {warnings} warning(s))",
                baseline.len()
            );
        } else {
            println!("{label}: FAILED ({errors} error(s), {warnings} warning(s))");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Exits 2 on usage errors. `check` exits with the worst [`Class`] of its
/// files; the other reports exit 1 when a trace cannot be read or is
/// refused. `flame` emits collapsed-stack text, `check` one line per file,
/// the others markdown.
fn trace_report(cli: &Cli) {
    let Some((report, files)) = cli.positionals().split_first() else {
        cli.usage_error("missing report (summary, diff, timeline, flame or check)");
    };
    if files.is_empty() {
        cli.usage_error("missing trace file argument(s)");
    }
    if report == "check" {
        let mut worst = Class::Clean;
        let mut output = String::new();
        for path in files {
            let (class, line) = match std::fs::read_to_string(path) {
                Ok(contents) => check(path, &contents),
                Err(e) => (
                    Class::Invalid,
                    format!("{path}: INVALID — cannot read: {e}"),
                ),
            };
            worst = worst.max(class);
            output += &line;
            output.push('\n');
        }
        let _ = std::io::stdout().write_all(output.as_bytes());
        std::process::exit(worst.exit_code());
    }
    let each = |render: &dyn Fn(&str) -> Result<String, String>| {
        files
            .iter()
            .try_fold(String::new(), |out, path| Ok(out + &render(path)?))
    };
    let result = match report.as_str() {
        "summary" => each(&|path| Ok(summary_markdown(path, &load_runs(path)?))),
        "timeline" => each(&|path| Ok(timeline_markdown(path, &load_runs(path)?))),
        "flame" => each(&|path| Ok(flame_text(&load_runs(path)?))),
        "diff" => {
            let [a, b] = files else {
                cli.usage_error("diff takes exactly two trace files");
            };
            load_runs(a).and_then(|runs_a| Ok(diff_markdown(a, b, &runs_a, &load_runs(b)?)))
        }
        other => cli.usage_error(format!("unknown report `{other}`")),
    };
    match result {
        // A closed stdout (`... summary t.ndjson | head`) is a reader that
        // has seen enough, not an error.
        Ok(output) => {
            let _ = std::io::stdout().write_all(output.as_bytes());
        }
        Err(e) => {
            eprintln!("trace_report: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_harness::cli::CliError;

    #[test]
    fn every_subcommand_keeps_its_flags_and_has_generated_help() {
        let expected: &[(&str, &[&str])] = &[
            ("table_i", &["--full", "--json"]),
            ("table_ii", &["--full", "--json"]),
            (
                "quorum_scaling",
                &["--json", "--threads", "--progress", "--trace"],
            ),
            ("debugging", &["--json"]),
            (
                "fault_sweep",
                &[
                    "--full",
                    "--smoke",
                    "--spill",
                    "--spill-watermark",
                    "--checkpoint-dir",
                    "--json",
                    "--threads",
                    "--progress",
                    "--trace",
                ],
            ),
            (
                "parallel_scaling",
                &["--smoke", "--json", "--progress", "--trace"],
            ),
            ("bench_gate", &[]),
            ("trace_report", &[]),
        ];
        assert_eq!(COMMANDS.len(), expected.len());
        for (command, (name, flags)) in COMMANDS.iter().zip(expected) {
            assert_eq!(command.name, *name);
            let names: Vec<&str> = command.flags.iter().map(|f| f.name).collect();
            assert_eq!(&names, flags, "{name}");
            let help = [command.name.to_string(), "--help".to_string()];
            let Err((CliError::HelpRequested, usage)) = dispatch(COMMANDS, &help) else {
                panic!("{name} --help must print its usage");
            };
            assert!(usage.starts_with(&format!("usage: mp-harness {name}")));
            assert!(flags.iter().all(|f| usage.contains(f)), "{usage}");
            assert!(usage.contains(command.summary), "{usage}");
        }
        // The folded and the unknown are usage errors listing every name.
        let Err((CliError::Invalid(m), usage)) =
            dispatch(COMMANDS, &["seed_heuristics".to_string()])
        else {
            panic!("an unknown subcommand must be a usage error");
        };
        assert!(m.contains("seed_heuristics"), "{m}");
        assert!(COMMANDS.iter().all(|c| usage.contains(c.name)), "{usage}");
    }

    #[test]
    fn a_malformed_number_is_refused_whatever_else_is_given() {
        for args in [
            &["fault_sweep", "--spill-watermark", "x"][..],
            &[
                "fault_sweep",
                "--smoke",
                "--spill",
                "--spill-watermark",
                "x",
            ][..],
            &["fault_sweep", "--threads", "two"][..],
            &["quorum_scaling", "--threads", "two"][..],
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let Err((CliError::Invalid(m), usage)) = dispatch(COMMANDS, &args) else {
                panic!("{args:?} must be a usage error");
            };
            assert!(m.contains("expects a number"), "{m}");
            assert!(usage.starts_with(&format!("usage: mp-harness {}", args[0])));
        }
    }
}
