//! Sweeps fault budgets over the evaluation protocols with the generic
//! fault-injection layer (`mp-faults`), checks that every store backend
//! agrees on every cell and that the all-zero budget reproduces the seed
//! models exactly, and writes the machine-readable results to
//! `BENCH_fault_sweep.json`.
//!
//! Usage: `cargo run --release -p mp-harness --bin fault_sweep
//! [--full | --smoke] [--spill] [--spill-watermark BYTES]
//! [--checkpoint-dir DIR] [--checkpoint-every K] [--json [PATH]]
//! [--threads N] [--progress] [--trace PATH]` (run with
//! `--help` for the authoritative flag list — it is generated from the
//! same table the parser uses)
//!
//! `--threads N` adds a pooled-mode agreement probe: the sweep's protocol
//! cells are re-checked with `parallel_bfs(N)` — under the sweep's own
//! frontier, so with `--spill` on the disk frontier — and must reproduce
//! the sequential BFS verdicts and counters exactly (exit non-zero
//! otherwise, like the other agreement gates).
//!
//! `--smoke` runs a reduced budget matrix (no faults, one crash, one drop)
//! under tight per-cell limits — the per-PR CI smoke test that uploads
//! `BENCH_fault_sweep.json` as a workflow artifact so verdict (safety *and*
//! liveness) and perf regressions are visible per change.
//!
//! `--spill` forces the disk-backed BFS frontier on: the safety cells run
//! on the breadth-first engine with the frontier spilling at the sweep
//! watermark (override with `--spill-watermark BYTES`), so every internal
//! consistency gate (backend, symmetry, zero-budget-seed and spill
//! agreement) is exercised with encoded states round-tripping through disk
//! segments. CI smokes this combination.
//!
//! `--checkpoint-dir DIR` checkpoints every safety cell into its own
//! subdirectory of DIR at each completed BFS level (cadence:
//! `--checkpoint-every K`, default 1) and switches the safety cells onto
//! the breadth-first engine. Re-running the same command after a kill
//! resumes every cell at its last committed level and produces identical
//! verdicts, counters and JSON rows; see `docs/OPERATIONS.md`.

use std::time::Duration;

use mp_faults::FaultBudget;
use mp_harness::cli::{Cli, FlagSpec, PROGRESS_FLAG, THREADS_FLAG, TRACE_FLAG};
use mp_harness::fault_sweep::SWEEP_SPILL_WATERMARK;
use mp_harness::fault_sweep::{
    backend_disagreements, fault_sweep, fault_sweep_grid, fault_sweep_json, frontier_disagreements,
    render_fault_sweep, symmetry_disagreements, zero_budget_seed_checks,
};
use mp_harness::Budget;

const FLAGS: &[FlagSpec] = &[
    FlagSpec::switch("--full", "paper-scale budgets (the sweep may take hours)"),
    FlagSpec::switch(
        "--smoke",
        "reduced budget matrix under tight limits (the per-PR CI smoke test)",
    ),
    FlagSpec::switch(
        "--spill",
        "force the disk-backed BFS frontier on for the safety cells",
    ),
    FlagSpec::value(
        "--spill-watermark",
        "BYTES",
        "disk-frontier spill watermark used with --spill (default 4096)",
    ),
    FlagSpec::value(
        "--checkpoint-dir",
        "DIR",
        "checkpoint every safety cell under DIR and resume from it if present",
    ),
    FlagSpec::value(
        "--checkpoint-every",
        "K",
        "commit a checkpoint every K completed BFS levels (default 1)",
    ),
    FlagSpec::optional_value(
        "--json",
        "PATH",
        "destination of the sweep JSON (default BENCH_fault_sweep.json)",
    ),
    THREADS_FLAG,
    PROGRESS_FLAG,
    TRACE_FLAG,
];

fn main() {
    let cli = Cli::parse(
        "fault_sweep",
        "Budgeted generic fault injection swept over the evaluation protocols.",
        FLAGS,
    );
    let full = cli.has("--full");
    let smoke = cli.has("--smoke");
    let spill = cli.has("--spill");
    // This binary always writes its JSON; `--json [PATH]` only overrides
    // the destination (shared flag convention of the harness binaries).
    let json_path = cli
        .json_path("BENCH_fault_sweep.json")
        .unwrap_or_else(|| "BENCH_fault_sweep.json".to_string());

    let mut run_budget = if full {
        Budget::unbounded()
    } else if smoke {
        Budget {
            max_states: 100_000,
            time_limit: Some(Duration::from_secs(20)),
            ..Budget::default()
        }
    } else {
        Budget {
            max_states: 500_000,
            time_limit: Some(Duration::from_secs(60)),
            ..Budget::default()
        }
    };
    if spill {
        let watermark = cli.usize_value("--spill-watermark", SWEEP_SPILL_WATERMARK);
        run_budget =
            run_budget.with_frontier(mp_harness::FrontierConfig::disk_with_watermark(watermark));
    }
    if let Some(dir) = cli.value("--checkpoint-dir") {
        run_budget = run_budget
            .with_checkpoint_dir(dir)
            .with_checkpoint_every(cli.usize_value("--checkpoint-every", 1));
    }
    run_budget = run_budget.with_trace(cli.tracer());

    println!("Generic fault injection: budget sweep over the evaluation protocols");
    println!("(crash-stop / message loss / duplication / Byzantine corruption)");
    if spill {
        println!("(disk-backed BFS frontier forced on: safety cells spill at the sweep watermark)");
    }
    if let Some(dir) = &run_budget.checkpoint_dir {
        println!(
            "(checkpointing safety cells under {} every {} level(s); \
             an existing manifest resumes the cell)",
            dir.display(),
            run_budget.checkpoint_every
        );
    }
    println!();

    let cells = if smoke {
        let budgets = vec![
            FaultBudget::none(),
            FaultBudget::none().crashes(1),
            FaultBudget::none().drops(1),
        ];
        fault_sweep_grid(&run_budget, &budgets, false)
    } else {
        fault_sweep(&run_budget)
    };
    print!("{}", render_fault_sweep(&cells));
    println!();

    let disagreements = backend_disagreements(&cells);
    if disagreements.is_empty() {
        println!("store-backend agreement: OK (every backend reports the same verdict per cell)");
    } else {
        for cell in &disagreements {
            eprintln!(
                "BACKEND DISAGREEMENT: {} / {} / {} / {}: {}",
                cell.protocol, cell.budget, cell.strategy, cell.backend, cell.verdict
            );
        }
        std::process::exit(1);
    }

    // Same exit-nonzero convention for the symmetry reduction: the orbit
    // sweep must agree with the plain sweep on every safety and liveness
    // verdict and may never explore more states.
    let sym_disagreements = symmetry_disagreements(&cells);
    if sym_disagreements.is_empty() {
        println!(
            "symmetry agreement: OK (orbit reduction preserves every safety/liveness verdict)"
        );
    } else {
        for cell in &sym_disagreements {
            eprintln!(
                "SYMMETRY DISAGREEMENT: {} / {} / {} / {}: safety {} vs {}, liveness {} vs {}, \
                 states {} vs {}",
                cell.protocol,
                cell.budget,
                cell.strategy,
                cell.backend,
                cell.verdict,
                cell.sym_verdict,
                cell.liveness,
                cell.sym_liveness,
                cell.states,
                cell.sym_states
            );
        }
        std::process::exit(1);
    }

    // And for the disk-backed frontier: the spilled BFS probe of every
    // cell must reproduce the in-memory frontier exactly.
    let spill_disagreements = frontier_disagreements(&cells);
    if spill_disagreements.is_empty() {
        println!("frontier-spill agreement: OK (disk and in-memory frontiers explore identically)");
    } else {
        for cell in &spill_disagreements {
            eprintln!(
                "FRONTIER SPILL DISAGREEMENT: {} / {} / {}",
                cell.protocol, cell.budget, cell.strategy
            );
        }
        std::process::exit(1);
    }

    // With `--threads N`, additionally probe the pooled mode of the BFS
    // core at N threads against the sequential reference on the sweep's
    // protocol cells — same exit-nonzero convention as the other
    // agreement gates.
    if cli.has(THREADS_FLAG.name) {
        let threads = cli.usize_value(THREADS_FLAG.name, 0);
        let pool_disagreements =
            mp_harness::parallel_scaling::parallel_agreement_probe(threads, &run_budget);
        if pool_disagreements.is_empty() {
            println!(
                "parallel-engine agreement: OK (worker pool at {threads} thread(s) matches \
                 sequential BFS)"
            );
        } else {
            for line in &pool_disagreements {
                eprintln!("PARALLEL ENGINE DISAGREEMENT: {line}");
            }
            std::process::exit(1);
        }
    }

    println!("\nall-zero budget vs seed models:");
    let mut seed_ok = true;
    for check in zero_budget_seed_checks(&run_budget) {
        println!(
            "  {:<28} [{:<9}] base {:>7} states, zero-budget {:>7} states  {}",
            check.protocol,
            check.strategy,
            check.base_states,
            check.faulted_states,
            if check.matches() { "==" } else { "MISMATCH" }
        );
        seed_ok &= check.matches();
    }
    if !seed_ok {
        eprintln!("zero-budget injection failed to reproduce the seed state counts");
        std::process::exit(1);
    }

    std::fs::write(&json_path, fault_sweep_json(&cells))
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("\nwrote {} cells to {json_path}", cells.len());
}
