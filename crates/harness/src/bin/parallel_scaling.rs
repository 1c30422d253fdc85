//! Thread-scaling benchmark of the pooled (`parallel_bfs`) mode of the
//! breadth-first core.
//!
//! Usage: `cargo run --release -p mp-harness --bin parallel_scaling
//! [--smoke] [--acceptors N] [--json [PATH]] [--progress] [--trace PATH]`
//! (run with `--help` for the authoritative flag list — it is generated
//! from the same table the parser uses)
//!
//! Sweeps `parallel_bfs(N)` over 1/2/4/8 threads on the Paxos and echo
//! multicast quorum models (symmetry off and on), asserts that every
//! pooled run agrees with the sequential BFS reference, and always writes
//! `BENCH_parallel_scaling.json` — each row carries its `threads` column,
//! the wall-clock `speedup` vs the family's 1-thread run (which expands
//! every chunk on the calling thread, like the sequential strategy), and
//! the producing machine's `cores`. The committed baseline of that file is
//! what `bench_gate` guards: a 4-thread run whose speedup drops beyond
//! the tolerance relative to the baseline fails CI.
//!
//! `--smoke` shrinks the Paxos cell to 2 acceptors and tightens the
//! budget — the per-PR CI configuration.

use mp_harness::cli::{Cli, FlagSpec, PROGRESS_FLAG, TRACE_FLAG};
use mp_harness::parallel_scaling::{
    bench_cells, parallel_scaling_sweep, render_parallel_json, render_parallel_sweep, smoke_cells,
    THREAD_GRID,
};
use mp_harness::Budget;
use mp_protocols::paxos::PaxosSetting;

const FLAGS: &[FlagSpec] = &[
    FlagSpec::switch(
        "--smoke",
        "reduced cell sizes under tight limits (the per-PR CI smoke test)",
    ),
    FlagSpec::value(
        "--acceptors",
        "N",
        "acceptors of the Paxos scaling cell (default 3; ignored by --smoke)",
    ),
    FlagSpec::optional_value(
        "--json",
        "PATH",
        "destination of the sweep JSON (default BENCH_parallel_scaling.json)",
    ),
    PROGRESS_FLAG,
    TRACE_FLAG,
];

fn main() {
    let cli = Cli::parse(
        "parallel_scaling",
        "Thread-scaling benchmark of the parallel BFS worker pool.",
        FLAGS,
    );
    let smoke = cli.has("--smoke");
    let (paxos, multicast) = if smoke {
        smoke_cells()
    } else {
        let (paxos, multicast) = bench_cells();
        let acceptors = cli.usize_value("--acceptors", paxos.acceptors);
        (
            PaxosSetting::new(paxos.proposers, acceptors, paxos.learners),
            multicast,
        )
    };
    // This binary always writes its JSON; `--json [PATH]` only overrides
    // the destination (shared flag convention of the harness binaries).
    let json_path = cli
        .json_path("BENCH_parallel_scaling.json")
        .unwrap_or_else(|| "BENCH_parallel_scaling.json".to_string());
    let budget = if smoke {
        Budget::small()
    } else {
        Budget::default()
    }
    .with_trace(cli.tracer());

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("Thread scaling of the parallel BFS worker pool ({cores} core(s) available)");
    println!("(speedup is wall-clock vs each family's own 1-thread pooled run;");
    println!(" it is bounded by the machine's physical parallelism)");
    println!();
    let rows = parallel_scaling_sweep(&THREAD_GRID, paxos, multicast, &budget);
    print!("{}", render_parallel_sweep(&rows));
    println!();

    if rows.iter().any(|r| !r.agrees) {
        eprintln!("PARALLEL ENGINE DISAGREEMENT: a pooled run diverged from sequential BFS");
        std::process::exit(1);
    }
    println!("cross-engine agreement: OK (every pooled run matches sequential BFS)");

    std::fs::write(&json_path, render_parallel_json(&rows))
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("wrote {} rows to {json_path}", rows.len());
}
