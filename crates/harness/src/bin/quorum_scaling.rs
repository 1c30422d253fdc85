//! Reproduces the Section II-C analysis: how much larger single-message
//! models are than quorum models, as a function of the quorum size.
//!
//! Usage: `cargo run --release -p mp-harness --bin quorum_scaling
//! [--voters N] [--json [PATH]] [--threads N] [--progress]
//! [--trace PATH]` (run with `--help` for the authoritative flag list —
//! it is generated from the same table the parser uses)
//!
//! With `--json`, the Paxos acceptor sweep is additionally written as a
//! JSON array (default path `BENCH_quorum_scaling.json`) so the bench
//! trajectory is machine-readable. With `--threads N`, the acceptor
//! sweep is additionally run on the parallel BFS engine's worker pool at
//! N threads (strategy `parallel-bfs(N)+SPOR`, `threads` column set) and
//! those rows join the JSON.

use mp_checker::NullObserver;
use mp_harness::cli::{Cli, FlagSpec, PROGRESS_FLAG, THREADS_FLAG, TRACE_FLAG};
use mp_harness::runner::run_cell;
use mp_harness::scaling::{
    collect_sweep, paxos_frontier_sweep, paxos_sweep, paxos_symmetry_sweep, render_frontier_sweep,
    render_store_sweep, render_sweep, render_symmetry_sweep, store_backend_sweep,
};
use mp_harness::{render_table, write_json_rows, Budget, CellStrategy};
use mp_protocols::paxos::{consensus_property, quorum_model, PaxosSetting, PaxosVariant};
use mp_protocols::sweep::CollectSetting;

const FLAGS: &[FlagSpec] = &[
    FlagSpec::value(
        "--voters",
        "N",
        "voters of the quorum-collection sweep (default 4)",
    ),
    FlagSpec::optional_value(
        "--json",
        "PATH",
        "write the Paxos sweeps as a JSON array (default BENCH_quorum_scaling.json)",
    ),
    THREADS_FLAG,
    PROGRESS_FLAG,
    TRACE_FLAG,
];

fn main() {
    let cli = Cli::parse(
        "quorum_scaling",
        "Section II-C: state-space inflation of single-message models.",
        FLAGS,
    );
    let voters = cli.usize_value("--voters", 4);
    let json_path = cli.json_path("BENCH_quorum_scaling.json");
    let budget = Budget::default().with_trace(cli.tracer());

    println!("Section II-C: state-space inflation of single-message models");
    println!();
    println!("Quorum-collection protocol ({voters} voters, 1 collector):");
    let points = collect_sweep(voters, 1, 5_000_000);
    print!("{}", render_sweep(&points));
    println!();
    println!("Paxos with growing acceptor sets (1 proposer, 1 learner, SPOR):");
    let mut rows = paxos_sweep(3, &budget);
    print!("{}", render_table("Paxos acceptor sweep", &rows));
    println!();
    println!("Symmetry (orbit) reduction on the quorum models — the validated");
    println!("group is the acceptor+learner role symmetry, order acceptors!:");
    let (points, sym_rows) = paxos_symmetry_sweep(3, &budget);
    print!("{}", render_symmetry_sweep(&points));
    if points.iter().any(|p| !p.verdicts_agree) {
        eprintln!("SYMMETRY DISAGREEMENT in the acceptor sweep");
        std::process::exit(1);
    }
    println!();
    println!("Disk-backed BFS frontier (spill) on the quorum models — the");
    println!("spilled run must reproduce the in-memory run exactly:");
    let (frontier_points, frontier_rows) = paxos_frontier_sweep(3, &budget);
    print!("{}", render_frontier_sweep(&frontier_points));
    if frontier_points.iter().any(|p| !p.agrees) {
        eprintln!("FRONTIER SPILL DISAGREEMENT in the acceptor sweep");
        std::process::exit(1);
    }
    println!();
    // With `--threads N`: the acceptor sweep again, on the worker pool.
    // The pooled rows carry a `threads` JSON field and a strategy label
    // of their own, so they join the bench file without perturbing the
    // sequential rows' keys.
    let mut pooled_rows = Vec::new();
    if cli.has(THREADS_FLAG.name) {
        let threads = cli.usize_value(THREADS_FLAG.name, 0);
        println!("Paxos acceptor sweep on the parallel BFS worker pool ({threads} thread(s)):");
        for acceptors in 1..=3 {
            let setting = PaxosSetting::new(1, acceptors, 1);
            pooled_rows.push(run_cell(
                &format!("Paxos {setting} quorum"),
                "Consensus",
                false,
                &quorum_model(setting, PaxosVariant::Correct),
                consensus_property(setting),
                NullObserver,
                CellStrategy::ParallelBfs { threads },
                &budget,
            ));
        }
        print!("{}", render_table("Parallel acceptor sweep", &pooled_rows));
        println!();
    }
    if let Some(path) = &json_path {
        // One array: the plain sweep rows plus the symmetry, frontier and
        // (with `--threads`) worker-pool rows — distinct strategy labels
        // keep the bench-gate keys unique.
        rows.extend(sym_rows);
        rows.extend(frontier_rows);
        rows.extend(pooled_rows);
        write_json_rows(path, &rows);
        println!();
    }
    println!(
        "Visited-store backends on the single-message collect model ({voters} voters, quorum 2):"
    );
    println!("(fingerprint verdicts are probabilistic; see the mp-store docs)");
    let points = store_backend_sweep(
        CollectSetting::new(voters, 2.min(voters), 1),
        false,
        &budget,
    );
    print!("{}", render_store_sweep(&points));
}
