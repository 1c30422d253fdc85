//! Integration tests for checkpoint/resume on the breadth-first core
//! (`mp-store`'s `CheckpointConfig` driven through `CheckerConfig`), in its
//! sequential (`stateful_bfs`) and pooled (`parallel_bfs(2)`) mode:
//!
//! * a run killed mid-search (simulated by a tight state limit, which
//!   leaves the checkpoint directory exactly as a SIGKILL at that point
//!   would) and then re-run on the same directory produces the **same
//!   verdict and deterministic counters** as an uninterrupted run — across
//!   the in-memory and disk frontiers and symmetry on/off,
//! * a resumed violating run reports the byte-identical counterexample
//!   path (sequential) or one of the same, shortest length (pooled),
//! * the external-memory `runs` visited store checkpoints and resumes like
//!   the in-memory backends while spilling sorted runs to disk,
//! * resuming a *completed* run is a no-op that reproduces the final
//!   verdict and counters,
//! * a level file holds each entry as `encode((node, δ, state, observer))`,
//!   byte for byte,
//! * the checkpoint is the run's own files, written once: the frontier's
//!   spilled bytes are the level files plus `parents.log`, and a resume
//!   truncates `parents.log` and rewrites the partial level a kill left,
//!   and
//! * resume **refuses** manifests from a different configuration, a
//!   corrupted manifest, a tampered or overstated level file or parent
//!   log, and every other format version, the retired v1 and v2 included
//!   (the versioning policy of `docs/ON_DISK_FORMATS.md`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use mp_basset::checker::{
    Checker, CheckerConfig, CheckpointConfig, Manifest, NullObserver, RunReport, SearchStrategy,
    Verdict,
};
use mp_basset::faults::FaultBudget;
use mp_basset::model::{enabled_instances, encode_to_vec, execute_enabled};
use mp_basset::protocols::paxos::{
    self, consensus_property, faulty_consensus_property, faulty_quorum_model as faulty_paxos,
    quorum_model as paxos_quorum, PaxosSetting, PaxosVariant,
};
use mp_basset::store::{FrontierConfig, StoreConfig};

/// A fresh scratch directory per call; the checkpoint writer creates it.
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "mp-basset-ckpt-test-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ))
}

/// The two modes of the breadth-first core the kill/resume cases run in.
fn modes() -> [CheckerConfig; 2] {
    [
        CheckerConfig::stateful_bfs(),
        CheckerConfig::parallel_bfs(2),
    ]
}

/// Runs the Paxos crash-cell safety check under SPOR in `mode` with an
/// optional checkpoint directory, state limit, store and symmetry setting.
fn run_crash_cell(
    mode: &CheckerConfig,
    symmetry: bool,
    frontier: FrontierConfig,
    store: Option<StoreConfig>,
    checkpoint: Option<CheckpointConfig>,
    max_states: Option<usize>,
) -> RunReport {
    let setting = PaxosSetting::new(1, 2, 1);
    let roles = paxos::symmetry_roles(setting);
    let spec = faulty_paxos(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().crashes(1).drops(1),
    );
    let mut config = mode.clone().with_frontier(frontier);
    if let Some(store) = store {
        config = config.with_store(store);
    }
    if let Some(checkpoint) = checkpoint {
        config = config.with_checkpoint(checkpoint);
    }
    if let Some(max_states) = max_states {
        config.max_states = max_states;
    }
    let checker = Checker::new(&spec, faulty_consensus_property(setting))
        .spor()
        .config(config);
    let checker = if symmetry {
        checker.with_role_symmetry(&roles)
    } else {
        checker
    };
    checker.run()
}

// ---------------------------------------------------------------------------
// (a) Kill/resume equivalence across frontiers × symmetry.
// ---------------------------------------------------------------------------

#[test]
fn killed_and_resumed_run_matches_uninterrupted() {
    for (mode, symmetry) in modes().iter().flat_map(|m| [(m, false), (m, true)]) {
        for (fname, frontier) in [
            ("mem", FrontierConfig::Mem),
            ("disk", FrontierConfig::disk_with_watermark(512)),
        ] {
            let label = format!("{} sym={symmetry} frontier={fname}", mode.strategy);
            let uninterrupted = run_crash_cell(mode, symmetry, frontier, None, None, None);
            assert!(uninterrupted.verdict.is_verified(), "{label}");

            let dir = temp_dir("equiv");
            // A tight state limit stops the search mid-level, leaving the
            // directory exactly as a kill at that point would: the
            // manifest still names the last *committed* level.
            let interrupted = run_crash_cell(
                mode,
                symmetry,
                frontier,
                None,
                Some(CheckpointConfig::new(&dir)),
                Some(30),
            );
            assert!(
                matches!(interrupted.verdict, Verdict::LimitReached { .. }),
                "{label}: the tight limit must interrupt the run"
            );

            let resumed = run_crash_cell(
                mode,
                symmetry,
                frontier,
                None,
                Some(CheckpointConfig::new(&dir)),
                None,
            );
            assert_eq!(
                uninterrupted.verdict.to_string(),
                resumed.verdict.to_string(),
                "{label}: verdicts"
            );
            assert_eq!(
                uninterrupted.stats.counters(),
                resumed.stats.counters(),
                "{label}: deterministic counters"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ---------------------------------------------------------------------------
// (b) A resumed violating run finds the identical counterexample.
// ---------------------------------------------------------------------------

#[test]
fn resumed_run_reproduces_the_identical_counterexample() {
    // The paper's injected learner bug: the BFS finds the shortest
    // violating path, and the resumed run must reconstruct it from the
    // replayed parent log — the exact same path sequentially, one of the
    // same length on the pool (which path of a level wins is a race).
    let setting = PaxosSetting::new(2, 3, 1);
    let spec = paxos_quorum(setting, PaxosVariant::FaultyLearner);
    for mode in modes() {
        let run = |checkpoint: Option<CheckpointConfig>, max_states: Option<usize>| {
            let mut config = mode
                .clone()
                .with_frontier(FrontierConfig::disk_with_watermark(512));
            if let Some(checkpoint) = checkpoint {
                config = config.with_checkpoint(checkpoint);
            }
            if let Some(max_states) = max_states {
                config.max_states = max_states;
            }
            Checker::new(&spec, consensus_property(setting))
                .spor()
                .config(config)
                .run()
        };
        let uninterrupted = run(None, None);
        let full_cx = uninterrupted
            .verdict
            .counterexample()
            .expect("the injected bug must be found");

        let dir = temp_dir("cx");
        let interrupted = run(Some(CheckpointConfig::new(&dir)), Some(100));
        assert!(
            matches!(interrupted.verdict, Verdict::LimitReached { .. }),
            "the limit must fire before the violating depth"
        );
        let resumed = run(Some(CheckpointConfig::new(&dir)), None);
        let resumed_cx = resumed
            .verdict
            .counterexample()
            .expect("the resumed run must find the bug");
        assert_eq!(full_cx.len(), resumed_cx.len(), "{}", mode.strategy);
        assert!(!resumed_cx.is_empty(), "a real path, not just a state");
        if mode.strategy == SearchStrategy::StatefulBfs {
            assert_eq!(full_cx.steps, resumed_cx.steps, "counterexample paths");
            assert_eq!(
                uninterrupted.stats.counters(),
                resumed.stats.counters(),
                "deterministic counters"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// (c) The external-memory visited store rides the same contract.
// ---------------------------------------------------------------------------

#[test]
fn runs_store_checkpoints_and_resumes_with_spilled_runs() {
    let store = Some(StoreConfig::runs_with_watermark(64));
    let frontier = FrontierConfig::disk_with_watermark(512);
    for mode in &modes() {
        let uninterrupted = run_crash_cell(mode, false, frontier, store, None, None);
        assert!(uninterrupted.verdict.is_verified());
        assert!(
            uninterrupted.stats.store_spilled_bytes > 0,
            "the tiny watermark must spill sorted runs"
        );

        let dir = temp_dir("runs");
        let checkpoint = || Some(CheckpointConfig::new(&dir));
        let interrupted = run_crash_cell(mode, false, frontier, store, checkpoint(), Some(30));
        assert!(matches!(interrupted.verdict, Verdict::LimitReached { .. }));
        let resumed = run_crash_cell(mode, false, frontier, store, checkpoint(), None);
        assert_eq!(
            uninterrupted.verdict.to_string(),
            resumed.verdict.to_string()
        );
        assert_eq!(uninterrupted.stats.counters(), resumed.stats.counters());
        assert!(resumed.stats.store_spilled_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// (d) Resuming a completed run is a no-op with identical results.
// ---------------------------------------------------------------------------

/// The plain cell of (d) and (e): sequential, sym off, in-memory frontier.
fn run_plain_cell(dir: &PathBuf, max_states: Option<usize>) -> RunReport {
    run_crash_cell(
        &CheckerConfig::stateful_bfs(),
        false,
        FrontierConfig::Mem,
        None,
        Some(CheckpointConfig::new(dir)),
        max_states,
    )
}

#[test]
fn resuming_a_completed_run_reproduces_its_result() {
    let dir = temp_dir("done");
    let first = run_plain_cell(&dir, None);
    assert!(first.verdict.is_verified());
    let again = run_plain_cell(&dir, None);
    assert_eq!(first.verdict.to_string(), again.verdict.to_string());
    assert_eq!(first.stats.counters(), again.stats.counters());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn level_files_hold_each_entry_as_its_encoded_tuple() {
    // An unreduced sequential run: level 1 is the root's successors in
    // explore order, nodes 1, 2, …, and with symmetry off every δ is 0.
    // These are the bytes format v2 has always written, now the frontier
    // records themselves.
    // Two proposers: two root successors. The state limit stops the run
    // after level 1 was committed.
    let setting = PaxosSetting::new(2, 3, 1);
    let spec = paxos_quorum(setting, PaxosVariant::Correct);
    let dir = temp_dir("golden");
    let config = CheckerConfig::stateful_bfs()
        .with_checkpoint(CheckpointConfig::new(&dir))
        .with_max_states(30);
    Checker::new(&spec, consensus_property(setting))
        .config(config)
        .run();
    let manifest = Manifest::load(&dir).unwrap();
    assert!(manifest.level >= 1);
    let root = spec.initial_state();
    let level_1: Vec<Vec<u8>> = enabled_instances(&spec, &root)
        .iter()
        .enumerate()
        .map(|(i, instance)| {
            let state = execute_enabled(&spec, &root, instance);
            encode_to_vec(&(i + 1, 0usize, state, NullObserver))
        })
        .collect();
    assert!(level_1.len() > 1);
    assert_eq!(manifest.read_level(&dir, 1).unwrap(), level_1);
    assert_eq!(
        manifest.read_level(&dir, 0).unwrap(),
        [encode_to_vec(&(0usize, 0usize, root, NullObserver))]
    );
    assert_eq!(mp_basset::store::CHECKPOINT_VERSION, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// (e) Resume rejects anything it cannot prove equivalent.
// ---------------------------------------------------------------------------

/// Interrupts a plain crash-cell run into `dir`.
fn seed_checkpoint(dir: &PathBuf) {
    let interrupted = run_plain_cell(dir, Some(30));
    assert!(matches!(interrupted.verdict, Verdict::LimitReached { .. }));
}

#[test]
#[should_panic(expected = "refusing to resume")]
fn resume_under_a_different_configuration_is_refused() {
    let dir = temp_dir("mismatch");
    seed_checkpoint(&dir);
    // Same protocol, but symmetry on: a different search identity.
    run_crash_cell(
        &CheckerConfig::stateful_bfs(),
        true,
        FrontierConfig::Mem,
        None,
        Some(CheckpointConfig::new(&dir)),
        None,
    );
}

#[test]
#[should_panic(expected = "refusing to resume")]
fn resume_under_another_canonicalizer_is_refused() {
    let dir = temp_dir("canonicalizer");
    let mode = CheckerConfig::stateful_bfs();
    let ckpt = || Some(CheckpointConfig::new(&dir));
    let interrupted = run_crash_cell(&mode, true, FrontierConfig::Mem, None, ckpt(), Some(30));
    assert!(matches!(interrupted.verdict, Verdict::LimitReached { .. }));
    // A symmetric checkpoint names how its representatives were chosen...
    let manifest = dir.join("MANIFEST");
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(text.contains(" sym=sym(2)/sorted\n"), "{text}");
    // ...so one whose identity names another way stores other keys and is
    // refused: `/ord-min`, as builds that swept partial groups wrote it, or
    // none, as builds that stored the `Ord`-minimal image wrote it.
    let resume = |label| {
        std::fs::write(&manifest, text.replace(" sym=sym(2)/sorted", label)).unwrap();
        run_crash_cell(&mode, true, FrontierConfig::Mem, None, ckpt(), None)
    };
    let refused = std::panic::catch_unwind(|| resume(" sym=sym(2)/ord-min")).unwrap_err();
    let message = refused.downcast_ref::<String>().expect("a formatted panic");
    assert!(message.contains("refusing to resume"), "{message}");
    resume(" sym=sym(2)");
}

#[test]
#[should_panic(expected = "refusing to resume")]
fn resume_under_a_different_thread_count_is_refused() {
    let dir = temp_dir("threads");
    seed_checkpoint(&dir);
    // The strategy label, thread count included, is part of the identity.
    run_crash_cell(
        &CheckerConfig::parallel_bfs(1),
        false,
        FrontierConfig::Mem,
        None,
        Some(CheckpointConfig::new(&dir)),
        None,
    );
}

#[test]
#[should_panic(expected = "corrupt checkpoint")]
fn a_corrupted_manifest_is_refused() {
    let dir = temp_dir("corrupt-manifest");
    seed_checkpoint(&dir);
    let manifest = dir.join("MANIFEST");
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(
        &manifest,
        text.replace("spec_fingerprint", "spec_fingerprnt"),
    )
    .unwrap();
    run_plain_cell(&dir, None);
}

#[test]
#[should_panic(expected = "checkpoint")]
fn a_tampered_level_file_is_refused() {
    let dir = temp_dir("corrupt-level");
    seed_checkpoint(&dir);
    // Flip one byte of the root level; the per-file FNV in the manifest no
    // longer matches and the resume must refuse to rebuild from it.
    let level0 = dir.join("level_0.front");
    let mut bytes = std::fs::read(&level0).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&level0, bytes).unwrap();
    run_plain_cell(&dir, None);
}

/// Rewrites the manifest's record of `file` to `items bytes` and resumes.
fn resume_with_overstated(file: &str, items: usize, bytes: u64) {
    let dir = temp_dir("overstated");
    seed_checkpoint(&dir);
    let manifest = dir.join("MANIFEST");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let prefix = format!("file {file} ");
    let line = text.lines().find(|l| l.starts_with(&prefix)).unwrap();
    let fnv = line.rsplit(' ').next().unwrap();
    let overstated = format!("{prefix}{items} {bytes} {fnv}");
    std::fs::write(&manifest, text.replace(line, &overstated)).unwrap();
    run_plain_cell(&dir, None);
}

#[test]
#[should_panic(
    expected = "corrupt checkpoint: level_0.front: 34 bytes, shorter than the \
                           1099511627776 bytes the manifest records"
)]
fn an_overstated_level_file_is_refused_before_any_allocation() {
    // A terabyte recorded for the root level's 34 bytes is a named
    // refusal, not an allocation of a terabyte.
    resume_with_overstated("level_0.front", 1, 1 << 40);
}

#[test]
#[should_panic(expected = "corrupt checkpoint: parents.log: ")]
fn an_overstated_parent_log_is_refused_before_any_allocation() {
    resume_with_overstated("parents.log", 1 << 37, 1 << 40);
}

/// Rewrites the version in the header of `dir`'s manifest and resumes.
fn resume_under_manifest_version(tag: &str, version: u32) {
    let dir = temp_dir(tag);
    seed_checkpoint(&dir);
    let manifest = dir.join("MANIFEST");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let header = format!(
        "mp-basset-checkpoint v{}",
        mp_basset::store::CHECKPOINT_VERSION
    );
    assert!(text.starts_with(&header), "{text}");
    std::fs::write(
        &manifest,
        text.replace(&header, &format!("mp-basset-checkpoint v{version}")),
    )
    .unwrap();
    run_plain_cell(&dir, None);
}

#[test]
#[should_panic(expected = "checkpoint mismatch: manifest version 4, this build reads 3")]
fn a_future_manifest_version_is_refused() {
    resume_under_manifest_version("version", 4);
}

#[test]
#[should_panic(expected = "checkpoint mismatch: manifest version 2, this build reads 3")]
fn a_version_2_manifest_is_refused() {
    // v2 `parents.log` framed each 8-byte record with `varint(len)`; v3
    // records are unframed, so the directory is refused whole.
    resume_under_manifest_version("version-2", 2);
}

#[test]
#[should_panic(expected = "checkpoint mismatch: manifest version 1, this build reads 3")]
fn a_version_1_manifest_is_refused() {
    // v1 `parents.log` records held codec-encoded transition instances;
    // they are not parent-log records, so the directory is refused whole.
    resume_under_manifest_version("version-1", 1);
}

// ---------------------------------------------------------------------------
// (f) The checkpoint is the run's own files, written once.
// ---------------------------------------------------------------------------

/// Data bytes of the checkpoint in `dir`: its level files and `parents.log`.
fn data_bytes(dir: &PathBuf) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.file_name() != "MANIFEST")
        .map(|entry| entry.metadata().unwrap().len())
        .sum()
}

#[test]
fn a_checkpointed_spill_writes_each_byte_once() {
    for mode in &modes() {
        let dir = temp_dir("once");
        let frontier = FrontierConfig::disk_with_watermark(64);
        let checkpoint = Some(CheckpointConfig::new(&dir));
        let report = run_crash_cell(mode, false, frontier, None, checkpoint, None);
        assert!(report.verdict.is_verified());
        let spilled = report.stats.frontier_spilled_bytes as u64;
        assert_eq!(spilled, data_bytes(&dir), "{}", mode.strategy);
        let uncheckpointed = run_crash_cell(mode, false, frontier, None, None, None);
        assert!(uncheckpointed.stats.frontier_spilled_bytes > 0);
        assert!(uncheckpointed.stats.frontier_spilled_bytes as u64 <= spilled);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_truncates_the_parent_log_and_rewrites_the_partial_level() {
    let frontier = FrontierConfig::disk_with_watermark(64);
    let mode = CheckerConfig::stateful_bfs();
    let whole = temp_dir("whole");
    let checkpoint = |dir: &PathBuf| Some(CheckpointConfig::new(dir));
    run_crash_cell(&mode, false, frontier, None, checkpoint(&whole), None);

    // The state limit stops the run inside a level: its file and
    // `parents.log` hold records no manifest names.
    let killed = temp_dir("killed");
    let interrupted = run_crash_cell(&mode, false, frontier, None, checkpoint(&killed), Some(30));
    assert!(matches!(interrupted.verdict, Verdict::LimitReached { .. }));
    let manifest = Manifest::load(&killed).unwrap();
    let partial = killed.join(format!("level_{}.front", manifest.level + 1));
    assert!(partial.exists(), "the watermark spilled the partial level");
    let parents = manifest.file("parents.log").unwrap().bytes;
    let on_disk = |name: &str| std::fs::metadata(killed.join(name)).unwrap().len();
    assert!(
        on_disk("parents.log") > parents,
        "uncommitted parent records"
    );

    let resumed = run_crash_cell(&mode, false, frontier, None, checkpoint(&killed), None);
    assert!(resumed.verdict.is_verified());
    // Every file of the resumed checkpoint is the uninterrupted run's.
    let names = |dir: &PathBuf| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    assert_eq!(names(&whole), names(&killed));
    for name in names(&whole) {
        let read = |dir: &PathBuf| std::fs::read(dir.join(&name)).unwrap();
        assert!(read(&whole) == read(&killed), "{name:?} differs");
    }
    let _ = std::fs::remove_dir_all(&whole);
    let _ = std::fs::remove_dir_all(&killed);
}
