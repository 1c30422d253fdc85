//! Checkpoint/resume: a BFS run's own files, named by a versioned
//! manifest.
//!
//! A breadth-first run has a natural quiescent point — the level boundary —
//! at which its whole exploration state is already on disk in its run
//! directory: the level files its [`Frontier`](crate::Frontier) writes and
//! the [`ParentLog`](crate::ParentLog)'s `parents.log` (the visited set is
//! rebuilt from the level files, so it needs no file of its own). With a
//! checkpoint, the run directory is the checkpoint directory, and at each
//! boundary the engine seals the completed level and the parent log and
//! atomically publishes a [`Manifest`] naming what is valid:
//!
//! * `level_<k>.front` — one file per BFS level, holding the level's
//!   frontier records `varint(len) payload` (the payload bytes are the
//!   engine's own entry encoding; this crate never interprets them);
//! * `parents.log` — the parent log's fixed-width 8-byte records, unframed,
//!   in push order;
//! * `MANIFEST` — a line-oriented text file carrying the format version,
//!   the protocol's structure fingerprint, the engine/config identity
//!   strings, the last completed level, the engine's counters, and a
//!   `(items, bytes, FNV-64)` record per data file. It is written to a
//!   temporary file, fsynced and renamed after the data files are fsynced,
//!   so a crash never leaves a half-written manifest — resume either sees
//!   the previous complete checkpoint or this one.
//!
//! On resume, [`Manifest::load`] + [`Manifest::validate`] refuse manifests
//! of a different format version, protocol, engine or configuration;
//! [`Frontier::resume`](crate::Frontier::resume) streams each committed
//! level file once, checking its length first and its checksum as it goes,
//! and [`ParentLog::in_checkpoint`](crate::ParentLog::in_checkpoint)
//! verifies and truncates `parents.log` to its committed prefix.
//! `docs/ON_DISK_FORMATS.md` in the repository specifies every byte of the
//! formats and the versioning policy.
//!
//! ```
//! use mp_store::{manifest_exists, FrontierConfig, Manifest, ParentLog, PlainCodec};
//!
//! let dir = std::env::temp_dir().join(format!("ckpt-doc-{}", std::process::id()));
//! let mut frontier = FrontierConfig::Mem.build::<(), _>(PlainCodec);
//! frontier.keep_levels_in(&dir);
//! let trace = mp_trace::TraceHandle::disabled();
//! let mut parents = ParentLog::in_checkpoint(&dir, None, usize::MAX, trace).unwrap();
//!
//! // Level 0 is the root; every level commits before the next begins.
//! frontier.push_record(b"root-entry");
//! parents.push(None).unwrap();
//! let mut manifest = Manifest::new(42, "stateful-bfs", "store=exact");
//! let (level, log) = (frontier.seal_level(), parents.commit());
//! manifest.commit(&dir, level, log, &[("states", 1)]).unwrap();
//!
//! assert!(manifest_exists(&dir));
//! let manifest = Manifest::load(&dir).unwrap();
//! assert!(manifest.validate(42, "stateful-bfs", "store=exact").is_ok());
//! assert!(manifest.validate(43, "stateful-bfs", "store=exact").is_err());
//! assert_eq!(manifest.level, 0);
//! assert_eq!(manifest.counter("states"), 1);
//! assert_eq!(manifest.read_level(&dir, 0).unwrap(), vec![b"root-entry".to_vec()]);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::files::{RunDir, SpillFile};
use crate::frontier::scan_level;

/// The manifest format version this build writes and accepts. Bump it on
/// any incompatible change to the manifest or data-file layouts; resume
/// refuses other versions (see `docs/ON_DISK_FORMATS.md` for the policy).
pub const CHECKPOINT_VERSION: u32 = 3;

const MANIFEST_NAME: &str = "MANIFEST";
pub(crate) const PARENTS_NAME: &str = "parents.log";

pub(crate) fn level_name(level: usize) -> String {
    format!("level_{level}.front")
}

/// Where a run checkpoints: every completed BFS level commits. Carried by
/// `CheckerConfig` in `mp-checker`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// The checkpoint directory (created if missing). One directory holds
    /// exactly one run's checkpoint.
    pub dir: PathBuf,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` at every level boundary.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig { dir: dir.into() }
    }
}

/// Why a checkpoint could not be written, loaded or trusted.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem failed.
    Io(io::Error),
    /// A manifest or data file exists but does not parse or does not match
    /// its recorded length/checksum.
    Corrupt(String),
    /// The manifest is well-formed but belongs to a different format
    /// version, protocol, engine or configuration.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The manifest's record of one data file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMeta {
    /// File name within the checkpoint directory.
    pub name: String,
    /// Number of records in the valid prefix.
    pub items: usize,
    /// Byte length of the valid prefix.
    pub bytes: u64,
    /// FNV-64 checksum of the valid prefix.
    pub fnv: u64,
}

impl FileMeta {
    /// Checks the record against `file` before anything is read or
    /// allocated: the file holds at least the recorded bytes.
    pub(crate) fn check_len(&self, file: &SpillFile) -> Result<(), CheckpointError> {
        let (name, bytes, len) = (&self.name, self.bytes, file.len());
        if len >= bytes {
            return Ok(());
        }
        Err(CheckpointError::Corrupt(format!(
            "{name}: {len} bytes, shorter than the {bytes} bytes the manifest records"
        )))
    }

    /// Checks what a read of the prefix found against the record.
    pub(crate) fn check(&self, items: usize, fnv: u64) -> Result<(), CheckpointError> {
        if (items, fnv) == (self.items, self.fnv) {
            return Ok(());
        }
        Err(CheckpointError::Corrupt(format!(
            "{}: {items} records, checksum {fnv:016x}; the manifest records {}, {:016x}",
            self.name, self.items, self.fnv
        )))
    }
}

/// A parsed checkpoint manifest. See the module docs for the file layout
/// and [`Manifest::load`] / [`Manifest::validate`] for the resume contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// The protocol's structure fingerprint
    /// (`mp_model::ProtocolSpec::structure_fingerprint`).
    pub spec_fingerprint: u64,
    /// The engine identity string (the strategy label).
    pub engine: String,
    /// The configuration identity string the engine chose to pin.
    pub config: String,
    /// Last completed BFS level; `level_<k>.front` holds its frontier.
    pub level: usize,
    /// Engine counters at the commit point, in emission order.
    pub counters: Vec<(String, u64)>,
    /// Per-file validity records: `level_0.front ..= level_<k>.front`,
    /// then `parents.log`.
    pub files: Vec<FileMeta>,
}

/// Returns `true` if `dir` holds a committed checkpoint manifest — the
/// engines' cue to resume instead of starting fresh.
pub fn manifest_exists(dir: &Path) -> bool {
    dir.join(MANIFEST_NAME).is_file()
}

impl Manifest {
    /// The manifest of a fresh run, before its first commit.
    pub fn new(spec_fingerprint: u64, engine: &str, config: &str) -> Manifest {
        Manifest {
            spec_fingerprint,
            engine: engine.to_string(),
            config: config.to_string(),
            level: 0,
            counters: Vec::new(),
            files: Vec::new(),
        }
    }

    /// Loads and parses `dir/MANIFEST`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read,
    /// [`CheckpointError::Mismatch`] on a different format version, and
    /// [`CheckpointError::Corrupt`] on any syntax violation.
    pub fn load(dir: &Path) -> Result<Manifest, CheckpointError> {
        let text = std::fs::read_to_string(dir.join(MANIFEST_NAME))?;
        let corrupt = |msg: String| CheckpointError::Corrupt(msg);
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| corrupt("empty manifest".to_string()))?;
        match header.strip_prefix("mp-basset-checkpoint v") {
            Some(v) => {
                let version: u32 = v
                    .parse()
                    .map_err(|_| corrupt(format!("bad version {v:?}")))?;
                if version != CHECKPOINT_VERSION {
                    return Err(CheckpointError::Mismatch(format!(
                        "manifest version {version}, this build reads {CHECKPOINT_VERSION}"
                    )));
                }
            }
            None => return Err(corrupt(format!("bad header {header:?}"))),
        }
        let mut spec_fingerprint = None;
        let mut engine = None;
        let mut config = None;
        let mut level = None;
        let mut counters = Vec::new();
        let mut files = Vec::new();
        let mut ended = false;
        for line in lines {
            if ended {
                return Err(corrupt(format!("data after end: {line:?}")));
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "spec_fingerprint" => {
                    spec_fingerprint = Some(
                        rest.parse::<u64>()
                            .map_err(|_| corrupt(format!("bad spec_fingerprint {rest:?}")))?,
                    );
                }
                "engine" => engine = Some(rest.to_string()),
                "config" => config = Some(rest.to_string()),
                "level" => {
                    level = Some(
                        rest.parse::<usize>()
                            .map_err(|_| corrupt(format!("bad level {rest:?}")))?,
                    );
                }
                "counter" => {
                    let (name, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| corrupt(format!("bad counter line {rest:?}")))?;
                    let value = value
                        .parse::<u64>()
                        .map_err(|_| corrupt(format!("bad counter value {value:?}")))?;
                    counters.push((name.to_string(), value));
                }
                "file" => {
                    let fields: Vec<&str> = rest.split(' ').collect();
                    if fields.len() != 4 {
                        return Err(corrupt(format!("bad file line {rest:?}")));
                    }
                    files.push(FileMeta {
                        name: fields[0].to_string(),
                        items: fields[1]
                            .parse()
                            .map_err(|_| corrupt(format!("bad file items {rest:?}")))?,
                        bytes: fields[2]
                            .parse()
                            .map_err(|_| corrupt(format!("bad file bytes {rest:?}")))?,
                        fnv: u64::from_str_radix(fields[3], 16)
                            .map_err(|_| corrupt(format!("bad file checksum {rest:?}")))?,
                    });
                }
                "end" => ended = true,
                other => return Err(corrupt(format!("unknown manifest key {other:?}"))),
            }
        }
        if !ended {
            return Err(corrupt("missing end marker (truncated write)".to_string()));
        }
        let manifest = Manifest {
            spec_fingerprint: spec_fingerprint
                .ok_or_else(|| corrupt("missing spec_fingerprint".to_string()))?,
            engine: engine.ok_or_else(|| corrupt("missing engine".to_string()))?,
            config: config.ok_or_else(|| corrupt("missing config".to_string()))?,
            level: level.ok_or_else(|| corrupt("missing level".to_string()))?,
            counters,
            files,
        };
        for k in 0..=manifest.level {
            if manifest.file(&level_name(k)).is_none() {
                return Err(corrupt(format!("missing file record for level {k}")));
            }
        }
        if manifest.file(PARENTS_NAME).is_none() {
            return Err(corrupt(format!("missing file record for {PARENTS_NAME}")));
        }
        Ok(manifest)
    }

    /// Checks that this manifest belongs to the run being resumed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] naming the first field that differs —
    /// resuming a Paxos sweep from a multicast checkpoint, or a symmetric
    /// run from a plain one, silently explores the wrong state space, so
    /// the engines treat this as fatal.
    pub fn validate(
        &self,
        spec_fingerprint: u64,
        engine: &str,
        config: &str,
    ) -> Result<(), CheckpointError> {
        if self.spec_fingerprint != spec_fingerprint {
            return Err(CheckpointError::Mismatch(format!(
                "spec fingerprint {} in manifest, {} in this run — different protocol model",
                self.spec_fingerprint, spec_fingerprint
            )));
        }
        if self.engine != engine {
            return Err(CheckpointError::Mismatch(format!(
                "engine {:?} in manifest, {:?} in this run",
                self.engine, engine
            )));
        }
        if self.config != config {
            return Err(CheckpointError::Mismatch(format!(
                "config {:?} in manifest, {:?} in this run",
                self.config, config
            )));
        }
        Ok(())
    }

    /// The manifest's record for `name`, if present.
    pub fn file(&self, name: &str) -> Option<&FileMeta> {
        self.files.iter().find(|f| f.name == name)
    }

    /// The named counter's committed value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Reads back the frontier records' payloads of `level`, checking the
    /// file's length against its record first and its item count and
    /// checksum as it is read.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when the file is shorter than recorded,
    /// fails its checksum, or holds malformed framing.
    pub fn read_level(&self, dir: &Path, level: usize) -> Result<Vec<Vec<u8>>, CheckpointError> {
        let mut records = Vec::new();
        let mut push = |record: &[u8]| records.push(record.to_vec());
        scan_level(&RunDir::kept(dir), self, level, &mut push)?;
        Ok(records)
    }

    /// Publishes the next level as the last complete one: records `level`
    /// (its sealed file) and `parents` (the parent log's committed prefix)
    /// with the engine's `counters`, then atomically replaces
    /// `dir/MANIFEST` — written to `MANIFEST.tmp`, fsynced, renamed. The
    /// data files must already be on stable storage.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn commit(
        &mut self,
        dir: &Path,
        level: FileMeta,
        parents: FileMeta,
        counters: &[(&str, u64)],
    ) -> Result<(), CheckpointError> {
        self.level = if self.files.is_empty() {
            0
        } else {
            self.level + 1
        };
        self.files.retain(|f| f.name != PARENTS_NAME);
        self.files.extend([level, parents]);
        self.counters = counters.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        let mut text = format!("mp-basset-checkpoint v{CHECKPOINT_VERSION}\n");
        text.push_str(&format!("spec_fingerprint {}\n", self.spec_fingerprint));
        text.push_str(&format!("engine {}\n", self.engine));
        text.push_str(&format!("config {}\n", self.config));
        text.push_str(&format!("level {}\n", self.level));
        for (name, value) in &self.counters {
            text.push_str(&format!("counter {name} {value}\n"));
        }
        for meta in &self.files {
            text.push_str(&format!(
                "file {} {} {} {:016x}\n",
                meta.name, meta.items, meta.bytes, meta.fnv
            ));
        }
        text.push_str("end\n");
        let tmp = dir.join("MANIFEST.tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Frontier, FrontierConfig, ParentLog};
    use mp_trace::TraceHandle;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mp-checkpoint-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Commits level 0 (the root) and level 1 (two children of it) the way
    /// the BFS does: frontier records and parent records into the run's own
    /// files, then the manifest over them.
    fn write_two_levels(dir: &Path) -> (Frontier, ParentLog) {
        let mut frontier = FrontierConfig::Mem.build(crate::PlainCodec);
        frontier.keep_levels_in(dir);
        let trace = TraceHandle::disabled();
        let mut parents = ParentLog::in_checkpoint(dir, None, usize::MAX, trace).unwrap();
        let mut manifest = Manifest::new(7, "bfs", "store=exact");
        frontier.push_record(b"root");
        parents.push(None).unwrap();
        let (level, log) = (frontier.seal_level(), parents.commit());
        manifest.commit(dir, level, log, &[("states", 1)]).unwrap();
        assert_eq!(frontier.advance_level(), 1);
        frontier.push_record(b"alpha");
        frontier.push_record(b"beta");
        parents.push(Some((0, 0))).unwrap();
        parents.push(Some((0, 1))).unwrap();
        let (level, log) = (frontier.seal_level(), parents.commit());
        manifest.commit(dir, level, log, &[("states", 3)]).unwrap();
        (frontier, parents)
    }

    #[test]
    fn round_trips_levels_parents_and_counters() {
        let dir = temp_dir("roundtrip");
        let _run = write_two_levels(&dir);
        assert!(manifest_exists(&dir));
        let manifest = Manifest::load(&dir).unwrap();
        assert_eq!(manifest.level, 1);
        assert_eq!(manifest.counter("states"), 3);
        assert_eq!(manifest.counter("missing"), 0);
        assert_eq!(
            manifest.read_level(&dir, 0).unwrap(),
            vec![b"root".to_vec()]
        );
        assert_eq!(
            manifest.read_level(&dir, 1).unwrap(),
            vec![b"alpha".to_vec(), b"beta".to_vec()]
        );
        // `parents.log` is the three records as little-endian words.
        let parents = manifest.file(PARENTS_NAME).unwrap();
        assert_eq!((parents.items, parents.bytes), (3, 24));
        let words: Vec<u8> = [None, Some((0, 0)), Some((0, 1))]
            .into_iter()
            .flat_map(|record| ParentLog::encode(record).unwrap())
            .collect();
        assert_eq!(std::fs::read(dir.join(PARENTS_NAME)).unwrap(), words);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_rejects_every_identity_mismatch() {
        let dir = temp_dir("identity");
        let _run = write_two_levels(&dir);
        let manifest = Manifest::load(&dir).unwrap();
        assert!(manifest.validate(7, "bfs", "store=exact").is_ok());
        for (fp, engine, config) in [
            (8, "bfs", "store=exact"),
            (7, "parallel-bfs", "store=exact"),
            (7, "bfs", "store=sharded(64)"),
        ] {
            let err = manifest.validate(fp, engine, config).unwrap_err();
            assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_bumps_and_corruption_are_refused() {
        let dir = temp_dir("corruption");
        let _run = write_two_levels(&dir);
        let manifest_path = dir.join(MANIFEST_NAME);
        let good = std::fs::read_to_string(&manifest_path).unwrap();

        // Any other format version — the retired v1 and v2 as much as a
        // future one — is a mismatch, not a parse attempt.
        let this = format!("checkpoint v{CHECKPOINT_VERSION}");
        for other in ["checkpoint v1", "checkpoint v2", "checkpoint v99"] {
            std::fs::write(&manifest_path, good.replace(&this, other)).unwrap();
            assert!(matches!(
                Manifest::load(&dir).unwrap_err(),
                CheckpointError::Mismatch(_)
            ));
        }

        // A truncated manifest (no end marker) reads as corrupt — the
        // atomic rename makes this unreachable in practice, but the loader
        // must still refuse it.
        let cut = good.split("end").next().unwrap();
        std::fs::write(&manifest_path, cut).unwrap();
        assert!(matches!(
            Manifest::load(&dir).unwrap_err(),
            CheckpointError::Corrupt(_)
        ));

        // Flipped data bytes fail the checksum.
        std::fs::write(&manifest_path, &good).unwrap();
        let level1 = dir.join(level_name(1));
        let mut bytes = std::fs::read(&level1).unwrap();
        bytes[2] ^= 0xff;
        std::fs::write(&level1, bytes).unwrap();
        let manifest = Manifest::load(&dir).unwrap();
        let err = manifest.read_level(&dir, 1).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");

        // A data file shorter than recorded is also corrupt.
        std::fs::write(dir.join(level_name(1)), b"x").unwrap();
        let err = manifest.read_level(&dir, 1).unwrap_err();
        assert!(
            err.to_string().contains("shorter than the 11 bytes"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
