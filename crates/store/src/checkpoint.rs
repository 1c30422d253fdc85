//! Checkpoint/resume: level-granular snapshots of a BFS run's persistent
//! state, behind a versioned manifest.
//!
//! A breadth-first run has a natural quiescent point — the level boundary —
//! at which its whole exploration state is three byte streams: the frontier
//! entries of the level just completed, the parent records pushed so far,
//! and the visited set (which the engines rebuild from the level files, so
//! it needs no file of its own). [`CheckpointWriter`] tees those streams
//! into a checkpoint directory as the engine runs and, at each boundary,
//! atomically publishes a [`Manifest`] naming what is valid:
//!
//! * `level_<k>.front` — one file per BFS level, holding the level's
//!   frontier entries as `varint(len) payload` records (the payload bytes
//!   are the engine's own entry encoding; this module never interprets
//!   them);
//! * `parents.log` — one append-only file of parent records (the
//!   [`ParentLog`](crate::ParentLog)'s fixed-width bytes) in push order,
//!   framed the same way;
//! * `MANIFEST` — a line-oriented text file carrying the format version,
//!   the protocol's structure fingerprint, the engine/config identity
//!   strings, the last completed level, the engine's counters, and a
//!   `(items, bytes, FNV-64)` record per data file. It is written to a
//!   temporary file, fsynced and renamed, so a crash never leaves a
//!   half-written manifest — resume either sees the previous complete
//!   checkpoint or this one.
//!
//! On resume, [`Manifest::load`] + [`Manifest::validate`] refuse manifests
//! of a different format version, protocol, engine or configuration, and
//! [`Manifest::read_level`]/[`Manifest::read_parents`] verify length and
//! checksum before handing the records back. `docs/ON_DISK_FORMATS.md` in
//! the repository specifies every byte of the formats and the versioning
//! policy.
//!
//! ```
//! use mp_store::{manifest_exists, CheckpointWriter, Manifest};
//!
//! let dir = std::env::temp_dir().join(format!("ckpt-doc-{}", std::process::id()));
//! let mut ckpt = CheckpointWriter::new(&dir).unwrap();
//!
//! // Level 0 is the root; every level seals before the next begins.
//! ckpt.begin_level(0).unwrap();
//! ckpt.push_entry(b"root-entry").unwrap();
//! ckpt.push_parent(b"no-parent").unwrap();
//! ckpt.seal_level().unwrap();
//! ckpt.commit(0, 42, "stateful-bfs", "store=exact", &[("states", 1)]).unwrap();
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
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use mp_model::{read_varint, write_varint, Fnv64};

/// The manifest format version this build writes and accepts. Bump it on
/// any incompatible change to the manifest or data-file layouts; resume
/// refuses other versions (see `docs/ON_DISK_FORMATS.md` for the policy).
pub const CHECKPOINT_VERSION: u32 = 2;

const MANIFEST_NAME: &str = "MANIFEST";
const PARENTS_NAME: &str = "parents.log";

fn level_name(level: usize) -> String {
    format!("level_{level}.front")
}

/// Where (and how often) a run should checkpoint. Carried by
/// `CheckerConfig` in `mp-checker`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// The checkpoint directory (created if missing). One directory holds
    /// exactly one run's checkpoint.
    pub dir: PathBuf,
    /// Commit the manifest every N completed levels (level 0 always
    /// commits, so a fresh run is resumable as soon as it has a root).
    pub every_levels: usize,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` at every level boundary.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every_levels: 1,
        }
    }

    /// Commit the manifest only every `n` levels (minimum 1; the data
    /// files are still teed continuously, only the publish is batched).
    pub fn with_every_levels(mut self, n: usize) -> Self {
        self.every_levels = n.max(1);
        self
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
    /// Number of framed records in the valid prefix.
    pub items: usize,
    /// Byte length of the valid prefix.
    pub bytes: u64,
    /// FNV-64 checksum of the valid prefix.
    pub fnv: u64,
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

    /// Reads back the frontier entries of `level`, verifying the file's
    /// recorded length and checksum first.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when the file is shorter than recorded,
    /// fails its checksum, or holds malformed framing.
    pub fn read_level(&self, dir: &Path, level: usize) -> Result<Vec<Vec<u8>>, CheckpointError> {
        let name = level_name(level);
        let meta = self
            .file(&name)
            .ok_or_else(|| CheckpointError::Corrupt(format!("no manifest record for {name}")))?;
        read_records(&dir.join(&name), meta)
    }

    /// Reads back every committed parent record, in push order, verifying
    /// length and checksum first.
    ///
    /// # Errors
    ///
    /// As [`Manifest::read_level`].
    pub fn read_parents(&self, dir: &Path) -> Result<Vec<Vec<u8>>, CheckpointError> {
        let meta = self.file(PARENTS_NAME).ok_or_else(|| {
            CheckpointError::Corrupt(format!("no manifest record for {PARENTS_NAME}"))
        })?;
        read_records(&dir.join(PARENTS_NAME), meta)
    }
}

/// Reads the valid prefix of a framed-record file, checks it against its
/// manifest record, and splits it into payloads.
fn read_records(path: &Path, meta: &FileMeta) -> Result<Vec<Vec<u8>>, CheckpointError> {
    let mut file = File::open(path)?;
    let mut raw = vec![0u8; meta.bytes as usize];
    file.read_exact(&mut raw).map_err(|e| {
        CheckpointError::Corrupt(format!(
            "{}: shorter than the {} bytes the manifest records ({e})",
            path.display(),
            meta.bytes
        ))
    })?;
    let mut hash = Fnv64::new();
    hash.write(&raw);
    if hash.finish() != meta.fnv {
        return Err(CheckpointError::Corrupt(format!(
            "{}: checksum {:016x} does not match the manifest's {:016x}",
            path.display(),
            hash.finish(),
            meta.fnv
        )));
    }
    let mut records = Vec::with_capacity(meta.items);
    let mut input = &raw[..];
    while !input.is_empty() {
        let len = read_varint(&mut input)
            .map_err(|e| CheckpointError::Corrupt(format!("{}: {e}", path.display())))?
            as usize;
        if input.len() < len {
            return Err(CheckpointError::Corrupt(format!(
                "{}: truncated record",
                path.display()
            )));
        }
        records.push(input[..len].to_vec());
        input = &input[len..];
    }
    if records.len() != meta.items {
        return Err(CheckpointError::Corrupt(format!(
            "{}: {} records, the manifest records {}",
            path.display(),
            records.len(),
            meta.items
        )));
    }
    Ok(records)
}

/// Tees a BFS run's frontier entries and parent records into a checkpoint
/// directory and commits versioned manifests at level boundaries. The
/// writer is pure-bytes: engines encode entries with their own codecs and
/// hand over the encoded payloads. See the module docs for the protocol.
#[derive(Debug)]
pub struct CheckpointWriter {
    dir: PathBuf,
    /// The open level file: `(file, hash, items, bytes, level)`.
    current: Option<(File, Fnv64, usize, u64, usize)>,
    /// Sealed level files, dense from level 0.
    sealed: Vec<FileMeta>,
    parents: File,
    parents_hash: Fnv64,
    parents_items: usize,
    parents_bytes: u64,
    scratch: Vec<u8>,
}

impl CheckpointWriter {
    /// Starts a fresh checkpoint in `dir` (created if missing; existing
    /// data files are truncated as their levels are re-reached).
    ///
    /// # Errors
    ///
    /// Any filesystem failure creating the directory or `parents.log`.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let parents = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(dir.join(PARENTS_NAME))?;
        Ok(CheckpointWriter {
            dir,
            current: None,
            sealed: Vec::new(),
            parents,
            parents_hash: Fnv64::new(),
            parents_items: 0,
            parents_bytes: 0,
            scratch: Vec::new(),
        })
    }

    /// Reopens a checkpoint to continue past `manifest.level`: truncates
    /// `parents.log` back to its committed prefix (dropping records pushed
    /// after the last commit), re-verifies that prefix's checksum, and
    /// adopts the committed level files. The next [`begin_level`] call must
    /// be for `manifest.level + 1`.
    ///
    /// [`begin_level`]: CheckpointWriter::begin_level
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when the parents prefix fails its
    /// checksum, plus any filesystem failure.
    pub fn resume(dir: impl Into<PathBuf>, manifest: &Manifest) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        let meta = manifest.file(PARENTS_NAME).ok_or_else(|| {
            CheckpointError::Corrupt(format!("no manifest record for {PARENTS_NAME}"))
        })?;
        let mut parents = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(PARENTS_NAME))?;
        let mut prefix = vec![0u8; meta.bytes as usize];
        parents.read_exact(&mut prefix).map_err(|e| {
            CheckpointError::Corrupt(format!(
                "{PARENTS_NAME}: shorter than the {} bytes the manifest records ({e})",
                meta.bytes
            ))
        })?;
        let mut parents_hash = Fnv64::new();
        parents_hash.write(&prefix);
        if parents_hash.finish() != meta.fnv {
            return Err(CheckpointError::Corrupt(format!(
                "{PARENTS_NAME}: checksum {:016x} does not match the manifest's {:016x}",
                parents_hash.finish(),
                meta.fnv
            )));
        }
        parents.set_len(meta.bytes)?;
        parents.seek(SeekFrom::Start(meta.bytes))?;
        let mut sealed = Vec::with_capacity(manifest.level + 1);
        for k in 0..=manifest.level {
            let name = level_name(k);
            let file_meta = manifest
                .file(&name)
                .ok_or_else(|| {
                    CheckpointError::Corrupt(format!("missing file record for level {k}"))
                })?
                .clone();
            sealed.push(file_meta);
        }
        Ok(CheckpointWriter {
            dir,
            current: None,
            sealed,
            parents,
            parents_hash,
            parents_items: meta.items,
            parents_bytes: meta.bytes,
            scratch: Vec::new(),
        })
    }

    /// Opens (and truncates) `level_<level>.front` for the level about to
    /// be generated. Levels are dense: `level` must be the number of
    /// already-sealed levels.
    ///
    /// # Errors
    ///
    /// Any filesystem failure creating the file.
    ///
    /// # Panics
    ///
    /// If a level is still open or `level` is out of order.
    pub fn begin_level(&mut self, level: usize) -> Result<(), CheckpointError> {
        assert!(self.current.is_none(), "begin_level with an open level");
        assert_eq!(level, self.sealed.len(), "levels must be dense");
        let file = File::create(self.dir.join(level_name(level)))?;
        self.current = Some((file, Fnv64::new(), 0, 0, level));
        Ok(())
    }

    /// Tees one encoded frontier entry into the open level file.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    ///
    /// # Panics
    ///
    /// If no level is open.
    pub fn push_entry(&mut self, payload: &[u8]) -> Result<(), CheckpointError> {
        self.scratch.clear();
        write_varint(payload.len() as u64, &mut self.scratch);
        self.scratch.extend_from_slice(payload);
        let (file, hash, items, bytes, _) =
            self.current.as_mut().expect("push_entry without a level");
        file.write_all(&self.scratch)?;
        hash.write(&self.scratch);
        *items += 1;
        *bytes += self.scratch.len() as u64;
        Ok(())
    }

    /// Appends one encoded parent record to `parents.log`.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn push_parent(&mut self, payload: &[u8]) -> Result<(), CheckpointError> {
        self.scratch.clear();
        write_varint(payload.len() as u64, &mut self.scratch);
        self.scratch.extend_from_slice(payload);
        self.parents.write_all(&self.scratch)?;
        self.parents_hash.write(&self.scratch);
        self.parents_items += 1;
        self.parents_bytes += self.scratch.len() as u64;
        Ok(())
    }

    /// Seals the open level file: flushes it to stable storage and records
    /// its `(items, bytes, checksum)` for the next manifest.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    ///
    /// # Panics
    ///
    /// If no level is open.
    pub fn seal_level(&mut self) -> Result<(), CheckpointError> {
        let (file, hash, items, bytes, level) =
            self.current.take().expect("seal_level without a level");
        file.sync_all()?;
        self.sealed.push(FileMeta {
            name: level_name(level),
            items,
            bytes,
            fnv: hash.finish(),
        });
        Ok(())
    }

    /// Atomically publishes a manifest naming levels `0..=level` and the
    /// current parents prefix as the valid checkpoint: writes
    /// `MANIFEST.tmp`, fsyncs and renames over `MANIFEST`.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    ///
    /// # Panics
    ///
    /// If `level` has not been sealed.
    pub fn commit(
        &mut self,
        level: usize,
        spec_fingerprint: u64,
        engine: &str,
        config: &str,
        counters: &[(&str, u64)],
    ) -> Result<(), CheckpointError> {
        assert!(
            level < self.sealed.len(),
            "commit of level {level} before it was sealed"
        );
        self.parents.sync_all()?;
        let mut text = format!("mp-basset-checkpoint v{CHECKPOINT_VERSION}\n");
        text.push_str(&format!("spec_fingerprint {spec_fingerprint}\n"));
        text.push_str(&format!("engine {engine}\n"));
        text.push_str(&format!("config {config}\n"));
        text.push_str(&format!("level {level}\n"));
        for (name, value) in counters {
            text.push_str(&format!("counter {name} {value}\n"));
        }
        for meta in &self.sealed[..=level] {
            text.push_str(&format!(
                "file {} {} {} {:016x}\n",
                meta.name, meta.items, meta.bytes, meta.fnv
            ));
        }
        text.push_str(&format!(
            "file {} {} {} {:016x}\n",
            PARENTS_NAME,
            self.parents_items,
            self.parents_bytes,
            self.parents_hash.finish()
        ));
        text.push_str("end\n");
        let tmp = self.dir.join("MANIFEST.tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, self.dir.join(MANIFEST_NAME))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mp-checkpoint-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_two_levels(dir: &Path) -> CheckpointWriter {
        let mut ckpt = CheckpointWriter::new(dir).unwrap();
        ckpt.begin_level(0).unwrap();
        ckpt.push_entry(b"root").unwrap();
        ckpt.push_parent(b"p0").unwrap();
        ckpt.seal_level().unwrap();
        ckpt.commit(0, 7, "bfs", "store=exact", &[("states", 1)])
            .unwrap();
        ckpt.begin_level(1).unwrap();
        ckpt.push_entry(b"alpha").unwrap();
        ckpt.push_entry(b"beta").unwrap();
        ckpt.push_parent(b"p1").unwrap();
        ckpt.push_parent(b"p2").unwrap();
        ckpt.seal_level().unwrap();
        ckpt.commit(1, 7, "bfs", "store=exact", &[("states", 3)])
            .unwrap();
        ckpt
    }

    #[test]
    fn round_trips_levels_parents_and_counters() {
        let dir = temp_dir("roundtrip");
        let _ckpt = write_two_levels(&dir);
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
        assert_eq!(
            manifest.read_parents(&dir).unwrap(),
            vec![b"p0".to_vec(), b"p1".to_vec(), b"p2".to_vec()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_rejects_every_identity_mismatch() {
        let dir = temp_dir("identity");
        let _ckpt = write_two_levels(&dir);
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
        let _ckpt = write_two_levels(&dir);
        let manifest_path = dir.join(MANIFEST_NAME);
        let good = std::fs::read_to_string(&manifest_path).unwrap();

        // Any other format version — the retired v1 as much as a future
        // one — is a mismatch, not a parse attempt.
        for other in ["checkpoint v1", "checkpoint v99"] {
            std::fs::write(&manifest_path, good.replace("checkpoint v2", other)).unwrap();
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
        assert!(matches!(
            manifest.read_level(&dir, 1).unwrap_err(),
            CheckpointError::Corrupt(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_uncommitted_parents_and_continues() {
        let dir = temp_dir("resume");
        let mut ckpt = write_two_levels(&dir);
        // Push past the last commit — a crash would leave these bytes.
        ckpt.begin_level(2).unwrap();
        ckpt.push_entry(b"gamma").unwrap();
        ckpt.push_parent(b"p-uncommitted").unwrap();
        drop(ckpt);

        let manifest = Manifest::load(&dir).unwrap();
        assert_eq!(manifest.level, 1, "the crashy tail never committed");
        let mut resumed = CheckpointWriter::resume(&dir, &manifest).unwrap();
        resumed.begin_level(2).unwrap();
        resumed.push_entry(b"gamma").unwrap();
        resumed.push_parent(b"p3").unwrap();
        resumed.seal_level().unwrap();
        resumed
            .commit(2, 7, "bfs", "store=exact", &[("states", 4)])
            .unwrap();

        let manifest = Manifest::load(&dir).unwrap();
        assert_eq!(manifest.level, 2);
        assert_eq!(
            manifest.read_parents(&dir).unwrap(),
            vec![
                b"p0".to_vec(),
                b"p1".to_vec(),
                b"p2".to_vec(),
                b"p3".to_vec()
            ],
            "the uncommitted parent record was dropped, the new one kept"
        );
        assert_eq!(
            manifest.read_level(&dir, 2).unwrap(),
            vec![b"gamma".to_vec()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_a_tampered_parents_prefix() {
        let dir = temp_dir("tampered-parents");
        let _ckpt = write_two_levels(&dir);
        let manifest = Manifest::load(&dir).unwrap();
        let parents = dir.join(PARENTS_NAME);
        let mut bytes = std::fs::read(&parents).unwrap();
        bytes[1] ^= 0x01;
        std::fs::write(&parents, bytes).unwrap();
        assert!(matches!(
            CheckpointWriter::resume(&dir, &manifest).unwrap_err(),
            CheckpointError::Corrupt(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
