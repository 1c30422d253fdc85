//! A run's files: the one type every file of the store goes through.
//!
//! A BFS run keeps its level files and parent log in a [`RunDir`] — the
//! checkpoint directory, or a scratch directory under
//! [`std::env::temp_dir`] — and the run store its sorted runs in scratch
//! files. All of them are [`SpillFile`]s, so the store opens, writes, reads,
//! truncates and syncs files in this one place.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Names scratch files and directories uniquely within the process.
static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch_path(prefix: &str) -> PathBuf {
    let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()))
}

/// The directory a run's level files and parent log live in: a checkpoint
/// directory, which keeps them, or a scratch directory under
/// [`std::env::temp_dir`], created by the first file and removed with
/// everything in it on drop.
#[derive(Debug)]
pub(crate) struct RunDir {
    pub(crate) path: PathBuf,
    /// `true` for a checkpoint directory.
    pub(crate) keep: bool,
}

impl RunDir {
    pub(crate) fn scratch() -> Self {
        let path = scratch_path("mp-run");
        RunDir { path, keep: false }
    }

    pub(crate) fn kept(path: &Path) -> Self {
        let path = path.to_path_buf();
        RunDir { path, keep: true }
    }

    /// Creates `name` in the directory, empty; a scratch file is deleted on
    /// drop.
    pub(crate) fn create(&self, name: &str) -> SpillFile {
        let path = self.path.join(name);
        std::fs::create_dir_all(&self.path)
            .and_then(|()| SpillFile::open(&path, true, !self.keep))
            .unwrap_or_else(|e| panic!("cannot create spill file {}: {e}", path.display()))
    }

    /// Opens the existing file `name`, kept on drop.
    pub(crate) fn open(&self, name: &str) -> io::Result<SpillFile> {
        SpillFile::open(&self.path.join(name), false, false)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// A file of a run: a level file or the parent log in its [`RunDir`], or a
/// scratch file of the run store under [`std::env::temp_dir`]. I/O errors
/// panic: nothing else writes a run's files, so they mean a broken
/// environment (disk full, `TMPDIR` gone).
#[derive(Debug)]
pub(crate) struct SpillFile {
    file: File,
    path: PathBuf,
    remove: bool,
}

impl SpillFile {
    /// A scratch file under [`std::env::temp_dir`], deleted on drop.
    pub(crate) fn create(prefix: &str) -> Self {
        let path = scratch_path(prefix).with_extension("bin");
        Self::open(&path, true, true)
            .unwrap_or_else(|e| panic!("cannot create spill file {}: {e}", path.display()))
    }

    fn open(path: &Path, create: bool, remove: bool) -> io::Result<Self> {
        let mut options = OpenOptions::new();
        let file = options
            .create(create)
            .truncate(create)
            .read(true)
            .write(true);
        let file = file.open(path)?;
        let path = path.to_path_buf();
        Ok(SpillFile { file, path, remove })
    }

    fn ok<R>(&self, what: &str, result: io::Result<R>) -> R {
        result.unwrap_or_else(|e| panic!("spill {what} {}: {e}", self.path.display()))
    }

    /// Writes `bytes` at `offset` (reads move the cursor, so every access
    /// seeks).
    pub(crate) fn write_at(&mut self, offset: u64, bytes: &[u8]) {
        let result = self.file.seek(SeekFrom::Start(offset));
        let result = result.and_then(|_| self.file.write_all(bytes));
        self.ok("write to", result)
    }

    /// Fills `buf` from `offset`.
    pub(crate) fn read_at(&mut self, offset: u64, buf: &mut [u8]) {
        let result = self.file.seek(SeekFrom::Start(offset));
        let result = result.and_then(|_| self.file.read_exact(buf));
        self.ok("read from", result)
    }

    /// The file's length.
    pub(crate) fn len(&self) -> u64 {
        self.ok("stat of", self.file.metadata()).len()
    }

    /// Cuts the file to `len` bytes.
    pub(crate) fn truncate(&self, len: u64) {
        self.ok("truncate of", self.file.set_len(len))
    }

    /// Flushes the file to stable storage.
    pub(crate) fn sync(&self) {
        self.ok("sync of", self.file.sync_all())
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        if self.remove {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}
