//! Backend selection.

use std::fmt;

use mp_model::Encode;

use crate::runstore::DEFAULT_RUN_WATERMARK;
use crate::{ByteStore, Inserted, RunStore, StateStoreBackend, StoreStats};

/// Default stripe count of the sharded backends.
pub(crate) const DEFAULT_SHARDS: usize = 64;

/// Which visited-state backend a run should use.
///
/// Carried by `CheckerConfig` in `mp-checker`; `Copy` so configurations
/// stay cheap to pass around.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreConfig {
    /// Exact storage of the encoded key bytes behind a single lock (the
    /// default).
    #[default]
    Exact,
    /// The same table, lock-striped for concurrent inserts.
    Sharded {
        /// Stripe count (rounded up to a power of two).
        shards: usize,
    },
    /// Hash compaction ([`RunStore`]): a `bits`-wide fingerprint per state,
    /// in RAM up to the watermark and in sorted on-disk runs past it.
    /// `Verified` verdicts become probabilistic; see the `mp-store` crate
    /// docs for the soundness contract.
    Fingerprint {
        /// Fingerprint width in bits (`8..=64`).
        bits: u32,
        /// Stripe count (rounded up to a power of two).
        shards: usize,
        /// Fingerprints buffered in RAM, over all stripes, before sorted
        /// runs are spilled; `usize::MAX` never spills.
        watermark_entries: usize,
    },
}

impl StoreConfig {
    /// The sharded backend with the default stripe count.
    pub const fn sharded() -> Self {
        StoreConfig::Sharded {
            shards: DEFAULT_SHARDS,
        }
    }

    /// In-RAM hash compaction: `bits`-wide fingerprints (clamped to
    /// `8..=64`), one stripe (per-stripe tables carry a fixed overhead that
    /// defeats compaction on small runs), never spilled.
    pub const fn fingerprint(bits: u32) -> Self {
        StoreConfig::Fingerprint {
            bits: match bits {
                ..8 => 8,
                65.. => 64,
                kept => kept,
            },
            shards: 1,
            watermark_entries: usize::MAX,
        }
    }

    /// External-memory hash compaction with the default watermark.
    pub const fn runs() -> Self {
        StoreConfig::runs_with_watermark(DEFAULT_RUN_WATERMARK)
    }

    /// External-memory hash compaction: 64-bit fingerprints, one stripe, a
    /// sorted run spilled every `watermark_entries` (at least 1) buffered
    /// fingerprints.
    pub const fn runs_with_watermark(watermark_entries: usize) -> Self {
        StoreConfig::Fingerprint {
            bits: 64,
            shards: 1,
            watermark_entries: match watermark_entries {
                0 => 1,
                n => n,
            },
        }
    }

    /// The configuration the parallel engine actually uses: a single-lock
    /// store would serialise every worker on one mutex, so the exact store
    /// and single-stripe fingerprint stores are upgraded to their
    /// lock-striped equivalents (the watermark stays the total, so each
    /// stripe buffers its share); explicitly-striped choices pass through.
    pub fn for_parallel(&self) -> StoreConfig {
        match *self {
            StoreConfig::Exact => StoreConfig::sharded(),
            StoreConfig::Fingerprint {
                bits,
                shards: 1,
                watermark_entries,
            } => StoreConfig::Fingerprint {
                bits,
                shards: DEFAULT_SHARDS,
                watermark_entries,
            },
            other => other,
        }
    }

    /// Returns `true` if the backend stores full keys (no omissions).
    pub fn is_exact(&self) -> bool {
        !matches!(self, StoreConfig::Fingerprint { .. })
    }

    /// Builds the backend for key type `K`. Every backend identifies a key
    /// by its [`Encode`] bytes, so the encoding must be injective on the
    /// key's `Eq` classes (the codec's round-trip contract gives that).
    pub fn build<K: Encode>(&self) -> StoreImpl<K> {
        match *self {
            StoreConfig::Exact => StoreImpl::Bytes(ByteStore::exact()),
            StoreConfig::Sharded { shards } => StoreImpl::Bytes(ByteStore::sharded(shards)),
            StoreConfig::Fingerprint {
                bits,
                shards,
                watermark_entries,
            } => StoreImpl::Runs(RunStore::new(bits, shards, watermark_entries)),
        }
    }
}

impl fmt::Display for StoreConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StoreConfig::Exact => write!(f, "exact"),
            StoreConfig::Sharded { shards } => write!(f, "sharded({shards})"),
            StoreConfig::Fingerprint {
                bits,
                watermark_entries,
                ..
            } => match (watermark_entries, bits) {
                (usize::MAX, _) => write!(f, "fingerprint({bits}-bit)"),
                (n, 64) => write!(f, "runs({n})"),
                (n, _) => write!(f, "runs({n}, {bits}-bit)"),
            },
        }
    }
}

/// A backend built from a [`StoreConfig`] (enum dispatch, so engines stay
/// generic-friendly without trait objects).
#[derive(Debug)]
pub enum StoreImpl<K> {
    /// See [`ByteStore`] (the exact and sharded configurations).
    Bytes(ByteStore<K>),
    /// See [`RunStore`] (the fingerprint configuration).
    Runs(RunStore<K>),
}

macro_rules! dispatch {
    ($self:ident, $store:ident => $call:expr) => {
        match $self {
            StoreImpl::Bytes($store) => $call,
            StoreImpl::Runs($store) => $call,
        }
    };
}

impl<K: Encode> StateStoreBackend<K> for StoreImpl<K> {
    fn insert_bytes(&self, bytes: &[u8]) -> Inserted {
        dispatch!(self, s => s.insert_bytes(bytes))
    }

    fn contains_bytes(&self, bytes: &[u8]) -> bool {
        dispatch!(self, s => s.contains_bytes(bytes))
    }

    fn len(&self) -> usize {
        dispatch!(self, s => s.len())
    }

    fn stats(&self) -> StoreStats {
        dispatch!(self, s => s.stats())
    }

    fn maintain(&self) {
        dispatch!(self, s => s.maintain())
    }

    fn name(&self) -> &'static str {
        dispatch!(self, s => s.name())
    }
}
