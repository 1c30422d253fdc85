//! Backend selection.

use std::fmt;

use mp_model::Encode;

use crate::{
    ByteStore, FingerprintStore, Inserted, RunStore, StateStoreBackend, StoreStats,
    DEFAULT_RUN_WATERMARK,
};

/// Default stripe count of the sharded backends.
pub const DEFAULT_SHARDS: usize = 64;

/// Default fingerprint width: keeps the omission probability below 1e-6 up
/// to ~23 thousand stored states and below 2% up to ~3 million; widen
/// toward 64 bits for larger sweeps (see the crate docs).
pub const DEFAULT_FINGERPRINT_BITS: u32 = 48;

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
    /// Hash compaction: only a `bits`-wide fingerprint per state is kept.
    /// `Verified` verdicts become probabilistic; see the `mp-store` crate
    /// docs for the soundness contract.
    Fingerprint {
        /// Fingerprint width in bits (clamped to `8..=64`).
        bits: u32,
        /// Stripe count (rounded up to a power of two).
        shards: usize,
    },
    /// External-memory hash compaction: a small in-RAM buffer + bloom
    /// front, with full 64-bit fingerprints spilled to sorted on-disk runs
    /// past the watermark (see [`RunStore`]). Probabilistic like
    /// [`StoreConfig::Fingerprint`], but resident memory stays bounded by
    /// the watermark however large the state space grows.
    Runs {
        /// Fingerprints buffered in RAM before a sorted run is spilled.
        watermark_entries: usize,
    },
}

impl StoreConfig {
    /// The sharded backend with the default stripe count.
    pub fn sharded() -> Self {
        StoreConfig::Sharded {
            shards: DEFAULT_SHARDS,
        }
    }

    /// The fingerprint backend with the given width and a single stripe —
    /// the compact layout for the sequential engines (per-shard tables
    /// carry a fixed overhead that defeats compaction on small runs).
    /// [`StoreConfig::for_parallel`] widens it for concurrent use.
    pub fn fingerprint(bits: u32) -> Self {
        StoreConfig::Fingerprint { bits, shards: 1 }
    }

    /// The external-memory runs backend with the default watermark.
    pub fn runs() -> Self {
        StoreConfig::Runs {
            watermark_entries: DEFAULT_RUN_WATERMARK,
        }
    }

    /// The external-memory runs backend with an explicit watermark (tiny
    /// watermarks force multi-run spilling on small models, which is how
    /// the tests and the smoke sweep exercise the merge machinery).
    pub fn runs_with_watermark(watermark_entries: usize) -> Self {
        StoreConfig::Runs {
            watermark_entries: watermark_entries.max(1),
        }
    }

    /// The configuration the parallel engine actually uses: a single-lock
    /// store would serialise every worker on one mutex, so the exact store
    /// and single-stripe fingerprint stores are upgraded to their
    /// lock-striped equivalents; explicitly-striped choices pass through.
    pub fn for_parallel(&self) -> StoreConfig {
        match *self {
            StoreConfig::Exact => StoreConfig::sharded(),
            StoreConfig::Fingerprint { bits, shards: 1 } => StoreConfig::Fingerprint {
                bits,
                shards: DEFAULT_SHARDS,
            },
            other => other,
        }
    }

    /// Returns `true` if the backend stores full keys (no omissions).
    pub fn is_exact(&self) -> bool {
        !matches!(
            self,
            StoreConfig::Fingerprint { .. } | StoreConfig::Runs { .. }
        )
    }

    /// Builds the backend for key type `K`. Every backend identifies a key
    /// by its [`Encode`] bytes, so the encoding must be injective on the
    /// key's `Eq` classes (the codec's round-trip contract gives that).
    pub fn build<K: Encode>(&self) -> StoreImpl<K> {
        match *self {
            StoreConfig::Exact => StoreImpl::Bytes(ByteStore::exact()),
            StoreConfig::Sharded { shards } => StoreImpl::Bytes(ByteStore::sharded(shards)),
            StoreConfig::Fingerprint { bits, shards } => {
                StoreImpl::Fingerprint(FingerprintStore::new(bits, shards))
            }
            StoreConfig::Runs { watermark_entries } => {
                StoreImpl::Runs(RunStore::new(watermark_entries))
            }
        }
    }
}

impl fmt::Display for StoreConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreConfig::Exact => write!(f, "exact"),
            StoreConfig::Sharded { shards } => write!(f, "sharded({shards})"),
            StoreConfig::Fingerprint { bits, .. } => write!(f, "fingerprint({bits}-bit)"),
            StoreConfig::Runs { watermark_entries } => write!(f, "runs({watermark_entries})"),
        }
    }
}

/// A backend built from a [`StoreConfig`] (enum dispatch, so engines stay
/// generic-friendly without trait objects).
#[derive(Debug)]
pub enum StoreImpl<K> {
    /// See [`ByteStore`] (the exact and sharded configurations).
    Bytes(ByteStore<K>),
    /// See [`FingerprintStore`].
    Fingerprint(FingerprintStore<K>),
    /// See [`RunStore`].
    Runs(RunStore<K>),
}

macro_rules! dispatch {
    ($self:ident, $store:ident => $call:expr) => {
        match $self {
            StoreImpl::Bytes($store) => $call,
            StoreImpl::Fingerprint($store) => $call,
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
