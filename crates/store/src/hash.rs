//! The one fingerprint every backend uses: the key's canonical
//! `mp_model::Encode` bytes, hashed once with [`hash_bytes`].
//!
//! `fold64` — the function [`hash_bytes`] computes — is pinned: sorted runs
//! and any other place a fingerprint outlives the process depend on it, and
//! `docs/ON_DISK_FORMATS.md` specifies it constant by constant. Changing a
//! constant or a step is a format change; the golden vectors in this
//! module's tests exist to make that loud.

use std::cell::Cell;

use mp_model::Encode;

/// 2⁶⁴ / φ — the initial state, and the multiplier of the final fold.
pub(crate) const K0: u64 = 0x9e37_79b9_7f4a_7c15;
/// Whitening constant of the first word of each 16-byte block.
const K1: u64 = 0xbf58_476d_1ce4_e5b9;
/// Whitening constant of the first word of the (zero-padded) tail block.
const K2: u64 = 0x94d0_49bb_1331_11eb;

/// The 128-bit product of `a` and `b`, folded to 64 bits (high ⊕ low).
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// `fold64`: a 64-bit non-cryptographic hash of `bytes`, stable across
/// platforms, Rust releases and processes.
///
/// Little-endian 16-byte blocks `(a, b)` are absorbed as
/// `h ← fold(a ⊕ K1, b ⊕ h)` from `h = K0`; the remaining 0–15 bytes are
/// zero-padded to one more block absorbed with `K2` in place of `K1`
/// (always, so the empty tail is a block too); the result is
/// `fold(h ⊕ len, K0)`. Every bit of the result depends on every input
/// bit, so the stores take shard, slot and tag from different bit ranges of
/// the same value.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = K0;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        h = fold(word(&block[..8]) ^ K1, word(&block[8..]) ^ h);
    }
    let tail = blocks.remainder();
    let mut last = [0u8; 16];
    last[..tail.len()].copy_from_slice(tail);
    h = fold(word(&last[..8]) ^ K2, word(&last[8..]) ^ h);
    fold(h ^ bytes.len() as u64, K0)
}

thread_local! {
    /// The per-thread encode buffer: a query never allocates once the
    /// buffer has grown to the largest key the thread has seen.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Encodes `key` into the thread's scratch buffer and hands the bytes to
/// `f` — before the caller takes any lock. The buffer is taken out of its
/// cell for the duration, so a (never expected) nested call simply
/// allocates its own.
pub(crate) fn with_encoded<K: Encode, R>(key: &K, f: impl FnOnce(&[u8]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut bytes = cell.take();
        bytes.clear();
        key.encode(&mut bytes);
        let result = f(&bytes);
        cell.set(bytes);
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_vectors_pin_the_function() {
        // Recomputing these by hand from the definition in
        // docs/ON_DISK_FORMATS.md must give the same values; a change here
        // is a change of every persisted fingerprint.
        let ramp: Vec<u8> = (0u8..=99).collect();
        let vectors: [(&[u8], u64); 6] = [
            (b"", 0xc946_0f7f_22eb_4d2a),
            (b"a", 0x8a10_776b_3454_042a),
            (b"0123456789abcde", 0x1b01_79e0_ea8c_d044),
            (b"0123456789abcdef", 0x6946_f823_fef6_e091),
            (b"0123456789abcdef0", 0x2c3e_99d8_220c_8bf0),
            (&ramp, 0x8a00_3b6b_62eb_b573),
        ];
        for (input, expected) in vectors {
            assert_eq!(hash_bytes(input), expected, "input {input:?}");
        }
    }

    #[test]
    fn length_and_padding_are_distinguished() {
        // A zero-padded tail must not collide with explicit zero bytes, nor
        // a full block with the same bytes split across block and tail.
        let inputs: Vec<Vec<u8>> = (0..40).map(|n| vec![0u8; n]).collect();
        let mut hashes: Vec<u64> = inputs.iter().map(|i| hash_bytes(i)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), inputs.len());
    }

    #[test]
    fn single_bit_flips_avalanche() {
        // Each input bit flips close to half of the 64 output bits.
        let base: Vec<u8> = (0u8..70).map(|i| i.wrapping_mul(37)).collect();
        let h0 = hash_bytes(&base);
        let mut total = 0u32;
        for bit in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let distance = (hash_bytes(&flipped) ^ h0).count_ones();
            assert!((12..=52).contains(&distance), "bit {bit}: {distance}");
            total += distance;
        }
        let mean = f64::from(total) / (base.len() * 8) as f64;
        assert!((30.0..34.0).contains(&mean), "mean flip count {mean}");
    }

    #[test]
    fn scratch_buffer_is_reused_and_reentrant() {
        let outer = with_encoded(&7u64, |a| {
            let inner = with_encoded(&9u64, |b| b.to_vec());
            (a.to_vec(), inner)
        });
        assert_eq!(outer, (vec![7], vec![9]));
    }
}
