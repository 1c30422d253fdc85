//! Compact binary state serialization ([`Encode`] / [`Decode`]).
//!
//! A breadth-first search encodes each new state once with this codec: the
//! same bytes are the visited store's key, the `mp-store` frontier's record
//! (in memory or spilled to segments) and a checkpoint's level entry. The
//! format is deliberately minimal — no framing, no versioning, no
//! self-description — because encoded states are always written and read
//! by the same binary checking the same model, so the Rust types *are* the
//! schema. Spill files never outlive their
//! run; checkpoint files (`mp-store`) do outlive the writing *process*,
//! but their manifest pins the build's format version and the model/config
//! identity, so the same-schema premise holds there too (see
//! `docs/ON_DISK_FORMATS.md` for the layered durability contract).
//!
//! Layout rules:
//!
//! * `u8`/`bool`/`char` and friends are single bytes or LEB128 varints;
//!   `usize`/`u16`/`u32`/`u64` are LEB128 varints (states are full of small
//!   counters, so varints are what makes the encoding compact);
//! * signed integers are zigzag-mapped before the varint;
//! * sequences (`Vec`, `BTreeSet`, `BTreeMap`, `String`) are a varint
//!   length followed by their elements in iteration order;
//! * `Option` is a one-byte tag; tuples and structs are their fields in
//!   declaration order; enums are a one-byte variant tag followed by the
//!   variant's fields.
//!
//! Every value round-trips: `decode(encode(v)) == v`. Decoding consumes
//! exactly the bytes encoding produced, so values can be concatenated
//! without separators (which is how a frontier record lays out its fields).
//!
//! Encoders write in one pass. A varint below 0x80 — almost every counter,
//! id, tag and length — takes an inlined one-byte path, and the codec impls
//! every record goes through are `#[inline]`, so a key or frontier record
//! costs little more than its bytes. [`Channels`](crate::Channels) writes
//! a placeholder for its channel count and patches it once the channels
//! are written. The bytes are those of writing every count first: the
//! format has not changed.
//!
//! Protocol crates implement the traits for their state and message types
//! with the [`codec!`](crate::codec!) macro:
//!
//! ```
//! use mp_model::{codec, Decode, Encode};
//!
//! #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
//! enum Msg {
//!     Ping { round: u32 },
//!     Stop,
//! }
//! codec!(enum Msg { 0 = Ping { round }, 1 = Stop });
//!
//! let mut bytes = Vec::new();
//! Msg::Ping { round: 7 }.encode(&mut bytes);
//! Msg::Stop.encode(&mut bytes);
//! let mut r = bytes.as_slice();
//! assert_eq!(Msg::decode(&mut r).unwrap(), Msg::Ping { round: 7 });
//! assert_eq!(Msg::decode(&mut r).unwrap(), Msg::Stop);
//! assert!(r.is_empty());
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Error produced when decoding malformed or truncated bytes.
///
/// In practice this only fires on a corrupted spill file (or a programming
/// error pairing an encoder with the wrong decoder); the search engines
/// treat it as fatal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// What the decoder was reading when it failed.
    pub context: &'static str,
}

impl DecodeError {
    /// Creates an error tagged with the failing context.
    pub fn new(context: &'static str) -> Self {
        DecodeError { context }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed encoded state: {}", self.context)
    }
}

impl std::error::Error for DecodeError {}

/// A value that can be serialized into the compact state format.
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that can be reconstructed from the compact state format.
///
/// `input` is advanced past exactly the bytes [`Encode::encode`] produced
/// for the value, so concatenated records decode back to back.
pub trait Decode: Sized {
    /// Decodes one value from the front of `input`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Encodes `value` into a fresh buffer (convenience for tests and
/// single-record uses; bulk writers append with [`Encode::encode`]).
pub fn encode_to_vec<T: Encode>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a single value that must consume the whole input.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input or trailing bytes.
pub fn decode_from_slice<T: Decode>(mut input: &[u8]) -> Result<T, DecodeError> {
    let value = T::decode(&mut input)?;
    if !input.is_empty() {
        return Err(DecodeError::new("trailing bytes after value"));
    }
    Ok(value)
}

/// Appends a LEB128 varint.
#[inline]
pub fn write_varint(value: u64, out: &mut Vec<u8>) {
    // Almost every counter, id, tag and length is below 0x80: one byte.
    if value < 0x80 {
        out.push(value as u8);
        return;
    }
    write_varint_slow(value, out);
}

/// [`write_varint`] of a value that takes two bytes or more.
#[inline(never)]
fn write_varint_slow(value: u64, out: &mut Vec<u8>) {
    leb128(value, |byte| out.push(byte));
}

/// Hands the LEB128 bytes of `value` to `emit`, low seven bits first: the
/// one varint loop, behind both [`write_varint`] and [`Fnv64::write_u64`].
#[inline(always)]
fn leb128(mut value: u64, mut emit: impl FnMut(u8)) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            emit(byte);
            return;
        }
        emit(byte | 0x80);
    }
}

/// Reads a LEB128 varint.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation or a varint longer than 64 bits.
#[inline]
pub fn read_varint(input: &mut &[u8]) -> Result<u64, DecodeError> {
    if let Some((&byte, rest)) = input.split_first() {
        if byte < 0x80 {
            *input = rest;
            return Ok(u64::from(byte));
        }
    }
    read_varint_slow(input)
}

/// [`read_varint`] of a varint that is empty or longer than one byte.
#[inline(never)]
fn read_varint_slow(input: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut value = 0u64;
    for (i, &byte) in input.iter().enumerate() {
        // The 10th byte sits at shift 63: only its lowest payload bit fits,
        // anything above would be shifted out and silently lost; an 11th
        // byte never fits.
        if i == 10 || (i == 9 && byte & 0x7e != 0) {
            return Err(DecodeError::new("varint overflows 64 bits"));
        }
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            *input = &input[i + 1..];
            return Ok(value);
        }
    }
    Err(DecodeError::new("truncated varint"))
}

#[inline]
fn read_byte(input: &mut &[u8], context: &'static str) -> Result<u8, DecodeError> {
    let Some((&byte, rest)) = input.split_first() else {
        return Err(DecodeError::new(context));
    };
    *input = rest;
    Ok(byte)
}

#[inline]
pub(crate) fn read_len(input: &mut &[u8], context: &'static str) -> Result<usize, DecodeError> {
    let len = read_varint(input)?;
    // A sequence cannot be longer than the remaining input (every element
    // costs at least one byte) — reject early so corrupted lengths cannot
    // drive huge allocations.
    if len > input.len() as u64 {
        return Err(DecodeError::new(context));
    }
    Ok(len as usize)
}

impl Encode for () {
    #[inline]
    fn encode(&self, _out: &mut Vec<u8>) {}
}

impl Decode for () {
    #[inline]
    fn decode(_input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(())
    }
}

impl Encode for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match read_byte(input, "truncated bool")? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::new("invalid bool byte")),
        }
    }
}

impl Encode for u8 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Decode for u8 {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        read_byte(input, "truncated u8")
    }
}

macro_rules! varint_codec {
    ($($t:ty),* $(,)?) => {
        $(
            impl Encode for $t {
                #[inline]
                fn encode(&self, out: &mut Vec<u8>) {
                    write_varint(*self as u64, out);
                }
            }
            impl Decode for $t {
                #[inline]
                fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                    let raw = read_varint(input)?;
                    <$t>::try_from(raw).map_err(|_| DecodeError::new("varint out of range"))
                }
            }
        )*
    };
}

varint_codec!(u16, u32, u64, usize);

macro_rules! zigzag_codec {
    ($($t:ty as $wide:ty),* $(,)?) => {
        $(
            impl Encode for $t {
                #[inline]
                fn encode(&self, out: &mut Vec<u8>) {
                    let wide = *self as $wide as i64;
                    write_varint(((wide << 1) ^ (wide >> 63)) as u64, out);
                }
            }
            impl Decode for $t {
                #[inline]
                fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                    let raw = read_varint(input)?;
                    let wide = ((raw >> 1) as i64) ^ -((raw & 1) as i64);
                    <$t>::try_from(wide).map_err(|_| DecodeError::new("zigzag out of range"))
                }
            }
        )*
    };
}

zigzag_codec!(i8 as i64, i16 as i64, i32 as i64, i64 as i64, isize as i64);

impl Encode for u128 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Decode for u128 {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let Some((bytes, rest)) = input.split_first_chunk::<16>() else {
            return Err(DecodeError::new("truncated u128"));
        };
        *input = rest;
        Ok(u128::from_le_bytes(*bytes))
    }
}

impl Encode for i128 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u128).encode(out);
    }
}

impl Decode for i128 {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(u128::decode(input)? as i128)
    }
}

impl Encode for char {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(u64::from(*self as u32), out);
    }
}

impl Decode for char {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let raw = u32::try_from(read_varint(input)?)
            .map_err(|_| DecodeError::new("char out of range"))?;
        char::from_u32(raw).ok_or(DecodeError::new("invalid char scalar"))
    }
}

impl Encode for String {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(self.len() as u64, out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = read_len(input, "truncated string")?;
        let (bytes, rest) = input.split_at(len);
        *input = rest;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::new("invalid utf-8 string"))
    }
}

impl<T: Encode> Encode for Option<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match read_byte(input, "truncated option")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            _ => Err(DecodeError::new("invalid option tag")),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(self.len() as u64, out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = read_len(input, "truncated vec length")?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<T: Encode + Ord> Encode for BTreeSet<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(self.len() as u64, out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = read_len(input, "truncated set length")?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(self.len() as u64, out);
        for (key, value) in self {
            key.encode(out);
            value.encode(out);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = read_len(input, "truncated map length")?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let key = K::decode(input)?;
            out.insert(key, V::decode(input)?);
        }
        Ok(out)
    }
}

macro_rules! tuple_codec {
    ($(($($name:ident : $idx:tt),+)),* $(,)?) => {
        $(
            impl<$($name: Encode),+> Encode for ($($name,)+) {
                #[inline]
                fn encode(&self, out: &mut Vec<u8>) {
                    $(self.$idx.encode(out);)+
                }
            }
            impl<$($name: Decode),+> Decode for ($($name,)+) {
                #[inline]
                fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                    Ok(($($name::decode(input)?,)+))
                }
            }
        )*
    };
}

tuple_codec!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

/// Derives [`Encode`] and [`Decode`] for a struct or enum of codec-capable
/// fields.
///
/// Field *names* are given (types are inferred from the constructor), and
/// enum variants carry explicit one-byte tags so reordering variants cannot
/// silently change the format:
///
/// ```
/// use mp_model::codec;
///
/// #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
/// struct Tok;
/// codec!(struct Tok);
///
/// #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
/// struct Pair { a: u8, b: u32 }
/// codec!(struct Pair { a, b });
///
/// #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
/// enum Msg { Req(u8), Ack { seq: u32 }, Stop }
/// codec!(enum Msg { 0 = Req(v), 1 = Ack { seq }, 2 = Stop });
/// ```
#[macro_export]
macro_rules! codec {
    (struct $name:ident) => {
        impl $crate::Encode for $name {
            #[inline]
            fn encode(&self, _out: &mut Vec<u8>) {}
        }
        impl $crate::Decode for $name {
            #[inline]
            fn decode(_input: &mut &[u8]) -> Result<Self, $crate::DecodeError> {
                Ok($name)
            }
        }
    };
    (struct $name:ident ( $($field:ident),+ $(,)? )) => {
        impl $crate::Encode for $name {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                let $name($($field),+) = self;
                $($crate::Encode::encode($field, out);)+
            }
        }
        impl $crate::Decode for $name {
            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::DecodeError> {
                Ok($name($({ let $field = $crate::Decode::decode(input)?; $field }),+))
            }
        }
    };
    (struct $name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Encode for $name {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::Encode::encode(&self.$field, out);)*
            }
        }
        impl $crate::Decode for $name {
            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::DecodeError> {
                Ok($name { $($field: $crate::Decode::decode(input)?),* })
            }
        }
    };
    (enum $name:ident {
        $($tag:literal = $variant:ident
            $(( $($tf:ident),+ $(,)? ))?
            $({ $($sf:ident),+ $(,)? })?
        ),* $(,)?
    }) => {
        impl $crate::Encode for $name {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(
                        $name::$variant $(( $($tf),+ ))? $({ $($sf),+ })? => {
                            out.push($tag);
                            $($($crate::Encode::encode($tf, out);)+)?
                            $($($crate::Encode::encode($sf, out);)+)?
                        }
                    )*
                }
            }
        }
        impl $crate::Decode for $name {
            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::DecodeError> {
                let Some((&tag, rest)) = input.split_first() else {
                    return Err($crate::DecodeError::new("truncated enum tag"));
                };
                *input = rest;
                match tag {
                    $(
                        $tag => Ok($name::$variant
                            $(( $({ let $tf = $crate::Decode::decode(input)?; $tf }),+ ))?
                            $({ $($sf: $crate::Decode::decode(input)?),+ })?
                        ),
                    )*
                    _ => Err($crate::DecodeError::new("unknown enum tag")),
                }
            }
        }
    };
}

/// Incremental 64-bit FNV-1a hasher.
///
/// The on-disk subsystem uses it for the content checksums of checkpoint
/// files and for [`ProtocolSpec::structure_fingerprint`] — both need a
/// hash that is stable across runs and platforms, which `DefaultHasher`
/// does not guarantee. FNV-1a is fully specified, byte-oriented and
/// dependency-free.
///
/// [`ProtocolSpec::structure_fingerprint`]: crate::ProtocolSpec::structure_fingerprint
///
/// ```
/// use mp_model::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write(b"abc");
/// let once = h.finish();
/// let mut again = Fnv64::new();
/// again.write(b"ab");
/// again.write(b"c");
/// assert_eq!(once, again.finish(), "chunking never changes the digest");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET_BASIS)
    }

    /// Feeds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a varint-encoded integer into the digest (used to hash
    /// structured values without allocating).
    pub fn write_u64(&mut self, value: u64) {
        // FNV-1a is byte-wise, so one byte at a time is the digest of the
        // whole varint.
        leb128(value, |byte| self.write(&[byte]));
    }

    /// Returns the digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_from_slice(&bytes).expect("roundtrip decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(());
        roundtrip(true);
        roundtrip(false);
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0usize);
        roundtrip(usize::MAX);
        roundtrip(u64::MAX);
        roundtrip(12_345u32);
        roundtrip(u16::MAX);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
        roundtrip(-42i8);
        roundtrip(i32::MIN);
        roundtrip(isize::MAX);
        roundtrip(u128::MAX);
        roundtrip(i128::MIN);
        roundtrip('x');
        roundtrip('🦀');
        roundtrip(String::from("hello"));
        roundtrip(String::new());
    }

    #[test]
    fn small_values_encode_small() {
        assert_eq!(encode_to_vec(&5usize), vec![5]);
        assert_eq!(encode_to_vec(&0u64), vec![0]);
        assert_eq!(encode_to_vec(&-1i32), vec![1]); // zigzag
        assert_eq!(encode_to_vec(&300usize).len(), 2);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Some(7u8));
        roundtrip(Option::<u8>::None);
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip(BTreeSet::from([3u8, 1, 2]));
        roundtrip(BTreeMap::from([(1u8, String::from("a")), (2, "b".into())]));
        roundtrip((1u8, 2u32));
        roundtrip((1u8, 2u32, String::from("x")));
        roundtrip((1u8, 2u32, 3u64, Some(4usize)));
    }

    #[test]
    fn records_concatenate_without_separators() {
        let mut bytes = Vec::new();
        for i in 0..10u32 {
            (i, vec![i as u8; i as usize]).encode(&mut bytes);
        }
        let mut r = bytes.as_slice();
        for i in 0..10u32 {
            let (n, v) = <(u32, Vec<u8>)>::decode(&mut r).unwrap();
            assert_eq!(n, i);
            assert_eq!(v.len(), i as usize);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn overlong_varints_error_instead_of_truncating() {
        // u64::MAX is the widest legal varint: nine 0xff bytes + 0x01.
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        assert_eq!(decode_from_slice::<u64>(&max), Ok(u64::MAX));
        // A 10th byte with payload above bit 0 would shift bits out of the
        // u64 — it must error, not silently decode to a wrong value.
        let mut overlong = vec![0x80u8; 9];
        overlong.push(0x02);
        assert!(decode_from_slice::<u64>(&overlong).is_err());
        // An 11th byte is always rejected.
        let mut eleven = vec![0x80u8; 10];
        eleven.push(0x01);
        assert!(decode_from_slice::<u64>(&eleven).is_err());
    }

    /// The LEB128 bytes of the boundaries of the one-byte fast path and of
    /// the widest values, written out by hand.
    const VARINT_VECTORS: [(u64, &[u8]); 7] = [
        (0, &[0x00]),
        (127, &[0x7f]),
        (128, &[0x80, 0x01]),
        (16_383, &[0xff, 0x7f]),
        (16_384, &[0x80, 0x80, 0x01]),
        (u32::MAX as u64, &[0xff, 0xff, 0xff, 0xff, 0x0f]),
        (
            u64::MAX,
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
        ),
    ];

    #[test]
    fn fast_and_slow_varint_paths_emit_and_read_the_same_bytes() {
        for (value, bytes) in VARINT_VECTORS {
            let mut fast = Vec::new();
            write_varint(value, &mut fast);
            let mut slow = Vec::new();
            write_varint_slow(value, &mut slow);
            assert_eq!(fast, bytes, "write_varint({value})");
            assert_eq!(slow, bytes, "write_varint_slow({value})");
            for read in [read_varint, read_varint_slow] {
                let mut input = bytes;
                assert_eq!(read(&mut input), Ok(value));
                assert!(input.is_empty(), "{value} consumes exactly its bytes");
            }
        }
    }

    #[test]
    fn both_varint_readers_refuse_bad_input_by_name() {
        let overlong: &[u8] = &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        let eleven: &[u8] = &[
            0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
        ];
        for read in [read_varint, read_varint_slow] {
            let context = |mut input: &[u8]| read(&mut input).unwrap_err().context;
            assert_eq!(context(&[]), "truncated varint");
            assert_eq!(context(&[0x80]), "truncated varint");
            assert_eq!(context(&[0xff, 0xff]), "truncated varint");
            assert_eq!(context(overlong), "varint overflows 64 bits");
            assert_eq!(context(eleven), "varint overflows 64 bits");
        }
    }

    #[test]
    fn truncated_and_malformed_inputs_error() {
        assert!(decode_from_slice::<u64>(&[0x80]).is_err()); // dangling varint
        assert!(decode_from_slice::<bool>(&[7]).is_err());
        assert!(decode_from_slice::<Option<u8>>(&[2]).is_err());
        assert!(decode_from_slice::<String>(&[2, 0xff]).is_err()); // short
        assert!(decode_from_slice::<u8>(&[1, 2]).is_err()); // trailing
                                                            // A corrupted length larger than the input must not allocate.
        assert!(decode_from_slice::<Vec<u64>>(&[0xff, 0xff, 0x7f]).is_err());
    }

    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Unit;
    codec!(struct Unit);

    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Named {
        a: u8,
        b: Vec<u32>,
    }
    codec!(struct Named { a, b });

    #[derive(Clone, PartialEq, Eq, Debug)]
    enum Mixed {
        Unit,
        Tuple(u8, String),
        Struct { x: Option<u32>, y: bool },
    }
    codec!(enum Mixed {
        0 = Unit,
        1 = Tuple(a, b),
        2 = Struct { x, y },
    });

    #[test]
    fn macro_derived_codecs_roundtrip() {
        roundtrip(Unit);
        roundtrip(Named {
            a: 9,
            b: vec![1, 2, 3],
        });
        roundtrip(Mixed::Unit);
        roundtrip(Mixed::Tuple(4, "hi".into()));
        roundtrip(Mixed::Struct {
            x: Some(8),
            y: true,
        });
        assert!(decode_from_slice::<Mixed>(&[9]).is_err(), "unknown tag");
    }
}

#[cfg(test)]
mod delta_tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        let digest = |bytes: &[u8]| {
            let mut h = Fnv64::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(digest(b""), 0xcbf29ce484222325);
        assert_eq!(digest(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(digest(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv64_write_u64_hashes_the_varint_bytes() {
        // FNV-1a of the LEB128 bytes `00 ac 02 ff ff ff ff ff ff ff ff ff 01`.
        let mut h = Fnv64::new();
        for value in [0, 300, u64::MAX] {
            h.write_u64(value);
        }
        assert_eq!(h.finish(), 0x6ac454940806ffb9);
        let mut bytes = Fnv64::new();
        bytes.write(&[0x00, 0xac, 0x02]);
        bytes.write(&[0xff; 9]);
        bytes.write(&[0x01]);
        assert_eq!(bytes.finish(), h.finish());
    }
}
