//! Binary codecs for durable checkpoints and the shard control socket.
//!
//! The workspace `serde` shim has no serializer, and checkpoint recovery
//! demands *bit-exact* round-trips (a Kahan compensator re-derived from
//! rounded values would diverge from the original stream), so the state
//! types implement [`Codec`]: little-endian fixed-width integers,
//! `f64::to_bits` for floats, and `u64` length prefixes for collections.
//! Decoding is defensive — every read is bounds-checked and every
//! collection length passes [`Reader::len_prefix`], so a truncated or
//! bit-flipped checkpoint surfaces as a [`WireError`], never a panic or
//! an unbounded allocation.
//!
//! A type's layout is written once, as the field list of a [`record!`]
//! or the `tag => Variant` table of a [`tagged!`]; both directions are
//! generated from it. A type another crate owns gets an [`Adapter`] from
//! the same two forms. [`pin`] holds the golden-fixture and hostile-input
//! checks the crates' layout tests share.
//!
//! [`crc32`] is the IEEE polynomial used by the checkpoint store and the
//! framed transport to detect torn writes and corrupted frames.
//! [`Writer::with_header`] reserves room for such a store's or
//! transport's own header ahead of the encoding, so header and payload
//! leave in one buffer without a second copy of the payload.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

mod macros;
pub mod pin;

/// Decoding failure: the input is shorter than the encoding claims, or a
/// field holds a value outside its domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of input mid-field.
    Eof,
    /// A field decoded to an invalid value (bad tag, absurd length, ...).
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of input"),
            WireError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// An append-only byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    /// The accumulated encoding.
    pub buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Writer whose first `len` bytes are zeroed room for a header the
    /// caller fills in (`buf[..len]`) once the payload behind it is
    /// known.
    pub fn with_header(len: usize) -> Writer {
        Writer { buf: vec![0; len] }
    }

    /// Consume the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes verbatim (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u64` length prefix followed by the bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        (bytes.len() as u64).encode(self);
        self.buf.extend_from_slice(bytes);
    }
}

/// A bounds-checked cursor over an encoded buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Where each length prefix read so far began, for a caller that
    /// asked ([`Reader::logging_lengths`]).
    lengths: Option<&'a mut Vec<usize>>,
}

impl<'a> Reader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            lengths: None,
        }
    }

    /// Cursor at the start of `buf` that appends the offset of every
    /// length prefix it reads to `lengths` — how [`pin`] finds the bytes
    /// a hostile peer would inflate.
    pub fn logging_lengths(buf: &'a [u8], lengths: &'a mut Vec<usize>) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            lengths: Some(lengths),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Eof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Take a `u64` collection length. Every element consumes at least
    /// one byte, so a claimed length beyond the remaining input is
    /// corruption — refused here, *before* the caller allocates, so a
    /// flipped length byte cannot demand gigabytes. Every length prefix
    /// in the format is read through this one guard.
    pub fn len_prefix(&mut self) -> Result<usize, WireError> {
        let at = self.pos;
        let len = usize::decode(self)?;
        if len > self.remaining() {
            return Err(WireError::Invalid("collection longer than input"));
        }
        if let Some(lengths) = &mut self.lengths {
            lengths.push(at);
        }
        Ok(len)
    }

    /// Take a `u64`-length-prefixed byte run (see [`Writer::bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.len_prefix()?;
        self.take(len)
    }
}

/// A self-describing binary encoding: every implementation round-trips
/// bit-exactly through `encode` → `decode`.
pub trait Codec: Sized {
    /// Append this value's encoding to the writer.
    fn encode(&self, w: &mut Writer);
    /// Parse one value, advancing the reader past it.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encode a value into a fresh byte vector.
pub fn to_bytes<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decode a value from a buffer, requiring the buffer to be fully
/// consumed (trailing garbage is corruption, not padding).
pub fn from_bytes<T: Codec>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Invalid("trailing bytes after value"));
    }
    Ok(value)
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, w: &mut Writer) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i64);

impl Codec for usize {
    fn encode(&self, w: &mut Writer) {
        (*self as u64).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| WireError::Invalid("usize overflow"))
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut Writer) {
        w.buf.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool tag")),
        }
    }
}

impl Codec for f64 {
    /// Bit-pattern round-trip: NaN payloads, signed zeros and every last
    /// ulp survive, which the checkpoint bit-identity guarantee needs.
    fn encode(&self, w: &mut Writer) {
        self.to_bits().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Codec for String {
    fn encode(&self, w: &mut Writer) {
        w.bytes(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("utf-8 string"))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.buf.push(0),
            Some(v) => {
                w.buf.push(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::Invalid("option tag")),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        <Vec<Native> as Adapter<Self>>::encode(self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        <Vec<Native> as Adapter<Self>>::decode(r)
    }
}

/// A collection on the wire: its length, then each item in turn.
fn encode_seq<I: ExactSizeIterator>(items: I, w: &mut Writer, each: impl Fn(I::Item, &mut Writer)) {
    items.len().encode(w);
    for item in items {
        each(item, w);
    }
}

/// Read back what [`encode_seq`] wrote, into any collection. (A `Vec`
/// decodes with its own loop: it is the matrix payload, and knows its
/// capacity up front.)
fn decode_seq<T, C: FromIterator<T>>(
    r: &mut Reader<'_>,
    mut each: impl FnMut(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<C, WireError> {
    let len = r.len_prefix()?;
    (0..len).map(|_| each(r)).collect()
}

impl<T: Codec> Codec for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        encode_seq(self.iter(), w, T::encode);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        decode_seq(r, T::decode)
    }
}

/// Entries in key order, so a map is on the wire what a sorted
/// `Vec<(K, V)>` is.
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        <BTreeMap<K, Native> as Adapter<Self>>::encode(self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        <BTreeMap<K, Native> as Adapter<Self>>::decode(r)
    }
}

/// Entries in key order — the bytes of a [`BTreeMap`] with the same
/// contents — so equal maps encode equally whatever their hash order.
impl<K: Codec + Ord + Hash, V: Codec> Codec for HashMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        encode_seq(entries.into_iter(), w, |(k, v), w| {
            k.encode(w);
            v.encode(w);
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        decode_seq(r, <(K, V)>::decode)
    }
}

/// Members in ascending order (see [`HashMap`]'s impl).
impl<T: Codec + Ord + Hash> Codec for HashSet<T> {
    fn encode(&self, w: &mut Writer) {
        let mut members: Vec<&T> = self.iter().collect();
        members.sort_unstable();
        encode_seq(members.into_iter(), w, T::encode);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        decode_seq(r, T::decode)
    }
}

/// The shared value itself: in-process edges move `Arc`s, the wire moves
/// what they point at.
impl<T: Codec> Codec for Arc<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

impl<T: Codec> Codec for Box<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(r)?))
    }
}

/// The elements in order, with no length prefix (the type fixes it).
impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn encode(&self, w: &mut Writer) {
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::decode(r)?;
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// A codec for a type `T` the implementing crate does not own (the
/// orphan rule forbids `impl Codec for T` there). [`record!`] and
/// [`tagged!`] generate one from the same field list or variant table
/// they take for a local type; a field of such a type is then written
/// `field as TheAdapter`.
pub trait Adapter<T> {
    /// Append `value`'s encoding to the writer.
    fn encode(value: &T, w: &mut Writer);
    /// Parse one value, advancing the reader past it.
    fn decode(r: &mut Reader<'_>) -> Result<T, WireError>;
}

/// The adapter of a type that is its own [`Codec`]: the leaf of an
/// adapter for a collection that mixes local and foreign types, as in
/// `args as Vec<(Native, ArgWire)>`.
#[derive(Debug, Clone, Copy)]
pub struct Native;

impl<T: Codec> Adapter<T> for Native {
    fn encode(value: &T, w: &mut Writer) {
        value.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<T, WireError> {
        T::decode(r)
    }
}

/// Decode, through adapter `A`, a value of the type `like` has — for
/// generated code that can name a field but not its type.
pub fn decode_like<A: Adapter<T>, T>(_like: &T, r: &mut Reader<'_>) -> Result<T, WireError> {
    A::decode(r)
}

impl<T, A: Adapter<T>> Adapter<Vec<T>> for Vec<A> {
    fn encode(value: &Vec<T>, w: &mut Writer) {
        encode_seq(value.iter(), w, A::encode);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
        let len = r.len_prefix()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(A::decode(r)?);
        }
        Ok(out)
    }
}

impl<TA, TB, A: Adapter<TA>, B: Adapter<TB>> Adapter<(TA, TB)> for (A, B) {
    fn encode(value: &(TA, TB), w: &mut Writer) {
        A::encode(&value.0, w);
        B::encode(&value.1, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<(TA, TB), WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<K: Codec + Ord, V, A: Adapter<V>> Adapter<BTreeMap<K, V>> for BTreeMap<K, A> {
    fn encode(value: &BTreeMap<K, V>, w: &mut Writer) {
        encode_seq(value.iter(), w, |(k, v), w| {
            k.encode(w);
            A::encode(v, w);
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<BTreeMap<K, V>, WireError> {
        decode_seq(r, |r| Ok((K::decode(r)?, A::decode(r)?)))
    }
}

/// The reflected IEEE polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `t[0]` is the classic byte table, `t[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    CRC_POLY ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// IEEE CRC32 (the polynomial Ethernet, gzip and PNG share), eight bytes
/// per step (slicing-by-8: one table lookup per input byte, but the
/// eight lookups of a step are independent of one another).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        assert_eq!(from_bytes::<T>(&bytes).unwrap(), value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("pair trading"));
        roundtrip(String::new());
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            std::f64::consts::PI,
            -1.2345678901234567e-300,
        ] {
            let bytes = to_bytes(&v);
            let back: f64 = from_bytes(&bytes).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        // NaN payload survives too.
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let back: f64 = from_bytes(&to_bytes(&nan)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn collections_and_compounds_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(VecDeque::from([(-1i64, true), (7, false)]));
        roundtrip(Some(vec![0.5f64, -0.5]));
        roundtrip(Option::<u32>::None);
        roundtrip(((1.0f64, 2.0f64), (3.0f64, 4.0f64, 5.0f64)));
        roundtrip(vec![Some("a".to_string()), None]);
    }

    #[test]
    fn maps_and_sets_travel_in_key_order_whatever_their_hasher() {
        let pairs = [(9u32, "i".to_string()), (2, "b".into()), (5, "e".into())];
        let sorted = to_bytes(&vec![pairs[1].clone(), pairs[2].clone(), pairs[0].clone()]);
        assert_eq!(to_bytes(&BTreeMap::from(pairs.clone())), sorted);
        assert_eq!(to_bytes(&HashMap::from(pairs.clone())), sorted);
        roundtrip(HashMap::from(pairs.clone()));
        roundtrip(BTreeMap::from(pairs));
        let members = HashSet::from([(7usize, 1usize), (0, 3), (7, 0)]);
        assert_eq!(
            to_bytes(&members),
            to_bytes(&vec![(0usize, 3usize), (7, 0), (7, 1)])
        );
        roundtrip(members);
    }

    #[test]
    fn pointers_and_arrays_add_nothing_to_their_contents() {
        assert_eq!(to_bytes(&Arc::new(7u32)), to_bytes(&7u32));
        assert_eq!(to_bytes(&Box::new(7u32)), to_bytes(&7u32));
        assert_eq!(
            to_bytes(&[1.5f64, -0.0, 2.0]),
            to_bytes(&(1.5f64, -0.0f64, 2.0f64))
        );
        roundtrip(Arc::new(vec![1u8, 2]));
        roundtrip(Box::new(Some(3u64)));
        roundtrip([1.5f64, -2.0, 0.25]);
        assert_eq!(
            from_bytes::<[u64; 2]>(&to_bytes(&1u64)),
            Err(WireError::Eof)
        );
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Vec<u64>>(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn absurd_length_is_rejected_before_allocation() {
        // Claims 2^60 elements with 0 bytes of payload.
        let mut w = Writer::new();
        (1u64 << 60).encode(&mut w);
        assert_eq!(
            from_bytes::<Vec<u64>>(&w.buf),
            Err(WireError::Invalid("collection longer than input"))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert!(from_bytes::<u32>(&bytes).is_err());
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert_eq!(
            from_bytes::<bool>(&[2]),
            Err(WireError::Invalid("bool tag"))
        );
        assert_eq!(
            from_bytes::<Option<u8>>(&[9, 0]),
            Err(WireError::Invalid("option tag"))
        );
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &crc_tables()[0];
        let mut crc = !0u32;
        for &b in bytes {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bytewise_loop_at_every_length_and_alignment() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut buf = vec![0u8; 64 + 8 + 4096];
        for b in &mut buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
        for offset in 0..8 {
            for len in (0..=64).chain([1000, 4095, 4096]) {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn bit_flip_changes_crc() {
        let data = b"checkpoint payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "byte {byte} bit {bit}");
            }
        }
    }
}
