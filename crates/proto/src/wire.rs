//! Protocol Buffers wire-format primitives, implemented from scratch.
//!
//! The paper's FlexRAN protocol serializes its messages with Google
//! Protocol Buffers ("an optimized platform-neutral serialization
//! mechanism"). This module reimplements the *wire format* — base-128
//! varints, ZigZag signed encoding, tag/wire-type framing, and
//! length-delimited nesting — so that message sizes on the wire match what
//! a protobuf implementation would produce; the signalling-overhead
//! experiment (Fig. 7) measures exactly these sizes.
//!
//! Unknown fields are skipped on decode (forward compatibility, the same
//! guarantee protobuf gives — and the property the paper leans on for
//! protocol evolvability).
//!
//! Encoders write fields in ascending field-number order, and the
//! messages of the per-TTI control loop decode in that order:
//! `wire_order_decoder!` turns one field list per message into an
//! in-order pass that tests the next expected tag before anything else
//! (the fast-table idea of upb-style protobuf parsers) and a general
//! [`WireReader::next_field`] loop for whatever the pass left unread —
//! out-of-order, duplicated and unknown fields, non-canonical tags —
//! with identical results.

use bytes::{BufMut, Bytes, BytesMut};
use flexran_types::{FlexError, Result};

/// Protobuf wire types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    Varint = 0,
    Fixed64 = 1,
    LengthDelimited = 2,
    Fixed32 = 5,
}

impl WireType {
    fn from_bits(bits: u64) -> Result<WireType> {
        Ok(match bits {
            0 => WireType::Varint,
            1 => WireType::Fixed64,
            2 => WireType::LengthDelimited,
            5 => WireType::Fixed32,
            other => {
                return Err(FlexError::Codec(format!("unsupported wire type {other}")));
            }
        })
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) slicing-by-16
/// lookup tables, built at compile time. `CRC32_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC32_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets [`crc32`] fold sixteen input
/// bytes per step with sixteen independent loads instead of sixteen
/// dependent ones.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // lint:allow(panic): i < 256 by the loop bound, at compile time.
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            // lint:allow(panic): 1 <= k < 16 and i < 256 by the loop bounds.
            let prev = tables[k - 1][i];
            // lint:allow(panic): as above; the inner index is masked to 0xFF.
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// `CRC32_TABLES[k]` at the low byte of `bits`.
#[inline(always)]
fn crc32_lut(k: usize, bits: u64) -> u32 {
    // lint:allow(panic): callers pass k < 16 (a literal plus 0 or 8); the index is masked.
    CRC32_TABLES[k][(bits & 0xFF) as usize]
}

/// The CRC contribution of eight little-endian input bytes `v` that are
/// followed by `trailing` (0 or 8) more bytes of the same step.
#[inline(always)]
fn crc32_fold8(v: u64, trailing: usize) -> u32 {
    crc32_lut(trailing + 7, v)
        ^ crc32_lut(trailing + 6, v >> 8)
        ^ crc32_lut(trailing + 5, v >> 16)
        ^ crc32_lut(trailing + 4, v >> 24)
        ^ crc32_lut(trailing + 3, v >> 32)
        ^ crc32_lut(trailing + 2, v >> 40)
        ^ crc32_lut(trailing + 1, v >> 48)
        ^ crc32_lut(trailing, v >> 56)
}

/// CRC-32 (IEEE) of `data`. Used as the envelope integrity check: unlike
/// a plain sum, CRC-32 is guaranteed to detect every single-bit error and
/// every burst error up to 32 bits — the failure modes a corrupted
/// control channel actually produces.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    // lint:alloc-free-callee `slice::as_chunks` only splits the borrow
    let (words, tail) = data.as_chunks::<8>();
    // lint:alloc-free-callee `slice::as_chunks` only splits the borrow
    let (pairs, odd_word) = words.as_chunks::<2>();
    for [lo, hi] in pairs {
        crc = crc32_fold8(u64::from_le_bytes(*lo) ^ crc as u64, 8)
            ^ crc32_fold8(u64::from_le_bytes(*hi), 0);
    }
    for w in odd_word {
        crc = crc32_fold8(u64::from_le_bytes(*w) ^ crc as u64, 0);
    }
    for &b in tail {
        crc = (crc >> 8) ^ crc32_lut(0, (crc ^ b as u32) as u64);
    }
    !crc
}

/// Append a base-128 varint. One- and two-byte values — every tag, most
/// lengths and report fields — are written inline; longer ones are
/// assembled on the stack and appended with a single copy.
#[inline]
pub fn put_uvarint(buf: &mut BytesMut, v: u64) {
    if v < 0x80 {
        buf.put_u8(v as u8);
    } else if v < 0x4000 {
        buf.put_slice(&[v as u8 | 0x80, (v >> 7) as u8]);
    } else {
        put_uvarint_multibyte(buf, v);
    }
}

fn put_uvarint_multibyte(buf: &mut BytesMut, mut v: u64) {
    let mut bytes = [0u8; 10];
    let mut n = 0;
    for slot in bytes.iter_mut() {
        n += 1;
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            *slot = byte;
            break;
        }
        *slot = byte | 0x80;
    }
    // lint:allow(panic): n counts loop iterations over a 10-byte array.
    buf.put_slice(&bytes[..n]);
}

/// Read a base-128 varint, returning `(value, bytes_consumed)`.
pub fn get_uvarint(data: &[u8]) -> Result<(u64, usize)> {
    let mut r = WireReader::new(data);
    let v = r.varint()?;
    Ok((v, data.len() - r.data.len()))
}

fn get_uvarint_multibyte(data: &[u8]) -> Result<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, byte) in data.iter().enumerate() {
        if shift >= 64 {
            return Err(FlexError::Codec("varint longer than 10 bytes".into()));
        }
        value |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            // Reject non-canonical over-long encodings of small values at
            // the 10th byte (would silently truncate).
            if i == 9 && *byte > 1 {
                return Err(FlexError::Codec("varint overflows u64".into()));
            }
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(FlexError::Codec("truncated varint".into()))
}

/// ZigZag-encode a signed value (protobuf `sint64`).
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// ZigZag-decode.
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Number of bytes `v` occupies as a varint (size estimation for tests
/// and overhead accounting).
pub fn uvarint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// Streaming writer producing protobuf-compatible bytes.
///
/// Fields with default values (0, empty) are *skipped*, exactly as
/// protobuf serializers do — this is what gives the FlexRAN protocol its
/// compact statistics reports.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    pub fn new() -> Self {
        WireWriter {
            buf: BytesMut::with_capacity(64),
        }
    }

    /// A writer that appends to `buf` — with [`Self::into_vec`], how a
    /// byte log (the RIB journal) has records encoded in place instead of
    /// encoded elsewhere and copied in.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        WireWriter { buf: buf.into() }
    }

    /// Hand the buffer back (see [`Self::from_vec`]).
    pub fn into_vec(self) -> Vec<u8> {
        self.buf.into()
    }

    #[inline]
    fn tag(&mut self, field: u32, wt: WireType) {
        put_uvarint(&mut self.buf, ((field as u64) << 3) | wt as u64);
    }

    /// `uint32`/`uint64`/`bool`/enum field (skipped when 0).
    #[inline]
    pub fn uint(&mut self, field: u32, v: u64) {
        if v == 0 {
            return;
        }
        self.tag(field, WireType::Varint);
        put_uvarint(&mut self.buf, v);
    }

    /// `sint64` field, ZigZag encoded (skipped when 0).
    #[inline]
    pub fn sint(&mut self, field: u32, v: i64) {
        if v == 0 {
            return;
        }
        self.tag(field, WireType::Varint);
        put_uvarint(&mut self.buf, zigzag_encode(v));
    }

    /// `double` field (skipped when exactly 0.0).
    pub fn double(&mut self, field: u32, v: f64) {
        if v == 0.0 {
            return;
        }
        self.tag(field, WireType::Fixed64);
        self.buf.put_u64_le(v.to_bits());
    }

    /// `fixed32` field (skipped when 0).
    pub fn fixed32(&mut self, field: u32, v: u32) {
        if v == 0 {
            return;
        }
        self.tag(field, WireType::Fixed32);
        self.buf.put_u32_le(v);
    }

    /// Like [`WireWriter::fixed32`] but always emitted — for fields whose
    /// presence is structural (the envelope integrity trailer must occupy
    /// its five bytes even when the checksum happens to be 0).
    pub fn fixed32_always(&mut self, field: u32, v: u32) {
        self.tag(field, WireType::Fixed32);
        self.buf.put_u32_le(v);
    }

    /// `string` field (skipped when empty).
    pub fn string(&mut self, field: u32, s: &str) {
        if s.is_empty() {
            return;
        }
        self.tag(field, WireType::LengthDelimited);
        put_uvarint(&mut self.buf, s.len() as u64);
        self.buf.put_slice(s.as_bytes());
    }

    /// `bytes` field (skipped when empty).
    pub fn bytes_field(&mut self, field: u32, b: &[u8]) {
        if b.is_empty() {
            return;
        }
        self.tag(field, WireType::LengthDelimited);
        put_uvarint(&mut self.buf, b.len() as u64);
        self.buf.put_slice(b);
    }

    /// `repeated uint` as a packed field (protobuf packed encoding —
    /// what makes per-subband CQI arrays cheap on the wire). Written in
    /// one pass behind a patched length prefix, like [`Self::message`].
    pub fn packed_uints<T: Copy + Into<u64>>(&mut self, field: u32, vs: &[T]) {
        if vs.is_empty() {
            return;
        }
        self.tag(field, WireType::LengthDelimited);
        let len_pos = self.open_length();
        for v in vs {
            put_uvarint(&mut self.buf, (*v).into());
        }
        self.close_length(len_pos);
    }

    /// Nested message field: the closure writes the submessage.
    ///
    /// Encodes in place: the submessage is written directly into this
    /// writer's buffer after a one-byte length placeholder, which is
    /// patched (shifting the payload only when the length needs a
    /// multi-byte varint, i.e. ≥ 128 bytes). No per-submessage
    /// allocation, and the bytes stay canonical protobuf — sizes still
    /// match a real implementation, which Fig. 7 depends on.
    pub fn message<F: FnOnce(&mut WireWriter)>(&mut self, field: u32, f: F) {
        self.tag(field, WireType::LengthDelimited);
        let len_pos = self.open_length();
        // The closure body is analyzed at its definition site
        // (closures-as-edges), not through this `FnOnce`. lint:alloc-free-callee
        f(self);
        self.close_length(len_pos);
    }

    /// Reserve a one-byte length prefix; returns its position.
    fn open_length(&mut self) -> usize {
        let len_pos = self.buf.len();
        self.buf.put_u8(0);
        len_pos
    }

    /// Patch the prefix opened at `len_pos` with the length of everything
    /// written since.
    fn close_length(&mut self, len_pos: usize) {
        let payload = self.buf.len() - len_pos - 1;
        let len_bytes = uvarint_len(payload as u64);
        if len_bytes > 1 {
            // Shift the payload right to make room for the longer varint.
            let end = self.buf.len();
            self.buf.resize(end + len_bytes - 1, 0);
            self.buf.copy_within(len_pos + 1..end, len_pos + len_bytes);
        }
        let mut v = payload as u64;
        for slot in self.buf.iter_mut().skip(len_pos).take(len_bytes) {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            *slot = if v == 0 { byte } else { byte | 0x80 };
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes so far (borrowing accessor for pooled writers
    /// that are cleared and reused instead of consumed).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Reset for reuse, keeping the underlying allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Finish, yielding the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// A decoded field value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireValue<'a> {
    Varint(u64),
    Fixed64(u64),
    Bytes(&'a [u8]),
    Fixed32(u32),
}

impl<'a> WireValue<'a> {
    #[inline]
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            WireValue::Varint(v) => Ok(*v),
            WireValue::Fixed64(v) => Ok(*v),
            WireValue::Fixed32(v) => Ok(*v as u64),
            WireValue::Bytes(_) => Err(FlexError::Codec("expected scalar, got bytes".into())),
        }
    }

    #[inline]
    pub fn as_u32(&self) -> Result<u32> {
        Ok(self.as_u64()? as u32)
    }

    #[inline]
    pub fn as_i64_zigzag(&self) -> Result<i64> {
        Ok(zigzag_decode(self.as_u64()?))
    }

    pub fn as_f64(&self) -> Result<f64> {
        match self {
            WireValue::Fixed64(v) => Ok(f64::from_bits(*v)),
            _ => Err(FlexError::Codec("expected double".into())),
        }
    }

    #[inline]
    pub fn as_bytes(&self) -> Result<&'a [u8]> {
        match self {
            WireValue::Bytes(b) => Ok(b),
            _ => Err(FlexError::Codec("expected length-delimited field".into())),
        }
    }

    pub fn as_str(&self) -> Result<&'a str> {
        std::str::from_utf8(self.as_bytes()?)
            .map_err(|_| FlexError::Codec("invalid UTF-8 in string field".into()))
    }

    /// Decode a packed repeated-uint field.
    pub fn as_packed_uints(&self) -> Result<Vec<u64>> {
        let data = self.as_bytes()?;
        // One varint per byte with the continuation bit clear: exact for
        // well-formed input and never more than `data.len()`, so the
        // vector is sized once instead of grown by doubling.
        let mut out = Vec::with_capacity(data.iter().filter(|b| **b < 0x80).count());
        let mut r = WireReader::new(data);
        while !r.is_empty() {
            out.push(r.varint()?);
        }
        Ok(out)
    }
}

/// Streaming reader over an encoded message.
#[derive(Debug, Clone, Copy)]
pub struct WireReader<'a> {
    data: &'a [u8],
}

impl<'a> WireReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data }
    }

    /// Next `(field number, value)`, or `None` at end of input.
    #[inline]
    pub fn next_field(&mut self) -> Result<Option<(u32, WireValue<'a>)>> {
        if self.data.is_empty() {
            return Ok(None);
        }
        let key = self.varint()?;
        let field = (key >> 3) as u32;
        if field == 0 {
            return Err(FlexError::Codec("field number 0 is invalid".into()));
        }
        let value = self.value(WireType::from_bits(key & 0x7)?)?;
        Ok(Some((field, value)))
    }

    /// Strip tag `key` off the front of the input if its canonical (one-
    /// or two-byte) encoding is what comes next. Anything else — another
    /// field, an over-long tag, a key of three or more bytes — is left in
    /// place for [`Self::next_field`].
    #[inline(always)]
    pub(crate) fn eat_key(&mut self, key: u32) -> bool {
        if key < 0x80 {
            if let Some((&b, rest)) = self.data.split_first() {
                if b as u32 == key {
                    self.data = rest;
                    return true;
                }
            }
        } else if key < 0x4000 {
            if let Some((&[lo, hi], rest)) = self.data.split_first_chunk::<2>() {
                if lo == key as u8 | 0x80 && hi as u32 == key >> 7 {
                    self.data = rest;
                    return true;
                }
            }
        }
        false
    }

    /// The value of a field of wire type `wt`, whose tag was just read.
    #[inline(always)]
    pub(crate) fn value(&mut self, wt: WireType) -> Result<WireValue<'a>> {
        Ok(match wt {
            WireType::Varint => WireValue::Varint(self.varint()?),
            WireType::Fixed64 => {
                let Some((bytes, rest)) = self.data.split_first_chunk::<8>() else {
                    return Err(truncated("fixed64"));
                };
                self.data = rest;
                WireValue::Fixed64(u64::from_le_bytes(*bytes))
            }
            WireType::LengthDelimited => {
                let len = self.varint()?;
                let Some((v, rest)) = self.data.split_at_checked(len as usize) else {
                    return Err(truncated("length-delimited field"));
                };
                self.data = rest;
                WireValue::Bytes(v)
            }
            WireType::Fixed32 => {
                let Some((bytes, rest)) = self.data.split_first_chunk::<4>() else {
                    return Err(truncated("fixed32"));
                };
                self.data = rest;
                WireValue::Fixed32(u32::from_le_bytes(*bytes))
            }
        })
    }

    /// Whether the whole input has been read.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A varint off the front of the input. One- and two-byte values —
    /// every tag and length of a report and most of its values — are
    /// read in place; longer ones out of line.
    #[inline(always)]
    pub(crate) fn varint(&mut self) -> Result<u64> {
        match self.data {
            [b @ 0..=0x7F, rest @ ..] => {
                self.data = rest;
                Ok(*b as u64)
            }
            [lo, hi @ 0..=0x7F, rest @ ..] => {
                self.data = rest;
                Ok((lo & 0x7F) as u64 | (*hi as u64) << 7)
            }
            _ => {
                let (v, n) = get_uvarint_multibyte(self.data)?;
                // The loop consumed `n <= len` bytes, so the tail always
                // exists; the `unwrap_or` is unreachable but panic-free.
                self.data = self.data.get(n..).unwrap_or(&[]);
                Ok(v)
            }
        }
    }
}

/// Truncated-field error, out of line so the inlined readers stay small.
#[cold]
fn truncated(what: &str) -> FlexError {
    // lint:allow(alloc-reach) error path — materializes only on failure
    FlexError::Codec(format!("truncated {what}"))
}

/// Emit a message's decoder from its one field list, written in the
/// order the encoder emits the fields (ascending field number):
///
/// ```ignore
/// impl Sample {
///     wire_order_decoder! {
///         Sample::default(), |m, v| {
///             1 Varint => m.id = v.as_u32()?;
///             // `repeated`: the field may follow itself on the wire.
///             2 LengthDelimited repeated => m.items.push(Item::decode(v.as_bytes()?)?);
///         }
///     }
/// }
/// ```
///
/// Each line is a field number, its wire type and a handler that folds
/// the field's [`WireValue`] `v` into the message `m`. The macro emits
/// `merge_from(m, data)`, which folds `data` into an existing message,
/// and — unless the starting value before `|m, v|` is left out, for a
/// message only ever decoded in place — `decode(data) -> Result<Self>`,
/// which folds it into that starting value. `merge_from` has two parts:
///
/// 1. The in-order pass. For each field in list order it compares the
///    next one or two bytes with that field's constant tag
///    ([`WireReader::eat_key`]); on a match it reads the value of the
///    known wire type directly and runs the handler (again while a
///    `repeated` field repeats), otherwise it moves on to the next field.
///    On what the encoder writes — ascending numbers, canonical tags —
///    this consumes the whole message with one byte compare per field.
/// 2. The general loop over whatever the pass left unread:
///    [`WireReader::next_field`] and a `match` on the field number with
///    the same handlers. It covers out-of-order, duplicated and unknown
///    fields, non-canonical tags and known fields under another wire
///    type.
///
/// The pass only ever consumes a prefix of the fields, each exactly as
/// the loop would have, so the result — value or error — is the loop's
/// alone. `messages::reference` proptests that against a naive decoder.
macro_rules! wire_order_decoder {
    (@in_order $r:ident, $num:literal, $wt:ident, , $v:ident => $handler:expr) => {
        if $r.eat_key(const { ($num << 3) | $crate::wire::WireType::$wt as u32 }) {
            let $v = $r.value($crate::wire::WireType::$wt)?;
            $handler;
        }
    };
    (@in_order $r:ident, $num:literal, $wt:ident, repeated, $v:ident => $handler:expr) => {
        while $r.eat_key(const { ($num << 3) | $crate::wire::WireType::$wt as u32 }) {
            let $v = $r.value($crate::wire::WireType::$wt)?;
            $handler;
        }
    };
    (|$m:ident, $v:ident| {
        $($num:literal $wt:ident $($repeated:ident)? => $handler:expr;)*
    }) => {
        pub(crate) fn merge_from($m: &mut Self, data: &[u8]) -> ::flexran_types::Result<()> {
            let mut r = $crate::wire::WireReader::new(data);
            $($crate::wire::wire_order_decoder!(@in_order r, $num, $wt, $($repeated)?, $v => $handler);)*
            while let Some((field, $v)) = r.next_field()? {
                match field {
                    $($num => {
                        $handler;
                    })*
                    _ => {}
                }
            }
            Ok(())
        }
    };
    ($init:expr, |$m:ident, $v:ident| { $($fields:tt)* }) => {
        pub(crate) fn decode(data: &[u8]) -> ::flexran_types::Result<Self> {
            let mut m = $init;
            Self::merge_from(&mut m, data)?;
            Ok(m)
        }

        $crate::wire::wire_order_decoder!(|$m, $v| { $($fields)* });
    };
}
pub(crate) use wire_order_decoder;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::reference::crc32_bitwise;
    use proptest::prelude::*;

    #[test]
    fn uvarint_roundtrip_known_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, v);
            let (got, n) = get_uvarint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
            assert_eq!(n, uvarint_len(v));
        }
        // Protobuf's canonical example: 300 = [0xAC, 0x02].
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 300);
        assert_eq!(&buf[..], &[0xAC, 0x02]);
    }

    #[test]
    fn uvarint_rejects_truncation_and_overflow() {
        assert!(get_uvarint(&[0x80]).is_err());
        assert!(get_uvarint(&[]).is_err());
        // 11-byte varint.
        assert!(get_uvarint(&[0x80; 11]).is_err());
        // u64::MAX is [0xFF; 9] + 0x01; 0x02 in the last byte overflows.
        let mut overflow = vec![0xFFu8; 9];
        overflow.push(0x02);
        assert!(get_uvarint(&overflow).is_err());
    }

    /// The varint writer before the one- and two-byte fast paths.
    fn put_uvarint_loop(buf: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                buf.push(byte);
                return;
            }
            buf.push(byte | 0x80);
        }
    }

    #[test]
    fn crc32_known_answers() {
        // The CRC catalogue's check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn zigzag_known_values() {
        // The protobuf documentation table.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_encode(2147483647), 4294967294);
        assert_eq!(zigzag_encode(-2147483648), 4294967295);
    }

    #[test]
    fn writer_skips_defaults() {
        let mut w = WireWriter::new();
        w.uint(1, 0);
        w.double(2, 0.0);
        w.string(3, "");
        w.bytes_field(4, &[]);
        w.packed_uints::<u64>(5, &[]);
        assert!(w.is_empty(), "default values must not hit the wire");
    }

    #[test]
    fn field_roundtrip_all_types() {
        let mut w = WireWriter::new();
        w.uint(1, 42);
        w.sint(2, -7);
        w.double(3, 2.5);
        w.fixed32(4, 0xDEAD);
        w.string(5, "flexran");
        w.bytes_field(6, &[1, 2, 3]);
        w.packed_uints(7, &[0u64, 1, 300]);
        w.message(8, |m| {
            m.uint(1, 9);
        });
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        let mut seen = 0;
        while let Some((field, value)) = r.next_field().unwrap() {
            seen += 1;
            match field {
                1 => assert_eq!(value.as_u64().unwrap(), 42),
                2 => assert_eq!(value.as_i64_zigzag().unwrap(), -7),
                3 => assert_eq!(value.as_f64().unwrap(), 2.5),
                4 => assert_eq!(value.as_u32().unwrap(), 0xDEAD),
                5 => assert_eq!(value.as_str().unwrap(), "flexran"),
                6 => assert_eq!(value.as_bytes().unwrap(), &[1, 2, 3]),
                7 => assert_eq!(value.as_packed_uints().unwrap(), vec![0, 1, 300]),
                8 => {
                    let mut inner = WireReader::new(value.as_bytes().unwrap());
                    let (f, v) = inner.next_field().unwrap().unwrap();
                    assert_eq!((f, v.as_u64().unwrap()), (1, 9));
                }
                other => panic!("unexpected field {other}"),
            }
        }
        assert_eq!(seen, 8);
    }

    #[test]
    fn long_nested_message_shifts_for_multibyte_length() {
        // Payload ≥ 128 bytes forces the in-place encoder to widen the
        // one-byte length placeholder; nesting inside the long message
        // checks the shift composes with recursion.
        let mut w = WireWriter::new();
        w.message(1, |m| {
            m.bytes_field(2, &[0xAB; 300]);
            m.message(3, |inner| inner.uint(1, 7));
        });
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        let (field, value) = r.next_field().unwrap().unwrap();
        assert_eq!(field, 1);
        let payload = value.as_bytes().unwrap();
        assert!(payload.len() > 300);
        let mut inner = WireReader::new(payload);
        let (f2, v2) = inner.next_field().unwrap().unwrap();
        assert_eq!(f2, 2);
        assert_eq!(v2.as_bytes().unwrap(), &[0xAB; 300][..]);
        let (f3, v3) = inner.next_field().unwrap().unwrap();
        assert_eq!(f3, 3);
        let mut r3 = WireReader::new(v3.as_bytes().unwrap());
        let (f, v) = r3.next_field().unwrap().unwrap();
        assert_eq!((f, v.as_u64().unwrap()), (1, 7));
        assert!(r.next_field().unwrap().is_none());
    }

    #[test]
    fn unknown_fields_are_skippable() {
        // A decoder looping next_field simply ignores unknown numbers —
        // verify every wire type parses past correctly.
        let mut w = WireWriter::new();
        w.uint(99, 7);
        w.double(98, 1.25);
        w.string(97, "x");
        w.fixed32(96, 5);
        w.uint(1, 1);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        let mut got_field1 = false;
        while let Some((field, value)) = r.next_field().unwrap() {
            if field == 1 {
                got_field1 = value.as_u64().unwrap() == 1;
            }
        }
        assert!(got_field1);
    }

    #[test]
    fn reader_rejects_garbage() {
        // Wire type 3 (group start) unsupported.
        let mut r = WireReader::new(&[0x0B]);
        assert!(r.next_field().is_err());
        // Field number 0.
        let mut r = WireReader::new(&[0x00, 0x00]);
        assert!(r.next_field().is_err());
        // Truncated length-delimited.
        let mut w = WireWriter::new();
        w.bytes_field(1, &[1, 2, 3, 4]);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes[..bytes.len() - 2]);
        assert!(r.next_field().is_err());
        // Truncated fixed64 / fixed32.
        let mut r = WireReader::new(&[0x09, 0x01, 0x02]);
        assert!(r.next_field().is_err());
        let mut r = WireReader::new(&[0x0D, 0x01]);
        assert!(r.next_field().is_err());
    }

    proptest! {
        #[test]
        fn uvarint_roundtrip(v in any::<u64>()) {
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, v);
            let (got, n) = get_uvarint(&buf).unwrap();
            prop_assert_eq!(got, v);
            prop_assert_eq!(n, buf.len());
            prop_assert_eq!(n, uvarint_len(v));
        }

        /// The slicing kernel against the bit-at-a-time reference: every
        /// window of 0..=300 bytes — up to eighteen 16-byte steps, then
        /// every combination of 8-byte and 1-byte tails — at a drawn
        /// alignment.
        #[test]
        fn crc32_matches_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 332..333),
            offset in 0usize..32,
        ) {
            for len in 0..=300 {
                let window = &data[offset..offset + len];
                prop_assert_eq!(crc32(window), crc32_bitwise(window), "len {}", len);
            }
        }

        /// Fast paths against the plain loop at every 2^(7k) boundary —
        /// where the encoded length changes.
        #[test]
        fn uvarint_fast_paths_match_the_loop(k in 0u32..10, delta in 0u64..4, junk in any::<u8>()) {
            let edge = 1u64.checked_shl(7 * k).unwrap_or(0);
            for v in [edge.wrapping_sub(delta + 1), edge.wrapping_add(delta)] {
                let mut want = Vec::new();
                put_uvarint_loop(&mut want, v);
                let mut got = BytesMut::new();
                put_uvarint(&mut got, v);
                prop_assert_eq!(&got[..], &want[..]);
                // Decoding must not look past the terminator byte.
                want.push(junk);
                prop_assert_eq!(get_uvarint(&want).unwrap(), (v, want.len() - 1));
                let mut r = WireReader::new(&want);
                prop_assert_eq!(r.varint().unwrap(), v);
                prop_assert_eq!(r.data, &[junk][..]);
            }
        }

        #[test]
        fn zigzag_roundtrip(v in any::<i64>()) {
            prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }

        #[test]
        fn packed_roundtrip(vs in proptest::collection::vec(any::<u64>(), 0..50)) {
            let mut w = WireWriter::new();
            w.packed_uints(1, &vs);
            let bytes = w.finish();
            if vs.is_empty() {
                prop_assert!(bytes.is_empty());
            } else {
                let mut r = WireReader::new(&bytes);
                let (_, v) = r.next_field().unwrap().unwrap();
                prop_assert_eq!(v.as_packed_uints().unwrap(), vs);
            }
        }

        #[test]
        fn reader_never_panics_on_random_input(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut r = WireReader::new(&data);
            // Must terminate with Ok(None) or Err, never panic or loop.
            for _ in 0..data.len() + 1 {
                match r.next_field() {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }
}
