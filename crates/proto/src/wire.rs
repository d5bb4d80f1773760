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

use bytes::Bytes;
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
/// dependent ones. A `static`, not a `const`: an unoptimised build would
/// otherwise copy the 16 KiB table at every lookup.
static CRC32_TABLES: [[u32; 256]; 16] = {
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

/// The portable kernel: feed `data` into the CRC register `crc` (the
/// running value, not yet inverted at the end), sixteen bytes per step.
fn crc32_slicing(mut crc: u32, data: &[u8]) -> u32 {
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
    crc
}

/// Inputs from this length on go to the carry-less-multiply kernel; its
/// setup and final reduction cost more than slicing saves below it.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN_LEN: usize = 128;

/// CRC-32 (IEEE) of `data`. Used as the envelope integrity check: unlike
/// a plain sum, CRC-32 is guaranteed to detect every single-bit error and
/// every burst error up to 32 bits — the failure modes a corrupted
/// control channel actually produces.
///
/// On x86-64 hosts with `pclmulqdq` and `sse4.1`, inputs of 128 bytes
/// or more are folded 64 bytes per step with carry-less multiplies;
/// everything else — other targets, older CPUs, short inputs and the
/// last 15 bytes — goes through the slicing-by-16 tables. Both compute
/// the same function.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    // lint:alloc-free-callee a constant `false` outside tests
    if data.len() >= CLMUL_MIN_LEN && !portable_crc_forced() {
        if let Some(crc) = clmul_dispatch::crc32_update(!0, data) {
            return !crc;
        }
    }
    !crc32_slicing(!0, data)
}

#[cfg(test)]
thread_local! {
    static FORCE_PORTABLE_CRC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Route this thread's [`crc32`] calls to the slicing kernel while `f`
/// runs, so a host with CLMUL tests the fallback too.
#[cfg(test)]
pub(crate) fn with_portable_crc<R>(f: impl FnOnce() -> R) -> R {
    FORCE_PORTABLE_CRC.with(|c| c.set(true));
    let out = f();
    FORCE_PORTABLE_CRC.with(|c| c.set(false));
    out
}

#[cfg(all(test, target_arch = "x86_64"))]
fn portable_crc_forced() -> bool {
    FORCE_PORTABLE_CRC.with(|c| c.get())
}

#[cfg(all(not(test), target_arch = "x86_64"))]
#[inline(always)]
fn portable_crc_forced() -> bool {
    false
}

/// The crate's one exception to `deny(unsafe_code)`: calling the
/// carry-less-multiply kernel, a `#[target_feature]` function, from code
/// compiled for the baseline target. The kernel itself is safe code.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul_dispatch {
    /// [`super::clmul::crc32_update`], if this CPU can run it.
    #[inline]
    pub(super) fn crc32_update(crc: u32, data: &[u8]) -> Option<u32> {
        if !(std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1"))
        {
            return None;
        }
        // SAFETY: the kernel enables exactly `pclmulqdq` and `sse4.1`, and
        // both were detected on the running CPU just above.
        Some(unsafe { super::clmul::crc32_update(crc, data) }) // lint:alloc-free-callee
    }
}

/// CRC-32 by carry-less multiplication: Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009), in its bit-reflected form. Four 128-bit lanes fold
/// 64 input bytes per step, the lanes fold into one, that one folds in
/// any further 16-byte blocks, and a Barrett reduction takes the last
/// 128 bits to the 32-bit register. Every load is a `from_le_bytes` of
/// a 16-byte array, so the module needs no pointer and no `unsafe`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The IEEE generator `P(x)`, normal bit order, with its `x^32` term.
    const POLY: u64 = 0x1_04C1_1DB7;

    /// The 33-bit value `v`, bit-reflected.
    const fn reflect33(v: u64) -> u64 {
        v.reverse_bits() >> 31
    }

    /// `x^n mod P(x)`, bit-reflected, as the 33-bit multiplier of a fold
    /// across `n - 32` bits.
    const fn x_pow_mod(n: u32) -> i64 {
        let mut r: u64 = 1;
        let mut i = 0;
        while i < n {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= POLY;
            }
            i += 1;
        }
        reflect33(r) as i64
    }

    /// `floor(x^64 / P(x))`, bit-reflected: Barrett's `µ`.
    const fn barrett_mu() -> i64 {
        let (mut rem, mut q): (u128, u64) = (1 << 64, 0);
        let mut shift = 32;
        loop {
            if rem & (1u128 << (shift + 32)) != 0 {
                rem ^= (POLY as u128) << shift;
                q |= 1 << shift;
            }
            if shift == 0 {
                break;
            }
            shift -= 1;
        }
        reflect33(q) as i64
    }

    /// Fold across 512 bits (four lanes) and across 128 bits (one).
    pub(super) const FOLD_512: (i64, i64) = (x_pow_mod(512 + 32), x_pow_mod(512 - 32));
    pub(super) const FOLD_128: (i64, i64) = (x_pow_mod(128 + 32), x_pow_mod(128 - 32));
    /// Fold the high 32 of the last 64 bits into the low 32.
    pub(super) const FOLD_64: i64 = x_pow_mod(64);
    /// Barrett's `µ` and the reflected generator.
    pub(super) const BARRETT: (i64, i64) = (barrett_mu(), reflect33(POLY) as i64);

    /// Sixteen input bytes as one little-endian 128-bit lane, loaded as
    /// two `u64` halves.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64) // lint:alloc-free-callee
    }

    /// `acc` carried 128 bits further (`k` = the two halves' fold
    /// constants), plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        // lint:alloc-free-callee
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        // lint:alloc-free-callee
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi) // lint:alloc-free-callee
    }

    /// Feed `data` (at least 64 bytes) into the CRC register `crc`: the
    /// whole 16-byte blocks here, the rest through the slicing tables.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32_update(crc: u32, data: &[u8]) -> u32 {
        // lint:alloc-free-callee `slice::as_chunks` only splits the borrow
        let (blocks, tail) = data.as_chunks::<16>();
        // lint:alloc-free-callee `slice::as_chunks` only splits the borrow
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some(([b0, b1, b2, b3], quads)) = quads.split_first() else {
            return super::crc32_slicing(crc, data);
        };
        // lint:alloc-free-callee
        let k512 = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
        // lint:alloc-free-callee
        let mut x0 = _mm_xor_si128(load(b0), _mm_cvtsi32_si128(crc as i32));
        let (mut x1, mut x2, mut x3) = (load(b1), load(b2), load(b3));
        for [b0, b1, b2, b3] in quads {
            x0 = fold(x0, load(b0), k512);
            x1 = fold(x1, load(b1), k512);
            x2 = fold(x2, load(b2), k512);
            x3 = fold(x3, load(b3), k512);
        }
        // lint:alloc-free-callee
        let k128 = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
        let mut x = fold(fold(fold(x0, x1, k128), x2, k128), x3, k128);
        for b in singles {
            x = fold(x, load(b), k128);
        }

        // 128 -> 64 bits: the low half carried across 64 bits into the
        // high half.
        // lint:alloc-free-callee
        let carried = _mm_clmulepi64_si128::<0x10>(x, k128);
        // lint:alloc-free-callee
        let x = _mm_xor_si128(carried, _mm_srli_si128::<8>(x));
        // 64 -> 32 (+32): the low 32 bits carried across 32 more.
        // lint:alloc-free-callee
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        // lint:alloc-free-callee
        let k64 = _mm_set_epi64x(0, FOLD_64);
        // lint:alloc-free-callee
        let folded = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k64);
        // lint:alloc-free-callee
        let x = _mm_xor_si128(folded, _mm_srli_si128::<4>(x));
        // Barrett: T1 = (R mod x^32)·µ, T2 = (T1 mod x^32)·P, and the
        // register is the high word of R ^ T2.
        // lint:alloc-free-callee
        let pu = _mm_set_epi64x(BARRETT.0, BARRETT.1);
        // lint:alloc-free-callee
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        // lint:alloc-free-callee
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        // lint:alloc-free-callee
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        super::crc32_slicing(crc, tail)
    }
}

/// Longest varint: a `u64` in 7-bit groups.
const MAX_VARINT: usize = 10;

/// Write `v` as a varint at the front of `out`; returns the bytes used.
/// Callers hand in at least [`MAX_VARINT`] bytes (bytes past the end of
/// a shorter `out` would be dropped). One- and two-byte values — every
/// tag, most lengths and report fields — are stored directly.
#[inline(always)]
fn write_varint(out: &mut [u8], v: u64) -> usize {
    match out {
        [b0, ..] if v < 0x80 => {
            *b0 = v as u8;
            1
        }
        [b0, b1, ..] if v < 0x4000 => {
            *b0 = v as u8 | 0x80;
            *b1 = (v >> 7) as u8;
            2
        }
        _ => write_varint_long(out, v),
    }
}

/// [`write_varint`] for values of any width.
fn write_varint_long(out: &mut [u8], mut v: u64) -> usize {
    let mut n = 0;
    for slot in out.iter_mut() {
        n += 1;
        if v < 0x80 {
            *slot = v as u8;
            break;
        }
        *slot = v as u8 | 0x80;
        v >>= 7;
    }
    n
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
#[inline(always)]
pub fn uvarint_len(v: u64) -> usize {
    // Significant bits (at least one, for 0) in 7-bit groups.
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Nested-message field numbers below this remember the width of their
/// last length prefix (see [`WireWriter::message`]).
const WIDTH_HINTS: usize = 64;

/// How far past the immediate need [`WireWriter`] zero-fills capacity
/// the allocation already has: enough for a whole report, and bounded,
/// because a byte log lends the writer a buffer with its own, possibly
/// large, spare capacity.
const GROW_AHEAD: usize = 4096;

/// Streaming writer producing protobuf-compatible bytes.
///
/// Fields with default values (0, empty) are *skipped*, exactly as
/// protobuf serializers do — this is what gives the FlexRAN protocol its
/// compact statistics reports.
///
/// The writer is a cursor over an initialised buffer that it grows ahead
/// of the cursor: `buf[..pos]` is the encoding so far, `buf[pos..]`
/// headroom. A scalar field — its tag and a varint of up to ten bytes —
/// is written into a fixed-size window at the cursor after one headroom
/// check, and a packed array after one check sized for the whole array;
/// no byte pays a capacity check of its own. The bytes are canonical
/// protobuf either way.
#[derive(Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
    pos: usize,
    /// Length-prefix width last used per nested-message field number.
    widths: [u8; WIDTH_HINTS],
}

impl Default for WireWriter {
    fn default() -> Self {
        WireWriter::from_vec(Vec::new())
    }
}

impl WireWriter {
    pub fn new() -> Self {
        WireWriter::from_vec(Vec::with_capacity(64))
    }

    /// A writer that appends to `buf` — with [`Self::into_vec`], how a
    /// byte log (the RIB journal) has records encoded in place instead of
    /// encoded elsewhere and copied in.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        WireWriter {
            pos: buf.len(),
            buf,
            widths: [1; WIDTH_HINTS],
        }
    }

    /// Hand the buffer back (see [`Self::from_vec`]).
    pub fn into_vec(mut self) -> Vec<u8> {
        self.buf.truncate(self.pos);
        self.buf
    }

    /// Hand out the bytes written so far and continue, cleared, in
    /// `next` — how a transport moves each encoded message into its queue
    /// whole while the writer keeps its length-prefix widths. Whatever
    /// `next` holds is overwritten as headroom, so a recycled buffer need
    /// not be cleared (or zero-filled again).
    pub fn take_vec(&mut self, next: Vec<u8>) -> Vec<u8> {
        let mut out = std::mem::replace(&mut self.buf, next);
        out.truncate(self.pos);
        self.pos = 0;
        out
    }

    /// Zero-fill headroom so that at least `n` bytes follow the cursor.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, n: usize) {
        let need = self.pos + n;
        let fill = need
            .saturating_add(GROW_AHEAD)
            .min(self.buf.capacity())
            .max(need);
        self.buf.resize(fill, 0);
    }

    /// Run `write` on the `N` bytes at the cursor, growing the headroom
    /// first if it is short, and advance the cursor by what it returns
    /// (at most `N`).
    #[inline(always)]
    fn put<const N: usize>(&mut self, write: impl FnOnce(&mut [u8; N]) -> usize) {
        loop {
            if let Some(window) = self
                .buf
                .get_mut(self.pos..)
                // lint:alloc-free-callee `first_chunk_mut` only narrows the borrow
                .and_then(|rest| rest.first_chunk_mut::<N>())
            {
                // lint:alloc-free-callee the closures below only store bytes
                self.pos += write(window);
                return;
            }
            self.grow(N);
        }
    }

    /// Tag `key` followed by the varint `v`, in one window.
    #[inline(always)]
    fn key_varint(&mut self, key: u64, v: u64) {
        self.put::<{ 2 * MAX_VARINT }>(|w| {
            let n = write_varint(w, key);
            n + write_varint(w.get_mut(n..).unwrap_or_default(), v)
        });
    }

    /// Tag `key` followed by the fixed-width bytes `v`, in one window.
    #[inline(always)]
    fn key_fixed<const N: usize>(&mut self, key: u64, v: [u8; N]) {
        self.put::<{ MAX_VARINT + 8 }>(|w| {
            let n = write_varint(w, key);
            if let Some(dst) = w.get_mut(n..n + N) {
                dst.copy_from_slice(&v);
            }
            n + N
        });
    }

    /// The tag of length-delimited field `field` and the prefix `len`,
    /// with headroom for the `len`-byte payload and `slack` bytes more
    /// checked once for all of them.
    #[inline(always)]
    fn key_length(&mut self, field: u32, len: usize, slack: usize) {
        let headroom = 2 * MAX_VARINT + len + slack;
        if self.buf.len() < self.pos + headroom {
            self.grow(headroom);
        }
        self.key_varint(key(field, WireType::LengthDelimited), len as u64);
    }

    /// `uint32`/`uint64`/`bool`/enum field (skipped when 0).
    #[inline]
    pub fn uint(&mut self, field: u32, v: u64) {
        if v == 0 {
            return;
        }
        self.key_varint(key(field, WireType::Varint), v);
    }

    /// `sint64` field, ZigZag encoded (skipped when 0).
    #[inline]
    pub fn sint(&mut self, field: u32, v: i64) {
        self.uint(field, zigzag_encode(v));
    }

    /// `double` field (skipped when exactly 0.0).
    pub fn double(&mut self, field: u32, v: f64) {
        if v == 0.0 {
            return;
        }
        self.key_fixed(key(field, WireType::Fixed64), v.to_bits().to_le_bytes());
    }

    /// `fixed32` field (skipped when 0).
    pub fn fixed32(&mut self, field: u32, v: u32) {
        if v == 0 {
            return;
        }
        self.fixed32_always(field, v);
    }

    /// Like [`WireWriter::fixed32`] but always emitted — for fields whose
    /// presence is structural (the envelope integrity trailer must occupy
    /// its five bytes even when the checksum happens to be 0).
    pub fn fixed32_always(&mut self, field: u32, v: u32) {
        self.key_fixed(key(field, WireType::Fixed32), v.to_le_bytes());
    }

    /// `string` field (skipped when empty).
    pub fn string(&mut self, field: u32, s: &str) {
        self.bytes_field(field, s.as_bytes());
    }

    /// `bytes` field (skipped when empty).
    pub fn bytes_field(&mut self, field: u32, b: &[u8]) {
        if b.is_empty() {
            return;
        }
        self.key_length(field, b.len(), 0);
        self.put_bytes(b);
    }

    /// `repeated uint` as a packed field (protobuf packed encoding —
    /// what makes per-subband CQI arrays cheap on the wire). The payload
    /// length is known before a byte is written, so the prefix is written
    /// once and the headroom checked once for the whole array. When every
    /// value has the same varint width — a report's arrays hold one kind
    /// of quantity each — that width times the count is the length and
    /// each value has a fixed slot: one-byte values are copied across as
    /// one slice, two-byte ones as fixed pairs.
    #[inline]
    pub fn packed_uints<T: Copy + Into<u64>>(&mut self, field: u32, vs: &[T]) {
        if vs.is_empty() {
            return;
        }
        let all = vs.iter().fold(0, |acc, v| acc | (*v).into());
        let len = if all < 0x80 {
            vs.len()
        } else if all < 0x4000 {
            vs.len() + vs.iter().filter(|v| (**v).into() >= 0x80).count()
        } else {
            vs.iter().map(|v| uvarint_len((*v).into())).sum()
        };
        let width = if len == vs.len() {
            1
        } else if len == 2 * vs.len() && all < 0x4000 {
            2
        } else {
            0
        };
        // A varint window may reach past the payload.
        self.key_length(field, len, MAX_VARINT);
        let Some(dst) = self.buf.get_mut(self.pos..self.pos + len + MAX_VARINT) else {
            return;
        };
        match width {
            1 => {
                for (d, v) in dst.iter_mut().zip(vs) {
                    *d = (*v).into() as u8;
                }
            }
            2 => {
                // lint:alloc-free-callee `slice::as_chunks_mut` only splits the borrow
                let (pairs, _) = dst.as_chunks_mut::<2>();
                for (d, v) in pairs.iter_mut().zip(vs) {
                    let v: u64 = (*v).into();
                    *d = [v as u8 | 0x80, (v >> 7) as u8];
                }
            }
            _ => {
                let mut at = 0;
                for v in vs {
                    at += write_varint(dst.get_mut(at..).unwrap_or_default(), (*v).into());
                }
            }
        }
        self.pos += len;
    }

    /// Nested message field: the closure writes the submessage.
    ///
    /// Encodes in place: the submessage is written directly into this
    /// writer's buffer behind a length prefix reserved at the width this
    /// field number's prefix had last time (one byte at first), which is
    /// then filled in. Only when the payload's length needs another
    /// width is the payload shifted — so a writer that encodes messages
    /// of a steady shape never shifts one. No per-submessage allocation,
    /// and the bytes stay canonical protobuf — sizes still match a real
    /// implementation, which Fig. 7 depends on.
    pub fn message<F: FnOnce(&mut WireWriter)>(&mut self, field: u32, f: F) {
        let width = self.width_hint(field);
        let tag = key(field, WireType::LengthDelimited);
        self.put::<{ 2 * MAX_VARINT }>(|w| write_varint(w, tag) + width);
        let start = self.pos;
        // The closure body is analyzed at its definition site
        // (closures-as-edges), not through this `FnOnce`. lint:alloc-free-callee
        f(self);
        self.close_length(field, start - width, width);
    }

    /// The prefix width to reserve for nested field `field`.
    #[inline(always)]
    fn width_hint(&self, field: u32) -> usize {
        self.widths.get(field as usize).map_or(1, |w| *w as usize)
    }

    /// Fill in the `width`-byte prefix at `len_pos` with the length of
    /// everything written since, moving the payload if its length needs
    /// another width, and remember that width for `field`.
    fn close_length(&mut self, field: u32, len_pos: usize, width: usize) {
        let start = len_pos + width;
        let payload = self.pos - start;
        let need = uvarint_len(payload as u64);
        if need != width {
            if need > width && self.buf.len() < self.pos + need - width {
                self.grow(need - width);
            }
            self.buf.copy_within(start..self.pos, len_pos + need);
            self.pos = self.pos + need - width;
            if let Some(w) = self.widths.get_mut(field as usize) {
                *w = need as u8;
            }
        }
        if let Some(prefix) = self.buf.get_mut(len_pos..len_pos + need) {
            let mut v = payload as u64;
            for slot in prefix.iter_mut() {
                let byte = (v & 0x7F) as u8;
                v >>= 7;
                *slot = if v == 0 { byte } else { byte | 0x80 };
            }
        }
    }

    /// Append `b` as it is, outside any field (a frame's length prefix).
    pub(crate) fn put_bytes(&mut self, b: &[u8]) {
        if self.buf.len() < self.pos + b.len() {
            self.grow(b.len());
        }
        if let Some(dst) = self.buf.get_mut(self.pos..self.pos + b.len()) {
            dst.copy_from_slice(b);
            self.pos += b.len();
        }
    }

    /// Overwrite the bytes at `at` with `b` (within what was written).
    pub(crate) fn patch<const N: usize>(&mut self, at: usize, b: [u8; N]) {
        if let Some(dst) = self.as_mut_slice().get_mut(at..at + N) {
            dst.copy_from_slice(&b);
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.pos == 0
    }

    /// The encoded bytes so far (borrowing accessor for pooled writers
    /// that are cleared and reused instead of consumed).
    pub fn as_slice(&self) -> &[u8] {
        self.buf.get(..self.pos).unwrap_or_default()
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        self.buf.get_mut(..self.pos).unwrap_or_default()
    }

    /// Reset for reuse, keeping the underlying allocation.
    pub fn clear(&mut self) {
        self.pos = 0;
    }

    /// Finish, yielding the encoded bytes.
    pub fn finish(mut self) -> Bytes {
        self.buf.truncate(self.pos);
        Bytes::from(self.buf)
    }
}

/// The tag of field `field` with wire type `wt`.
#[inline(always)]
fn key(field: u32, wt: WireType) -> u64 {
    ((field as u64) << 3) | wt as u64
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
    use crate::messages::reference::{crc32_bitwise, crc32_bitwise_prefixes};
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
            let buf = varint(v);
            let (got, n) = get_uvarint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
            assert_eq!(n, uvarint_len(v));
        }
        // Protobuf's canonical example: 300 = [0xAC, 0x02].
        let buf = varint(300);
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
    /// `v` through the writer's varint kernel.
    fn varint(v: u64) -> Vec<u8> {
        let mut out = [0u8; MAX_VARINT];
        let n = write_varint(&mut out, v);
        out[..n].to_vec()
    }

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

    /// What every kernel [`crc32`] can route `data` to makes of it: the
    /// dispatched call, the forced fallback and, on a CLMUL host, the
    /// carry-less-multiply kernel called directly (so lengths the
    /// dispatcher keeps on the tables are folded too).
    fn crc32_kernels(data: &[u8]) -> Vec<(&'static str, u32)> {
        let mut out = vec![
            ("dispatched", crc32(data)),
            ("slicing", with_portable_crc(|| crc32(data))),
        ];
        #[cfg(target_arch = "x86_64")]
        if let Some(crc) = clmul_dispatch::crc32_update(!0, data) {
            out.push(("clmul", !crc));
        }
        out
    }

    #[test]
    fn crc32_known_answers() {
        // The CRC catalogue's check value for CRC-32/ISO-HDLC, and two
        // long inputs (values from zlib) that reach the folding kernel.
        let ramp: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        for (data, want) in [
            (&b"123456789"[..], 0xCBF4_3926),
            (&b""[..], 0),
            (&[0u8; 4096][..], 0xC71C_0011),
            (&ramp[..], 0xA291_2082),
        ] {
            for (kernel, got) in crc32_kernels(data) {
                assert_eq!(got, want, "{kernel}, {} bytes", data.len());
            }
            assert_eq!(crc32_bitwise(data), want);
        }
    }

    /// The fold constants derived from the generator are the published
    /// ones (Gopal et al.; the Linux and zlib kernels use the same).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_constants_match_the_published_values() {
        assert_eq!(clmul::FOLD_512, (0x1_5444_2BD4, 0x1_C6E4_1596));
        assert_eq!(clmul::FOLD_128, (0x1_7519_97D0, 0x0_CCAA_009E));
        assert_eq!(clmul::FOLD_64, 0x1_63CD_6124);
        assert_eq!(clmul::BARRETT, (0x1_F701_1641, 0x1_DB71_0641));
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

    /// Every kernel against the bit-at-a-time reference on every window
    /// `data[offset..offset + len]`, `len` in `0..=CRC_WINDOW`: every
    /// count of 16-byte steps and every tail, at the drawn alignment.
    fn check_crc32_windows(data: &[u8], offset: usize) {
        let window = &data[offset..offset + CRC_WINDOW];
        let want = crc32_bitwise_prefixes(window);
        for (len, want) in want.iter().enumerate() {
            for (kernel, got) in crc32_kernels(&window[..len]) {
                assert_eq!(got, *want, "{kernel}, len {len} at offset {offset}");
            }
        }
    }

    const CRC_WINDOW: usize = 4096;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn crc32_windows_match_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), CRC_WINDOW + 64..CRC_WINDOW + 65),
            offset in 0usize..64,
        ) {
            check_crc32_windows(&data, offset);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_matches_bitwise_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..8192),
        ) {
            let want = crc32_bitwise(&data);
            for (kernel, got) in crc32_kernels(&data) {
                prop_assert_eq!(got, want, "{}", kernel);
            }
        }
    }

    // The vendored proptest honours only `ProptestConfig::cases`, so the
    // deep runs are their own `#[ignore]`d blocks; `scripts/check.sh` and
    // CI invoke them in release with `-- --ignored`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        #[ignore = "deep run: cargo test --release -p flexran-proto --lib wire:: -- --ignored"]
        fn deep_crc32_windows_match_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), CRC_WINDOW + 64..CRC_WINDOW + 65),
            offset in 0usize..64,
        ) {
            check_crc32_windows(&data, offset);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        #[ignore = "deep run: cargo test --release -p flexran-proto --lib wire:: -- --ignored"]
        fn deep_crc32_matches_bitwise_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..8192),
        ) {
            let want = crc32_bitwise(&data);
            for (kernel, got) in crc32_kernels(&data) {
                prop_assert_eq!(got, want, "{}", kernel);
            }
        }
    }

    proptest! {
        #[test]
        fn uvarint_roundtrip(v in any::<u64>()) {
            let buf = varint(v);
            let (got, n) = get_uvarint(&buf).unwrap();
            prop_assert_eq!(got, v);
            prop_assert_eq!(n, buf.len());
            prop_assert_eq!(n, uvarint_len(v));
        }

        /// The CRC kernels against the bit-at-a-time reference: every
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
                let got = varint(v);
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
