//! Length-delimited framing for stream transports.
//!
//! The FlexRAN protocol runs over TCP in the paper's implementation; TCP
//! gives a byte stream, so each protobuf message is prefixed with a 4-byte
//! big-endian length. The codec below is incremental (feed bytes, pop
//! frames) so it works with non-blocking sockets.

use bytes::{BufMut, Bytes, BytesMut};
use flexran_types::{FlexError, Result};

use crate::messages::{FlexranMessage, Header};
use crate::wire::WireWriter;

/// The big-endian length in front of every frame.
const FRAME_PREFIX_BYTES: usize = 4;

/// Hard cap on a single frame: a full statistics report for hundreds of
/// UEs is tens of kilobytes; anything near this limit is corruption.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Oversize-frame error, out of line so the `*_into` hot path stays
/// free of allocation sites (the message only materializes on failure).
#[cold]
fn oversize(len: usize) -> FlexError {
    // lint:allow(alloc-reach) error path — materializes only on failure
    FlexError::Codec(format!(
        "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
    ))
}

/// Prefix `payload` with its 4-byte length.
pub fn encode_frame(payload: &[u8]) -> Result<Bytes> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(oversize(payload.len()));
    }
    let mut buf = BytesMut::with_capacity(4 + payload.len());
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
    Ok(buf.freeze())
}

/// Like [`encode_frame`], but into a caller-provided buffer (cleared
/// first) — the allocation-free path for transports that keep one frame
/// buffer across sends.
pub fn encode_frame_into(payload: &[u8], buf: &mut BytesMut) -> Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(oversize(payload.len()));
    }
    buf.clear();
    buf.reserve(4 + payload.len());
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
    Ok(())
}

/// Encode one envelope into `w` (cleared first) as a whole frame: the
/// envelope is written behind a reserved 4-byte prefix that is filled in
/// once its length is known — the same bytes as [`encode_frame_into`]
/// over [`FlexranMessage::encode`], without the payload copy or the
/// second buffer.
pub fn encode_message_frame_into(
    msg: &FlexranMessage,
    header: Header,
    w: &mut WireWriter,
) -> Result<()> {
    w.clear();
    w.put_bytes(&[0; FRAME_PREFIX_BYTES]);
    msg.encode_append(header, w);
    let len = w.len() - FRAME_PREFIX_BYTES;
    if len > MAX_FRAME_BYTES {
        return Err(oversize(len));
    }
    w.patch(0, (len as u32).to_be_bytes());
    Ok(())
}

/// Hard cap on bytes the decoder will buffer before declaring the stream
/// corrupt. A well-formed stream never needs more than one frame plus its
/// header between `next_frame` calls per `extend`; the factor of two
/// absorbs coalesced delivery without letting a hostile peer grow the
/// buffer without bound.
pub const MAX_BUFFERED_BYTES: usize = 2 * (4 + MAX_FRAME_BYTES);

/// Corrupt-stream error, out of line like [`oversize`].
#[cold]
fn corrupt(reason: &'static str) -> FlexError {
    FlexError::Transport(format!("frame stream corrupt: {reason}"))
}

/// Incremental frame decoder.
///
/// Frames are handed out as borrows of the receive buffer and consumed
/// through a read cursor; the consumed prefix is reclaimed lazily, when
/// the next `extend` finds it at least as large as the live tail (so the
/// move is amortized against bytes already delivered) — no per-frame
/// shift, split or copy.
///
/// Once a corrupt header is seen the stream is *poisoned*: there is no way
/// to re-synchronize a length-prefixed stream after a bad length, so the
/// decoder drops everything buffered, discards all further input, and
/// returns the same structured error from every subsequent `next_frame`
/// call. This keeps memory bounded on an adversarial stream and guarantees
/// the error is surfaced on every poll instead of only once — callers that
/// swallow one error still see the stream as dead, never as silently
/// desynced.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf`: everything before it was already returned.
    head: usize,
    /// Why the stream was declared corrupt, if it was.
    poisoned: Option<&'static str>,
    /// Bytes discarded after poisoning (diagnostics).
    discarded: u64,
}

impl FrameDecoder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed raw bytes received from the stream. Input past a poisoned
    /// header or past [`MAX_BUFFERED_BYTES`] is discarded, not buffered.
    pub fn extend(&mut self, data: &[u8]) {
        if self.poisoned.is_some() {
            self.discarded += data.len() as u64;
            return;
        }
        let live = self.buffered();
        if live.saturating_add(data.len()) > MAX_BUFFERED_BYTES {
            self.poison("receive buffer overflow");
            self.discarded += data.len() as u64;
            return;
        }
        if self.head >= live {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// The length the frame at the read cursor announces, once its
    /// 4-byte header is buffered.
    fn announced_len(&self) -> Option<usize> {
        let header = self.buf.get(self.head..)?.first_chunk::<4>()?;
        Some(u32::from_be_bytes(*header) as usize)
    }

    /// Whether a complete frame is buffered: [`Self::next_frame`] can
    /// return it without more input.
    pub(crate) fn has_frame(&self) -> bool {
        self.announced_len()
            .is_some_and(|len| self.buffered() - 4 >= len)
    }

    /// Pop the next complete frame, if one is buffered. The frame borrows
    /// the decoder's buffer and stays valid until the next `extend`.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>> {
        if let Some(reason) = self.poisoned {
            return Err(corrupt(reason));
        }
        let Some(len) = self.announced_len() else {
            return Ok(None);
        };
        if len > MAX_FRAME_BYTES {
            self.poison("announced frame length exceeds cap");
            return Err(corrupt("announced frame length exceeds cap"));
        }
        let start = self.head + 4;
        if self.buf.len() < start + len {
            return Ok(None);
        }
        self.head = start + len;
        Ok(self.buf.get(start..start + len))
    }

    #[cold]
    fn poison(&mut self, reason: &'static str) {
        self.poisoned = Some(reason);
        self.discarded += self.buffered() as u64;
        drop(std::mem::take(&mut self.buf)); // the backing allocation too
        self.head = 0;
    }

    /// Whether a corrupt header has permanently poisoned this stream.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Bytes discarded due to poisoning (diagnostics).
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Bytes currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Forget all buffered state, including poisoning. For transports that
    /// reconnect: a fresh connection is a fresh stream.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.poisoned = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_single_frame() {
        let frame = encode_frame(b"hello").unwrap();
        let mut d = FrameDecoder::new();
        d.extend(&frame);
        assert_eq!(d.next_frame().unwrap().unwrap(), b"hello");
        assert!(d.next_frame().unwrap().is_none());
    }

    #[test]
    fn handles_partial_delivery() {
        let frame = encode_frame(b"flexran").unwrap();
        let mut d = FrameDecoder::new();
        d.extend(&frame[..3]);
        assert!(d.next_frame().unwrap().is_none());
        d.extend(&frame[3..6]);
        assert!(d.next_frame().unwrap().is_none());
        d.extend(&frame[6..]);
        assert_eq!(d.next_frame().unwrap().unwrap(), b"flexran");
    }

    #[test]
    fn handles_coalesced_frames() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(b"a").unwrap());
        stream.extend_from_slice(&encode_frame(b"bb").unwrap());
        stream.extend_from_slice(&encode_frame(b"").unwrap());
        let mut d = FrameDecoder::new();
        assert!(!d.has_frame());
        d.extend(&stream[..4]);
        assert!(!d.has_frame(), "a header alone is not a frame");
        d.extend(&stream[4..]);
        assert!(d.has_frame());
        assert_eq!(d.next_frame().unwrap().unwrap(), b"a");
        assert_eq!(d.next_frame().unwrap().unwrap(), b"bb");
        assert!(d.has_frame(), "an empty frame is complete");
        assert_eq!(d.next_frame().unwrap().unwrap(), b"");
        assert!(!d.has_frame());
        assert!(d.next_frame().unwrap().is_none());
    }

    #[test]
    fn consumed_prefix_is_reclaimed_lazily() {
        // Popping frames only moves the read cursor; the prefix is dropped
        // by a later `extend`, once it outweighs the live tail — so a
        // long-lived stream never accumulates delivered bytes.
        let frame = encode_frame(&[7u8; 60]).unwrap();
        let mut d = FrameDecoder::new();
        for _ in 0..4 {
            d.extend(&frame);
        }
        for _ in 0..3 {
            assert_eq!(d.next_frame().unwrap().unwrap(), &[7u8; 60]);
        }
        assert_eq!(d.buffered(), 64);
        assert_eq!(d.buf.len(), 4 * 64, "no shift per popped frame");
        d.extend(&frame[..10]);
        assert_eq!(d.buf.len(), 64 + 10, "prefix reclaimed on extend");
        assert_eq!(d.next_frame().unwrap().unwrap(), &[7u8; 60]);
        assert!(d.next_frame().unwrap().is_none());
        d.extend(&frame[10..]);
        assert_eq!(d.next_frame().unwrap().unwrap(), &[7u8; 60]);
        assert_eq!(d.buffered(), 0);
        for _ in 0..1000 {
            d.extend(&frame);
            assert!(d.next_frame().unwrap().is_some());
        }
        assert!(d.buf.len() <= 64, "steady state holds one frame");
    }

    #[test]
    fn oversized_frames_rejected() {
        let mut d = FrameDecoder::new();
        d.extend(&(u32::MAX).to_be_bytes());
        assert!(d.next_frame().is_err());
        assert!(encode_frame(&vec![0u8; MAX_FRAME_BYTES + 1]).is_err());
    }

    #[test]
    fn corrupt_header_poisons_the_stream() {
        // A 4 GiB announced length must not allocate, must surface a
        // structured error, and must keep erroring (not silently desync)
        // while discarding all further input.
        let mut d = FrameDecoder::new();
        d.extend(&(u32::MAX).to_be_bytes());
        d.extend(b"trailing garbage");
        assert!(matches!(d.next_frame(), Err(FlexError::Transport(_))));
        assert!(d.is_poisoned());
        assert_eq!(d.buffered(), 0);
        // The error repeats on every poll; new input is discarded.
        d.extend(&encode_frame(b"valid").unwrap());
        assert!(matches!(d.next_frame(), Err(FlexError::Transport(_))));
        assert_eq!(d.buffered(), 0);
        assert!(d.discarded() > 0);
        // A reconnect resets the stream.
        d.reset();
        assert!(!d.is_poisoned());
        d.extend(&encode_frame(b"valid").unwrap());
        assert_eq!(d.next_frame().unwrap().unwrap(), b"valid");
    }

    #[test]
    fn buffering_is_bounded() {
        // Feeding more than MAX_BUFFERED_BYTES without a complete frame
        // poisons the stream instead of growing without bound.
        let mut d = FrameDecoder::new();
        // Announce a maximal frame but never complete it, then keep
        // stuffing bytes.
        d.extend(&(MAX_FRAME_BYTES as u32).to_be_bytes());
        let chunk = vec![0u8; 1024 * 1024];
        for _ in 0..2 * (MAX_FRAME_BYTES / chunk.len()) + 2 {
            d.extend(&chunk);
        }
        assert!(d.is_poisoned());
        assert!(d.buffered() <= MAX_BUFFERED_BYTES);
        assert!(matches!(d.next_frame(), Err(FlexError::Transport(_))));
    }

    proptest! {
        /// Adversarial-stream safety: random byte mutations (flip,
        /// truncate, duplicate, insert) applied to a valid framed stream
        /// must never panic, never hang, and never buffer more than the
        /// cap — decode errors and poisoning are the only acceptable
        /// outcomes.
        #[test]
        fn mutated_streams_never_panic_or_grow(
            frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..6),
            mutation in 0u8..4,
            pos_seed in any::<usize>(),
            byte in any::<u8>(),
            chunk in 1usize..32,
        ) {
            let mut stream = Vec::new();
            for f in &frames {
                stream.extend_from_slice(&encode_frame(f).unwrap());
            }
            let pos = pos_seed % stream.len().max(1);
            match mutation {
                0 => { // flip
                    if let Some(b) = stream.get_mut(pos) { *b ^= byte | 1; }
                }
                1 => stream.truncate(pos),          // truncate
                2 => { // duplicate a slice
                    let dup: Vec<u8> = stream[pos..].to_vec();
                    stream.extend_from_slice(&dup);
                }
                _ => stream.insert(pos.min(stream.len()), byte), // insert
            }
            let mut d = FrameDecoder::new();
            for c in stream.chunks(chunk.max(1)) {
                d.extend(c);
                // Bounded loop: each iteration either yields a frame
                // (consuming ≥4 bytes) or stops — no hang possible.
                loop {
                    match d.next_frame() {
                        Ok(Some(f)) => prop_assert!(f.len() <= MAX_FRAME_BYTES),
                        Ok(None) => break,
                        Err(_) => break,
                    }
                }
                prop_assert!(d.buffered() <= MAX_BUFFERED_BYTES);
            }
        }
    }

    proptest! {
        #[test]
        fn roundtrip_many_frames_any_chunking(
            frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..10),
            chunk in 1usize..64,
        ) {
            let mut stream = Vec::new();
            for f in &frames {
                stream.extend_from_slice(&encode_frame(f).unwrap());
            }
            let mut d = FrameDecoder::new();
            let mut out = Vec::new();
            for c in stream.chunks(chunk) {
                d.extend(c);
                while let Some(f) = d.next_frame().unwrap() {
                    out.push(f.to_vec());
                }
            }
            prop_assert_eq!(out, frames);
            prop_assert_eq!(d.buffered(), 0);
        }
    }

    proptest! {
        /// A message framed in place is the framed encoding of the
        /// message, through one writer reused across sizes on both sides
        /// of the 127/128 and 16 383/16 384 length edges.
        #[test]
        fn message_frames_match_framed_encodings(
            lens in proptest::collection::vec(
                prop_oneof![0usize..300, 16_300usize..16_500],
                1..6,
            ),
            xid in any::<u32>(),
        ) {
            let mut w = WireWriter::new();
            for len in lens {
                let msg = FlexranMessage::EchoRequest(crate::messages::Echo {
                    timestamp_us: len as u64,
                    payload: vec![0xC3; len],
                });
                let header = Header::with_xid(xid);
                encode_message_frame_into(&msg, header, &mut w).unwrap();
                let want = encode_frame(&msg.encode(header)).unwrap();
                prop_assert_eq!(w.as_slice(), &want[..]);
            }
        }
    }

    #[test]
    fn oversize_message_frame_is_refused() {
        let msg = FlexranMessage::EchoRequest(crate::messages::Echo {
            timestamp_us: 1,
            payload: vec![0; MAX_FRAME_BYTES],
        });
        let mut w = WireWriter::new();
        let err = encode_message_frame_into(&msg, Header::default(), &mut w).unwrap_err();
        assert_eq!(err.category(), "codec");
    }
}
