//! Fixed-capacity inline storage for the repeated fields of a UE report.
//!
//! A full `StatsReply` carries eight short arrays per UE (subband CQIs,
//! BSR, HARQ state, ...), each bounded by an LTE constant. Holding them in
//! `Vec`s made every report composed, decoded, cloned into the RIB or
//! synthesized into a journal snapshot cost eight-plus heap allocations
//! per UE per TTI. [`InlineVec`] stores up to `N` elements in the struct
//! itself, as narrow as the field's range allows (a CQI is a `u8`, not the
//! `u64` a varint decodes to); it reads like a slice, compares and prints
//! like the `Vec` it replaces (RIB digests hash the `Debug` form), and
//! refuses — never truncates — anything past its capacity or its element
//! type's range.

use std::fmt;
use std::ops::Deref;

use flexran_types::{FlexError, Result};

use crate::wire::WireReader;

/// Up to `N` elements of `T`, stored inline.
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    len: u8,
    items: [T; N],
}

/// Over-capacity error, out of line so the push path stays free of
/// allocation sites (the message only materializes on failure).
#[cold]
fn over_capacity(cap: usize) -> FlexError {
    // lint:allow(alloc-reach) error path — materializes only on failure
    FlexError::Codec(format!("repeated field holds more than {cap} elements"))
}

/// Out-of-range error, out of line like [`over_capacity`].
#[cold]
fn out_of_range(v: u64) -> FlexError {
    // lint:allow(alloc-reach) error path — materializes only on failure
    FlexError::Codec(format!("packed value {v} exceeds its field's range"))
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    pub fn new() -> Self {
        const { assert!(N <= u8::MAX as usize, "the length is kept in a u8") };
        InlineVec {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// All `N` slots set to `v`.
    pub fn full(v: T) -> Self {
        let mut out = Self::new();
        out.items = [v; N];
        out.len = N as u8;
        out
    }

    /// Append `v`; a `Codec` error when already at capacity.
    pub fn try_push(&mut self, v: T) -> Result<()> {
        let Some(slot) = self.items.get_mut(self.len as usize) else {
            return Err(over_capacity(N));
        };
        *slot = v;
        self.len += 1;
        Ok(())
    }
}

impl<T: Copy + Default + From<u8> + TryFrom<u64>, const N: usize> InlineVec<T, N> {
    /// Replace the contents with a decoded packed repeated-uint payload
    /// (see [`WireWriter::packed_uints`](crate::wire::WireWriter::packed_uints)).
    /// A value that does not fit `T` is a `Codec` error, like an element
    /// too many; after an error the contents are unspecified.
    pub fn read_packed(&mut self, data: &[u8]) -> Result<()> {
        // Every value one byte (CQIs, BSR indices, HARQ state): one byte
        // per element, no varint to parse, and every element type fits.
        if data.len() <= N && data.iter().fold(0, |acc, &b| acc | b) < 0x80 {
            for (slot, &b) in self.items.iter_mut().zip(data) {
                *slot = T::from(b);
            }
            self.len = data.len() as u8;
            return Ok(());
        }
        let mut r = WireReader::new(data);
        let mut len = 0;
        for slot in self.items.iter_mut() {
            if r.is_empty() {
                break;
            }
            let v = r.varint()?;
            *slot = T::try_from(v).map_err(|_| out_of_range(v))?;
            len += 1;
        }
        self.len = len;
        if r.is_empty() {
            return Ok(());
        }
        // One element more than fits: a malformed or out-of-range one
        // reports that first, as when each element was pushed in turn.
        let v = r.varint()?;
        T::try_from(v).map_err(|_| out_of_range(v))?;
        Err(over_capacity(N))
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

/// From an array no longer than the capacity — checked at compile time.
impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for InlineVec<T, N> {
    fn from(src: [T; M]) -> Self {
        const { assert!(M <= N, "array longer than the InlineVec's capacity") };
        let mut out = Self::new();
        for (slot, v) in out.items.iter_mut().zip(src) {
            *slot = v;
        }
        out.len = M as u8;
        out
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // `len <= N` is the one invariant every constructor keeps.
        self.items.get(..self.len as usize).unwrap_or(&self.items)
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Only the live prefix counts: slots past `len` are scratch.
impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Prints as the slice it holds, exactly like a `Vec`.
impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireReader, WireWriter};

    #[test]
    fn behaves_like_the_vec_it_replaces() {
        let mut v = InlineVec::<u64, 4>::new();
        assert!(v.is_empty());
        v.try_push(7).unwrap();
        v.try_push(300).unwrap();
        assert_eq!(&v[..], &[7, 300]);
        assert_eq!(format!("{v:?}"), format!("{:?}", vec![7u64, 300]));
        assert_eq!(format!("{v:#?}"), format!("{:#?}", vec![7u64, 300]));
        assert_eq!(v, InlineVec::from([7, 300]));
        assert_ne!(v, InlineVec::from([7]));
        assert_eq!(InlineVec::<u64, 3>::full(9), InlineVec::from([9, 9, 9]));
        assert_eq!(&InlineVec::<u64, 3>::from([4, 5])[..], &[4, 5]);
        assert_eq!(v.iter().sum::<u64>(), 307);
    }

    #[test]
    fn equality_ignores_slots_past_len() {
        // Same live prefix, different scratch behind it.
        let mut a = InlineVec::<u64, 4>::full(5);
        a.len = 1;
        assert_eq!(a, InlineVec::from([5]));
    }

    #[test]
    fn over_capacity_is_a_codec_error_never_a_truncation() {
        let mut v = InlineVec::<u64, 2>::full(1);
        assert_eq!(v.try_push(2).unwrap_err().category(), "codec");
        assert_eq!(&v[..], &[1, 1], "a refused push leaves contents alone");
    }

    #[test]
    fn packed_decode_is_bounded_by_capacity() {
        let mut w = WireWriter::new();
        w.packed_uints(1, &[0, 1, 300, u64::MAX]);
        let bytes = w.finish();
        let (_, field) = WireReader::new(&bytes).next_field().unwrap().unwrap();
        let payload = field.as_bytes().unwrap();
        let mut v = InlineVec::<u64, 4>::full(9);
        v.read_packed(payload).unwrap();
        assert_eq!(&v[..], &[0, 1, 300, u64::MAX]);
        let err = InlineVec::<u64, 3>::new().read_packed(payload).unwrap_err();
        assert_eq!(err.category(), "codec");
        // Nor is a value narrowed to fit: 300 is not a u8, u64::MAX no u16.
        let err = InlineVec::<u8, 4>::new().read_packed(payload).unwrap_err();
        assert_eq!(err.category(), "codec");
        assert!(InlineVec::<u16, 4>::new().read_packed(payload).is_err());
        let mut narrow = InlineVec::<u16, 4>::new();
        narrow.read_packed(&payload[..4]).unwrap();
        assert_eq!(&narrow[..], &[0, 1, 300]);
        // All one-byte values take the short path, still bounded.
        let mut small = InlineVec::<u16, 3>::full(9);
        small.read_packed(&[5, 0, 127]).unwrap();
        assert_eq!(&small[..], &[5, 0, 127]);
        small.read_packed(&[]).unwrap();
        assert!(small.is_empty());
        assert!(small.read_packed(&[1, 2, 3, 4]).is_err());
        // A truncated varint inside the payload is still a codec error.
        let short = &payload[..payload.len() - 1];
        assert!(InlineVec::<u64, 4>::new().read_packed(short).is_err());
    }
}
