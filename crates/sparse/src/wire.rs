//! The explicit wire format: serde-free, little-endian, length-prefixed.
//!
//! The in-process transport of `hipmcl-comm` moves payloads as boxed
//! values — no bytes are ever produced — but any *real* transport (the
//! feature-gated shared-memory process backend, sockets later) has to
//! move serialized frames. These two traits are that layer:
//!
//! * [`WireEncode`] — append the value's canonical byte form to a buffer.
//! * [`WireDecode`] — reconstruct the value from a [`WireReader`].
//!
//! The format is deliberately boring and fully specified here, so two
//! builds of this crate (or two processes of different binaries) agree:
//!
//! | type            | encoding                                         |
//! |-----------------|--------------------------------------------------|
//! | fixed-width int | little-endian, natural width                     |
//! | `usize`         | `u64`, little-endian                             |
//! | `f64`/`f32`     | IEEE-754 bits, little-endian (bit-exact, `-0.0` and NaN payloads included) |
//! | `bool`          | one byte, `0`/`1`                                |
//! | `()`            | zero bytes                                       |
//! | `Vec<T>`        | `u64` length, then each element                  |
//! | `String`        | `u64` length, then UTF-8 bytes                   |
//! | `Option<T>`     | one tag byte (`0`/`1`), then the value if `1`    |
//! | tuples          | fields in order, no framing                      |
//! | `Arc<T>`        | encodes as `T`; decodes to a fresh allocation    |
//! | [`Csc`]/[`Dcsc`]/[`Triples`] | dims as `u64`s, then each array as a `Vec` |
//!
//! Decoding is checked (truncation, tag corruption and length overruns
//! return [`WireError`], not UB), and round-trips are bit-identical:
//! floats travel as raw bits, so exact-zero cancellation artifacts like
//! `-0.0` survive. The matrix decoders rebuild through the *fallible*
//! validating constructors (`try_from_parts` / `try_from_arrays`), so a
//! corrupt frame that parses still cannot produce a structurally invalid
//! matrix — and cannot panic the receiving rank either, which matters
//! once frames arrive over sockets from another machine. The corruption
//! proptests in this crate flip, truncate and extend encoded buffers and
//! require every outcome to be `Ok` or `Err`, never a panic.
//!
//! Scalar types of every shipped semiring (`f64`, `f32`, `u32`, `u64`,
//! `i64`, `bool`) implement both traits; [`crate::Value`] requires them,
//! so any matrix any kernel can produce is transportable by construction.

use crate::csc::Csc;
use crate::dcsc::Dcsc;
use crate::semiring::Value;
use crate::triples::Triples;
use crate::Idx;
use std::sync::Arc;

/// Error produced by [`WireDecode`] on malformed input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What the decoder was reading when it failed.
    pub what: &'static str,
    /// Byte offset in the buffer at the point of failure.
    pub pos: usize,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {} at byte {}", self.what, self.pos)
    }
}

impl std::error::Error for WireError {}

/// Cursor over a received byte buffer.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError {
                what,
                pos: self.pos,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        Ok(self.take(N, what)?.try_into().expect("length checked"))
    }

    /// Takes `n` elements of `width` bytes each with one bounds check. On
    /// truncation (or an `n * width` that overflows) the reader advances
    /// past the elements that did fit and the error points at the first
    /// one that does not — where an element-at-a-time decode would stop.
    fn take_elems(
        &mut self,
        n: usize,
        width: usize,
        what: &'static str,
    ) -> Result<&'a [u8], WireError> {
        match n.checked_mul(width) {
            Some(len) if len <= self.remaining() => self.take(len, what),
            _ => {
                self.pos += self.remaining() / width * width;
                Err(WireError {
                    what,
                    pos: self.pos,
                })
            }
        }
    }
}

/// Appends the value's canonical little-endian byte form to `out`.
pub trait WireEncode {
    /// Serializes `self` onto the end of `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// How many bytes [`encode`](Self::encode) appends, where that is
    /// cheap to know; otherwise a lower bound. Only ever used to size a
    /// buffer before encoding into it.
    fn encoded_len_hint(&self) -> usize {
        0
    }

    /// Serializes `items` back to back, without a length prefix — the
    /// body of a `Vec<Self>`. Fixed-width primitives override this with
    /// one reservation and a slice-wise write.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for v in items {
            v.encode(out);
        }
    }

    /// Convenience: serializes into a fresh buffer.
    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len_hint());
        self.encode(&mut out);
        out
    }
}

/// Reconstructs a value from its canonical byte form.
pub trait WireDecode: Sized {
    /// Deserializes one value, advancing the reader.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Deserializes `n` values laid out back to back — the body of a
    /// `Vec<Self>` whose (untrusted) length prefix said `n`. Never
    /// allocates more than the remaining buffer could fill. Fixed-width
    /// primitives override this with one bounds check and one allocation.
    fn decode_vec(r: &mut WireReader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        // Each element is ≥1 byte except `()`, for which reserving
        // nothing is fine.
        let mut v = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            v.push(Self::decode(r)?);
        }
        Ok(v)
    }

    /// Decodes a buffer that must contain exactly one value.
    fn decode_all(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError {
                what: "trailing bytes after value",
                pos: r.pos(),
            });
        }
        Ok(v)
    }
}

/// Appends `items` as `W`-byte little-endian words: one reservation, then
/// a fixed-stride copy the compiler turns into wide moves.
#[inline]
fn encode_words<T: Copy, const W: usize>(
    items: &[T],
    out: &mut Vec<u8>,
    to_le: impl Fn(T) -> [u8; W],
) {
    let start = out.len();
    out.resize(start + items.len() * W, 0);
    for (dst, &v) in out[start..].chunks_exact_mut(W).zip(items) {
        dst.copy_from_slice(&to_le(v));
    }
}

/// Reads `n` `W`-byte little-endian words: one bounds check (which is
/// also what caps the allocation at the bytes actually present), one
/// exactly-sized allocation.
#[inline]
fn decode_words<T, const W: usize>(
    r: &mut WireReader<'_>,
    n: usize,
    what: &'static str,
    from_le: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>, WireError> {
    let bytes = r.take_elems(n, W, what)?;
    Ok(bytes
        .chunks_exact(W)
        .map(|c| from_le(c.try_into().expect("chunks_exact yields W bytes")))
        .collect())
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl WireEncode for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn encoded_len_hint(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                encode_words(items, out, <$t>::to_le_bytes);
            }
        }
        impl WireDecode for $t {
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.array(stringify!($t))?))
            }
            fn decode_vec(r: &mut WireReader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
                decode_words(r, n, stringify!($t), <$t>::from_le_bytes)
            }
        }
    )*};
}

impl_wire_int!(u16, u32, u64, i8, i16, i32, i64);

// Bytes need no byte-order work at all: both directions are one copy.
impl WireEncode for u8 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn encoded_len_hint(&self) -> usize {
        1
    }
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
}
impl WireDecode for u8 {
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.array::<1>("u8")?[0])
    }
    fn decode_vec(r: &mut WireReader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        Ok(r.take_elems(n, 1, "u8")?.to_vec())
    }
}

impl WireEncode for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    #[inline]
    fn encoded_len_hint(&self) -> usize {
        8
    }
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        encode_words(items, out, |v| (v as u64).to_le_bytes());
    }
}
impl WireDecode for usize {
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| WireError {
            what: "usize overflow",
            pos: r.pos(),
        })
    }
    fn decode_vec(r: &mut WireReader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        let start = r.pos();
        decode_words(r, n, "u64", u64::from_le_bytes)?
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                usize::try_from(w).map_err(|_| WireError {
                    what: "usize overflow",
                    pos: start + (i + 1) * 8,
                })
            })
            .collect()
    }
}

impl WireEncode for isize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as i64).encode(out);
    }
}
impl WireDecode for isize {
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = i64::decode(r)?;
        isize::try_from(v).map_err(|_| WireError {
            what: "isize overflow",
            pos: r.pos(),
        })
    }
}

macro_rules! impl_wire_float {
    ($($t:ty as $bits:ty),*) => {$(
        impl WireEncode for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                self.to_bits().encode(out);
            }
            #[inline]
            fn encoded_len_hint(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                encode_words(items, out, |v: $t| v.to_bits().to_le_bytes());
            }
        }
        impl WireDecode for $t {
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_bits(<$bits>::decode(r)?))
            }
            fn decode_vec(r: &mut WireReader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
                decode_words(r, n, stringify!($bits), |b| {
                    <$t>::from_bits(<$bits>::from_le_bytes(b))
                })
            }
        }
    )*};
}

impl_wire_float!(f64 as u64, f32 as u32);

impl WireEncode for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}
impl WireDecode for bool {
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError {
                what: "bool tag",
                pos: r.pos(),
            }),
        }
    }
}

impl WireEncode for () {
    #[inline]
    fn encode(&self, _out: &mut Vec<u8>) {}
}
impl WireDecode for () {
    #[inline]
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: WireEncode> WireEncode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        T::encode_slice(self, out);
    }
    fn encoded_len_hint(&self) -> usize {
        8 + self.iter().map(T::encoded_len_hint).sum::<usize>()
    }
}
impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
    fn encoded_len_hint(&self) -> usize {
        self.as_slice().encoded_len_hint()
    }
}
impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = usize::decode(r)?;
        T::decode_vec(r, n)
    }
}

impl WireEncode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}
impl WireDecode for String {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = usize::decode(r)?;
        let pos = r.pos();
        let bytes = r.take(n, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError {
            what: "invalid utf-8",
            pos,
        })
    }
}

impl WireEncode for &str {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn encoded_len_hint(&self) -> usize {
        1 + self.as_ref().map_or(0, T::encoded_len_hint)
    }
}
impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError {
                what: "option tag",
                pos: r.pos(),
            }),
        }
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn encoded_len_hint(&self) -> usize {
        self.0.encoded_len_hint() + self.1.encoded_len_hint()
    }
}
impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: WireEncode, B: WireEncode, C: WireEncode> WireEncode for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn encoded_len_hint(&self) -> usize {
        self.0.encoded_len_hint() + self.1.encoded_len_hint() + self.2.encoded_len_hint()
    }
}
impl<A: WireDecode, B: WireDecode, C: WireDecode> WireDecode for (A, B, C) {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: WireEncode> WireEncode for Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_ref().encode(out);
    }
    fn encoded_len_hint(&self) -> usize {
        self.as_ref().encoded_len_hint()
    }
}
impl<T: WireDecode> WireDecode for Arc<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

impl<T: Value> WireEncode for Csc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.nrows().encode(out);
        self.ncols().encode(out);
        self.colptr.encode(out);
        self.rowidx.encode(out);
        self.vals.encode(out);
    }
    fn encoded_len_hint(&self) -> usize {
        // Two dims and three length prefixes around the arrays.
        40 + self.bytes()
    }
}
impl<T: Value> WireDecode for Csc<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let nrows = usize::decode(r)?;
        let ncols = usize::decode(r)?;
        let colptr: Vec<usize> = Vec::decode(r)?;
        let rowidx: Vec<Idx> = Vec::decode(r)?;
        let vals: Vec<T> = Vec::decode(r)?;
        // Re-validate the CSC invariants through the *fallible*
        // constructor: a frame that parses but smuggles a malformed
        // matrix is a decode error, not a panic — socket bytes are
        // untrusted in a way in-process frames never were.
        Csc::try_from_parts(nrows, ncols, colptr, rowidx, vals)
            .map_err(|what| WireError { what, pos: r.pos() })
    }
}

/// Framing bytes of the DCSC wire form around its four arrays: two dims
/// and four length prefixes.
const DCSC_FRAMING_BYTES: usize = 48;

/// The one writer of the DCSC wire form, over borrowed arrays.
fn encode_dcsc<T: Value>(
    (nrows, ncols): (usize, usize),
    jc: &[Idx],
    cp: &[usize],
    ir: &[Idx],
    num: &[T],
    out: &mut Vec<u8>,
) {
    nrows.encode(out);
    ncols.encode(out);
    jc.encode(out);
    cp.encode(out);
    ir.encode(out);
    num.encode(out);
}

impl<T: Value> WireEncode for Dcsc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        let dims = (self.nrows(), self.ncols());
        encode_dcsc(dims, &self.jc, &self.cp, &self.ir, &self.num, out);
    }
    fn encoded_len_hint(&self) -> usize {
        DCSC_FRAMING_BYTES + self.bytes()
    }
}

impl<T: Value> Dcsc<T> {
    /// Appends exactly the bytes `Dcsc::from_csc(csc).encode(out)` would,
    /// without building the `Dcsc`: only the `O(nzc)` column index is
    /// computed, the row and value arrays are written straight from
    /// `csc`. This is how a SUMMA panel held in CSC ships hypersparse.
    pub fn encode_csc(csc: &Csc<T>, out: &mut Vec<u8>) {
        let (jc, cp) = Self::compress_cols(csc);
        let dims = (csc.nrows(), csc.ncols());
        encode_dcsc(dims, &jc, &cp, &csc.rowidx, &csc.vals, out);
    }

    /// Bytes [`Dcsc::encode_csc`] appends for a panel whose hypersparse
    /// storage size ([`Dcsc::bytes_of_csc`]) is `dcsc_bytes`.
    pub fn encoded_len_for(dcsc_bytes: usize) -> usize {
        DCSC_FRAMING_BYTES + dcsc_bytes
    }

    /// Decodes the DCSC wire form straight into CSC — `Dcsc::decode`
    /// followed by `to_csc`, minus the intermediate matrix and its copy of
    /// the row and value arrays. Accepts exactly the frames `Dcsc::decode`
    /// accepts: the column index is checked as a DCSC's is, and the
    /// expanded matrix goes through the validating
    /// [`Csc::try_from_parts`].
    pub fn decode_csc(r: &mut WireReader<'_>) -> Result<Csc<T>, WireError> {
        let nrows = usize::decode(r)?;
        let ncols = usize::decode(r)?;
        let jc: Vec<Idx> = Vec::decode(r)?;
        let cp: Vec<usize> = Vec::decode(r)?;
        let ir: Vec<Idx> = Vec::decode(r)?;
        let num: Vec<T> = Vec::decode(r)?;
        Self::validate_cols(ncols, &jc, &cp, ir.len(), num.len())
            .and_then(|()| Self::expand_colptr(ncols, &jc, &cp))
            .and_then(|colptr| Csc::try_from_parts(nrows, ncols, colptr, ir, num))
            .map_err(|what| WireError { what, pos: r.pos() })
    }
}
impl<T: Value> WireDecode for Dcsc<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let nrows = usize::decode(r)?;
        let ncols = usize::decode(r)?;
        let jc: Vec<Idx> = Vec::decode(r)?;
        let cp: Vec<usize> = Vec::decode(r)?;
        let ir: Vec<Idx> = Vec::decode(r)?;
        let num: Vec<T> = Vec::decode(r)?;
        Dcsc::try_from_parts(nrows, ncols, jc, cp, ir, num)
            .map_err(|what| WireError { what, pos: r.pos() })
    }
}

impl<T: Value> WireEncode for Triples<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.nrows().encode(out);
        self.ncols().encode(out);
        self.rows.encode(out);
        self.cols.encode(out);
        self.vals.encode(out);
    }
    fn encoded_len_hint(&self) -> usize {
        40 + self.bytes()
    }
}
impl<T: Value> WireDecode for Triples<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let nrows = usize::decode(r)?;
        let ncols = usize::decode(r)?;
        let rows: Vec<Idx> = Vec::decode(r)?;
        let cols: Vec<Idx> = Vec::decode(r)?;
        let vals: Vec<T> = Vec::decode(r)?;
        Triples::try_from_arrays(nrows, ncols, rows, cols, vals)
            .map_err(|what| WireError { what, pos: r.pos() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode>(v: &T) -> T {
        T::decode_all(&v.encoded()).expect("roundtrip decode")
    }

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(roundtrip(&42u64), 42);
        assert_eq!(roundtrip(&-7i64), -7);
        assert_eq!(roundtrip(&3.5f64), 3.5);
        assert!(roundtrip(&true));
        assert_eq!(roundtrip(&usize::MAX), usize::MAX);
        roundtrip(&());
    }

    #[test]
    fn floats_are_bit_exact() {
        for v in [-0.0f64, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE] {
            assert_eq!(roundtrip(&v).to_bits(), v.to_bits());
        }
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(roundtrip(&nan).to_bits(), nan.to_bits());
        assert_eq!(roundtrip(&(-0.0f32)).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn containers_roundtrip() {
        assert_eq!(roundtrip(&vec![1u32, 2, 3]), vec![1, 2, 3]);
        assert_eq!(roundtrip(&Vec::<f64>::new()), Vec::<f64>::new());
        assert_eq!(roundtrip(&Some(9u16)), Some(9));
        assert_eq!(roundtrip(&None::<u16>), None);
        assert_eq!(roundtrip(&(1u8, 2u64)), (1, 2));
        assert_eq!(roundtrip(&(1u8, 2u64, 3.0f64)), (1, 2, 3.0));
        assert_eq!(roundtrip(&"hej".to_string()), "hej");
        assert_eq!(*roundtrip(&Arc::new(5u64)), 5);
        assert_eq!(
            roundtrip(&vec![vec![vec![1.0f64]], vec![]]),
            vec![vec![vec![1.0f64]], vec![]]
        );
    }

    #[test]
    fn matrices_roundtrip() {
        let m = Csc::<f64>::identity(5);
        assert_eq!(roundtrip(&m), m);
        let e = Csc::<f64>::zero(3, 4);
        assert_eq!(roundtrip(&e), e);
        let d = Dcsc::from_csc(&m);
        assert_eq!(roundtrip(&d), d);
        let t = m.to_triples();
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn truncated_buffers_error_cleanly() {
        let buf = 1234u64.encoded();
        assert!(u64::decode_all(&buf[..7]).is_err());
        let v = vec![1u32, 2, 3].encoded();
        assert!(Vec::<u32>::decode_all(&v[..v.len() - 1]).is_err());
    }

    #[test]
    fn corrupt_length_does_not_overallocate() {
        let mut buf = Vec::new();
        u64::MAX.encode(&mut buf); // absurd element count, empty body
        assert!(Vec::<u8>::decode_all(&buf).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = 7u32.encoded();
        buf.push(0);
        assert!(u32::decode_all(&buf).is_err());
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(bool::decode_all(&[2]).is_err());
        assert!(Option::<u8>::decode_all(&[9, 0]).is_err());
    }

    #[test]
    fn structurally_invalid_matrices_are_decode_errors() {
        // Frames that *parse* but violate the format invariants must be
        // decode errors, never panics — the receiving rank stays up.

        // Triples with a row index past nrows (the old release-mode
        // hole: `from_arrays` only debug-checked bounds).
        let mut buf = Vec::new();
        2usize.encode(&mut buf); // nrows
        2usize.encode(&mut buf); // ncols
        vec![9 as Idx].encode(&mut buf); // row out of bounds
        vec![0 as Idx].encode(&mut buf);
        vec![1.0f64].encode(&mut buf);
        assert!(Triples::<f64>::decode_all(&buf).is_err());

        // CSC with a non-monotone colptr.
        let mut buf = Vec::new();
        2usize.encode(&mut buf);
        2usize.encode(&mut buf);
        vec![0usize, 2, 1].encode(&mut buf);
        vec![0 as Idx, 1].encode(&mut buf);
        vec![1.0f64, 2.0].encode(&mut buf);
        assert!(Csc::<f64>::decode_all(&buf).is_err());

        // DCSC listing a column past ncols — the index that would have
        // sent `to_csc` out of bounds.
        let mut buf = Vec::new();
        2usize.encode(&mut buf);
        2usize.encode(&mut buf);
        vec![7 as Idx].encode(&mut buf);
        vec![0usize, 1].encode(&mut buf);
        vec![0 as Idx].encode(&mut buf);
        vec![1.0f64].encode(&mut buf);
        assert!(Dcsc::<f64>::decode_all(&buf).is_err());

        // Absurd dimensions with empty arrays: dims are attacker data
        // too (`ncols + 1` must not overflow inside validation).
        let mut buf = Vec::new();
        usize::MAX.encode(&mut buf);
        usize::MAX.encode(&mut buf);
        Vec::<usize>::new().encode(&mut buf);
        Vec::<Idx>::new().encode(&mut buf);
        Vec::<f64>::new().encode(&mut buf);
        assert!(Csc::<f64>::decode_all(&buf).is_err());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// 4×5, three entries, columns 0 and 2 empty.
    fn golden_matrix() -> Csc<f64> {
        let mut t = Triples::new(4, 5);
        t.push(0, 1, 1.5);
        t.push(2, 3, f64::from_bits(0x7ff8_dead_beef_0001));
        t.push(1, 4, 2.0);
        Csc::from_triples(&t)
    }

    const GOLDEN_DCSC: &str = "0400000000000000050000000000000003000000000000000100000003000000\
        040000000400000000000000000000000000000001000000000000000200000000000000030000000000\
        000003000000000000000000000002000000010000000300000000000000000000000000f83f0100efbe\
        addef87f0000000000000040";

    #[test]
    fn encoded_bytes_match_the_fixtures_of_the_element_wise_codec() {
        // Hex captured from the element-at-a-time codec this one replaced:
        // the wire format is a contract between builds, not an
        // implementation detail.
        let bytes: Vec<u8> = vec![0, 1, 2, 253, 254, 255, 7];
        assert_eq!(hex(&bytes.encoded()), "0700000000000000000102fdfeff07");
        let floats = vec![
            1.5f64,
            -0.0,
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::MIN_POSITIVE,
        ];
        assert_eq!(
            hex(&floats.encoded()),
            "0400000000000000000000000000f83f00000000000000800100efbeaddef87f0000000000001000"
        );
        let nested: Vec<Vec<f64>> = vec![vec![1.0], vec![], vec![-2.5, 3.25]];
        assert_eq!(
            hex(&nested.encoded()),
            "03000000000000000100000000000000000000000000f03f0000000000000000020000000000000000\
             000000000004c00000000000000a40"
        );
        assert_eq!(
            hex(&vec![1u32, 0xdead_beef].encoded()),
            "020000000000000001000000efbeadde"
        );
        assert_eq!(
            hex(&vec![0usize, 7, usize::MAX].encoded()),
            "030000000000000000000000000000000700000000000000ffffffffffffffff"
        );
        assert_eq!(
            hex(&vec![-0.0f32, 1.0].encoded()),
            "0200000000000000000000800000803f"
        );
        let m = golden_matrix();
        assert_eq!(
            hex(&m.encoded()),
            "0400000000000000050000000000000006000000000000000000000000000000000000000000000001\
             000000000000000100000000000000020000000000000003000000000000000300000000000000000000\
             0002000000010000000300000000000000000000000000f83f0100efbeaddef87f0000000000000040"
        );
        assert_eq!(hex(&Dcsc::from_csc(&m).encoded()), GOLDEN_DCSC);
    }

    #[test]
    fn csc_ships_as_dcsc_without_building_one() {
        let m = golden_matrix();
        let mut direct = Vec::new();
        Dcsc::encode_csc(&m, &mut direct);
        assert_eq!(hex(&direct), GOLDEN_DCSC);
        assert_eq!(
            direct.len(),
            Dcsc::<f64>::encoded_len_for(Dcsc::bytes_of_csc(&m))
        );
        assert_eq!(Dcsc::bytes_of_csc(&m), Dcsc::from_csc(&m).bytes());
        // (Compared through the encoding: the fixture holds a NaN.)
        let back = Dcsc::<f64>::decode_csc(&mut WireReader::new(&direct)).unwrap();
        assert_eq!(back.encoded(), m.encoded());
        // Fully empty and fully dense column sets take the same path.
        for m in [Csc::<f64>::zero(3, 4), Csc::<f64>::identity(5)] {
            let mut buf = Vec::new();
            Dcsc::encode_csc(&m, &mut buf);
            assert_eq!(buf, Dcsc::from_csc(&m).encoded());
            assert_eq!(Dcsc::<f64>::decode_csc(&mut WireReader::new(&buf)), Ok(m));
        }
    }

    #[test]
    fn dcsc_to_csc_decode_rejects_what_dcsc_decode_rejects() {
        let decode_csc = |buf: &[u8]| Dcsc::<f64>::decode_csc(&mut WireReader::new(buf));
        let frame = |ncols: usize, jc: Vec<Idx>, cp: Vec<usize>, ir: Vec<Idx>| {
            let mut buf = Vec::new();
            2usize.encode(&mut buf);
            ncols.encode(&mut buf);
            jc.encode(&mut buf);
            cp.encode(&mut buf);
            ir.encode(&mut buf);
            vec![1.0f64; ir.len()].encode(&mut buf);
            buf
        };
        for bad in [
            frame(2, vec![7], vec![0, 1], vec![0]),    // column past ncols
            frame(2, vec![0], vec![0, 1, 1], vec![0]), // cp too long
            frame(2, vec![0, 1], vec![0, 1, 1], vec![0]), // listed column empty
            frame(2, vec![1, 0], vec![0, 1, 2], vec![0, 1]), // jc out of order
            frame(2, vec![0], vec![0, 2], vec![1, 0]), // rows out of order
            frame(2, vec![0], vec![0, 1], vec![9]),    // row past nrows
            frame(usize::MAX, vec![], vec![0], vec![]), // ncols + 1 overflows
        ] {
            assert!(decode_csc(&bad).is_err());
            assert!(Dcsc::<f64>::decode_all(&bad).is_err());
        }
        // A legal hypersparse matrix whose dense column-pointer array
        // cannot exist: an error here, never an abort.
        assert!(decode_csc(&frame(usize::MAX - 1, vec![], vec![0], vec![])).is_err());
        let good = frame(2, vec![1], vec![0, 2], vec![0, 1]);
        assert_eq!(
            decode_csc(&good).unwrap(),
            Dcsc::<f64>::decode_all(&good).unwrap().to_csc()
        );
    }

    #[test]
    fn bulk_decode_reports_truncation_where_the_element_loop_did() {
        // 3 of 5 promised u32s present, plus two stray bytes: the error
        // sits at the first element that does not fit.
        let mut buf = Vec::new();
        5u64.encode(&mut buf);
        for v in [1u32, 2, 3] {
            v.encode(&mut buf);
        }
        buf.extend_from_slice(&[9, 9]);
        assert_eq!(
            Vec::<u32>::decode_all(&buf),
            Err(WireError {
                what: "u32",
                pos: 8 + 12
            })
        );
        // A length whose byte count overflows is a truncation too.
        let mut buf = Vec::new();
        u64::MAX.encode(&mut buf);
        1.0f64.encode(&mut buf);
        assert_eq!(
            Vec::<f64>::decode_all(&buf),
            Err(WireError {
                what: "u64",
                pos: 16
            })
        );
    }
}
