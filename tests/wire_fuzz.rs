//! Decode hardening of the sparse wire formats: the socket transports
//! hand the decoders bytes that crossed a process boundary, so a
//! malformed frame must come back as an error, never a panic.

use hipmcl::sparse::{Csc, Dcsc, Idx, Triples, WireDecode, WireEncode};
use proptest::prelude::*;

/// Strategy: a small CSC whose values cover the full `f64` bit space.
fn arb_csc(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csc<f64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(m, n)| {
        proptest::collection::vec((0..m as Idx, 0..n as Idx, any::<u64>()), 0..=max_nnz).prop_map(
            move |entries| {
                let mut t = Triples::new(m, n);
                for (r, c, bits) in entries {
                    t.push(r, c, f64::from_bits(bits));
                }
                Csc::from_triples(&t)
            },
        )
    })
}

proptest! {
    #[test]
    fn wire_corrupted_frames_error_never_panic(
        m in arb_csc(12, 40),
        flips in proptest::collection::vec((any::<u16>(), 0u32..8), 1..8),
        cut in any::<u16>(),
        extra in 1usize..9,
    ) {
        // Socket frames are untrusted bytes: truncate, extend and
        // bit-flip valid encodings of each matrix format and require the
        // decoder to return (`Ok` when the corruption landed in a value
        // is fine) — any panic is a bug.
        fn total<T: WireDecode>(buf: &[u8]) {
            let _ = T::decode_all(buf);
        }
        fn corruptions(buf: &[u8], flips: &[(u16, u32)], cut: u16, extra: usize) -> Vec<Vec<u8>> {
            let truncated = buf[..cut as usize % (buf.len() + 1)].to_vec();
            let mut extended = buf.to_vec();
            extended.extend(std::iter::repeat_n(0xA5, extra));
            let mut flipped = buf.to_vec();
            for &(pos, bit) in flips {
                let i = pos as usize % flipped.len();
                flipped[i] ^= 1 << bit;
            }
            vec![truncated, extended, flipped]
        }
        let d = Dcsc::from_csc(&m);
        let t = m.to_triples();
        for buf in corruptions(&m.encoded(), &flips, cut, extra) {
            total::<Csc<f64>>(&buf);
        }
        for buf in corruptions(&d.encoded(), &flips, cut, extra) {
            total::<Dcsc<f64>>(&buf);
        }
        for buf in corruptions(&t.encoded(), &flips, cut, extra) {
            total::<Triples<f64>>(&buf);
        }
    }
}
