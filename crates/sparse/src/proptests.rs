//! Property-based tests over the sparse-format invariants.

use crate::colops::{self, PruneParams};
use crate::components::connected_components;
use crate::convert::{gather_2d, split_2d};
use crate::csc::Csc;
use crate::dcsc::Dcsc;
use crate::triples::Triples;
use crate::wire::{WireDecode, WireEncode};
use crate::Idx;
use proptest::prelude::*;

/// Strategy: an f64 drawn from the full bit space plus the adversarial
/// corner values the wire format must carry bit-exactly — signed zeros
/// (exact-zero cancellation leaves `-0.0` behind), infinities (min-plus /
/// max-min identities) and NaNs with payload bits.
fn arb_wire_f64() -> impl Strategy<Value = f64> {
    (any::<u64>(), 0usize..4).prop_map(|(bits, sel)| match sel {
        // Full bit space: subnormals, NaN payloads, everything.
        0 => f64::from_bits(bits),
        // The named corner values.
        1 => [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef),
        ][(bits % 6) as usize],
        // NaNs with arbitrary payload bits.
        2 => f64::from_bits(0x7ff8_0000_0000_0000 | (bits >> 12)),
        // Ordinary finite values.
        _ => (bits as i64) as f64 / 1024.0,
    })
}

/// Strategy: a CSC with arbitrary bit-pattern values (including explicit
/// zeros, which `from_triples` keeps when the value compares equal but
/// the caller pushed it — here we build via `from_parts`-safe triples).
fn arb_wire_csc(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csc<f64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(m, n)| {
        proptest::collection::vec((0..m as Idx, 0..n as Idx, arb_wire_f64()), 0..=max_nnz).prop_map(
            move |entries| {
                let mut t = Triples::new(m, n);
                for (r, c, v) in entries {
                    t.push(r, c, v);
                }
                Csc::from_triples(&t)
            },
        )
    })
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Strategy: a random matrix as (nrows, ncols, entries).
fn arb_triples(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Triples<f64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(m, n)| {
        proptest::collection::vec((0..m as Idx, 0..n as Idx, -100i32..100i32), 0..=max_nnz)
            .prop_map(move |entries| {
                let mut t = Triples::new(m, n);
                for (r, c, v) in entries {
                    t.push(r, c, v as f64 / 4.0);
                }
                t
            })
    })
}

/// Strategy: a random square matrix with positive values (MCL-like input).
fn arb_square_positive(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Triples<f64>> {
    (2..=max_dim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as Idx, 0..n as Idx, 1u32..1000u32), 1..=max_nnz).prop_map(
            move |entries| {
                let mut t = Triples::new(n, n);
                for (r, c, v) in entries {
                    t.push(r, c, v as f64 / 100.0);
                }
                t
            },
        )
    })
}

/// Strategy: a square CSC whose stored values come from [`arb_wire_f64`],
/// explicit zeros included (built without `from_triples`, which drops
/// them).
fn arb_square_wire(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csc<f64>> {
    (1..=max_dim).prop_flat_map(move |n| {
        let entry = (0..n as Idx, 0..n as Idx, arb_wire_f64());
        proptest::collection::vec(entry, 0..=max_nnz).prop_map(move |entries| {
            let by_col: std::collections::BTreeMap<_, _> =
                entries.into_iter().map(|(r, c, v)| ((c, r), v)).collect();
            let mut t = Triples::new(n, n);
            by_col.into_iter().for_each(|((c, r), v)| t.push(r, c, v));
            Csc::from_sorted_dedup_triples(&t)
        })
    })
}

/// The preparation `colops::prepare` replaces, step by step: a transposed
/// merge through `Triples`, self-loops through a `to_triples` /
/// `from_triples` round trip (which drops stored zeros), then
/// normalization.
fn prepare_by_triples(m: &Csc<f64>, symmetrize: bool, loops: bool, normalize: bool) -> Csc<f64> {
    let mut a = m.clone();
    if symmetrize {
        let t = m.transposed();
        let mut out = Triples::new(m.nrows(), m.ncols());
        for j in 0..m.ncols() {
            let (ra, va) = (m.col_rows(j), m.col_vals(j));
            let (rb, vb) = (t.col_rows(j), t.col_vals(j));
            let (mut a, mut b) = (0usize, 0usize);
            while a < ra.len() || b < rb.len() {
                if b >= rb.len() || (a < ra.len() && ra[a] < rb[b]) {
                    out.push(ra[a], j as Idx, va[a]);
                    a += 1;
                } else if a >= ra.len() || rb[b] < ra[a] {
                    out.push(rb[b], j as Idx, vb[b]);
                    b += 1;
                } else {
                    out.push(ra[a], j as Idx, va[a].max(vb[b]));
                    a += 1;
                    b += 1;
                }
            }
        }
        a = Csc::from_sorted_dedup_triples(&out);
    }
    if loops {
        let mut t = a.to_triples();
        for j in 0..a.ncols() {
            if a.get(j, j).is_none() {
                t.push(j as Idx, j as Idx, 1.0);
            }
        }
        a = Csc::from_triples(&t);
    }
    if normalize {
        colops::normalize_columns(&mut a);
    }
    a
}

proptest! {
    #[test]
    fn csc_from_triples_is_always_valid(t in arb_triples(24, 120)) {
        let m = Csc::from_triples(&t);
        m.assert_valid();
        prop_assert!(m.nnz() <= t.nnz());
    }

    #[test]
    fn csc_triples_roundtrip(t in arb_triples(24, 120)) {
        let m = Csc::from_triples(&t);
        let back = Csc::from_triples(&m.to_triples());
        prop_assert_eq!(m, back);
    }

    #[test]
    fn transpose_is_involution(t in arb_triples(20, 100)) {
        let m = Csc::from_triples(&t);
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn transpose_preserves_entries(t in arb_triples(16, 60)) {
        let m = Csc::from_triples(&t);
        let mt = m.transposed();
        for (r, c, v) in m.iter() {
            prop_assert_eq!(mt.get(c as usize, r as usize), Some(v));
        }
    }

    #[test]
    fn dcsc_roundtrip(t in arb_triples(30, 40)) {
        let m = Csc::from_triples(&t);
        let d = Dcsc::from_csc(&m);
        d.assert_valid();
        prop_assert_eq!(d.to_csc(), m);
        prop_assert_eq!(d.nnz(), d.cp[d.nzc()]);
    }

    #[test]
    fn split_gather_2d_roundtrip(t in arb_triples(25, 100), pr in 1usize..4, pc in 1usize..4) {
        let mut canon = t.clone();
        canon.sum_duplicates();
        let m = canon.nrows();
        let n = canon.ncols();
        // split_2d needs dims >= parts to give every block real extent; the
        // balanced chunking tolerates empty chunks, so no restriction needed.
        let blocks = split_2d(&canon, pr, pc);
        let mut back = gather_2d(&blocks, m, n, pr, pc);
        back.sum_duplicates();
        prop_assert_eq!(back, canon);
    }

    #[test]
    fn normalize_then_columns_sum_to_one(t in arb_square_positive(20, 100)) {
        let mut m = Csc::from_triples(&t);
        colops::normalize_columns(&mut m);
        for j in 0..m.ncols() {
            let s: f64 = m.col_vals(j).iter().sum();
            if m.col_nnz(j) > 0 {
                prop_assert!((s - 1.0).abs() < 1e-9, "col {} sums to {}", j, s);
            }
        }
    }

    #[test]
    fn inflate_keeps_stochastic_and_order(t in arb_square_positive(16, 80)) {
        let mut m = Csc::from_triples(&t);
        colops::normalize_columns(&mut m);
        let before = m.clone();
        colops::inflate(&mut m, 2.0);
        for j in 0..m.ncols() {
            let s: f64 = m.col_vals(j).iter().sum();
            if m.col_nnz(j) > 0 {
                prop_assert!((s - 1.0).abs() < 1e-9);
            }
            // Inflation preserves the relative order of entries in a column.
            let b = before.col_vals(j);
            let a = m.col_vals(j);
            for x in 1..a.len() {
                if b[x - 1] < b[x] {
                    prop_assert!(a[x - 1] <= a[x]);
                }
            }
        }
    }

    #[test]
    fn prune_output_valid_and_bounded(t in arb_square_positive(20, 150), k in 1usize..8) {
        let mut m = Csc::from_triples(&t);
        colops::normalize_columns(&mut m);
        let p = PruneParams { cutoff: 1e-3, select: k, recover_num: 0, recover_pct: 0.0 };
        let (out, _) = colops::prune(&m, &p);
        out.assert_valid();
        for j in 0..out.ncols() {
            prop_assert!(out.col_nnz(j) <= k.max(1));
            if m.col_nnz(j) > 0 {
                prop_assert!(out.col_nnz(j) >= 1, "columns never emptied");
            }
        }
    }

    #[test]
    fn one_pass_prepare_is_bit_equal_to_the_triples_composition(m in arb_square_wire(12, 60)) {
        for flags in 0..8 {
            let (sym, loops, norm) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let got = colops::prepare(&m, sym, loops, norm);
            let want = prepare_by_triples(&m, sym, loops, norm);
            prop_assert_eq!(&got.colptr, &want.colptr, "flags {}", flags);
            prop_assert_eq!(&got.rowidx, &want.rowidx, "flags {}", flags);
            prop_assert!(bits_eq(&got.vals, &want.vals), "flags {}", flags);
        }
    }

    #[test]
    fn symmetrize_is_symmetric(t in arb_square_positive(14, 60)) {
        let m = Csc::from_triples(&t);
        let s = colops::symmetrize_max(&m);
        prop_assert_eq!(s.transposed(), s.clone());
    }

    #[test]
    fn components_labels_are_consistent(t in arb_square_positive(20, 60)) {
        let m = Csc::from_triples(&t);
        let (labels, k) = connected_components(&m);
        prop_assert_eq!(labels.len(), m.ncols());
        prop_assert!(k >= 1 && k <= m.ncols());
        // Every edge joins same-label endpoints.
        for (r, c, _) in m.iter() {
            prop_assert_eq!(labels[r as usize], labels[c as usize]);
        }
        // Labels are dense 0..k.
        let mut seen = vec![false; k];
        for &l in &labels {
            seen[l as usize] = true;
        }
        prop_assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn add_elementwise_commutes(a in arb_triples(12, 50), b in arb_triples(12, 50)) {
        // Force equal dims by embedding both in a common frame.
        let m = a.nrows().max(b.nrows());
        let n = a.ncols().max(b.ncols());
        let embed = |t: &Triples<f64>| {
            let mut out = Triples::new(m, n);
            for (r, c, v) in t.iter() { out.push(r, c, v); }
            Csc::from_triples(&out)
        };
        let (x, y) = (embed(&a), embed(&b));
        prop_assert_eq!(x.add_elementwise(&y), y.add_elementwise(&x));
    }

    #[test]
    fn wire_scalars_roundtrip_bit_identical(bits in any::<u64>(), x in arb_wire_f64(),
                                            u in any::<u32>(), i in any::<i64>(), b in any::<bool>()) {
        let raw = f64::from_bits(bits);
        prop_assert_eq!(f64::decode_all(&raw.encoded()).unwrap().to_bits(), bits);
        prop_assert_eq!(f64::decode_all(&x.encoded()).unwrap().to_bits(), x.to_bits());
        let f = (bits as f32).to_bits();
        let f32v = f32::from_bits(f);
        prop_assert_eq!(f32::decode_all(&f32v.encoded()).unwrap().to_bits(), f);
        prop_assert_eq!(u32::decode_all(&u.encoded()).unwrap(), u);
        prop_assert_eq!(i64::decode_all(&i.encoded()).unwrap(), i);
        prop_assert_eq!(bool::decode_all(&b.encoded()).unwrap(), b);
    }

    #[test]
    fn wire_csc_roundtrips_bit_identical(m in arb_wire_csc(20, 100)) {
        let back = Csc::<f64>::decode_all(&m.encoded()).unwrap();
        prop_assert_eq!(back.nrows(), m.nrows());
        prop_assert_eq!(back.ncols(), m.ncols());
        prop_assert_eq!(&back.colptr, &m.colptr);
        prop_assert_eq!(&back.rowidx, &m.rowidx);
        prop_assert!(bits_eq(&back.vals, &m.vals));
    }

    #[test]
    fn wire_dcsc_roundtrips_bit_identical(m in arb_wire_csc(30, 60)) {
        let d = Dcsc::from_csc(&m);
        let back = Dcsc::<f64>::decode_all(&d.encoded()).unwrap();
        prop_assert_eq!(back.nrows(), d.nrows());
        prop_assert_eq!(back.ncols(), d.ncols());
        prop_assert_eq!(&back.jc, &d.jc);
        prop_assert_eq!(&back.cp, &d.cp);
        prop_assert_eq!(&back.ir, &d.ir);
        prop_assert!(bits_eq(&back.num, &d.num));
    }

    #[test]
    fn wire_keeps_cancellation_artifacts(n in 1usize..16, sels in proptest::collection::vec(0usize..4, 1..16)) {
        let vals: Vec<f64> = sels
            .iter()
            .map(|&s| [-0.0f64, 0.0, f64::NAN, f64::INFINITY][s])
            .collect();
        // Exact-zero cancellation leaves `-0.0`/NaN entries behind; build a
        // slab that stores them verbatim (no summing path) and check the
        // wire carries every bit. One column, rows 0..len.
        let rows: Vec<Idx> = (0..vals.len().min(n.max(vals.len())) as Idx).collect();
        let mut t = Triples::new(rows.len(), 1);
        for (r, v) in rows.iter().zip(&vals) {
            t.push(*r, 0, *v);
        }
        let m = Csc::from_nodup_triples(&t);
        let back = Csc::<f64>::decode_all(&m.encoded()).unwrap();
        prop_assert!(bits_eq(&back.vals, &m.vals));
        let d = Dcsc::from_csc(&m);
        let dback = Dcsc::<f64>::decode_all(&d.encoded()).unwrap();
        prop_assert!(bits_eq(&dback.num, &d.num));
    }

    #[test]
    fn wire_empty_slabs_roundtrip(m in 1usize..40, n in 1usize..40) {
        let e = Csc::<f64>::zero(m, n);
        prop_assert_eq!(Csc::<f64>::decode_all(&e.encoded()).unwrap(), e);
        let d = Dcsc::<f64>::zero(m, n);
        let back = Dcsc::<f64>::decode_all(&d.encoded()).unwrap();
        prop_assert_eq!(back.nnz(), 0);
        prop_assert_eq!(back.nrows(), m);
        prop_assert_eq!(back.ncols(), n);
    }
}
