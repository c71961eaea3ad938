//! Collective operations built from point-to-point messages over binomial
//! trees, the way a small MPI implements them. Because every hop charges
//! the α–β cost at the receiver, collective costs accumulate along the
//! tree's critical path: a broadcast of `b` bytes over `p` ranks costs
//! `≈ ⌈lg p⌉ · (α + βb)` in virtual time without any analytic shortcut.

use crate::comm::Comm;
use crate::packet::WirePayload;

/// Tag namespace for collectives (high bit set; user tags must stay below).
const COLL_BIT: u64 = 1 << 63;

fn coll_tag(comm: &Comm) -> u64 {
    COLL_BIT | comm.next_coll_seq()
}

/// Broadcast from `root`: every rank returns the value. Non-roots pass
/// their received value through, so `value` is consumed and returned.
///
/// On a byte-oriented transport the root encodes once and every interior
/// rank forwards the payload bytes it received *before* decoding them, so
/// a value is encoded once and decoded once per rank however deep the
/// tree; headers, clocks and counters are those of per-hop sends.
pub fn bcast<T>(comm: &Comm, root: usize, value: Option<T>) -> T
where
    T: WirePayload + Clone,
{
    let p = comm.size();
    let tag = coll_tag(comm);
    if p == 1 {
        return value.expect("root must supply a value");
    }
    let rank = comm.rank();
    let relative = (rank + p - root) % p;

    let mut relay =
        (relative == 0).then(|| comm.relay_from(value.expect("root must supply a value")));

    // Receive phase: find the parent.
    let mut mask = 1usize;
    while mask < p {
        if relative & mask != 0 {
            let src = (rank + p - mask) % p;
            relay = Some(comm.recv_relay::<T>(src, tag));
            break;
        }
        mask <<= 1;
    }
    // Send phase: forward to children.
    let relay = relay.expect("bcast tree delivered no value");
    mask >>= 1;
    let mut m = if relative == 0 {
        // Root starts at the highest power of two below p.
        let mut top = 1usize;
        while top < p {
            top <<= 1;
        }
        top >> 1
    } else {
        mask
    };
    while m > 0 {
        if relative + m < p {
            let dst = (rank + m) % p;
            comm.send_relay(dst, tag, &relay);
        }
        m >>= 1;
    }
    relay.into_value(comm)
}

/// Broadcast from `root` by root-sequential point-to-point sends — the
/// "gather-style" exchange of the hybrid comm policy ([`crate::machine::
/// CommMode::Gather`]). The root's NIC serializes the `p − 1` payloads:
/// each send advances the root's clock by the bandwidth term before the
/// next one departs, so the last receiver lands at `α + (p − 1) · βb`
/// past the root — matching
/// [`MachineModel::flat_bcast_time`](crate::machine::MachineModel::flat_bcast_time).
/// Cheaper than the binomial tree for small payloads or small `p`, where
/// the tree's `⌈lg p⌉` α-hops dominate.
pub fn flat_bcast<T>(comm: &Comm, root: usize, value: Option<T>) -> T
where
    T: WirePayload + Clone,
{
    let p = comm.size();
    let tag = coll_tag(comm);
    if p == 1 {
        return value.expect("root must supply a value");
    }
    if comm.rank() == root {
        let relay = comm.relay_from(value.expect("root must supply a value"));
        let bytes = relay.bytes();
        for dst in 0..p {
            if dst == root {
                continue;
            }
            comm.send_relay(dst, tag, &relay);
            // NIC occupancy: the next send cannot start until this
            // payload has left the root.
            comm.advance_clock(bytes as f64 * comm.model().beta);
        }
        relay.into_value(comm)
    } else {
        comm.recv::<T>(root, tag)
    }
}

/// Reduction to `root` with operator `op` (must be associative and, for
/// determinism, commutative). Returns `Some(result)` on the root.
pub fn reduce<T, F>(comm: &Comm, root: usize, value: T, op: F) -> Option<T>
where
    T: WirePayload + Clone,
    F: Fn(T, T) -> T,
{
    let p = comm.size();
    let tag = coll_tag(comm);
    if p == 1 {
        return Some(value);
    }
    let rank = comm.rank();
    let relative = (rank + p - root) % p;
    let mut acc = value;
    let mut mask = 1usize;
    while mask < p {
        if relative & mask == 0 {
            let src_rel = relative | mask;
            if src_rel < p {
                let src = (src_rel + root) % p;
                let other = comm.recv::<T>(src, tag);
                acc = op(acc, other);
            }
        } else {
            let dst = ((relative - mask) + root) % p;
            comm.send(dst, tag, acc);
            return None;
        }
        mask <<= 1;
    }
    Some(acc)
}

/// All-reduce: reduce to rank 0, then broadcast back.
pub fn allreduce<T, F>(comm: &Comm, value: T, op: F) -> T
where
    T: WirePayload + Clone,
    F: Fn(T, T) -> T,
{
    let reduced = reduce(comm, 0, value, op);
    bcast(comm, 0, reduced)
}

/// Gather to `root`: returns `Some(values_by_rank)` on the root. Linear
/// (root receives `p − 1` messages), which matches small-message
/// `MPI_Gather` behaviour and keeps ordering trivial.
pub fn gather<T>(comm: &Comm, root: usize, value: T) -> Option<Vec<T>>
where
    T: WirePayload + Clone,
{
    let p = comm.size();
    let tag = coll_tag(comm);
    if comm.rank() == root {
        let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
        out[root] = Some(value);
        for (src, slot) in out.iter_mut().enumerate() {
            if src != root {
                *slot = Some(comm.recv::<T>(src, tag));
            }
        }
        Some(out.into_iter().map(Option::unwrap).collect())
    } else {
        comm.send(root, tag, value);
        None
    }
}

/// All-gather: every rank returns the vector of all ranks' values.
pub fn allgather<T>(comm: &Comm, value: T) -> Vec<T>
where
    T: WirePayload + Clone,
{
    let gathered = gather(comm, 0, value);
    bcast(comm, 0, gathered)
}

/// Barrier: a zero-byte all-reduce. Synchronizes virtual clocks to the
/// latest rank plus the tree's latency cost — stragglers pull everyone.
pub fn barrier(comm: &Comm) {
    allreduce(comm, (), |_, _| ());
}

/// All-reduce specialization: elementwise sum of equal-length `f64`
/// vectors (used by distributed estimation).
pub fn allreduce_sum_vec(comm: &Comm, value: Vec<f64>) -> Vec<f64> {
    allreduce(comm, value, |mut a, b| {
        assert_eq!(a.len(), b.len(), "allreduce_sum_vec length mismatch");
        for (x, y) in a.iter_mut().zip(&b) {
            *x += y;
        }
        a
    })
}

/// All-reduce specialization: elementwise min of `f32` vectors (key
/// propagation in distributed Cohen estimation).
pub fn allreduce_min_vec_f32(comm: &Comm, value: Vec<f32>) -> Vec<f32> {
    allreduce(comm, value, |mut a, b| {
        assert_eq!(a.len(), b.len(), "allreduce_min_vec length mismatch");
        for (x, y) in a.iter_mut().zip(&b) {
            *x = x.min(*y);
        }
        a
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;
    use crate::universe::Universe;

    #[test]
    fn bcast_from_every_root() {
        for p in [1usize, 2, 3, 4, 5, 8] {
            for root in 0..p {
                let results = Universe::run(p, MachineModel::summit(), |comm| {
                    let v = if comm.rank() == root {
                        Some(42u64 + root as u64)
                    } else {
                        None
                    };
                    bcast(&comm, root, v)
                });
                assert!(
                    results.iter().all(|&v| v == 42 + root as u64),
                    "p={p} root={root}"
                );
            }
        }
    }

    #[test]
    fn bcast_cost_scales_logarithmically() {
        let time_for = |p: usize| {
            let results = Universe::run(p, MachineModel::summit(), |comm| {
                let v = if comm.rank() == 0 {
                    Some(vec![0u8; 1 << 20])
                } else {
                    None
                };
                let _ = bcast(&comm, 0, v);
                comm.now()
            });
            results.into_iter().fold(0.0f64, f64::max)
        };
        let t2 = time_for(2);
        let t16 = time_for(16);
        // lg(16)/lg(2) = 4: tree depth quadruples the critical path.
        assert!((t16 / t2 - 4.0).abs() < 0.5, "t2={t2} t16={t16}");
    }

    #[test]
    fn flat_bcast_from_every_root() {
        for p in [1usize, 2, 3, 4, 5, 8] {
            for root in 0..p {
                let results = Universe::run(p, MachineModel::summit(), |comm| {
                    let v = if comm.rank() == root {
                        Some(7u64 + root as u64)
                    } else {
                        None
                    };
                    flat_bcast(&comm, root, v)
                });
                assert!(
                    results.iter().all(|&v| v == 7 + root as u64),
                    "p={p} root={root}"
                );
            }
        }
    }

    #[test]
    fn flat_bcast_cost_matches_model() {
        // The slowest receiver of a flat broadcast lands at the model's
        // closed form α + (p − 1)βb past the root's start.
        let p = 6;
        let payload = 1usize << 20;
        let m = MachineModel::summit();
        let want = m.flat_bcast_time(p, payload + 8); // Vec<u8> wire = len + 8
        let results = Universe::run(p, m, |comm| {
            let v = if comm.rank() == 0 {
                Some(vec![0u8; payload])
            } else {
                None
            };
            let _ = flat_bcast(&comm, 0, v);
            comm.now()
        });
        let t = results.into_iter().fold(0.0f64, f64::max);
        assert!(
            (t - want).abs() / want < 0.05,
            "flat bcast t={t} model={want}"
        );
    }

    #[test]
    fn flat_beats_tree_below_crossover_and_loses_above() {
        // Virtual-time confirmation of the machine-model crossover: at
        // p = 4 the modes swap winners around b* = α/β (≈ 69 KB on
        // Summit). Run both collectives on payloads a decade either side
        // and compare the realized critical paths.
        let time_of = |payload: usize, flat: bool| {
            let results = Universe::run(4, MachineModel::summit(), |comm| {
                let v = if comm.rank() == 0 {
                    Some(vec![0u8; payload])
                } else {
                    None
                };
                if flat {
                    let _ = flat_bcast(&comm, 0, v);
                } else {
                    let _ = bcast(&comm, 0, v);
                }
                comm.now()
            });
            results.into_iter().fold(0.0f64, f64::max)
        };
        let small = 4 << 10; // 4 KB << b*
        let large = 4 << 20; // 4 MB >> b*
        assert!(
            time_of(small, true) < time_of(small, false),
            "flat must win below the crossover"
        );
        assert!(
            time_of(large, false) < time_of(large, true),
            "tree must win above the crossover"
        );
    }

    #[test]
    fn reduce_sums_all_ranks() {
        for p in [1usize, 2, 3, 7, 8] {
            let results = Universe::run(p, MachineModel::summit(), |comm| {
                reduce(&comm, 0, comm.rank() as u64, |a, b| a + b)
            });
            let expect: u64 = (0..p as u64).sum();
            assert_eq!(results[0], Some(expect), "p={p}");
            for r in &results[1..] {
                assert_eq!(*r, None);
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let results = Universe::run(6, MachineModel::summit(), |comm| {
            allreduce(&comm, comm.rank() as u64 * 3, u64::max)
        });
        assert!(results.iter().all(|&v| v == 15));
    }

    #[test]
    fn gather_preserves_rank_order() {
        let results = Universe::run(5, MachineModel::summit(), |comm| {
            gather(&comm, 2, (comm.rank() as u64) * 11)
        });
        assert_eq!(results[2], Some(vec![0, 11, 22, 33, 44]));
        assert_eq!(results[0], None);
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            allgather(&comm, comm.rank() as u64)
        });
        for r in results {
            assert_eq!(r, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            if comm.rank() == 3 {
                comm.advance_clock(5.0); // straggler
            }
            barrier(&comm);
            comm.now()
        });
        for &t in &results {
            assert!(
                t >= 5.0,
                "barrier must not complete before the straggler: {t}"
            );
        }
    }

    #[test]
    fn allreduce_sum_vec_elementwise() {
        let results = Universe::run(3, MachineModel::summit(), |comm| {
            let v = vec![comm.rank() as f64, 1.0];
            allreduce_sum_vec(&comm, v)
        });
        for r in results {
            assert_eq!(r, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn allreduce_min_vec() {
        let results = Universe::run(3, MachineModel::summit(), |comm| {
            let v = vec![comm.rank() as f32 + 1.0, 10.0 - comm.rank() as f32];
            allreduce_min_vec_f32(&comm, v)
        });
        for r in results {
            assert_eq!(r, vec![1.0, 8.0]);
        }
    }

    #[test]
    fn collectives_can_follow_each_other() {
        // Distinct collective sequence numbers keep traffic separated.
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let a = allreduce(&comm, 1u64, |x, y| x + y);
            let b = allreduce(&comm, 10u64, |x, y| x + y);
            let c: Vec<u64> = allgather(&comm, comm.rank() as u64);
            (a, b, c)
        });
        for (a, b, c) in results {
            assert_eq!(a, 4);
            assert_eq!(b, 40);
            assert_eq!(c, vec![0, 1, 2, 3]);
        }
    }
}
