//! Output columns of one product whose `B_{*j}` share a row pattern `K`,
//! and how the workers of the hash kernel's column loop hand them over.
//!
//! A column of such a group has the same rows as every other member — the
//! union of `A_{*k}`, `k ∈ K` — so one probe, one presence bit and one read
//! of `A_{*k}` can serve up to [`LANES`] members at once
//! (`hash::multiply_cols_with`). Members lie anywhere in the product, in
//! other workers' blocks, so the first worker to reach a free member
//! *claims* it and up to `LANES − 1` more free members of its group,
//! forms them together, keeps its own and *publishes* the others here;
//! whoever reaches a published member takes it and hands it to its emit in
//! column order; the members of one claim share one copy of their rows. A
//! claimer forms and publishes without waiting on anyone, so a worker that
//! reaches a member claimed by another waits at most one formation and no
//! hand-off can deadlock. A claimer that panics frees what it has not
//! published, and whoever reaches it next claims it anew.

use hipmcl_sparse::{Csc, Idx, Value};
use std::cell::OnceCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// The most members of one group a worker forms at once: one value lane
/// each in the accumulator, one register column each in the tile.
pub const LANES: usize = 4;

const NONE: u32 = u32::MAX;

/// A member's hand-off state.
const FREE: u8 = 0;
const CLAIMED: u8 = 1;
const PUBLISHED: u8 = 2;

/// Whether a group's `A_{*k}`, `k ∈ K`, share one row pattern: not yet
/// known, yes, no.
const UNKNOWN: u8 = 0;
const ONE: u8 = 1;
const MANY: u8 = 2;

/// A formed column: its rows, shared with the other members of its claim,
/// and its values.
pub(crate) type Formed<T> = (Arc<Vec<Idx>>, Vec<T>);

/// The groups of columns `cols` of a product `A · B` and their hand-off;
/// by default, none.
#[derive(Default)]
pub(crate) struct Groups<T> {
    /// Per column of `cols` (from 0), its member index, or `NONE` if no
    /// other column shares its pattern (empty when no column does).
    member: Vec<u32>,
    /// Members, as columns of `cols` (from 0), group by group, ascending
    /// within each: group `g` is `cols[start[g]..start[g + 1]]`.
    cols: Vec<u32>,
    start: Vec<u32>,
    /// Per member, its group.
    group: Vec<u32>,
    /// Per group, whether its `A_{*k}` share one row pattern: a value
    /// every worker that works it out finds alike, which publishes nothing
    /// else, so `Relaxed`.
    pattern: Vec<AtomicU8>,
    /// Per member: `FREE`, `CLAIMED` or `PUBLISHED`. A claimer stores
    /// `PUBLISHED` with `Release` once the member's slot is filled, and a
    /// worker loads it with `Acquire` before it takes the slot (whose mutex
    /// orders the column as well); a claim is an `Acquire` exchange from
    /// `FREE`.
    state: Vec<AtomicU8>,
    /// Per member, what its claimer formed for it, until it is taken.
    slot: Vec<Mutex<Option<Formed<T>>>>,
    /// Buffers of taken members for the next publication: values, and
    /// rows once every member of their claim has been taken.
    spare_rows: Mutex<Vec<Vec<Idx>>>,
    spare_vals: Mutex<Vec<Vec<T>>>,
}

/// What a worker finds at a member it reaches.
pub(crate) enum Reached<'g, T> {
    /// Formed by a claimer, to be emitted and given back.
    Published(Formed<T>),
    /// Claimed by this worker, with the other members it claimed.
    Claimed(Claim<'g, T>),
}

/// Members a worker has claimed: the one it reached first. Dropped while
/// unwinding, it frees every one it has not published.
pub(crate) struct Claim<'g, T> {
    groups: &'g Groups<T>,
    members: [u32; LANES],
    len: usize,
    /// The rows every member of the claim has, copied at the first
    /// publication.
    rows: OnceCell<Arc<Vec<Idx>>>,
}

impl<T: Value> Groups<T> {
    /// Groups columns `cols` of `b` by row pattern: keyed by length and
    /// first row, then compared exactly. Only patterns of two rows or more
    /// that two columns or more share form a group: a column that reads
    /// one `A_{*k}` has one `A`-pattern already.
    pub(crate) fn of(b: &Csc<T>, cols: Range<usize>) -> Self {
        let pattern = |c: u32| b.col_rows(cols.start + c as usize);
        let mut keyed: Vec<(u64, u32)> = (0..cols.len() as u32)
            .filter_map(|c| {
                let ks = pattern(c);
                (ks.len() >= 2).then(|| ((ks.len() as u64) << 32 | ks[0] as u64, c))
            })
            .collect();
        keyed.sort_unstable();
        let (mut members, mut start) = (Vec::new(), vec![0]);
        for run in keyed
            .chunk_by_mut(|x, y| x.0 == y.0)
            .filter(|r| r.len() > 1)
        {
            run.sort_unstable_by(|x, y| pattern(x.1).cmp(pattern(y.1)).then(x.1.cmp(&y.1)));
            for group in run.chunk_by(|x, y| pattern(x.1) == pattern(y.1)) {
                if group.len() > 1 {
                    members.extend(group.iter().map(|x| x.1));
                    start.push(members.len() as u32);
                }
            }
        }
        let mut member = Vec::new();
        let mut group = vec![0; members.len()];
        if !members.is_empty() {
            member = vec![NONE; cols.len()];
            for (g, w) in start.windows(2).enumerate() {
                for m in w[0]..w[1] {
                    member[members[m as usize] as usize] = m;
                    group[m as usize] = g as u32;
                }
            }
        }
        let groups = start.len() - 1;
        Self {
            member,
            pattern: (0..groups).map(|_| AtomicU8::new(UNKNOWN)).collect(),
            state: (0..members.len()).map(|_| AtomicU8::new(FREE)).collect(),
            slot: (0..members.len()).map(|_| Mutex::new(None)).collect(),
            cols: members,
            start,
            group,
            spare_rows: Mutex::default(),
            spare_vals: Mutex::default(),
        }
    }

    /// The member that column `c` of `cols` (from 0) is, if it is one.
    pub(crate) fn member(&self, c: usize) -> Option<usize> {
        self.member
            .get(c)
            .filter(|&&m| m != NONE)
            .map(|&m| m as usize)
    }

    /// Whether the `A_{*k}` of member `m`'s group share one row pattern,
    /// asking `one` the first time any member asks.
    pub(crate) fn one_pattern(&self, m: usize, one: impl FnOnce() -> bool) -> bool {
        let known = &self.pattern[self.group[m] as usize];
        match known.load(Ordering::Relaxed) {
            UNKNOWN => {
                let is = one();
                known.store(if is { ONE } else { MANY }, Ordering::Relaxed);
                is
            }
            v => v == ONE,
        }
    }

    /// Reaching member `m`: takes what a claimer published for it, waiting
    /// out a formation in progress, or claims it and up to `LANES − 1`
    /// more free members of its group — the next in column order, then
    /// from the group's start.
    pub(crate) fn reach(&self, m: usize) -> Reached<'_, T> {
        let state = &self.state[m];
        loop {
            match state.load(Ordering::Acquire) {
                PUBLISHED => {
                    let mut slot = self.slot[m].lock().expect("nothing panics under the lock");
                    let formed = slot.take().expect("a published member holds its column");
                    return Reached::Published(formed);
                }
                CLAIMED => std::thread::yield_now(),
                _ => {
                    let claim =
                        state.compare_exchange(FREE, CLAIMED, Ordering::Acquire, Ordering::Relaxed);
                    if claim.is_ok() {
                        break;
                    }
                }
            }
        }
        let mut claim = Claim {
            groups: self,
            members: [m as u32; LANES],
            len: 1,
            rows: OnceCell::new(),
        };
        let g = self.group[m] as usize;
        let (first, end) = (self.start[g] as usize, self.start[g + 1] as usize);
        for other in (m + 1..end).chain(first..m) {
            if claim.len == LANES {
                break;
            }
            let won = self.state[other].compare_exchange(
                FREE,
                CLAIMED,
                Ordering::Acquire,
                Ordering::Relaxed,
            );
            if won.is_ok() {
                claim.members[claim.len] = other as u32;
                claim.len += 1;
            }
        }
        claim.members[1..claim.len].sort_unstable();
        Reached::Claimed(claim)
    }

    /// Returns a taken member's buffers for the next publication: its
    /// values, and its rows if no other member holds them still.
    pub(crate) fn give_back(&self, (rows, vals): Formed<T>) {
        if let Some(rows) = Arc::into_inner(rows) {
            self.spare_rows
                .lock()
                .expect("nothing panics under the lock")
                .push(rows);
        }
        self.spare_vals
            .lock()
            .expect("nothing panics under the lock")
            .push(vals);
    }
}

impl<T: Value> Claim<'_, T> {
    /// The claimed members as columns of `cols` (from 0): the one reached
    /// first, then the others ascending.
    pub(crate) fn cols(&self) -> impl Iterator<Item = usize> + '_ {
        self.members[..self.len]
            .iter()
            .map(|&m| self.groups.cols[m as usize] as usize)
    }

    /// How many members are claimed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The first claimed member, the one reached.
    pub(crate) fn reached(&self) -> usize {
        self.members[0] as usize
    }

    /// Publishes claimed member `i` (≥ 1) as `rows` and `vals`, for
    /// whoever reaches it. Every member of a claim has the same rows: the
    /// first publication copies them, the others share that copy.
    pub(crate) fn publish(&self, i: usize, rows: &[Idx], vals: &[T]) {
        assert!(0 < i && i < self.len, "only another's member is published");
        let groups = self.groups;
        let shared = self.rows.get_or_init(|| {
            let mut r = spare(&groups.spare_rows);
            r.clear();
            r.extend_from_slice(rows);
            Arc::new(r)
        });
        assert_eq!(
            shared.len(),
            rows.len(),
            "the members of a claim share rows"
        );
        let mut v = spare(&groups.spare_vals);
        v.clear();
        v.extend_from_slice(vals);
        let m = self.members[i] as usize;
        *groups.slot[m]
            .lock()
            .expect("nothing panics under the lock") = Some((Arc::clone(shared), v));
        groups.state[m].store(PUBLISHED, Ordering::Release);
    }
}

/// A spare buffer from `pool`, or a new one.
fn spare<B: Default>(pool: &Mutex<Vec<B>>) -> B {
    let mut pool = pool.lock().expect("nothing panics under the lock");
    pool.pop().unwrap_or_default()
}

impl<T> Drop for Claim<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for &m in &self.members[..self.len] {
                let _ = self.groups.state[m as usize].compare_exchange(
                    CLAIMED,
                    FREE,
                    Ordering::Release,
                    Ordering::Relaxed,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::Triples;

    /// `B` with the given row patterns, one column each.
    fn with_patterns(nrows: usize, patterns: &[&[Idx]]) -> Csc<f64> {
        let mut t = Triples::new(nrows, patterns.len());
        for (j, rows) in patterns.iter().enumerate() {
            for &r in rows.iter() {
                t.push(r, j as Idx, 1.0);
            }
        }
        Csc::from_triples(&t)
    }

    #[test]
    fn groups_are_exact_patterns_of_two_rows_shared_by_two_columns() {
        // Same first row and length but one row apart (0, 2), a pattern
        // of one row shared (4, 5), an empty pair (6, 7).
        let b = with_patterns(
            8,
            &[
                &[0, 1, 3],
                &[2, 4],
                &[0, 1, 4],
                &[0, 1, 3],
                &[5],
                &[5],
                &[],
                &[],
                &[2, 4],
            ],
        );
        let g = Groups::<f64>::of(&b, 0..9);
        let grouped: Vec<_> = (0..9).map(|c| g.member(c).map(|m| g.group[m])).collect();
        let want = [
            Some(1),
            Some(0),
            None,
            Some(1),
            None,
            None,
            None,
            None,
            Some(0),
        ];
        assert_eq!(grouped, want);
        // A window of the columns sees only its own.
        let g = Groups::<f64>::of(&b, 3..9);
        assert_eq!((0..6).filter(|&c| g.member(c).is_some()).count(), 0);
    }

    #[test]
    fn a_claim_takes_the_next_free_members_and_publishes_them() {
        let b = with_patterns(4, &[&[0, 1][..]; 6]);
        let g = Groups::<f64>::of(&b, 0..6);
        let Reached::Claimed(claim) = g.reach(4) else {
            panic!("free")
        };
        assert_eq!(claim.cols().collect::<Vec<_>>(), [4, 0, 1, 5]);
        claim.publish(1, &[0, 1], &[1.0, 2.0]);
        drop(claim);
        let Reached::Published(col) = g.reach(0) else {
            panic!("published")
        };
        assert_eq!((&col.0[..], &col.1[..]), (&[0, 1][..], &[1.0, 2.0][..]));
        g.give_back(col);
        let Reached::Claimed(claim) = g.reach(2) else {
            panic!("free")
        };
        assert_eq!(claim.cols().collect::<Vec<_>>(), [2, 3]);
    }

    #[test]
    fn a_claimer_that_panics_frees_what_it_did_not_publish() {
        let b = with_patterns(4, &[&[0, 1][..]; 3]);
        let g = Groups::<f64>::of(&b, 0..3);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let Reached::Claimed(claim) = g.reach(0) else {
                panic!("free")
            };
            claim.publish(1, &[0, 1], &[1.0, 2.0]);
            panic!("forming member 2");
        }));
        assert!(unwound.is_err());
        assert!(matches!(g.reach(1), Reached::Published(_)));
        assert!(matches!(g.reach(2), Reached::Claimed(_)));
    }
}
