//! Small shared helpers: prefix sums, counting sort scaffolding, the k-way
//! merge tournament, and the per-rank thread width.

/// Exclusive prefix sum in place: `v[i] := sum(v[..i])`, returns the total.
///
/// This is the standard bucket→pointer conversion used when building
/// compressed formats from counts.
pub fn exclusive_prefix_sum(v: &mut [usize]) -> usize {
    let mut acc = 0usize;
    for x in v.iter_mut() {
        let c = *x;
        *x = acc;
        acc += c;
    }
    acc
}

/// Returns `true` if `s` is sorted in strictly increasing order.
pub fn is_strictly_increasing<T: PartialOrd>(s: &[T]) -> bool {
    s.windows(2).all(|w| w[0] < w[1])
}

/// Splits `n` items into `parts` contiguous chunks as evenly as possible and
/// returns the half-open range of chunk `i`.
///
/// The first `n % parts` chunks get one extra item, matching the block
/// distribution CombBLAS uses for 2D matrix decomposition.
pub fn even_chunk(n: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    debug_assert!(parts > 0 && i < parts);
    let base = n / parts;
    let extra = n % parts;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    start..start + len
}

/// A sorted k-way merge of row-index lists through a tournament (loser)
/// tree over packed keys `row << 32 | list`, so the smallest key is the
/// smallest row and, among equal rows, the lowest list. One value serves
/// any number of merges: its vectors are the per-worker scratch of the heap
/// SpGEMM kernel and of the multiway merge kernel.
///
/// Node `n` of the implicit binary tree (`1 ≤ n < leaves`, children `2n`
/// and `2n + 1`) keeps the *loser* of the match played there; the overall
/// winner is held outside the tree. Replacing the winner's key replays
/// exactly `lg leaves` matches on the way from its leaf to the root, each
/// one `(tree[n], key) = (max, min)` — no data-dependent branch, which is
/// what a binary heap's sift (which child? stop here?) cannot avoid. A list
/// that runs out plays [`u64::MAX`] from then on and loses every match.
#[derive(Clone, Debug, Default)]
pub struct Tournament {
    /// `2 · leaves` keys: the losers at `1..leaves` (slot 0 is unused),
    /// then the leaves a build starts from.
    tree: Vec<u64>,
    /// The unconsumed span `(pos, end)` of each list.
    spans: Vec<(usize, usize)>,
}

impl Tournament {
    /// The key of a list with nothing left. No real key equals it: a list
    /// id is below the list count, which [`Tournament::merge`] holds to
    /// `u32::MAX`.
    const EXHAUSTED: u64 = u64::MAX;

    /// Merges the lists `lists` yields, list `l` being the rows
    /// `row_at(l, pos)` for `pos` in its span `(start, end)` — strictly
    /// increasing along the span — and calls `visit(row, l, pos)` once per
    /// element, in ascending `(row, l)` order.
    pub fn merge(
        &mut self,
        lists: impl IntoIterator<Item = (usize, usize)>,
        row_at: impl Fn(usize, usize) -> crate::Idx,
        mut visit: impl FnMut(crate::Idx, usize, usize),
    ) {
        let Self { tree, spans } = self;
        spans.clear();
        spans.extend(lists);
        assert!(
            spans.len() <= u32::MAX as usize,
            "a key holds its list in 32 bits"
        );
        let key = |l: usize, (pos, end): (usize, usize)| {
            if pos < end {
                (row_at(l, pos) as u64) << 32 | l as u64
            } else {
                Self::EXHAUSTED
            }
        };
        let leaves = spans.len().next_power_of_two();
        tree.clear();
        tree.resize(2 * leaves, Self::EXHAUSTED);
        for (l, &span) in spans.iter().enumerate() {
            tree[leaves + l] = key(l, span);
        }
        // Winners bottom-up; then, top-down, each node keeps the loser of
        // its children's winners (children sit at larger indices, so they
        // still hold winners when their parent reads them).
        for n in (1..leaves).rev() {
            tree[n] = tree[2 * n].min(tree[2 * n + 1]);
        }
        let mut winner = tree[1];
        for n in 1..leaves {
            tree[n] = tree[2 * n].max(tree[2 * n + 1]);
        }

        while winner != Self::EXHAUSTED {
            let l = (winner & u32::MAX as u64) as usize;
            let (pos, end) = spans[l];
            visit((winner >> 32) as crate::Idx, l, pos);
            spans[l].0 = pos + 1;
            winner = key(l, (pos + 1, end));
            let mut n = (leaves + l) >> 1;
            while n > 0 {
                let loser = tree[n];
                tree[n] = loser.max(winner);
                winner = loser.min(winner);
                n >>= 1;
            }
        }
    }
}

/// Runs one rank's body with its share of the host's cores as the width
/// of every parallel call inside it: `max(1, available_parallelism ÷
/// colocated_ranks)`, the MPI+OpenMP binding. `colocated_ranks` is the
/// number of ranks the launching universe put on this host. Code outside
/// a universe runs `available_parallelism` wide.
pub fn with_rank_threads<R: Send>(colocated_ranks: usize, body: impl FnOnce() -> R + Send) -> R {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads((cores / colocated_ranks.max(1)).max(1))
        .build()
        .expect("spawn the rank's worker threads")
        .install(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_prefix_sum_basic() {
        let mut v = vec![3, 0, 2, 5];
        let total = exclusive_prefix_sum(&mut v);
        assert_eq!(total, 10);
        assert_eq!(v, vec![0, 3, 3, 5]);
    }

    #[test]
    fn exclusive_prefix_sum_empty() {
        let mut v: Vec<usize> = vec![];
        assert_eq!(exclusive_prefix_sum(&mut v), 0);
    }

    #[test]
    fn strictly_increasing() {
        assert!(is_strictly_increasing(&[1, 2, 5]));
        assert!(!is_strictly_increasing(&[1, 1, 5]));
        assert!(is_strictly_increasing::<u32>(&[]));
        assert!(is_strictly_increasing(&[7]));
    }

    #[test]
    fn even_chunk_covers_everything_without_overlap() {
        for n in [0usize, 1, 7, 16, 100] {
            for parts in [1usize, 2, 3, 7, 16] {
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for i in 0..parts {
                    let r = even_chunk(n, parts, i);
                    assert_eq!(r.start, prev_end, "chunks must be contiguous");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, n);
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn tournament_visits_in_row_then_list_order_at_every_fan_in() {
        // List `l` of `k` holds the multiples of `l + 1` below 40 (so rows
        // tie across lists, and list 0 starts at row 0), every third list
        // is empty, and the last one ends in the largest row there is.
        let mut tournament = Tournament::default();
        for k in 0..=17usize {
            let mut rows = Vec::new();
            let mut spans = Vec::new();
            for l in 0..k {
                let start = rows.len();
                if l % 3 != 2 {
                    rows.extend((0..40u32).filter(|r| r % (l as u32 + 1) == 0));
                }
                if l + 1 == k {
                    rows.push(u32::MAX);
                }
                spans.push((start, rows.len()));
            }
            let mut want: Vec<(u32, usize, usize)> = (spans.iter().enumerate())
                .flat_map(|(l, &(s, e))| (s..e).map(move |pos| (l, pos)))
                .map(|(l, pos)| (rows[pos], l, pos))
                .collect();
            want.sort_unstable();
            let mut got = Vec::new();
            tournament.merge(
                spans.iter().copied(),
                |_, pos| rows[pos],
                |r, l, pos| got.push((r, l, pos)),
            );
            assert_eq!(got, want, "fan-in {k}");
        }
    }

    #[test]
    fn even_chunk_balanced() {
        // 10 items over 4 parts -> sizes 3,3,2,2
        let sizes: Vec<usize> = (0..4).map(|i| even_chunk(10, 4, i).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }
}
