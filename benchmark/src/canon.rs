//! Partition canonicalisation: two label vectors describe the same
//! clustering iff they agree up to a renaming of the labels, so the
//! correctness gate compares hashes of the *canonical* form (labels
//! renamed in order of first occurrence).

/// Relabels `labels` by first occurrence: the first vertex gets 0, the
/// next vertex in a not-yet-seen cluster gets 1, and so on.
pub fn canonicalize(labels: &[u32]) -> Vec<u32> {
    let mut rename = std::collections::BTreeMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = rename.len() as u32;
            *rename.entry(l).or_insert(next)
        })
        .collect()
}

/// FNV-1a over the canonical labels. Equal for label permutations of one
/// partition, different (up to hash collisions) when any vertex moves.
pub fn partition_hash(labels: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in canonicalize(labels) {
        for b in l.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabels_by_first_occurrence() {
        assert_eq!(canonicalize(&[7, 7, 2, 9, 2]), vec![0, 0, 1, 2, 1]);
        assert_eq!(canonicalize(&[]), Vec::<u32>::new());
    }

    #[test]
    fn label_permutations_hash_equal() {
        let a = [0, 0, 1, 1, 2, 0];
        let b = [5, 5, 3, 3, 0, 5];
        assert_eq!(partition_hash(&a), partition_hash(&b));
    }

    #[test]
    fn a_moved_vertex_changes_the_hash() {
        let a = [0, 0, 1, 1, 2, 0];
        let moved = [0, 0, 1, 1, 2, 1];
        let split = [0, 0, 1, 1, 2, 3];
        assert_ne!(partition_hash(&a), partition_hash(&moved));
        assert_ne!(partition_hash(&a), partition_hash(&split));
    }
}
