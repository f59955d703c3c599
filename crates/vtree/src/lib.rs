//! The **virtual binary tree** technique of
//! *"Distributed MIS in O(log log n) Awake Complexity"* (PODC 2023), §5.1.
//!
//! Given a parameter `i`, the virtual full binary tree `B([1,i])` has
//! depth `d = ⌈log₂ i⌉` and `2^(d+1) − 1` nodes labeled by an in-order
//! traversal. Applying `g(x) = ⌊x/2⌋ + 1` to every label yields the tree
//! `B*([1,i])`, whose leaves are labeled `1..=2^d` left to right.
//!
//! For `i = 6` (paper Figure 1):
//!
//! ```text
//!        B([1,6])                      B*([1,6])
//!            8                             5
//!        /       \                     /       \
//!       4         12                  3         7
//!     /   \      /   \              /   \     /   \
//!    2     6   10     14           2     4   6     8
//!   / \   / \  / \    / \         / \   / \ / \   / \
//!  1   3 5   7 9  11 13 15       1   2 3  4 5  6 7   8
//! ```
//!
//! The **communication set** `S_k([1,i])` is the set of `B*` labels of the
//! leaf labeled `k` and all of its ancestors. The two key properties
//! (paper Observations 4 and 5) are:
//!
//! * `|S_k([1,i])| ≤ ⌈log₂ i⌉ + 1` — a node that wakes exactly in the
//!   rounds of its communication set is awake `O(log i)` times;
//! * for any `k < k′` there is a common label `r ∈ S_k ∩ S_k′` with
//!   `k < r ≤ k′` — so if node `k` decides something in round `k`, node
//!   `k′` is guaranteed to hear about it (both awake in round `r`) before
//!   its own decision round `k′`.
//!
//! (The paper states the bound of Observation 4 as `⌈log i⌉`; the exact
//! count including the leaf itself is `⌈log₂ i⌉ + 1` distinct labels in
//! the worst case — e.g. `S_1([1,6]) = {1,2,3,5}` — which is what this
//! crate guarantees and what the awake-complexity accounting uses.)
//!
//! Every function takes any `i` in `[1, u64::MAX]`. The labels of
//! `B([1,i])` pass `u64` once `i > 2^63` (its depth is then 64), so they
//! are computed in `u128`; the labels returned are at most `i`, apart
//! from [`communication_set`]'s, which can exceed it (see there).
//! [`next_wake`] gives a node's next awake round in O(1), without
//! allocating its schedule, for protocols that keep only their position
//! in it.
//!
//! # Example
//!
//! ```
//! use vtree::{communication_set, common_round};
//!
//! // Paper Figure 2: S_3([1,6]) = {3,4,5}, S_5([1,6]) = {5,6,7}.
//! assert_eq!(communication_set(3, 6), vec![3, 4, 5]);
//! assert_eq!(communication_set(5, 6), vec![5, 6, 7]);
//! // They meet in round 5, with 3 < 5 <= 5.
//! assert_eq!(common_round(3, 5, 6), 5);
//! ```

/// Depth `d = ⌈log₂ i⌉` of the virtual binary tree `B([1,i])`.
///
/// # Panics
///
/// Panics if `i == 0`.
pub fn depth(i: u64) -> u32 {
    assert!(i >= 1, "virtual tree parameter i must be >= 1");
    if i == 1 {
        0
    } else {
        64 - (i - 1).leading_zeros()
    }
}

/// The `B*` label of the height-`h` ancestor of leaf `k = k1 + 1`. Its
/// in-order label in `B([1,i])` is `2·(k1 with its low h bits cleared)
/// + 2^h`, and `g(x) = ⌊x/2⌋ + 1` maps that to the value below. In
/// `u128`: for `i > 2^63` the depth is 64, and the label can be `2^64`.
fn label(k1: u128, h: u32) -> u128 {
    (k1 >> h << h) + (1 << h >> 1) + 1
}

/// The `B*` labels of the leaf `k` and its `d` ancestors in `B*([1,i])`,
/// leaf first (unsorted, possibly repeated, possibly above `i`).
fn labels(k: u64, i: u64) -> impl Iterator<Item = u128> {
    assert!(k >= 1 && k <= i, "k = {k} out of range [1, {i}]");
    let k1 = u128::from(k - 1);
    (0..=depth(i)).map(move |h| label(k1, h))
}

/// The communication set `S_k([1,i])`: sorted, deduplicated `B*` labels of
/// the leaf `k` and its ancestors.
///
/// Labels can exceed `i` (they range up to `2^d`); callers using them as
/// round numbers in `[1, i]` should use [`wake_rounds`] instead. The one
/// label that does not fit a `u64`, `2^64` (only when `i > 2^63`), is
/// left out: it exceeds `i` anyway.
///
/// # Panics
///
/// Panics if `k` is not in `[1, i]`.
pub fn communication_set(k: u64, i: u64) -> Vec<u64> {
    let mut set: Vec<u64> = labels(k, i).filter_map(|l| u64::try_from(l).ok()).collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// `S_k([1,i]) ∩ [1, i]`: the actual rounds in which the node with ID `k`
/// is awake when running a virtual-tree-coordinated algorithm over `i`
/// rounds. Sorted ascending; always contains `k` itself.
///
/// # Panics
///
/// Panics if `k` is not in `[1, i]`.
pub fn wake_rounds(k: u64, i: u64) -> Vec<u64> {
    let mut s: Vec<u64> = labels(k, i).filter(|&l| l <= u128::from(i)).map(|l| l as u64).collect();
    s.sort_unstable();
    s.dedup();
    s
}

/// The first of [`wake_rounds`]`(k, i)` above `after`, in O(1) and
/// without allocating: the node with ID `k`'s next awake round once
/// round `after` is over, or `None` when its schedule has ended.
///
/// With `k1 = k − 1`, the height-`h` ancestor of leaf `k` (`h ≥ 1`) is
/// labelled `k1` with its low `h − 1` bits cleared, plus 1, when bit
/// `h − 1` of `k1` is set: a round at most `k`. When that bit is clear
/// it is labelled `k1` with its low `h − 1` bits set, plus 2: a round
/// above `k`. So the rounds up to `k` are the *cuts* of `k1` below each
/// of its set bits, plus 1, and the rounds above `k` are the *fills* of
/// `k1` below each of its clear bits, plus 2; both grow with the bit.
///
/// # Panics
///
/// Panics if `k` is not in `[1, i]`.
pub fn next_wake(k: u64, i: u64, after: u64) -> Option<u64> {
    assert!(k >= 1 && k <= i, "k = {k} out of range [1, {i}]");
    let k1 = k - 1;
    // The highest bit where `a` and `b` differ, and every bit below it.
    let differ = |a: u64, b: u64| u64::MAX.checked_shr((a ^ b).leading_zeros()).unwrap_or(0);
    if after < k {
        // The least cut of `k1` that is at least `after`: `after` itself
        // when it is a cut (it differs from `k1` only below its lowest set
        // bit), else the cut below the highest bit where they differ.
        let cut = if after != 0 && (k1 ^ after) >> after.trailing_zeros() == 0 {
            after
        } else {
            k1 & !(differ(k1, after) >> 1)
        };
        Some(cut + 1)
    } else {
        // The least fill of `k1` at least `after − 1 ≥ k1`: `after − 1`
        // with every bit set up to the highest bit where it differs from
        // `k1`. A fill at or above bit `d` ends past `i`.
        let a1 = after - 1;
        (a1 | differ(k1, a1)).checked_add(2).filter(|&l| l <= i)
    }
}

/// `|wake_rounds(k, i)|` without allocating: the number of rounds in
/// `[1, i]` in which the node with ID `k` is awake. Useful for ranking
/// IDs by schedule length (e.g. adversarial worst-case ID assignment)
/// where materializing every schedule would be wasteful.
///
/// # Panics
///
/// Panics if `k` is not in `[1, i]`.
pub fn wake_count(k: u64, i: u64) -> usize {
    // At most 65 labels (d <= 64); dedup in a fixed buffer.
    let mut seen = [0u128; 65];
    let mut count = 0usize;
    for lab in labels(k, i) {
        if lab <= u128::from(i) && !seen[..count].contains(&lab) {
            seen[count] = lab;
            count += 1;
        }
    }
    count
}

/// A common label `r ∈ S_k ∩ S_k′` with `k < r ≤ k′` as guaranteed by
/// Observation 5 — the `B*` label of the lowest common ancestor of leaves
/// `k` and `k′`.
///
/// # Panics
///
/// Panics unless `1 ≤ k < k′ ≤ i`.
pub fn common_round(k: u64, kp: u64, i: u64) -> u64 {
    assert!(k >= 1 && k < kp && kp <= i, "need 1 <= k < k' <= i, got k={k} k'={kp} i={i}");
    let (k1, kp1) = (u128::from(k - 1), u128::from(kp - 1));
    let h = (0..=depth(i))
        .find(|&h| k1 >> h == kp1 >> h)
        .expect("the root is a common ancestor of all leaves");
    // The label is at most k′, so it fits a u64.
    label(k1, h) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_values() {
        assert_eq!(depth(1), 0);
        assert_eq!(depth(2), 1);
        assert_eq!(depth(3), 2);
        assert_eq!(depth(4), 2);
        assert_eq!(depth(5), 3);
        assert_eq!(depth(6), 3);
        assert_eq!(depth(8), 3);
        assert_eq!(depth(9), 4);
        assert_eq!(depth(1 << 20), 20);
    }

    #[test]
    fn paper_figure_examples() {
        // Figure 1/2 of the paper, i = 6.
        assert_eq!(communication_set(3, 6), vec![3, 4, 5]);
        assert_eq!(communication_set(5, 6), vec![5, 6, 7]);
        // S_1([1,6]) includes the whole left spine.
        assert_eq!(communication_set(1, 6), vec![1, 2, 3, 5]);
        // Node with ID 5 must ignore round 7 (only 6 rounds exist).
        assert_eq!(wake_rounds(5, 6), vec![5, 6]);
        assert_eq!(common_round(3, 5, 6), 5);
    }

    #[test]
    fn singleton_tree() {
        assert_eq!(communication_set(1, 1), vec![1]);
        assert_eq!(wake_rounds(1, 1), vec![1]);
    }

    #[test]
    fn observation4_exhaustive() {
        // |S_k| <= ceil(log2 i) + 1 for all k <= i <= 512.
        for i in 1..=512u64 {
            let bound = depth(i) as usize + 1;
            for k in 1..=i {
                let s = communication_set(k, i);
                assert!(s.len() <= bound, "|S_{k}([1,{i}])| = {} > {bound}", s.len());
                assert!(s.contains(&k), "S_k must contain k itself");
            }
        }
    }

    #[test]
    fn observation5_exhaustive() {
        // For all k < k' <= i <= 96: some r in both sets with k < r <= k'.
        for i in 1..=96u64 {
            for k in 1..i {
                let sk = communication_set(k, i);
                for kp in (k + 1)..=i {
                    let skp = communication_set(kp, i);
                    let r = common_round(k, kp, i);
                    assert!(sk.contains(&r), "r={r} not in S_{k}([1,{i}])");
                    assert!(skp.contains(&r), "r={r} not in S_{kp}([1,{i}])");
                    assert!(k < r && r <= kp, "need {k} < {r} <= {kp}");
                    // And r is usable as a round: r <= i because r <= k' <= i.
                    assert!(r <= i);
                }
            }
        }
    }

    #[test]
    fn wake_count_matches_wake_rounds() {
        for i in [1u64, 2, 3, 6, 7, 8, 9, 64, 100, 127, 128, 129, 1000, 6144] {
            for k in (1..=i).step_by((i as usize / 97).max(1)) {
                assert_eq!(
                    wake_count(k, i),
                    wake_rounds(k, i).len(),
                    "mismatch at k={k} i={i}"
                );
            }
        }
    }

    #[test]
    fn next_wake_walks_wake_rounds_exhaustively() {
        for i in 1..=512 {
            for k in 1..=i {
                let mut rounds = wake_rounds(k, i).into_iter().peekable();
                for after in 0..=i {
                    rounds.next_if_eq(&after);
                    let expected = rounds.peek().copied();
                    assert_eq!(next_wake(k, i, after), expected, "k={k} i={i} after={after}");
                }
            }
        }
    }

    /// Sampled leaves of `B*([1,i])`: both ends, the middle, the powers
    /// of two near the top of `u64`, and splitmix64 draws.
    fn sample_ks(i: u64) -> Vec<u64> {
        let mut ks = vec![1, 2, i / 2, i / 2 + 1, i - 1, i, 1 << 62, (1 << 63) - 1, 1 << 63];
        let mut z = i;
        for _ in 0..24 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ks.push(1 + (x ^ (x >> 31)) % i);
        }
        ks.retain(|&k| k >= 1 && k <= i);
        ks.sort_unstable();
        ks.dedup();
        ks
    }

    #[test]
    fn observations_hold_near_the_top_of_u64() {
        for i in [(1u64 << 62) + 1, 1 << 63, u64::MAX] {
            assert_eq!(depth(i), if i > 1 << 63 { 64 } else { 63 });
            let ks = sample_ks(i);
            for &k in &ks {
                // Observation 4.
                let s = communication_set(k, i);
                assert!(s.len() <= depth(i) as usize + 1, "|S_{k}([1,{i}])| = {}", s.len());
                assert!(s.contains(&k) && s.windows(2).all(|w| w[0] < w[1]));
                let rounds = wake_rounds(k, i);
                assert_eq!(rounds, s.iter().copied().filter(|&r| r <= i).collect::<Vec<_>>());
                assert_eq!(wake_count(k, i), rounds.len(), "k={k} i={i}");
                // next_wake walks the same schedule.
                let walked: Vec<u64> =
                    std::iter::successors(next_wake(k, i, 0), |&r| next_wake(k, i, r)).collect();
                assert_eq!(walked, rounds, "k={k} i={i}");
            }
            // Observation 5.
            for (a, &k) in ks.iter().enumerate() {
                for &kp in &ks[a + 1..] {
                    let r = common_round(k, kp, i);
                    assert!(k < r && r <= kp, "need {k} < {r} <= {kp}");
                    assert!(communication_set(k, i).contains(&r), "r={r} not in S_{k}");
                    assert!(communication_set(kp, i).contains(&r), "r={r} not in S_{kp}");
                }
            }
        }
    }

    #[test]
    fn wake_rounds_always_contains_own_id() {
        for i in [1u64, 2, 3, 7, 8, 9, 100, 1000] {
            for k in 1..=i.min(64) {
                assert!(wake_rounds(k, i).contains(&k));
            }
        }
    }
}
