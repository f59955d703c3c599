//! Up-then-down **wave blocks**: a round layout that performs a
//! convergecast (leaves → root) followed immediately by a broadcast
//! (root → leaves) inside a single block of `2k + 1` rounds.
//!
//! The paper's *transmission schedule* (Appendix A.1), parameterized by
//! an upper bound `k` on the tree size, gives a node at depth `i` a
//! handful of named wake-up offsets inside a block of `2k + 1` rounds:
//!
//! | name                | offset      | who                                  |
//! |---------------------|-------------|--------------------------------------|
//! | `Down-Send` (root)  | `0`         | root                                 |
//! | `Down-Receive`      | `i − 1`     | non-root at depth `i`                |
//! | `Down-Send`         | `i`         | depth `i`, has children              |
//! | `Side-Send-Receive` | `k`         | anyone                               |
//! | `Up-Receive`        | `2k − i`    | depth `i`, has children (root: `2k`) |
//! | `Up-Send`           | `2k − i + 1`| non-root at depth `i`                |
//!
//! Information flows root→leaves in the `Down` rounds (a parent's
//! `Down-Send` coincides with its children's `Down-Receive`), leaves→root
//! in the `Up` rounds, and across tree boundaries in the single `Side`
//! round where *all* scheduled nodes are awake simultaneously. Every node
//! is awake `O(1)` rounds per block.
//!
//! That order — `Down` rounds *before* `Up` rounds — suits
//! broadcast-then-aggregate. Construction phases, however, repeatedly
//! need the opposite composite — *gather a minimum at the root, then
//! scatter the root's decision* — which would cost two standard blocks.
//! A wave block reorders the offsets so the composite fits in one block,
//! halving both the awake cost and the round cost of each construction
//! phase while preserving every property of the schedule (parent/child
//! rounds coincide; every node is awake `O(1)` rounds per block); side
//! rounds become separate single rounds between blocks:
//!
//! | name         | offset      | who                        |
//! |--------------|-------------|----------------------------|
//! | `Up-Receive`   | `k − i − 1` | depth `i`, has children    |
//! | `Up-Send`      | `k − i`     | non-root at depth `i`      |
//! | `Down-Send`    | `k + i`     | depth `i`, has children    |
//! | `Down-Receive` | `k + i − 1` | non-root at depth `i`      |

use sleeping_congest::Round;

/// Offsets of a wave block for trees of at most `k` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveSchedule {
    k: u32,
}

impl WaveSchedule {
    /// Wave schedule for trees with at most `k >= 1` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> WaveSchedule {
        assert!(k >= 1, "wave schedule bound must be at least 1");
        WaveSchedule { k }
    }

    /// The tree-size bound `k`.
    pub fn bound(&self) -> u32 {
        self.k
    }

    /// Length of one wave block.
    pub fn block_len(&self) -> Round {
        2 * self.k as Round + 1
    }

    /// Up-wave receive offset for a node at `depth` (requires children).
    pub fn up_receive(&self, depth: u32) -> Option<Round> {
        (depth < self.k).then(|| (self.k - depth - 1) as Round)
    }

    /// Up-wave send offset for a non-root node at `depth`.
    pub fn up_send(&self, depth: u32) -> Option<Round> {
        (depth >= 1 && depth < self.k).then(|| (self.k - depth) as Round)
    }

    /// Down-wave send offset for a node at `depth` (requires children).
    pub fn down_send(&self, depth: u32) -> Option<Round> {
        (depth < self.k).then(|| (self.k + depth) as Round)
    }

    /// Down-wave receive offset for a non-root node at `depth`.
    pub fn down_receive(&self, depth: u32) -> Option<Round> {
        (depth >= 1 && depth < self.k).then(|| (self.k + depth - 1) as Round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_align_parent_child() {
        let w = WaveSchedule::new(12);
        for depth in 1..12 {
            // Child's Up-Send lands in parent's Up-Receive round.
            assert_eq!(w.up_send(depth), w.up_receive(depth - 1));
            // Parent's Down-Send lands in child's Down-Receive round.
            assert_eq!(w.down_send(depth - 1), w.down_receive(depth));
        }
    }

    #[test]
    fn root_turnaround() {
        let w = WaveSchedule::new(5);
        // Root hears the up wave at k-1 and starts the down wave at k.
        assert_eq!(w.up_receive(0), Some(4));
        assert_eq!(w.down_send(0), Some(5));
        assert_eq!(w.up_send(0), None);
        assert_eq!(w.down_receive(0), None);
    }

    #[test]
    fn offsets_fit_in_block() {
        for k in 1..40u32 {
            let w = WaveSchedule::new(k);
            for depth in 0..k {
                for off in
                    [w.up_receive(depth), w.up_send(depth), w.down_send(depth), w.down_receive(depth)]
                        .into_iter()
                        .flatten()
                {
                    assert!(off < w.block_len());
                }
            }
        }
    }

    #[test]
    fn up_and_down_ranges_disjoint() {
        let w = WaveSchedule::new(9);
        for depth in 0..9 {
            if let (Some(us), Some(ds)) = (w.up_send(depth), w.down_send(depth)) {
                assert!(us < ds);
                assert!(us <= 9 as Round);
                assert!(ds >= 9 as Round);
            }
        }
    }
}
