//! MIS decision states and the basic MIS wire message.

use sleeping_congest::MessageSize;

/// The ID space `[1, N³]` of a network of at most `n_upper` nodes,
/// `N = max(n_upper, 4)`, from which independent draws are distinct
/// w.h.p. It saturates at `u64::MAX` (from `N ≈ 2.6·10⁶`), and its
/// `2^24` floor keeps the collision (Monte Carlo failure) probability
/// negligible on small networks too, at O(1) extra bits per message.
pub fn id_space(n_upper: usize) -> u64 {
    (n_upper.max(4) as u64).saturating_pow(3).max(1 << 24)
}

/// A node's MIS decision state (`state_v` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MisState {
    /// Not yet decided.
    #[default]
    Undecided,
    /// Joined the MIS.
    InMis,
    /// Excluded (a neighbor joined the MIS).
    NotInMis,
}

impl MisState {
    /// Whether the node has committed to a final answer.
    pub fn is_decided(self) -> bool {
        self != MisState::Undecided
    }
}

/// A broadcast of one's MIS state: the basic message of `VT-MIS` and of
/// Awake-MIS communication rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MisMsg(pub MisState);

impl MessageSize for MisMsg {
    fn bits(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decided() {
        assert!(!MisState::Undecided.is_decided());
        assert!(MisState::InMis.is_decided());
        assert!(MisState::NotInMis.is_decided());
        assert_eq!(MisState::default(), MisState::Undecided);
        assert_eq!(MisMsg(MisState::InMis).bits(), 2);
    }

    #[test]
    fn the_id_space_is_n_cubed_floored_and_saturating() {
        assert_eq!(id_space(0), 1 << 24);
        assert_eq!(id_space(1_000_000), 1_000_000_000_000_000_000);
        assert_eq!(id_space(2_000_000), 8_000_000_000_000_000_000);
        // 3·10⁶ cubed is past u64::MAX; `pow` would wrap in release.
        assert_eq!(id_space(3_000_000), u64::MAX);
        assert_eq!(id_space(usize::MAX), u64::MAX);
    }
}
