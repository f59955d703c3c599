//! Fault models: lossy links, crashing nodes, and late wake-ups.
//!
//! The paper's guarantees are Monte Carlo statements about a
//! *well-behaved* network; a [`FaultModel`] measures how gracefully they
//! degrade when the network is not. Faults are injected by the engine
//! from a **dedicated RNG stream** ([`crate::rng::fault_draw`]) keyed by
//! `(seed, fault domain, site, round)` — a pure function, so fault draws
//! are byte-identical across thread counts and never perturb the
//! per-node protocol RNGs. In particular a run under
//! `FaultModel::default()` (or any model with `loss = 0`, `crash = 0`,
//! `wake_jitter = 0`) is *bit-for-bit identical* to a clean run.

use crate::Round;

/// Fault injection knobs for a run. All default to "no faults".
///
/// Semantics (see the field docs for the exact draw sites):
///
/// * **Message loss** is i.i.d. per *deliverable* message copy: a copy
///   whose receiving endpoint is asleep is already lost by the model
///   itself and draws nothing.
/// * **Crashes** strike at wake-up time: a node scheduled to be awake in
///   a round inside the crash window crash-stops with probability
///   [`crash`](FaultModel::crash) *before* executing the round. A
///   crashed node never sends, receives, or reschedules again; its
///   output is collected via
///   [`Protocol::aborted_output`](crate::Protocol::aborted_output).
/// * **Wake jitter** delays each node's *initial* wake-up by a
///   uniform draw from `0..=wake_jitter` rounds, breaking the "all
///   nodes start in round 0" assumption.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Probability in `[0, 1]` that a deliverable message copy is
    /// dropped in transit. The draw is keyed by the sending node `v`,
    /// its port `p` and the round — site `(v << 32) | p` in the
    /// [`FAULT_LOSS`](crate::rng::FAULT_LOSS) domain — so copies on
    /// different links or rounds are independent, and two copies a node
    /// unicasts through one port in one round share a fate.
    pub loss: f64,
    /// Probability in `[0, 1]` that a node crash-stops at the start of
    /// an awake round inside `[crash_from, crash_until]`.
    pub crash: f64,
    /// First round (inclusive) of the crash window.
    pub crash_from: Round,
    /// Last round (inclusive) of the crash window. Defaults to
    /// `Round::MAX` (no upper cutoff).
    pub crash_until: Round,
    /// Each node's initial wake-up is delayed by a uniform draw from
    /// `0..=wake_jitter` rounds (0 = everyone starts in round 0).
    pub wake_jitter: Round,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel { loss: 0.0, crash: 0.0, crash_from: 0, crash_until: Round::MAX, wake_jitter: 0 }
    }
}

impl FaultModel {
    /// The fault-free model (same as `Default`).
    pub fn none() -> Self {
        FaultModel::default()
    }

    /// True if any knob deviates from the fault-free default — the
    /// engine's fast path skips every fault draw when this is false.
    pub fn is_active(&self) -> bool {
        self.loss > 0.0 || self.crash > 0.0 || self.wake_jitter > 0
    }

    /// Validates the knobs: probabilities must lie in `[0, 1]` and be
    /// finite, and the crash window must be ordered.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !self.loss.is_finite() || !(0.0..=1.0).contains(&self.loss) {
            return Err(format!("loss probability {} outside [0, 1]", self.loss));
        }
        if !self.crash.is_finite() || !(0.0..=1.0).contains(&self.crash) {
            return Err(format!("crash probability {} outside [0, 1]", self.crash));
        }
        if self.crash_from > self.crash_until {
            return Err(format!(
                "empty crash window: crash_from {} > crash_until {}",
                self.crash_from, self.crash_until
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inactive_and_valid() {
        let f = FaultModel::default();
        assert!(!f.is_active());
        assert_eq!(f, FaultModel::none());
        f.validate().unwrap();
    }

    #[test]
    fn each_knob_activates() {
        assert!(FaultModel { loss: 0.1, ..FaultModel::none() }.is_active());
        assert!(FaultModel { crash: 0.1, ..FaultModel::none() }.is_active());
        assert!(FaultModel { wake_jitter: 3, ..FaultModel::none() }.is_active());
        // A crash window alone (with crash = 0) changes nothing.
        assert!(!FaultModel { crash_from: 5, crash_until: 9, ..FaultModel::none() }.is_active());
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        assert!(FaultModel { loss: 1.5, ..FaultModel::none() }.validate().is_err());
        assert!(FaultModel { loss: -0.1, ..FaultModel::none() }.validate().is_err());
        assert!(FaultModel { loss: f64::NAN, ..FaultModel::none() }.validate().is_err());
        assert!(FaultModel { crash: 2.0, ..FaultModel::none() }.validate().is_err());
        assert!(FaultModel { crash_from: 10, crash_until: 9, ..FaultModel::none() }
            .validate()
            .is_err());
        FaultModel { loss: 1.0, crash: 1.0, crash_from: 3, crash_until: 3, wake_jitter: 7 }
            .validate()
            .unwrap();
    }
}
