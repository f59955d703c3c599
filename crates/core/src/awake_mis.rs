//! **`Awake-MIS`** — MIS in `O(log log n)` awake complexity
//! (paper §6, Theorem 13; round-efficient variant Corollary 14).
//!
//! Every node draws a batch `(i, j) ∈ [1, ℓ] × [1, 2Δ′]`: the
//! *collection* `i` with probability proportional to `2^i` (so batch
//! collections double in expected size, driving Lemma 2's residual
//! sparsity), and `j` uniformly (driving Lemma 3's shattering). Batches
//! are processed in `P = 2ℓΔ′ = O(log² n)` lexicographic phases:
//!
//! * The first round of each phase is a **communication round**. Node
//!   `v` attends exactly the communication rounds in its virtual-tree
//!   communication set `S_{g(p(v))}([1, P])` — `O(log log n)` rounds, by
//!   Observation 4 applied to `P = O(log² n)`. Decided nodes announce
//!   their state; undecided nodes listen and drop out when they hear an
//!   MIS neighbor. Observation 5 guarantees every earlier-batch decision
//!   reaches later-batch neighbors in time.
//! * The remaining rounds of phase `(i, j)` are a window in which the
//!   still-undecided batch members run [`crate::ldt_mis::LdtMis`]. By
//!   the shattering property their components are small
//!   (`O(log n)`-sized), so the window costs `O(log log n)` awake
//!   rounds.
//!
//! The phase's window is a [`Window`]: it starts LDT-MIS at local round 0
//! in the round after the communication round, shifts its rounds, wraps
//! its sends in [`AwakeMisMsg::L`] and hands it only the `L` messages of
//! each inbox, without copying them.
//!
//! A node holds state only for the stage it is in. Outside its window
//! it keeps its batch, its decision and the shared parameters, but no
//! LDT-MIS state and no schedule vector: each time it wakes,
//! [`vtree::next_wake`] computes its next communication phase from its
//! batch in O(1). The window is boxed when the node enters its own
//! phase's window and freed when LDT-MIS is done, so the few nodes still
//! undecided at their own phase are the only ones to pay for it. A node
//! is 144 bytes; the boxed window is 848, of which `LdtMis` is 840.
//!
//! The algorithm is Monte Carlo: parameter overflows (an oversized
//! component, a construction running out of phases) surface as `failed`
//! nodes in the output, never as extra awake rounds or hangs — matching
//! the paper's "failures affect correctness rather than awake
//! complexity".

use crate::ldt_mis::{round_budget, LdtMis, LdtMisMsg, LdtMisParams, LdtStrategy};
use crate::state::{id_space, MisMsg, MisState};
use graphgen::Port;
use rand::Rng;
use sleeping_congest::{Action, MessageSize, NodeCtx, Outbox, Protocol, Round, SubProtocol, Window};

/// Tunable constants of `Awake-MIS`.
///
/// The defaults follow the Theorem 13 analysis of arXiv:2204.08359 with
/// practical constants (the paper's own are noted on `delta_factor` and
/// `comp_factor`): `Δ′ = ⌈delta_factor · ln N⌉`, component bound
/// `K = ⌈comp_factor · ln N⌉ + 4`, and
/// `ℓ = ⌈log₂(N / (ell_density · log₂ N))⌉` collections.
#[derive(Debug, Clone, Copy)]
pub struct AwakeMisConfig {
    /// LDT-construction strategy: `Awake` gives Theorem 13, `Round`
    /// gives Corollary 14.
    pub strategy: LdtStrategy,
    /// `Δ′` as a multiple of `ln N` (paper: 9·ln(n⁴) = 36·ln n; the
    /// default exploits the tighter measured residual degrees).
    pub delta_factor: f64,
    /// Component-size bound as a multiple of `ln N` (paper: 6·ln(n⁴)).
    pub comp_factor: f64,
    /// Expected size of the first collection, as a multiple of `log₂ N`.
    pub ell_density: f64,
    /// Ablation (experiment E11): attend *every* communication round
    /// instead of the virtual-tree schedule.
    pub always_awake_comm: bool,
    /// Ablation (experiment E12): draw the collection `i` uniformly
    /// instead of geometrically.
    pub uniform_batches: bool,
}

impl Default for AwakeMisConfig {
    fn default() -> Self {
        AwakeMisConfig {
            strategy: LdtStrategy::Awake,
            delta_factor: 12.0,
            comp_factor: 24.0,
            ell_density: 10.0,
            always_awake_comm: false,
            uniform_batches: false,
        }
    }
}

impl AwakeMisConfig {
    /// The Corollary 14 variant (round-efficient LDTs).
    pub fn round_efficient() -> Self {
        AwakeMisConfig { strategy: LdtStrategy::Round, ..AwakeMisConfig::default() }
    }
}

/// Parameters derived (identically at every node) from `N` and the
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DerivedParams {
    /// Number of collections `ℓ`.
    pub ell: u64,
    /// Batches per collection `2Δ′`.
    pub two_delta: u64,
    /// Total phases `P = ℓ · 2Δ′`.
    pub phases: u64,
    /// Component-size bound `K`.
    pub k: u32,
    /// ID space `I = N³` ([`id_space`]).
    pub id_upper: u64,
    /// Rounds per phase (1 communication round + the LDT-MIS window).
    pub r_phase: Round,
}

/// Derives the shared parameters from the common bound `N`.
pub fn derive_params(n_upper: usize, config: &AwakeMisConfig) -> DerivedParams {
    let n = n_upper.max(4) as f64;
    let ln_n = n.ln();
    let log2_n = n.log2();
    let delta_prime = (config.delta_factor * ln_n).ceil().max(1.0) as u64;
    let two_delta = 2 * delta_prime;
    let ell = (n / (config.ell_density * log2_n)).log2().ceil().max(1.0) as u64;
    let k = ((config.comp_factor * ln_n).ceil() as u32 + 4).max(8);
    let id_upper = id_space(n_upper);
    let r_phase = 1 + round_budget(k, id_upper, config.strategy);
    DerivedParams { ell, two_delta, phases: ell * two_delta, k, id_upper, r_phase }
}

/// Messages of `Awake-MIS`: communication-round announcements or
/// LDT-MIS window traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum AwakeMisMsg {
    /// Communication round: a decided node's state.
    State(MisMsg),
    /// LDT-MIS window traffic.
    L(LdtMisMsg),
}

impl MessageSize for AwakeMisMsg {
    fn bits(&self) -> usize {
        1 + match self {
            AwakeMisMsg::State(m) => m.bits(),
            AwakeMisMsg::L(m) => m.bits(),
        }
    }
}

/// One node's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AwakeMisOutput {
    /// Final decision (`Undecided` only when `failed`).
    pub state: MisState,
    /// Monte Carlo failure flag (an LDT-MIS stage overflowed its
    /// budget).
    pub failed: bool,
    /// The batch `(i, j)` this node drew.
    pub batch: (u64, u64),
    /// Size of the shattered component this node solved (0 if it was
    /// decided before its own phase).
    pub comp_size: u64,
}

/// The `Awake-MIS` protocol for one node.
#[derive(Debug, Clone)]
pub struct AwakeMis {
    config: AwakeMisConfig,
    params: Option<DerivedParams>,
    my_id: u64,
    batch: (u64, u64),
    batch_g: u64,
    state: MisState,
    /// The LDT-MIS window: allocated when the node enters its own
    /// phase's window, freed when LDT-MIS is done.
    ldt: Option<Box<Window<LdtMis>>>,
    comp_size: u64,
    failed: bool,
    finished: bool,
}

impl AwakeMis {
    /// Creates an `Awake-MIS` node with the given configuration.
    pub fn new(config: AwakeMisConfig) -> AwakeMis {
        AwakeMis {
            config,
            params: None,
            my_id: 0,
            batch: (0, 0),
            batch_g: 0,
            state: MisState::Undecided,
            ldt: None,
            comp_size: 0,
            failed: false,
            finished: false,
        }
    }

    /// Node with the default (Theorem 13) configuration.
    pub fn theorem13() -> AwakeMis {
        AwakeMis::new(AwakeMisConfig::default())
    }

    /// Node with the round-efficient (Corollary 14) configuration.
    pub fn corollary14() -> AwakeMis {
        AwakeMis::new(AwakeMisConfig::round_efficient())
    }

    /// Draws the batch collection `i ∈ [1, ℓ]` with `P[i] ∝ 2^i`
    /// (geometric) or uniformly (ablation).
    fn draw_collection(&self, ell: u64, rng: &mut impl Rng) -> u64 {
        if self.config.uniform_batches || ell == 1 {
            return rng.gen_range(1..=ell);
        }
        // P[i] = 2^i / (2^(ℓ+1) - 2); sample by walking the CDF.
        let total = (1u128 << (ell + 1)) - 2;
        let x = rng.gen_range(0..total);
        let mut acc = 0u128;
        for i in 1..=ell {
            acc += 1u128 << i;
            if x < acc {
                return i;
            }
        }
        ell
    }

    fn setup(&mut self, ctx: &mut NodeCtx) {
        let params = derive_params(ctx.n_upper, &self.config);
        self.my_id = ctx.rng.gen_range(1..=params.id_upper);
        let i = self.draw_collection(params.ell, ctx.rng);
        let j = ctx.rng.gen_range(1..=params.two_delta);
        self.batch = (i, j);
        self.batch_g = (i - 1) * params.two_delta + j;
        self.params = Some(params);
    }

    /// The action moving this node to its next event after round `r`:
    /// the first communication round after `r` of a phase in its
    /// schedule (phase `q`'s is round `(q − 1)·r_phase`), or termination
    /// when none is left.
    fn plan(&mut self, r: Round) -> Action {
        let params = self.params.expect("setup ran in round 0");
        // Phase `q`'s communication round is after `r` exactly when `q`
        // is after the phase `r` falls in.
        let phase = r / params.r_phase + 1;
        let next_phase = if self.config.always_awake_comm {
            Some(phase + 1).filter(|&q| q <= params.phases)
        } else {
            vtree::next_wake(self.batch_g, params.phases, phase)
        };
        match next_phase.map(|q| (q - 1) * params.r_phase) {
            Some(w) => {
                if w == r + 1 {
                    Action::Continue
                } else {
                    Action::SleepUntil(w)
                }
            }
            None => {
                self.finished = true;
                Action::Terminate
            }
        }
    }
}

impl Protocol for AwakeMis {
    type Msg = AwakeMisMsg;
    type Output = AwakeMisOutput;

    fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<AwakeMisMsg> {
        let r = ctx.round;
        if self.params.is_none() {
            // First activation — round 0 normally, later under the
            // fault model's wake jitter (any comm rounds already missed
            // stay missed, an observable failure mode like loss).
            self.setup(ctx);
            return Outbox::Silent; // nobody is decided in phase 1
        }
        if let Some(window) = &mut self.ldt {
            return window.send(r, ctx, AwakeMisMsg::L);
        }
        // Communication round: decided nodes announce; undecided listen.
        if self.state.is_decided() {
            Outbox::Broadcast(AwakeMisMsg::State(MisMsg(self.state)))
        } else {
            Outbox::Silent
        }
    }

    fn receive(&mut self, ctx: &mut NodeCtx, inbox: &[(Port, AwakeMisMsg)]) -> Action {
        let r = ctx.round;
        let params = *self.params.as_ref().expect("setup ran in round 0");

        if let Some(window) = &mut self.ldt {
            let action = window.receive(r, ctx, &inbox, |m| match m {
                AwakeMisMsg::L(l) => Some(l),
                _ => None,
            });
            if action != Action::Terminate {
                return action;
            }
            let out = window.child().output();
            self.comp_size = out.comp_size;
            if out.failed {
                self.failed = true;
            } else {
                self.state = out.state;
            }
            self.ldt = None;
            return self.plan(r);
        }

        // Communication round.
        if self.state == MisState::Undecided
            && inbox
                .iter()
                .any(|(_, m)| matches!(m, AwakeMisMsg::State(MisMsg(MisState::InMis))))
        {
            self.state = MisState::NotInMis;
        }
        let phase = r / params.r_phase + 1;
        if phase == self.batch_g && self.state == MisState::Undecided && !self.failed {
            // Our own phase: run LDT-MIS over the shattered component,
            // from the next round (its local round 0) on.
            let ldt = LdtMis::new(LdtMisParams {
                my_id: self.my_id,
                id_upper: params.id_upper,
                k: params.k,
                strategy: self.config.strategy,
            });
            self.ldt = Some(Box::new(Window::new(ldt, r + 1)));
            return Action::Continue;
        }
        self.plan(r)
    }

    fn output(&self) -> AwakeMisOutput {
        assert!(self.finished, "Awake-MIS output read before termination");
        self.aborted_output()
    }

    fn aborted_output(&self) -> AwakeMisOutput {
        AwakeMisOutput {
            state: self.state,
            failed: self.failed,
            batch: self.batch,
            comp_size: self.comp_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_params_scale() {
        let cfg = AwakeMisConfig::default();
        let small = derive_params(64, &cfg);
        let large = derive_params(8192, &cfg);
        assert!(small.phases < large.phases);
        assert!(small.k < large.k);
        assert_eq!(small.phases, small.ell * small.two_delta);
        assert!(large.ell >= 1 && large.two_delta >= 2);
        // Phases are polylogarithmic: far below n.
        assert!(large.phases < 8192);
        assert_eq!(large.id_upper, 8192u64.pow(3));
    }

    #[test]
    fn a_node_fits_in_three_cache_lines() {
        // 1,088 bytes when the node kept its LDT-MIS state inline and
        // its wake schedule in a `Vec`; 144 with the window boxed (848
        // bytes behind the pointer, 840 of them `LdtMis`) and the
        // schedule computed on each wake. Sub-protocol state belongs
        // behind a pointer.
        let bytes = std::mem::size_of::<AwakeMis>();
        assert!(bytes <= 192, "AwakeMis is {bytes} bytes");
    }

    #[test]
    fn next_wake_follows_wake_rounds_at_derived_phase_counts() {
        for n in [1_000usize, 10_000, 100_000, 1_000_000] {
            let phases = derive_params(n, &AwakeMisConfig::default()).phases;
            let ks = (1..=phases).step_by((phases / 61) as usize).chain([phases - 1, phases]);
            for k in ks {
                let rounds = vtree::wake_rounds(k, phases);
                for after in 0..=phases {
                    let expected = rounds.iter().copied().find(|&q| q > after);
                    assert_eq!(vtree::next_wake(k, phases, after), expected, "P={phases} k={k}");
                }
            }
        }
    }

    #[test]
    fn collection_distribution_is_geometric() {
        use rand::SeedableRng;
        let node = AwakeMis::theorem13();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let ell = 6;
        let mut counts = vec![0u64; ell as usize + 1];
        for _ in 0..60_000 {
            counts[node.draw_collection(ell, &mut rng) as usize] += 1;
        }
        // Each collection should hold about twice the previous one.
        for i in 2..=ell as usize {
            let ratio = counts[i] as f64 / counts[i - 1] as f64;
            assert!((1.6..2.6).contains(&ratio), "ratio at {i}: {ratio}");
        }
    }

    #[test]
    fn uniform_ablation_is_uniform() {
        use rand::SeedableRng;
        let node = AwakeMis::new(AwakeMisConfig { uniform_batches: true, ..Default::default() });
        let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
        let mut counts = [0u64; 5];
        for _ in 0..40_000 {
            counts[node.draw_collection(4, &mut rng) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate().skip(1) {
            assert!((c as f64 - 10_000.0).abs() < 800.0, "count[{i}] = {c}");
        }
    }
}
