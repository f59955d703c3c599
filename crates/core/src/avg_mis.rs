//! `GP-Avg-MIS` — a tunable trade-off between node-averaged and
//! worst-case awake complexity, after Ghaffari–Portmann, *"Average
//! Awake Complexity of MIS and Matching"* (SPAA 2023, arXiv:2305.06120).
//!
//! GP's observation: the two awake measures need not be traded away —
//! an average-cheap *dropout* stage decides most nodes in O(1) awake
//! rounds apiece, and the few survivors can afford a schedule with a
//! **deterministic** worst-case cap. This protocol composes exactly
//! those two stages from the repo's own building blocks:
//!
//! 1. **Dropout stage** (`balance` phases): the compete/resolve
//!    `DropoutCore` shared with [`NaMis`](crate::na_mis::NaMis) —
//!    each phase decides the local priority minima and their neighbors,
//!    who leave immediately, so the undecided set decays geometrically
//!    and most nodes pay `O(1)`.
//! 2. **Ranked stage**: every survivor draws a random rank from
//!    `[1, N³]` (capped at [`MAX_ID_SPACE`] `= 2^61`, which only
//!    `N > 1.3·10⁶` reaches, so the schedule fits the engine's round
//!    cap) and finishes via the virtual-binary-tree schedule of
//!    [`VtMis`] over the rank space — awake cost **at most**
//!    `⌈log₂ N³⌉ + 1` rounds, deterministically (Observation 4), and the
//!    result is the LFMIS of the residual graph under the rank order.
//!
//! The `balance` knob is the trade-off dial:
//!
//! * `balance = 0` — pure ranked schedule: worst case tightly capped at
//!   `O(log N)`, but *every* node pays its full schedule, so the average
//!   is `Θ(log N)` too.
//! * growing `balance` — the average falls toward the `O(1)` of pure
//!   dropout (fewer survivors enter the ranked stage), while the worst
//!   case grows as `2·balance + O(log N)`.
//!
//! Compare `gp-avg?balance=0`, the default `gp-avg`, and `na` in one
//! grid to see the whole frontier.
//!
//! # Monte Carlo failure mode
//!
//! Ranks are drawn independently (nodes are anonymous), so two
//! *adjacent* survivors can collide — probability `≤ m/N³` per run —
//! and a colliding pair shares one wake schedule, so both may join the
//! MIS. Ranked-stage messages therefore carry the sender's rank: a node
//! that ever hears its own rank from a neighbor raises
//! [`AvgMisOutput::failed`], and the runner reports it like any other
//! Monte Carlo failure (`AlgoResult::failures`, `correct = false`) —
//! the same convention `Awake-MIS` uses for its failure probability.

use crate::na_mis::DropoutCore;
use crate::state::{id_space, MisMsg, MisState};
use crate::vt_mis::{VtMis, MAX_ID_SPACE};
use graphgen::Port;
use rand::Rng;
use sleeping_congest::{
    bits_for_value, Action, MessageSize, NodeCtx, Outbox, Protocol, Round, SubProtocol, Window,
};

/// The ranked stage's rank space: the [`id_space`] `[1, N³]`, capped at
/// [`MAX_ID_SPACE`] so the last rank's wake round stays within the
/// engine's round cap.
fn rank_space(n_upper: usize) -> u64 {
    id_space(n_upper).min(MAX_ID_SPACE)
}

/// Knobs of [`AvgMis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvgMisConfig {
    /// Number of dropout phases before the ranked stage. Each phase
    /// costs every surviving node 2 awake rounds; more phases mean
    /// fewer rank-schedule survivors (lower average, higher worst case).
    pub balance: u64,
}

impl Default for AvgMisConfig {
    fn default() -> Self {
        AvgMisConfig { balance: 3 }
    }
}

/// Wire message: dropout-stage compete/win, or a wrapped ranked-stage
/// state broadcast tagged with the sender's rank (the rank makes
/// adjacent rank collisions detectable; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AvgMsg {
    /// Dropout stage: "undecided, with this priority".
    Compete(u64),
    /// Dropout stage: "I joined the MIS".
    Win,
    /// Ranked stage: a `VT-MIS` state broadcast from the node holding
    /// this rank.
    State(u64, MisMsg),
}

impl MessageSize for AvgMsg {
    fn bits(&self) -> usize {
        2 + match self {
            AvgMsg::Compete(p) => bits_for_value(*p),
            AvgMsg::Win => 1,
            AvgMsg::State(rank, m) => bits_for_value(*rank) + m.bits(),
        }
    }
}

/// A node's final output: its decision plus the Monte Carlo failure
/// flag (an adjacent rank collision was detected — the run's output
/// cannot be trusted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvgMisOutput {
    /// The MIS decision.
    pub state: MisState,
    /// True if this node heard its own rank from a neighbor.
    pub failed: bool,
}

/// The `GP-Avg-MIS` protocol for one node.
#[derive(Debug, Clone)]
pub struct AvgMis {
    cfg: AvgMisConfig,
    dropout: DropoutCore,
    /// The ranked finishing stage, constructed lazily when (and only
    /// when) this node survives the dropout stage. Its `VT-MIS` ID is the
    /// node's rank.
    ranked: Option<Window<VtMis>>,
    collided: bool,
    finished: bool,
}

impl AvgMis {
    /// Creates a node with the given configuration.
    pub fn new(cfg: AvgMisConfig) -> AvgMis {
        AvgMis {
            cfg,
            dropout: DropoutCore::default(),
            ranked: None,
            collided: false,
            finished: false,
        }
    }

    /// First round of the ranked stage (all dropout phases precede it).
    fn ranked_start(&self) -> Round {
        2 * self.cfg.balance
    }

    /// Enters the ranked stage: draws the random rank and builds the
    /// virtual-tree schedule over the [`rank_space`].
    fn enter_ranked(&mut self, ctx: &mut NodeCtx) -> &mut Window<VtMis> {
        debug_assert!(self.ranked.is_none());
        let upper = rank_space(ctx.n_upper);
        let rank = ctx.rng.gen_range(1..=upper);
        let start = self.ranked_start();
        self.ranked.insert(Window::new(VtMis::new(rank, upper, None), start))
    }
}

impl Protocol for AvgMis {
    type Msg = AvgMsg;
    type Output = AvgMisOutput;

    fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<AvgMsg> {
        let start = self.ranked_start();
        if ctx.round < start {
            // Dropout stage, stride-2 phases.
            if ctx.round.is_multiple_of(2) {
                Outbox::Broadcast(AvgMsg::Compete(self.dropout.draw(ctx)))
            } else if self.dropout.state() == MisState::InMis {
                Outbox::Broadcast(AvgMsg::Win)
            } else {
                Outbox::Silent
            }
        } else {
            // `balance = 0` skips the dropout stage entirely; the
            // schedule is then built at the round-0 send.
            if self.ranked.is_none() {
                self.enter_ranked(ctx);
            }
            let ranked = self.ranked.as_mut().expect("just ensured");
            let rank = ranked.child().id();
            ranked.send(ctx.round, ctx, |m| AvgMsg::State(rank, m))
        }
    }

    fn receive(&mut self, ctx: &mut NodeCtx, inbox: &[(Port, AvgMsg)]) -> Action {
        let start = self.ranked_start();
        if ctx.round < start {
            if ctx.round.is_multiple_of(2) {
                self.dropout.judge(inbox.iter().filter_map(|&(_, m)| match m {
                    AvgMsg::Compete(p) => Some(p),
                    _ => None,
                }));
                return Action::Continue; // attend the resolve round
            }
            let heard_win = inbox.iter().any(|&(_, m)| m == AvgMsg::Win);
            if self.dropout.resolve(heard_win).is_decided() {
                self.finished = true;
                return Action::Terminate;
            }
            if ctx.round + 1 < start {
                return Action::Continue; // next dropout phase
            }
            // Survived every dropout phase: build the ranked schedule
            // and sleep straight to its first wake round.
            return Action::SleepUntil(self.enter_ranked(ctx).first_wake());
        }
        let ranked = self.ranked.as_mut().expect("ranked stage entered before first wake");
        let rank = ranked.child().id();
        // A neighbor holding my rank shares my whole wake schedule:
        // symmetry cannot be broken, so flag the run.
        if inbox.iter().any(|&(_, m)| matches!(m, AvgMsg::State(r, _) if r == rank)) {
            self.collided = true;
        }
        let action = ranked.receive(ctx.round, ctx, &inbox, |m| match m {
            AvgMsg::State(_, mm) => Some(mm),
            _ => None,
        });
        self.finished = action == Action::Terminate;
        action
    }

    fn output(&self) -> AvgMisOutput {
        assert!(self.finished, "GP-Avg-MIS output read before completion");
        let state = match &self.ranked {
            Some(window) => window.child().output(),
            None => self.dropout.state(),
        };
        AvgMisOutput { state, failed: self.collided }
    }

    fn aborted_output(&self) -> AvgMisOutput {
        let state = match &self.ranked {
            Some(window) => window.child().aborted_output(),
            None => self.dropout.state(),
        };
        AvgMisOutput { state, failed: self.collided }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_maximal, check_mis};
    use graphgen::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sleeping_congest::{SimConfig, Simulator};

    fn run(
        g: &graphgen::Graph,
        cfg: AvgMisConfig,
        seed: u64,
    ) -> sleeping_congest::RunReport<AvgMisOutput> {
        let nodes = (0..g.n()).map(|_| AvgMis::new(cfg)).collect();
        Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().expect("run")
    }

    fn states(report: &sleeping_congest::RunReport<AvgMisOutput>) -> Vec<MisState> {
        assert_eq!(
            report.outputs.iter().filter(|o| o.failed).count(),
            0,
            "unexpected rank collision"
        );
        report.outputs.iter().map(|o| o.state).collect()
    }

    #[test]
    fn computes_mis_on_many_graphs() {
        let mut rng = SmallRng::seed_from_u64(11);
        for trial in 0..10 {
            let g = generators::gnp(50, 0.1, &mut rng);
            for balance in [0, 1, 3, 8] {
                let report = run(&g, AvgMisConfig { balance }, trial);
                let s = states(&report);
                check_mis(&g, &s)
                    .unwrap_or_else(|e| panic!("trial {trial} balance {balance}: {e}"));
                check_maximal(&g, &s)
                    .unwrap_or_else(|e| panic!("trial {trial} balance {balance}: {e}"));
            }
        }
    }

    #[test]
    fn worst_case_awake_is_deterministically_capped() {
        // 2·balance dropout rounds plus the Observation-4 bound on the
        // rank schedule: ⌈log₂ N³⌉ + 1 wake rounds.
        let mut rng = SmallRng::seed_from_u64(13);
        let g = generators::gnp_avg_degree(256, 8.0, &mut rng);
        let cfg = AvgMisConfig::default();
        for seed in 0..6 {
            let report = run(&g, cfg, seed);
            check_mis(&g, &states(&report)).unwrap();
            let cap = 2 * cfg.balance
                + u64::from(vtree::depth(rank_space(g.n())))
                + 1;
            assert!(
                report.metrics.awake_complexity() <= cap,
                "seed {seed}: awake {} above the deterministic cap {cap}",
                report.metrics.awake_complexity()
            );
        }
    }

    #[test]
    fn balance_trades_average_for_worst_case() {
        // More dropout phases: fewer rank-schedule survivors, so the
        // node average falls. Averaged over seeds to kill run noise.
        let mut rng = SmallRng::seed_from_u64(17);
        let g = generators::gnp_avg_degree(512, 8.0, &mut rng);
        let mean_avg = |balance: u64| -> f64 {
            (0..8u64)
                .map(|seed| run(&g, AvgMisConfig { balance }, seed).metrics.awake_average())
                .sum::<f64>()
                / 8.0
        };
        let pure_ranked = mean_avg(0);
        let balanced = mean_avg(6);
        assert!(
            balanced < pure_ranked / 2.0,
            "6 dropout phases must at least halve the node average: {balanced} vs {pure_ranked}"
        );
    }

    #[test]
    fn the_rank_space_is_capped_where_n_cubed_outgrows_the_round_cap() {
        assert_eq!(rank_space(8), 1 << 24);
        assert_eq!(rank_space(1_000_000), 1_000_000u64.pow(3));
        assert_eq!(rank_space(2_000_000), MAX_ID_SPACE);
        assert_eq!(rank_space(usize::MAX), MAX_ID_SPACE);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        for cfg in [AvgMisConfig { balance: 0 }, AvgMisConfig::default()] {
            let g = graphgen::Graph::empty(3);
            let report = run(&g, cfg, 1);
            assert!(report.outputs.iter().all(|o| o.state == MisState::InMis && !o.failed));
            let g = generators::path(2);
            let report = run(&g, cfg, 1);
            check_mis(&g, &states(&report)).unwrap();
        }
    }

    #[test]
    fn adjacent_rank_collisions_are_flagged() {
        // An actual collision is a ~N⁻³ event, so drive the receive
        // path directly: a ranked-stage node that hears its *own* rank
        // from a neighbor must raise the Monte Carlo flag, and a
        // different rank must not.
        use sleeping_congest::NodeCtx;
        let mut node = AvgMis::new(AvgMisConfig { balance: 0 });
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = NodeCtx { node: 0, degree: 1, round: 0, n_upper: 8, rng: &mut rng };
        let rank = node.enter_ranked(&mut ctx).child().id();
        let other = AvgMsg::State(rank ^ 1, MisMsg(MisState::Undecided));
        node.receive(&mut ctx, &[(0, other)]);
        assert!(!node.collided, "a distinct rank is not a collision");
        let clash = AvgMsg::State(rank, MisMsg(MisState::Undecided));
        node.receive(&mut ctx, &[(0, clash)]);
        assert!(node.collided, "hearing one's own rank must set the flag");
    }
}
