//! `NA-MIS` — node-averaged awake complexity via immediate dropout,
//! after Chatterjee–Gmyr–Pandurangan, *"Sleeping is Efficient: MIS in
//! O(1)-rounds Node-averaged Awake Complexity"* (PODC 2020,
//! arXiv:2006.07449).
//!
//! The sleeping model was introduced with **two** awake measures: the
//! worst case `max_v A_v` the source paper optimizes, and the node
//! average `(1/n)·Σ_v A_v` CGP optimize. This protocol targets the
//! second: computation proceeds in two-round *phases* (compete, then
//! resolve), and a node leaves the computation the moment its decision
//! is made — in CGP's terms it *sleeps forever*. The average cost is
//! then `2·E[phases until decision]`; because every phase decides the
//! locally-minimal survivors (and their neighbors), the undecided set
//! decays geometrically and the node average stays bounded by a
//! constant as `n` grows. The **worst case**, by contrast, is the full
//! phase count `Θ(log n)` w.h.p. — the mirror image of `Awake-MIS`,
//! whose worst case is `O(log log n)` while its average is within a
//! constant of its max.
//!
//! # Phase structure
//!
//! Phase `p` occupies rounds `p·stride` and `p·stride + 1`:
//!
//! * **compete** (`p·stride`): every undecided node draws a fresh
//!   random priority from `[1, N³]` and broadcasts it. A node beaten by
//!   no received priority wins.
//! * **resolve** (`p·stride + 1`): winners broadcast `Win` and drop
//!   out; a node hearing `Win` drops out as `NotInMis`. Survivors sleep
//!   until the next compete round.
//!
//! With the default `stride = 2` phases are back to back; a larger
//! stride spaces them out, stretching the round complexity while
//! leaving every awake count untouched — a pure demonstration that the
//! measured quantity is awake rounds, not elapsed rounds.
//!
//! # Sleeping forever vs terminating
//!
//! CGP's decided nodes sleep forever without terminating. The engine
//! models that literally as [`Action::SleepUntil`]`(`[`SLEEP_FOREVER`]`)`
//! — but a run only *completes* when every node terminates, so parking
//! the decided nodes ends in [`sleeping_congest::SimError::Deadlock`]
//! once the survivors finish. [`NaMisConfig::park_forever`] exposes the
//! literal reading for exactly that demonstration (see the tests);
//! the default resolves a decided node to [`Action::Terminate`], which
//! is observationally identical for every neighbor (messages to
//! terminated and parked nodes are equally lost) and lets the run
//! complete.

use crate::state::{id_space, MisState};
use graphgen::Port;
use rand::Rng;
use sleeping_congest::{bits_for_value, Action, MessageSize, NodeCtx, Outbox, Protocol, Round, SLEEP_FOREVER};

/// The shared compete/resolve core of a dropout phase, used by both
/// [`NaMis`] and [`AvgMis`](crate::avg_mis::AvgMis)'s first stage.
///
/// Compete: draw a fresh random priority from [`id_space`]; lose to any
/// received priority `≤` yours (a tie counts as beaten for *both*
/// endpoints, like Luby — neither joins, both redraw next phase), win
/// into the MIS otherwise. Resolve: leave as `NotInMis` when a
/// neighbor announces a win.
#[derive(Debug, Clone, Default)]
pub(crate) struct DropoutCore {
    state: MisState,
    priority: u64,
}

impl DropoutCore {
    /// The decision so far.
    pub(crate) fn state(&self) -> MisState {
        self.state
    }

    /// Compete-round send: draws and records this phase's priority.
    pub(crate) fn draw(&mut self, ctx: &mut NodeCtx) -> u64 {
        debug_assert_eq!(self.state, MisState::Undecided);
        self.priority = ctx.rng.gen_range(1..=id_space(ctx.n_upper));
        self.priority
    }

    /// Compete-round receive over the priorities heard this round: wins
    /// unless beaten (or tied) by any of them.
    pub(crate) fn judge(&mut self, mut priorities: impl Iterator<Item = u64>) {
        if !priorities.any(|p| p <= self.priority) {
            self.state = MisState::InMis;
        }
    }

    /// Resolve-round receive: `heard_win` is whether any neighbor
    /// announced a win this round. Returns the state after the phase.
    pub(crate) fn resolve(&mut self, heard_win: bool) -> MisState {
        if self.state == MisState::Undecided && heard_win {
            self.state = MisState::NotInMis;
        }
        self.state
    }
}

/// Knobs of [`NaMis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaMisConfig {
    /// Rounds from one compete round to the next (`≥ 2`). The two
    /// working rounds of a phase are always consecutive; a stride above
    /// 2 inserts `stride − 2` all-asleep rounds between phases.
    pub stride: Round,
    /// Park decided nodes with [`SLEEP_FOREVER`] instead of
    /// terminating them — the paper's literal semantics, which the
    /// engine (correctly) reports as a deadlock once everyone decided.
    pub park_forever: bool,
}

impl Default for NaMisConfig {
    fn default() -> Self {
        NaMisConfig { stride: 2, park_forever: false }
    }
}

/// One phase's wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NaMsg {
    /// "I am undecided, with this priority" (compete round).
    Compete(u64),
    /// "I joined the MIS" (resolve round).
    Win,
}

impl MessageSize for NaMsg {
    fn bits(&self) -> usize {
        1 + match self {
            NaMsg::Compete(p) => bits_for_value(*p),
            NaMsg::Win => 1,
        }
    }
}

/// The `NA-MIS` protocol for one node.
#[derive(Debug, Clone)]
pub struct NaMis {
    cfg: NaMisConfig,
    dropout: DropoutCore,
    finished: bool,
}

impl NaMis {
    /// Creates a node with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.stride < 2` (a phase needs its two rounds).
    pub fn new(cfg: NaMisConfig) -> NaMis {
        assert!(cfg.stride >= 2, "stride {} leaves no room for a phase", cfg.stride);
        NaMis { cfg, dropout: DropoutCore::default(), finished: false }
    }

    /// The node's decision so far (final once the node terminated).
    pub fn state(&self) -> MisState {
        self.dropout.state()
    }
}

impl Protocol for NaMis {
    type Msg = NaMsg;
    type Output = MisState;

    fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<NaMsg> {
        if ctx.round.is_multiple_of(self.cfg.stride) {
            // Compete: only undecided nodes are still awake here.
            Outbox::Broadcast(NaMsg::Compete(self.dropout.draw(ctx)))
        } else if self.dropout.state() == MisState::InMis {
            Outbox::Broadcast(NaMsg::Win)
        } else {
            Outbox::Silent
        }
    }

    fn receive(&mut self, ctx: &mut NodeCtx, inbox: &[(Port, NaMsg)]) -> Action {
        if ctx.round.is_multiple_of(self.cfg.stride) {
            self.dropout.judge(
                inbox.iter().filter_map(|&(_, m)| match m {
                    NaMsg::Compete(p) => Some(p),
                    NaMsg::Win => None,
                }),
            );
            return Action::Continue; // attend the resolve round
        }
        let heard_win = inbox.iter().any(|&(_, m)| m == NaMsg::Win);
        if self.dropout.resolve(heard_win).is_decided() {
            // Drop out the moment the decision is made: awake cost stops
            // accruing here, which is what bounds the node average.
            if self.cfg.park_forever {
                Action::SleepUntil(SLEEP_FOREVER)
            } else {
                self.finished = true;
                Action::Terminate
            }
        } else if self.cfg.stride == 2 {
            Action::Continue
        } else {
            // Next compete round: (p+1)·stride = round + stride − 1.
            Action::SleepUntil(ctx.round + (self.cfg.stride - 1))
        }
    }

    fn output(&self) -> MisState {
        assert!(self.finished, "NA-MIS output read before completion");
        self.dropout.state()
    }

    fn aborted_output(&self) -> MisState {
        self.dropout.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_maximal, check_mis};
    use graphgen::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sleeping_congest::{SimConfig, SimError, Simulator};

    fn run(g: &graphgen::Graph, cfg: NaMisConfig, seed: u64) -> sleeping_congest::RunReport<MisState> {
        let nodes = (0..g.n()).map(|_| NaMis::new(cfg)).collect();
        Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().expect("run")
    }

    #[test]
    fn computes_mis_on_many_graphs() {
        let mut rng = SmallRng::seed_from_u64(3);
        for trial in 0..12 {
            let g = generators::gnp(60, 0.08, &mut rng);
            let report = run(&g, NaMisConfig::default(), trial);
            check_mis(&g, &report.outputs).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            check_maximal(&g, &report.outputs).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        }
    }

    #[test]
    fn average_awake_is_far_below_worst_case() {
        // The defining shape: most nodes decide in the first phases, a
        // few unlucky ones carry the tail.
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::gnp_avg_degree(512, 8.0, &mut rng);
        let report = run(&g, NaMisConfig::default(), 9);
        check_mis(&g, &report.outputs).unwrap();
        let d = report.metrics.awake_distribution();
        assert!(
            d.mean * 2.0 < d.max as f64,
            "node average {} should sit well under worst case {}",
            d.mean,
            d.max
        );
        assert!(d.skew > 0.0, "dropout must leave a positive tail, got {}", d.skew);
    }

    #[test]
    fn stride_stretches_rounds_but_not_awake() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::gnp(80, 0.1, &mut rng);
        let dense = run(&g, NaMisConfig::default(), 4);
        let spaced = run(&g, NaMisConfig { stride: 16, ..Default::default() }, 4);
        assert_eq!(dense.outputs, spaced.outputs, "stride must not change the MIS");
        assert_eq!(
            dense.metrics.awake_rounds, spaced.metrics.awake_rounds,
            "stride must not change any awake count"
        );
        assert!(
            spaced.metrics.round_complexity() > 4 * dense.metrics.round_complexity(),
            "stride 16 must stretch the schedule: {} vs {}",
            spaced.metrics.round_complexity(),
            dense.metrics.round_complexity()
        );
    }

    #[test]
    fn park_forever_is_reported_as_deadlock() {
        // The paper's literal "sleep forever" on decided nodes: the
        // engine refuses to call that run complete.
        let g = generators::path(6);
        let nodes =
            (0..6).map(|_| NaMis::new(NaMisConfig { park_forever: true, ..Default::default() })).collect();
        let err = Simulator::new(g, nodes, SimConfig::seeded(2)).run().unwrap_err();
        assert!(
            matches!(err, SimError::Deadlock { sleeping_forever } if sleeping_forever > 0),
            "{err:?}"
        );
    }

    #[test]
    fn isolated_nodes_pay_one_phase() {
        let g = graphgen::Graph::empty(4);
        let report = run(&g, NaMisConfig::default(), 1);
        assert!(report.outputs.iter().all(|&s| s == MisState::InMis));
        assert_eq!(report.metrics.awake_complexity(), 2);
    }
}
