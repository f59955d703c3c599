//! Type-erased scratch storage for heterogeneous protocols.
//!
//! [`SimScratch`] is parameterized by the protocol's message type, which
//! is exactly right for a worker that runs one protocol family — but a
//! worker driving *many* protocol families through a dynamic dispatch
//! layer (e.g. `analysis`'s algorithm registry) cannot name all the
//! message types up front. A [`ScratchArena`] erases them: it owns one
//! lazily-created [`SimScratch<M>`] per message type `M`, keyed by
//! [`TypeId`], so an object-safe runner trait can thread a single
//! `&mut ScratchArena` through dynamic calls and each concrete runner
//! recovers its typed scratch with [`ScratchArena::of`] (or, one level
//! higher, [`Simulator::run_in`](crate::Simulator::run_in)).
//!
//! Reuse is exactly as safe as with a typed scratch: every run resets
//! the scratch it draws, so results never depend on what ran before.

use crate::engine::SimScratch;
use std::any::{Any, TypeId};

/// A heterogeneous collection of [`SimScratch`]es, one per message type.
///
/// Keep one arena per worker thread and pass it to every run; outbox
/// table, RNG-table, and wake-bucket allocations are then shared across
/// all runs of the same protocol family, whatever order families run in.
///
/// ```
/// use sleeping_congest::ScratchArena;
///
/// let mut arena = ScratchArena::new();
/// let a: *const _ = arena.of::<u32>();
/// let b: *const _ = arena.of::<u32>(); // same slot, reused
/// assert_eq!(a, b);
/// arena.of::<(u8, u64)>(); // a second, independently-typed slot
/// assert_eq!(arena.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Linear map from message `TypeId` to a boxed `SimScratch<M>`. The
    /// number of distinct message types in a process is tiny (one per
    /// protocol family), so a `Vec` beats a `HashMap` here.
    slots: Vec<(TypeId, Box<dyn Any + Send>)>,
}

impl ScratchArena {
    /// An arena with no scratches allocated yet.
    pub fn new() -> ScratchArena {
        ScratchArena::default()
    }

    /// The typed scratch for message type `M`, created empty on first
    /// use and reused afterwards.
    pub fn of<M: Send + 'static>(&mut self) -> &mut SimScratch<M> {
        let id = TypeId::of::<M>();
        let idx = match self.slots.iter().position(|(t, _)| *t == id) {
            Some(i) => i,
            None => {
                self.slots.push((id, Box::new(SimScratch::<M>::new())));
                self.slots.len() - 1
            }
        };
        self.slots[idx]
            .1
            .downcast_mut::<SimScratch<M>>()
            .expect("arena slot keyed by TypeId must hold the matching scratch type")
    }

    /// Number of distinct message types that have drawn a scratch.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no scratch has been drawn yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use crate::protocol::{Action, NodeCtx, Outbox, Protocol};
    use graphgen::{generators, Port};

    struct Echo;
    impl Protocol for Echo {
        type Msg = u32;
        type Output = usize;
        fn send(&mut self, _: &mut NodeCtx) -> Outbox<u32> {
            Outbox::Broadcast(7)
        }
        fn receive(&mut self, _: &mut NodeCtx, inbox: &[(Port, u32)]) -> Action {
            let _ = inbox;
            Action::Terminate
        }
        fn output(&self) -> usize {
            1
        }
    }

    #[test]
    fn run_in_reuses_the_typed_slot_and_matches_fresh_runs() {
        let mut arena = ScratchArena::new();
        let run = |arena: &mut ScratchArena| {
            let g = generators::cycle(6);
            let nodes = (0..6).map(|_| Echo).collect();
            Simulator::new(g, nodes, SimConfig::seeded(3)).run_in(arena).unwrap()
        };
        let first = run(&mut arena);
        let again = run(&mut arena);
        assert_eq!(arena.len(), 1, "same message type must share one slot");
        assert_eq!(first.outputs, again.outputs);
        assert_eq!(first.metrics.messages_sent, again.metrics.messages_sent);

        let g = generators::cycle(6);
        let fresh = Simulator::new(g, (0..6).map(|_| Echo).collect(), SimConfig::seeded(3))
            .run()
            .unwrap();
        assert_eq!(fresh.outputs, again.outputs);
    }
}
