//! Actors: the unit of behaviour in a simulation.
//!
//! Every simulated component (a device, the patient, the supervisor, a
//! network link) is an [`Actor`]: it receives timestamped messages and
//! reacts by mutating its own state and scheduling further messages via
//! the [`Context`].

use crate::executor::MsgRun;
use crate::kernel::Context;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;

/// Identifies an actor within one [`Simulation`](crate::kernel::Simulation).
///
/// Ids are dense indices assigned in registration order; they are only
/// meaningful within the simulation that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ActorId(u32);

impl ActorId {
    /// Builds an id from a raw index. Normally ids come from
    /// [`Simulation::add_actor`](crate::kernel::Simulation::add_actor);
    /// this constructor exists for tests and deserialization.
    pub const fn from_index(index: u32) -> Self {
        ActorId(index)
    }

    /// The raw dense index of this actor.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Upcasting support so concrete actor state can be inspected after (or
/// during) a run via [`Simulation::actor_as`](crate::kernel::Simulation::actor_as).
///
/// This trait is blanket-implemented for every `'static` type; do not
/// implement it manually.
pub trait AsAny: Any {
    /// `self` as a dynamically-typed reference.
    fn as_any(&self) -> &dyn Any;
    /// `self` as a dynamically-typed mutable reference.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulation component that reacts to messages of type `M`.
///
/// Implementations mutate their own state and use the [`Context`] to
/// read the clock, draw randomness, emit trace records and schedule
/// messages (to themselves or to other actors).
///
/// ```
/// use mcps_runtime::prelude::*;
///
/// struct Counter { n: u64 }
///
/// impl Actor<u64> for Counter {
///     fn handle(&mut self, msg: u64, ctx: &mut Context<'_, u64>) {
///         self.n += msg;
///         if self.n < 3 {
///             ctx.schedule_self(SimDuration::from_secs(1), 1);
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(0);
/// let id = sim.add_actor("counter", Counter { n: 0 });
/// sim.schedule(SimTime::ZERO, id, 1);
/// sim.run();
/// assert_eq!(sim.actor_as::<Counter>(id).unwrap().n, 3);
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// ```
pub trait Actor<M>: AsAny {
    /// Handles one message delivered at the current simulation time.
    fn handle(&mut self, msg: M, ctx: &mut Context<'_, M>);

    /// Handles a run of same-instant messages addressed to this actor,
    /// in order. The kernel calls this once per run instead of once
    /// per message.
    ///
    /// The default forwards each message to [`Self::handle`] — exactly
    /// what a message-at-a-time loop would do. Because default trait
    /// methods are monomorphized per implementation, those `handle`
    /// calls resolve statically and inline, so the dynamic dispatch
    /// cost is paid once per run, not once per message.
    ///
    /// Overrides must preserve those semantics: consume all of `msgs`
    /// front to back and treat each message exactly as `handle` would.
    fn handle_run(&mut self, msgs: &mut MsgRun<'_, M>, ctx: &mut Context<'_, M>) {
        for msg in msgs.by_ref() {
            self.handle(msg, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_id_roundtrip_and_display() {
        let id = ActorId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "actor#7");
    }

    #[test]
    fn as_any_downcasts() {
        struct S(u32);
        let s = S(5);
        let any: &dyn AsAny = &s;
        assert_eq!(any.as_any().downcast_ref::<S>().unwrap().0, 5);
    }
}
