//! # mcps-runtime — execution substrate for the `mcps` workspace
//!
//! The lowest layer of the workspace: a deterministic discrete-event
//! kernel, a telemetry bus, and a shard-parallel runner. Every domain
//! crate builds on these primitives and imports them from here.
//!
//! * [`scheduler`] — hierarchical timer wheel with O(1) scheduling,
//!   FIFO tie-breaking within an instant, and one instant-batch drain,
//!   [`scheduler::Scheduler::drain_instant`] (the binary-heap engine
//!   it replaced survives as [`scheduler::reference`], the lockstep
//!   conformance oracle, with the same drain).
//! * [`kernel`] — [`kernel::Simulation`]: the scheduler, the actor
//!   slab and per-actor deterministic RNG streams, delivering one
//!   drained instant at a time.
//! * [`executor`] — what an actor sees during delivery:
//!   [`executor::Context`] and [`executor::MsgRun`].
//! * [`telemetry`] — counters, histograms, time series and run
//!   manifests; the single sink for run statistics, mergeable across
//!   shards.
//! * [`shard`] — [`shard::run_shards`], a deterministic parallel map
//!   whose merged output is byte-identical to a serial run, over
//!   [`shard::run_shards_costed_in`] (per-worker reusable state,
//!   cost-ordered dispatch, balance accounting).
//! * [`time`], [`rng`], [`trace`], [`actor`] — the supporting
//!   vocabulary types.
//!
//! ## Example
//!
//! ```
//! use mcps_runtime::prelude::*;
//!
//! struct Heartbeat { beats: u32 }
//!
//! impl Actor<()> for Heartbeat {
//!     fn handle(&mut self, _msg: (), ctx: &mut Context<'_, ()>) {
//!         self.beats += 1;
//!         ctx.schedule_self(SimDuration::from_secs(1), ());
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let hb = sim.add_actor("heartbeat", Heartbeat { beats: 0 });
//! sim.schedule(SimTime::ZERO, hb, ());
//! sim.run_until(SimTime::from_secs(10));
//! assert_eq!(sim.actor_as::<Heartbeat>(hb).unwrap().beats, 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod executor;
pub mod kernel;
pub mod rng;
pub mod scheduler;
pub mod shard;
pub mod telemetry;
pub mod time;
pub mod trace;

/// Convenient glob-import of the runtime's everyday names.
pub mod prelude {
    pub use crate::actor::{Actor, ActorId};
    pub use crate::kernel::{Context, Simulation};
    pub use crate::rng::{RngFactory, SimRng};
    pub use crate::shard::{run_shards, run_shards_costed_in, ShardStats};
    pub use crate::telemetry::{Summary, Telemetry};
    pub use crate::time::{SimDuration, SimTime};
}

pub use actor::{Actor, ActorId};
pub use kernel::{Context, Simulation};
pub use telemetry::Telemetry;
pub use time::{SimDuration, SimTime};
