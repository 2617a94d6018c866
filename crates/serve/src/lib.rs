//! # mcps-serve — the supervisor, live
//!
//! The workspace's supervisor logic is a sans-io state machine
//! ([`mcps_core::SupervisorCore`]): timestamped inputs in, buffered
//! outputs out, no opinion about where time or bytes come from. Under
//! the simulator a thin actor adapter drives it from the discrete-event
//! scheduler. This crate drives the *same* core from wall-clock time
//! and real I/O:
//!
//! * [`wire`] — a self-synchronizing length-prefixed frame codec
//!   (magic + length + CRC32s + a fixed-layout binary body for vitals,
//!   commands and acks, JSON for the rest) that survives partial
//!   reads, garbage, and bit flips without desyncing.
//! * [`transport`] — the [`transport::Transport`] trait with in-memory
//!   channel, stdio-frame and TCP-frame implementations.
//! * [`chaos`] — [`chaos::ChaosTransport`], a deterministic fault
//!   injector (drop, delay, duplicate, reorder, truncate, bit-flip)
//!   wrapping any inner transport, for soak and chaos tests.
//! * [`journal`] — [`journal::Journal`], a durable CRC-framed WAL of
//!   supervisor checkpoints so a killed `mcps-serve` restarts with a
//!   strictly higher epoch and its safety latches intact.
//! * [`clock`] — wall time → simulation time, with a speed factor so
//!   tests compress protocol minutes into wall milliseconds.
//! * [`host`] — [`host::ServeHost`], the serving loop: exact-cadence
//!   timer ticks plus a bounded ingress queue whose back-pressure
//!   policy sheds the oldest vitals first and never drops commands,
//!   acks, announcements or checkpoints.
//! * [`client`] — [`client::PcaBedClient`], a bed with a real pump
//!   model (local fail-safe watchdog included) and scripted monitors,
//!   used by the load generator and the crash harness.
//!
//! The `mcps-serve` binary hosts a PCA safety interlock over stdio or
//! TCP; see the crate README section for invocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod clock;
pub mod host;
pub mod journal;
pub mod transport;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosStats, ChaosTransport};
pub use client::{PcaBedClient, ReconnectPolicy};
pub use clock::ServeClock;
pub use host::{ServeConfig, ServeHost, ServeStats};
pub use journal::{Journal, Recovery};
pub use transport::{ChannelTransport, FramedTransport, Transport, TransportError};
pub use wire::{encode_frame, encode_frame_into, FrameDecoder};
