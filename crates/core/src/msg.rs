//! The ICE message plane.
//!
//! Every actor in an ICE simulation exchanges [`IceMsg`] values. The
//! *physical* world (drug into a vein, a finger on the demand button)
//! is modelled with direct messages or shared state; the *network*
//! world is modelled by routing [`NetOp`] values through the network
//! controller, which imposes the fabric's latency/loss on them.
//!
//! Every scheduled event, timer-wheel cascade, ready-queue pop and
//! actor send moves an `IceMsg` by value, so its size is a hot cost:
//! the cold payloads that own heap data stay pointer-sized (an
//! announce carries a shared [`DeviceProfile`] handle, a checkpoint is
//! boxed) and the whole message fits in one 64-byte cache line.

use crate::supervisor::CheckpointState;
use mcps_device::profile::DeviceProfile;
use mcps_net::fabric::{EndpointId, Topic};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Commands the supervisor can address to devices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IceCommand {
    /// Halt infusion.
    StopPump,
    /// Resume infusion.
    ResumePump,
    /// Grant a permission ticket.
    GrantTicket {
        /// Ticket lifetime.
        validity: SimDuration,
    },
    /// Pause ventilation for at most the given duration.
    PauseVentilation {
        /// Requested pause length.
        duration: SimDuration,
    },
    /// Resume ventilation.
    ResumeVentilation,
    /// Arm the x-ray generator.
    ArmExposure,
    /// Fire the x-ray.
    Expose,
    /// Periodic supervisor liveness probe. Applied as a no-op but
    /// acknowledged like any command, so the round-trip (a) feeds the
    /// device-local fail-safe watchdog — a pump that hears neither a
    /// heartbeat nor a real command within its supervision deadline
    /// falls back to a basal-only safe state — and (b) gives the
    /// supervisor a continuous RTT signal on the command channel.
    Heartbeat,
}

/// Payload of a network message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetPayload {
    /// A published vital-sign data point.
    Data {
        /// The vital.
        kind: VitalKind,
        /// Measured value.
        value: f64,
        /// When the device sampled it.
        sampled_at: SimTime,
    },
    /// A device announcing itself for association.
    Announce {
        /// The device's capability profile.
        profile: DeviceProfile,
        /// The announcing endpoint.
        endpoint: EndpointId,
    },
    /// A command to a device.
    Command {
        /// Unique id assigned by the sender; echoed in the [`NetPayload::Ack`]
        /// so round-trips pair up even when identical command kinds
        /// are in flight concurrently.
        id: u64,
        /// Supervisor fencing epoch. Devices remember the highest epoch
        /// they have seen and silently reject commands from lower ones,
        /// so a partitioned ex-primary's stale commands cannot actuate
        /// anything after a standby has promoted (split-brain safety).
        epoch: u64,
        /// The command itself.
        command: IceCommand,
    },
    /// Acknowledgement of a command.
    Ack {
        /// Id of the command being acknowledged.
        id: u64,
        /// The acknowledged command.
        command: IceCommand,
        /// When the device applied it.
        applied_at: SimTime,
    },
    /// Primary → standby state checkpoint on the replication topic.
    /// Doubles as the primary's liveness signal: a standby that misses
    /// enough consecutive checkpoints promotes itself. Boxed because it
    /// is cold and would otherwise triple the size of every payload.
    Checkpoint(Box<CheckpointState>),
}

/// Where a network message is headed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetAddress {
    /// Direct to one endpoint.
    Endpoint(EndpointId),
    /// To all subscribers of a topic.
    Topic(Topic),
}

/// A network-plane operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetOp {
    /// Actor → network controller: transmit this.
    Send {
        /// Sending endpoint.
        from: EndpointId,
        /// Destination.
        to: NetAddress,
        /// Payload.
        payload: NetPayload,
    },
    /// Network controller → actor: a message arrived.
    Deliver {
        /// Originating endpoint.
        from: EndpointId,
        /// Payload.
        payload: NetPayload,
    },
}

/// The universal message type of ICE simulations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IceMsg {
    /// Periodic self-scheduled tick (each actor manages its own rate).
    Tick,
    /// Network-plane traffic.
    Net(NetOp),
    /// Physical press of the PCA demand button (patient or proxy —
    /// the pump cannot tell the difference, which is the hazard).
    PressButton,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_cloneable_and_comparable() {
        let p = NetPayload::Data { kind: VitalKind::Spo2, value: 97.0, sampled_at: SimTime::ZERO };
        assert_eq!(p.clone(), p);
        let c = IceCommand::GrantTicket { validity: SimDuration::from_secs(15) };
        assert_eq!(c, c.clone());
    }

    #[test]
    fn a_message_fits_one_cache_line() {
        // Queued events move by value through the scheduler and the
        // executor; at 160 bytes those copies were a fifth of the
        // campus's CPU time in memmove.
        assert!(std::mem::size_of::<IceMsg>() <= 64);
    }

    #[test]
    fn message_enum_roundtrips_serde() {
        let mut fabric = mcps_net::fabric::Fabric::new();
        let ep = fabric.add_endpoint("dev");
        let m = IceMsg::Net(NetOp::Send {
            from: ep,
            to: NetAddress::Topic(Topic::new("vitals/spo2")),
            payload: NetPayload::Command { id: 7, epoch: 1, command: IceCommand::StopPump },
        });
        let json = serde_json::to_string(&m).unwrap();
        let back: IceMsg = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
