//! The ICE device manager: on-demand association.
//!
//! A clinical app declares *slots* ("I need a pulse oximeter that
//! publishes SpO₂ at ≥ 1 Hz and a pump that accepts stop commands");
//! devices announce capability profiles; the manager matches profiles
//! to slots, vendor-agnostically. The app only starts once every slot
//! is filled — the paper's answer to systems "assembled at the
//! patient's bedside" from whatever devices happen to be present.

use mcps_device::profile::{DeviceProfile, DeviceRequirementSet};
use mcps_net::fabric::EndpointId;
use serde::{Deserialize, Serialize};

/// Result of processing one announcement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AssociationOutcome {
    /// The device filled the named slot.
    Associated {
        /// The slot that was filled.
        slot: String,
    },
    /// No open slot's requirements were satisfied.
    Rejected,
    /// The device was already associated.
    Duplicate,
}

/// The device manager.
///
/// State is slot-indexed: `filled[i]` is the device (if any) occupying
/// `slots[i]`. Bedside apps declare a handful of slots, so name lookups
/// are a linear scan over a contiguous array — cheaper and far more
/// compact than the former name-keyed `BTreeMap`, which matters when a
/// campus run keeps 10k of these managers resident.
#[derive(Debug, Clone, Default)]
pub struct DeviceManager {
    slots: Vec<DeviceRequirementSet>,
    filled: Vec<Option<(EndpointId, DeviceProfile)>>,
    rejected: Vec<(EndpointId, String)>,
}

impl DeviceManager {
    /// Creates a manager with the app's required slots.
    pub fn new(slots: Vec<DeviceRequirementSet>) -> Self {
        let filled = slots.iter().map(|_| None).collect();
        DeviceManager { slots, filled, rejected: Vec::new() }
    }

    #[inline]
    fn slot_index(&self, slot: &str) -> Option<usize> {
        self.slots.iter().position(|s| s.slot == slot)
    }

    /// Processes a device announcement.
    pub fn on_announce(
        &mut self,
        endpoint: EndpointId,
        profile: &DeviceProfile,
    ) -> AssociationOutcome {
        if self.filled.iter().flatten().any(|(ep, _)| *ep == endpoint) {
            return AssociationOutcome::Duplicate;
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if self.filled[i].is_none() && slot.matches(profile) {
                self.filled[i] = Some((endpoint, profile.clone()));
                return AssociationOutcome::Associated { slot: slot.slot.clone() };
            }
        }
        // One entry per endpoint: a device re-announces every period for
        // as long as it is rejected, and a long-lived supervisor must not
        // grow (or format) a record per repeat.
        if !self.rejected.iter().any(|(ep, _)| *ep == endpoint) {
            self.rejected.push((endpoint, profile.to_string()));
        }
        AssociationOutcome::Rejected
    }

    /// Whether every slot is filled.
    pub fn fully_associated(&self) -> bool {
        self.filled.iter().all(Option::is_some)
    }

    /// The endpoint filling a slot, if any.
    pub fn endpoint_for(&self, slot: &str) -> Option<EndpointId> {
        let i = self.slot_index(slot)?;
        self.filled[i].as_ref().map(|(ep, _)| *ep)
    }

    /// The profile filling a slot, if any.
    pub fn profile_for(&self, slot: &str) -> Option<&DeviceProfile> {
        let i = self.slot_index(slot)?;
        self.filled[i].as_ref().map(|(_, p)| p)
    }

    /// The slot an endpoint currently fills, if any.
    pub fn slot_of(&self, endpoint: EndpointId) -> Option<&str> {
        self.slots
            .iter()
            .zip(&self.filled)
            .find(|(_, f)| f.as_ref().is_some_and(|(ep, _)| *ep == endpoint))
            .map(|(s, _)| s.slot.as_str())
    }

    /// All slot names, in declaration order. Borrows — no per-call
    /// `String` clones; the supervisor walks this every liveness tick.
    pub fn slot_names(&self) -> impl Iterator<Item = &str> {
        self.slots.iter().map(|s| s.slot.as_str())
    }

    /// Slot name, endpoint and profile of every *filled* slot, in
    /// declaration order.
    pub fn associated(&self) -> impl Iterator<Item = (&str, EndpointId, &DeviceProfile)> {
        self.slots
            .iter()
            .zip(&self.filled)
            .filter_map(|(s, f)| f.as_ref().map(|(ep, p)| (s.slot.as_str(), *ep, p)))
    }

    /// Slots still waiting for a device.
    pub fn open_slots(&self) -> Vec<&str> {
        self.slots
            .iter()
            .zip(&self.filled)
            .filter(|(_, f)| f.is_none())
            .map(|(s, _)| s.slot.as_str())
            .collect()
    }

    /// Endpoints whose announcements matched nothing, each with the
    /// profile summary of its first rejected announce.
    pub fn rejected(&self) -> &[(EndpointId, String)] {
        &self.rejected
    }

    /// Drops the association of `endpoint` (device disappeared).
    /// Returns the slot it vacated, if any.
    pub fn disassociate(&mut self, endpoint: EndpointId) -> Option<String> {
        let i =
            self.filled.iter().position(|f| f.as_ref().is_some_and(|(ep, _)| *ep == endpoint))?;
        self.filled[i] = None;
        Some(self.slots[i].slot.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_device::profile::{CommandKind, DeviceClass, LatencyClass, Requirement};
    use mcps_device::pump::PcaPump;
    use mcps_net::fabric::Fabric;
    use mcps_patient::vitals::VitalKind;
    use mcps_runtime::time::SimDuration;

    fn slots() -> Vec<DeviceRequirementSet> {
        vec![
            DeviceRequirementSet::new(
                "oximeter",
                vec![Requirement::Stream {
                    kind: VitalKind::Spo2,
                    max_period: SimDuration::from_secs(2),
                    latency_class: LatencyClass::NearRealtime,
                }],
            ),
            DeviceRequirementSet::new(
                "pump",
                vec![
                    Requirement::Class(DeviceClass::Infusion),
                    Requirement::Command(CommandKind::GrantTicket),
                ],
            ),
        ]
    }

    fn endpoints(n: usize) -> Vec<EndpointId> {
        let mut f = Fabric::new();
        (0..n).map(|i| f.add_endpoint(&format!("e{i}"))).collect()
    }

    #[test]
    fn association_fills_matching_slots() {
        let mut m = DeviceManager::new(slots());
        let eps = endpoints(2);
        let oximeter = mcps_device::monitor::pulse_oximeter("SN-1");
        assert_eq!(
            m.on_announce(eps[0], oximeter.profile()),
            AssociationOutcome::Associated { slot: "oximeter".into() }
        );
        assert!(!m.fully_associated());
        assert_eq!(m.open_slots(), vec!["pump"]);
        let pump_profile = PcaPump::profile("SN-2", true);
        assert_eq!(
            m.on_announce(eps[1], &pump_profile),
            AssociationOutcome::Associated { slot: "pump".into() }
        );
        assert!(m.fully_associated());
        assert_eq!(m.endpoint_for("pump"), Some(eps[1]));
        assert!(m.profile_for("oximeter").is_some());
    }

    #[test]
    fn non_matching_device_rejected() {
        let mut m = DeviceManager::new(slots());
        let eps = endpoints(1);
        // A pump without ticket support satisfies neither slot.
        let legacy = PcaPump::profile("SN-3", false);
        assert_eq!(m.on_announce(eps[0], &legacy), AssociationOutcome::Rejected);
        assert_eq!(m.rejected().len(), 1);
    }

    #[test]
    fn repeated_rejections_are_recorded_once_per_endpoint() {
        let mut m = DeviceManager::new(slots());
        let eps = endpoints(2);
        let legacy = PcaPump::profile("SN-3", false);
        for _ in 0..5 {
            assert_eq!(m.on_announce(eps[0], &legacy), AssociationOutcome::Rejected);
        }
        assert_eq!(m.rejected().len(), 1);
        assert_eq!(m.on_announce(eps[1], &legacy), AssociationOutcome::Rejected);
        assert_eq!(m.rejected().len(), 2);
    }

    #[test]
    fn duplicate_announce_ignored() {
        let mut m = DeviceManager::new(slots());
        let eps = endpoints(1);
        let oximeter = mcps_device::monitor::pulse_oximeter("SN-1");
        m.on_announce(eps[0], oximeter.profile());
        assert_eq!(m.on_announce(eps[0], oximeter.profile()), AssociationOutcome::Duplicate);
    }

    #[test]
    fn disassociate_reopens_slot() {
        let mut m = DeviceManager::new(slots());
        let eps = endpoints(1);
        let oximeter = mcps_device::monitor::pulse_oximeter("SN-1");
        m.on_announce(eps[0], oximeter.profile());
        assert_eq!(m.disassociate(eps[0]), Some("oximeter".into()));
        assert!(m.open_slots().contains(&"oximeter"));
        assert_eq!(m.disassociate(eps[0]), None);
    }
}
