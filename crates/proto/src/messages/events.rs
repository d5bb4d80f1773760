//! Event-trigger messages (asynchronous notifications) and the per-TTI
//! subframe synchronization trigger.
//!
//! The [`SubframeTrigger`] is the "master-agent sync" traffic of Fig. 7a:
//! when a centralized scheduler works at TTI granularity the agent reports
//! its current subframe every TTI so the master knows where the air
//! interface is (modulo half the control-channel RTT — the staleness the
//! schedule-ahead parameter must cover, §5.3).

use flexran_types::ids::EnbId;

use crate::wire::{wire_order_decoder, WireWriter};

/// Per-TTI synchronization from agent to master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubframeTrigger {
    pub enb_id: EnbId,
    pub sfn: u16,
    pub sf: u8,
    /// Absolute TTI (monotonic; lets the master avoid hyperperiod
    /// ambiguity).
    pub tti: u64,
}

impl SubframeTrigger {
    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.enb_id.0 as u64);
        // SFN and subframe packed as in the OAI agent (sfn*16 + sf).
        w.uint(2, (self.sfn as u64) << 4 | self.sf as u64);
        w.uint(3, self.tti);
    }

    wire_order_decoder! {
        SubframeTrigger::default(), |m, v| {
            1 Varint => m.enb_id = EnbId(v.as_u32()?);
            2 Varint => {
                let packed = v.as_u64()?;
                m.sfn = (packed >> 4) as u16;
                m.sf = (packed & 0xF) as u8;
            };
            3 Varint => m.tti = v.as_u64()?;
        }
    }
}

/// Kinds of data-plane events carried to the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventKind {
    #[default]
    RachAttempt,
    UeAttached,
    AttachFailed,
    UeDetached,
    SchedulingRequest,
    MeasurementReport,
    HandoverExecuted,
    DecisionMissedDeadline,
    /// Synthesized by the master's liveness tracker when an agent session
    /// stops responding; the agent's RIB subtree is marked stale.
    AgentDown,
    /// Synthesized when a lost agent session resumes (rejoin complete).
    AgentUp,
}

impl EventKind {
    fn to_u64(self) -> u64 {
        match self {
            EventKind::RachAttempt => 0,
            EventKind::UeAttached => 1,
            EventKind::AttachFailed => 2,
            EventKind::UeDetached => 3,
            EventKind::SchedulingRequest => 4,
            EventKind::MeasurementReport => 5,
            EventKind::HandoverExecuted => 6,
            EventKind::DecisionMissedDeadline => 7,
            EventKind::AgentDown => 8,
            EventKind::AgentUp => 9,
        }
    }

    fn from_u64(v: u64) -> EventKind {
        match v {
            1 => EventKind::UeAttached,
            2 => EventKind::AttachFailed,
            3 => EventKind::UeDetached,
            4 => EventKind::SchedulingRequest,
            5 => EventKind::MeasurementReport,
            6 => EventKind::HandoverExecuted,
            7 => EventKind::DecisionMissedDeadline,
            8 => EventKind::AgentDown,
            9 => EventKind::AgentUp,
            _ => EventKind::RachAttempt,
        }
    }
}

/// An event notification (agent → master).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventNotification {
    pub enb_id: EnbId,
    pub kind: EventKind,
    pub cell: u16,
    pub rnti: u16,
    /// Simulation-global UE tag, when known.
    pub ue_tag: u32,
    pub tti: u64,
    /// Stage name for attach failures ("rar", "setup").
    pub stage: String,
    /// Serving RSRP in deci-dBm for measurement reports.
    pub serving_rsrp_decidbm: i64,
    /// Neighbour measurements: `(site key, RSRP deci-dBm + 2000 offset)`
    /// interleaved in one packed array.
    pub neighbours_packed: Vec<u64>,
}

impl EventNotification {
    /// Convert a data-plane event into its wire form.
    pub fn from_enb_event(enb_id: EnbId, ev: &flexran_stack::events::EnbEvent) -> Self {
        use flexran_stack::events::EnbEvent as E;
        let mut n = EventNotification {
            enb_id,
            tti: ev.at().0,
            ..EventNotification::default()
        };
        match ev {
            E::RachAttempt { cell, rnti, ue, .. } => {
                n.kind = EventKind::RachAttempt;
                n.cell = cell.0;
                n.rnti = rnti.0;
                n.ue_tag = ue.0;
            }
            E::UeAttached { cell, rnti, ue, .. } => {
                n.kind = EventKind::UeAttached;
                n.cell = cell.0;
                n.rnti = rnti.0;
                n.ue_tag = ue.0;
            }
            E::AttachFailed {
                cell,
                rnti,
                ue,
                stage,
                ..
            } => {
                n.kind = EventKind::AttachFailed;
                n.cell = cell.0;
                n.rnti = rnti.0;
                n.ue_tag = ue.0;
                n.stage = (*stage).to_string();
            }
            E::UeDetached { cell, rnti, ue, .. } => {
                n.kind = EventKind::UeDetached;
                n.cell = cell.0;
                n.rnti = rnti.0;
                n.ue_tag = ue.0;
            }
            E::SchedulingRequest { cell, rnti, .. } => {
                n.kind = EventKind::SchedulingRequest;
                n.cell = cell.0;
                n.rnti = rnti.0;
            }
            E::MeasurementReport {
                cell,
                rnti,
                serving_rsrp_dbm,
                neighbours,
                ..
            } => {
                n.kind = EventKind::MeasurementReport;
                n.cell = cell.0;
                n.rnti = rnti.0;
                n.serving_rsrp_decidbm = (serving_rsrp_dbm * 10.0) as i64;
                for (site, rsrp) in neighbours {
                    n.neighbours_packed.push(*site as u64);
                    n.neighbours_packed
                        .push(((rsrp * 10.0) as i64 + 2000).max(0) as u64);
                }
            }
            E::HandoverExecuted { cell, rnti, ue, .. } => {
                n.kind = EventKind::HandoverExecuted;
                n.cell = cell.0;
                n.rnti = rnti.0;
                n.ue_tag = ue.0;
            }
            E::DecisionMissedDeadline { cell, .. } => {
                n.kind = EventKind::DecisionMissedDeadline;
                n.cell = cell.0;
            }
        }
        n
    }

    /// Neighbour list decoded back into `(site, rsrp_dbm)` pairs.
    pub fn neighbours(&self) -> Vec<(u32, f64)> {
        self.neighbours_packed
            .chunks_exact(2)
            // lint:allow(panic) — `chunks_exact(2)` yields 2-long chunks.
            .map(|c| (c[0] as u32, (c[1] as i64 - 2000) as f64 / 10.0))
            .collect()
    }

    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.enb_id.0 as u64);
        w.uint(2, self.kind.to_u64());
        w.uint(3, self.cell as u64 + 1);
        w.uint(4, self.rnti as u64);
        w.uint(5, self.ue_tag as u64 + 1);
        w.uint(6, self.tti);
        w.string(7, &self.stage);
        w.sint(8, self.serving_rsrp_decidbm);
        w.packed_uints(9, &self.neighbours_packed);
    }

    wire_order_decoder! {
        EventNotification::default(), |m, v| {
            1 Varint => m.enb_id = EnbId(v.as_u32()?);
            2 Varint => m.kind = EventKind::from_u64(v.as_u64()?);
            3 Varint => m.cell = (v.as_u64()?.saturating_sub(1)) as u16;
            4 Varint => m.rnti = v.as_u64()? as u16;
            5 Varint => m.ue_tag = (v.as_u64()?.saturating_sub(1)) as u32;
            6 Varint => m.tti = v.as_u64()?;
            7 LengthDelimited => m.stage = v.as_str()?.to_string();
            8 Varint => m.serving_rsrp_decidbm = v.as_i64_zigzag()?;
            9 LengthDelimited => m.neighbours_packed = v.as_packed_uints()?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{FlexranMessage, Header};
    use flexran_stack::events::EnbEvent;
    use flexran_types::ids::{CellId, Rnti, UeId};
    use flexran_types::time::Tti;

    #[test]
    fn subframe_trigger_roundtrip() {
        let msg = FlexranMessage::SubframeTrigger(SubframeTrigger {
            enb_id: EnbId(3),
            sfn: 1023,
            sf: 9,
            tti: 999_999,
        });
        let (_, got) = FlexranMessage::decode(&msg.encode(Header::default())).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn event_conversion_roundtrip() {
        let ev = EnbEvent::UeAttached {
            cell: CellId(0),
            rnti: Rnti(0x104),
            ue: UeId(4),
            at: Tti(77),
        };
        let n = EventNotification::from_enb_event(EnbId(1), &ev);
        let msg = FlexranMessage::EventNotification(n.clone());
        let (_, got) = FlexranMessage::decode(&msg.encode(Header::default())).unwrap();
        let FlexranMessage::EventNotification(d) = got else {
            panic!("wrong variant");
        };
        assert_eq!(d, n);
        assert_eq!(d.kind, EventKind::UeAttached);
        assert_eq!(d.tti, 77);
        assert_eq!(d.rnti, 0x104);
    }

    #[test]
    fn measurement_report_neighbours_roundtrip() {
        let ev = EnbEvent::MeasurementReport {
            cell: CellId(0),
            rnti: Rnti(0x104),
            at: Tti(5),
            serving_rsrp_dbm: -91.5,
            neighbours: vec![(2, -95.3), (3, -101.0)],
        };
        let n = EventNotification::from_enb_event(EnbId(1), &ev);
        let msg = FlexranMessage::EventNotification(n);
        let (_, got) = FlexranMessage::decode(&msg.encode(Header::default())).unwrap();
        let FlexranMessage::EventNotification(d) = got else {
            panic!("wrong variant");
        };
        assert_eq!(d.serving_rsrp_decidbm, -915);
        let neigh = d.neighbours();
        assert_eq!(neigh.len(), 2);
        assert_eq!(neigh[0].0, 2);
        assert!((neigh[0].1 - (-95.3)).abs() < 0.11);
    }

    #[test]
    fn attach_failure_stage_carried() {
        let ev = EnbEvent::AttachFailed {
            cell: CellId(1),
            rnti: Rnti(0x105),
            ue: UeId(9),
            at: Tti(50),
            stage: "rar",
        };
        let n = EventNotification::from_enb_event(EnbId(1), &ev);
        assert_eq!(n.stage, "rar");
        assert_eq!(n.cell, 1);
    }
}
