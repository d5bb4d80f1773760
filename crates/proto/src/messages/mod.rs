//! The FlexRAN protocol messages.
//!
//! One module per call type of the FlexRAN Agent API (paper Table 1):
//!
//! * [`config`] — configuration get/set (synchronous).
//! * [`stats`] — statistics request/reply (asynchronous).
//! * [`commands`] — control commands (synchronous).
//! * [`events`] — event triggers (asynchronous) and subframe sync.
//! * [`delegation`] — control delegation: VSF push & policy
//!   reconfiguration (synchronous).
//!
//! plus the session-management messages ([`Hello`], [`Echo`]) and the
//! envelope ([`FlexranMessage`]) that frames them all with a [`Header`].

pub mod commands;
pub mod config;
pub mod delegation;
#[cfg(test)]
mod encode_reference;
pub mod events;
#[cfg(test)]
pub(crate) mod reference;
pub mod stats;

use bytes::Bytes;
use flexran_types::ids::EnbId;
use flexran_types::{FlexError, Result};

use crate::category::MessageCategory;
use crate::wire::{crc32, wire_order_decoder, WireReader, WireWriter};

pub use commands::{
    AbsCommand, DlSchedulingCommand, DrxCommand, HandoverCommand, ScellCommand, UlSchedulingCommand,
};
pub use config::{ConfigBundleAck, ConfigBundlePb, ConfigBundlePush, ConfigReply, ConfigRequest};
pub use delegation::{DelegationAck, PolicyReconfiguration, VsfArtifact, VsfPush};
pub use events::{EventNotification, SubframeTrigger};
pub use stats::{
    CellReport, ReportConfig, ReportFlags, ReportType, StatsReply, StatsRequest, UeReport,
};

/// Protocol version spoken by this implementation.
pub const PROTOCOL_VERSION: u32 = 1;

/// The trusted authority's key for [`VsfPush`] and [`ConfigBundlePb`]
/// signatures ("FLEXRAN!"). A real deployment would sign with a private
/// key whose public half is provisioned to agents; the shared constant
/// is the model's stand-in with the same accept/reject semantics.
const SIGNING_KEY: u64 = 0x46_4C_45_58_52_41_4E_21;

/// Envelope header carried by every message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub version: u32,
    /// Transaction id correlating requests and replies.
    pub xid: u32,
}

impl Default for Header {
    fn default() -> Self {
        Header {
            version: PROTOCOL_VERSION,
            xid: 0,
        }
    }
}

impl Header {
    pub fn with_xid(xid: u32) -> Self {
        Header {
            version: PROTOCOL_VERSION,
            xid,
        }
    }

    fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.version as u64);
        w.uint(2, self.xid as u64);
    }

    wire_order_decoder! {
        Header { version: 0, xid: 0 }, |h, v| {
            1 Varint => h.version = v.as_u32()?;
            2 Varint => h.xid = v.as_u32()?;
        }
    }
}

/// Agent hello: announces the eNodeB and its capabilities when the session
/// is established.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Hello {
    pub enb_id: EnbId,
    pub n_cells: u32,
    /// Capability strings (e.g. `"dl_scheduling"`, `"vsf_dsl"`).
    pub capabilities: Vec<String>,
    /// Signature of the config bundle the agent is running (0 = none).
    /// Lets the master detect drift the moment a restarted agent
    /// re-introduces itself. Skip-if-zero keeps pre-rollout envelopes
    /// byte-identical.
    pub applied_config: u64,
}

impl Hello {
    fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.enb_id.0 as u64);
        w.uint(2, self.n_cells as u64);
        for c in &self.capabilities {
            w.string(3, c);
        }
        w.uint(4, self.applied_config);
    }

    fn decode(data: &[u8]) -> Result<Hello> {
        let mut m = Hello::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.enb_id = EnbId(v.as_u32()?),
                2 => m.n_cells = v.as_u32()?,
                3 => m.capabilities.push(v.as_str()?.to_string()),
                4 => m.applied_config = v.as_u64()?,
                _ => {}
            }
        }
        Ok(m)
    }
}

/// Echo request/reply payload (liveness and RTT measurement).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Echo {
    /// Sender timestamp in microseconds (opaque to the peer).
    pub timestamp_us: u64,
    pub payload: Vec<u8>,
}

impl Echo {
    fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.timestamp_us);
        w.bytes_field(2, &self.payload);
    }

    fn decode(data: &[u8]) -> Result<Echo> {
        let mut m = Echo::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.timestamp_us = v.as_u64()?,
                2 => m.payload = v.as_bytes()?.to_vec(),
                _ => {}
            }
        }
        Ok(m)
    }
}

/// Heartbeat probe/acknowledgement payload. The agent sends a probe every
/// `heartbeat_period` TTIs; the master acks with the same sequence number.
/// Missed acks drive the agent's failover state machine, missed probes the
/// master's per-session staleness marking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Heartbeat {
    /// Monotonic per-session sequence number.
    pub seq: u64,
    /// Sender's current TTI when the probe/ack was emitted.
    pub tti: u64,
    /// Signature of the config bundle the agent is running (0 = none;
    /// always 0 on master-originated probes). Piggybacking on the
    /// heartbeat gives the rollout controller a continuous drift signal
    /// without new periodic traffic; skip-if-zero keeps pre-rollout
    /// probes byte-identical.
    pub applied_config: u64,
}

impl Heartbeat {
    fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.seq);
        w.uint(2, self.tti);
        w.uint(3, self.applied_config);
    }

    fn decode(data: &[u8]) -> Result<Heartbeat> {
        let mut m = Heartbeat::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.seq = v.as_u64()?,
                2 => m.tti = v.as_u64()?,
                3 => m.applied_config = v.as_u64()?,
                _ => {}
            }
        }
        Ok(m)
    }
}

/// Full-state re-sync request (master → agent). Sent when the master's
/// view of an agent is stale beyond repair — most importantly after a
/// master crash, where the RIB was rebuilt from the snapshot + journal and
/// every epoch was marked stale. The agent answers with a fresh
/// `ConfigReply` plus a full `StatsReply` (all flags), closing the
/// recovery loop that PR 1's replay protocol opened in the other
/// direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResyncRequest {
    pub enb_id: EnbId,
    /// Master TTI of the last state it still trusts (0 = nothing).
    pub since_tti: u64,
}

impl ResyncRequest {
    fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.enb_id.0 as u64);
        w.uint(2, self.since_tti);
    }

    fn decode(data: &[u8]) -> Result<ResyncRequest> {
        let mut m = ResyncRequest::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.enb_id = EnbId(v.as_u32()?),
                2 => m.since_tti = v.as_u64()?,
                _ => {}
            }
        }
        Ok(m)
    }
}

/// Every message the FlexRAN protocol can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum FlexranMessage {
    Hello(Hello),
    EchoRequest(Echo),
    EchoReply(Echo),
    Heartbeat(Heartbeat),
    HeartbeatAck(Heartbeat),
    ConfigRequest(ConfigRequest),
    ConfigReply(ConfigReply),
    StatsRequest(StatsRequest),
    SubframeTrigger(SubframeTrigger),
    StatsReply(StatsReply),
    EventNotification(EventNotification),
    DlSchedulingCommand(DlSchedulingCommand),
    UlSchedulingCommand(UlSchedulingCommand),
    HandoverCommand(HandoverCommand),
    DrxCommand(DrxCommand),
    AbsCommand(AbsCommand),
    ScellCommand(ScellCommand),
    VsfPush(VsfPush),
    PolicyReconfiguration(PolicyReconfiguration),
    DelegationAck(DelegationAck),
    ResyncRequest(ResyncRequest),
    ConfigBundlePush(ConfigBundlePush),
    ConfigBundleAck(ConfigBundleAck),
}

/// Envelope field numbers (protobuf `oneof` style).
const F_HEADER: u32 = 1;
/// Envelope integrity trailer: a CRC-32 of everything before it, always
/// the final five bytes of an encoded envelope (one tag byte + fixed32).
/// TCP's 16-bit ones-complement checksum is too weak to protect
/// control-plane state; a flipped bit that slipped through it would
/// otherwise decode into a structurally valid message and poison the RIB
/// with phantom cells and UEs. The fixed-width trailer also makes
/// truncation self-evident: a shortened envelope no longer ends in a
/// trailer at all.
const F_INTEGRITY: u32 = 2;
/// Encoded tag byte of [`F_INTEGRITY`]: field 2, wire type fixed32.
const INTEGRITY_KEY: u8 = (F_INTEGRITY << 3) as u8 | 5;
/// Tag byte + 4 checksum bytes.
const INTEGRITY_TRAILER_LEN: usize = 5;
const F_HELLO: u32 = 10;
const F_ECHO_REQ: u32 = 11;
const F_ECHO_REP: u32 = 12;
const F_CONFIG_REQ: u32 = 13;
const F_CONFIG_REP: u32 = 14;
const F_STATS_REQ: u32 = 15;
const F_SF_TRIGGER: u32 = 16;
const F_STATS_REP: u32 = 17;
const F_EVENT: u32 = 18;
const F_DL_SCHED: u32 = 19;
const F_UL_SCHED: u32 = 20;
const F_HANDOVER: u32 = 21;
const F_DRX: u32 = 22;
const F_ABS: u32 = 23;
const F_VSF_PUSH: u32 = 24;
const F_POLICY: u32 = 25;
const F_DELEG_ACK: u32 = 26;
const F_SCELL: u32 = 27;
const F_HEARTBEAT: u32 = 28;
const F_HEARTBEAT_ACK: u32 = 29;
const F_RESYNC_REQ: u32 = 30;
const F_CONFIG_BUNDLE_PUSH: u32 = 31;
const F_CONFIG_BUNDLE_ACK: u32 = 32;

impl FlexranMessage {
    /// Serialize with the given header. The result is protobuf-wire
    /// compatible and is what transports frame and count.
    pub fn encode(&self, header: Header) -> Bytes {
        let mut w = WireWriter::new();
        self.encode_into(header, &mut w);
        w.finish()
    }

    /// Serialize into a caller-provided writer (cleared first) —
    /// the allocation-free path for transports that keep one writer
    /// across sends.
    pub fn encode_into(&self, header: Header, w: &mut WireWriter) {
        w.clear();
        self.encode_append(header, w);
    }

    /// Append one envelope after whatever `w` already holds — how a byte
    /// log (the RIB journal) gets its records encoded in place. The
    /// integrity trailer covers the appended envelope only.
    pub fn encode_append(&self, header: Header, w: &mut WireWriter) {
        let start = w.len();
        w.message(F_HEADER, |m| header.encode_fields(m));
        match self {
            FlexranMessage::Hello(b) => w.message(F_HELLO, |m| b.encode_fields(m)),
            FlexranMessage::EchoRequest(b) => w.message(F_ECHO_REQ, |m| b.encode_fields(m)),
            FlexranMessage::EchoReply(b) => w.message(F_ECHO_REP, |m| b.encode_fields(m)),
            FlexranMessage::Heartbeat(b) => w.message(F_HEARTBEAT, |m| b.encode_fields(m)),
            FlexranMessage::HeartbeatAck(b) => w.message(F_HEARTBEAT_ACK, |m| b.encode_fields(m)),
            FlexranMessage::ConfigRequest(b) => w.message(F_CONFIG_REQ, |m| b.encode_fields(m)),
            FlexranMessage::ConfigReply(b) => w.message(F_CONFIG_REP, |m| b.encode_fields(m)),
            FlexranMessage::StatsRequest(b) => w.message(F_STATS_REQ, |m| b.encode_fields(m)),
            FlexranMessage::SubframeTrigger(b) => w.message(F_SF_TRIGGER, |m| b.encode_fields(m)),
            FlexranMessage::StatsReply(b) => w.message(F_STATS_REP, |m| b.encode_fields(m)),
            FlexranMessage::EventNotification(b) => w.message(F_EVENT, |m| b.encode_fields(m)),
            FlexranMessage::DlSchedulingCommand(b) => w.message(F_DL_SCHED, |m| b.encode_fields(m)),
            FlexranMessage::UlSchedulingCommand(b) => w.message(F_UL_SCHED, |m| b.encode_fields(m)),
            FlexranMessage::HandoverCommand(b) => w.message(F_HANDOVER, |m| b.encode_fields(m)),
            FlexranMessage::DrxCommand(b) => w.message(F_DRX, |m| b.encode_fields(m)),
            FlexranMessage::AbsCommand(b) => w.message(F_ABS, |m| b.encode_fields(m)),
            FlexranMessage::ScellCommand(b) => w.message(F_SCELL, |m| b.encode_fields(m)),
            FlexranMessage::VsfPush(b) => w.message(F_VSF_PUSH, |m| b.encode_fields(m)),
            FlexranMessage::PolicyReconfiguration(b) => w.message(F_POLICY, |m| b.encode_fields(m)),
            FlexranMessage::DelegationAck(b) => w.message(F_DELEG_ACK, |m| b.encode_fields(m)),
            FlexranMessage::ResyncRequest(b) => w.message(F_RESYNC_REQ, |m| b.encode_fields(m)),
            FlexranMessage::ConfigBundlePush(b) => {
                w.message(F_CONFIG_BUNDLE_PUSH, |m| b.encode_fields(m))
            }
            FlexranMessage::ConfigBundleAck(b) => {
                w.message(F_CONFIG_BUNDLE_ACK, |m| b.encode_fields(m))
            }
        }
        let crc = crc32(w.as_slice().get(start..).unwrap_or(&[]));
        w.fixed32_always(F_INTEGRITY, crc);
    }

    /// Parse an envelope. The integrity trailer is verified first: a
    /// missing trailer (truncation, garbage) or a CRC mismatch (bit
    /// corruption) rejects the whole envelope before any field is looked
    /// at. Unknown body fields fail loudly (the envelope is the one place
    /// where "I don't know this message" must be surfaced); unknown
    /// fields *inside* known messages are skipped.
    pub fn decode(data: &[u8]) -> Result<(Header, FlexranMessage)> {
        let Some(body_len) = data.len().checked_sub(INTEGRITY_TRAILER_LEN) else {
            return Err(FlexError::Codec(
                "envelope shorter than its integrity trailer".into(),
            ));
        };
        // lint:allow(panic): body_len = len - TRAILER_LEN ≤ len.
        let (data, trailer) = data.split_at(body_len);
        let &[key, c0, c1, c2, c3] = trailer else {
            return Err(FlexError::Codec(
                "envelope integrity trailer missing (truncated or garbage frame)".into(),
            ));
        };
        if key != INTEGRITY_KEY {
            return Err(FlexError::Codec(
                "envelope integrity trailer missing (truncated or garbage frame)".into(),
            ));
        }
        let want = u32::from_le_bytes([c0, c1, c2, c3]);
        let got = crc32(data);
        if got != want {
            return Err(FlexError::Codec(format!(
                "envelope integrity check failed: crc {got:#010x}, trailer says {want:#010x}"
            )));
        }
        let mut header: Option<Header> = None;
        let mut body: Option<FlexranMessage> = None;
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                F_HEADER => header = Some(Header::decode(v.as_bytes()?)?),
                F_HELLO => body = Some(FlexranMessage::Hello(Hello::decode(v.as_bytes()?)?)),
                F_ECHO_REQ => {
                    body = Some(FlexranMessage::EchoRequest(Echo::decode(v.as_bytes()?)?))
                }
                F_ECHO_REP => body = Some(FlexranMessage::EchoReply(Echo::decode(v.as_bytes()?)?)),
                F_HEARTBEAT => {
                    body = Some(FlexranMessage::Heartbeat(Heartbeat::decode(v.as_bytes()?)?))
                }
                F_HEARTBEAT_ACK => {
                    body = Some(FlexranMessage::HeartbeatAck(Heartbeat::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_CONFIG_REQ => {
                    body = Some(FlexranMessage::ConfigRequest(ConfigRequest::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_CONFIG_REP => {
                    body = Some(FlexranMessage::ConfigReply(ConfigReply::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_STATS_REQ => {
                    body = Some(FlexranMessage::StatsRequest(StatsRequest::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_SF_TRIGGER => {
                    body = Some(FlexranMessage::SubframeTrigger(SubframeTrigger::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_STATS_REP => {
                    body = Some(FlexranMessage::StatsReply(StatsReply::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_EVENT => {
                    body = Some(FlexranMessage::EventNotification(
                        EventNotification::decode(v.as_bytes()?)?,
                    ))
                }
                F_DL_SCHED => {
                    body = Some(FlexranMessage::DlSchedulingCommand(
                        DlSchedulingCommand::decode(v.as_bytes()?)?,
                    ))
                }
                F_UL_SCHED => {
                    body = Some(FlexranMessage::UlSchedulingCommand(
                        UlSchedulingCommand::decode(v.as_bytes()?)?,
                    ))
                }
                F_HANDOVER => {
                    body = Some(FlexranMessage::HandoverCommand(HandoverCommand::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_DRX => {
                    body = Some(FlexranMessage::DrxCommand(DrxCommand::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_ABS => {
                    body = Some(FlexranMessage::AbsCommand(AbsCommand::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_SCELL => {
                    body = Some(FlexranMessage::ScellCommand(ScellCommand::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_VSF_PUSH => body = Some(FlexranMessage::VsfPush(VsfPush::decode(v.as_bytes()?)?)),
                F_POLICY => {
                    body = Some(FlexranMessage::PolicyReconfiguration(
                        PolicyReconfiguration::decode(v.as_bytes()?)?,
                    ))
                }
                F_DELEG_ACK => {
                    body = Some(FlexranMessage::DelegationAck(DelegationAck::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_RESYNC_REQ => {
                    body = Some(FlexranMessage::ResyncRequest(ResyncRequest::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_CONFIG_BUNDLE_PUSH => {
                    body = Some(FlexranMessage::ConfigBundlePush(ConfigBundlePush::decode(
                        v.as_bytes()?,
                    )?))
                }
                F_CONFIG_BUNDLE_ACK => {
                    body = Some(FlexranMessage::ConfigBundleAck(ConfigBundleAck::decode(
                        v.as_bytes()?,
                    )?))
                }
                other => return Err(FlexError::Codec(format!("unknown envelope field {other}"))),
            }
        }
        let header = header.ok_or_else(|| FlexError::Codec("envelope missing header".into()))?;
        let body = body.ok_or_else(|| FlexError::Codec("envelope missing body".into()))?;
        Ok((header, body))
    }

    /// Traffic category for overhead accounting (Fig. 7).
    pub fn category(&self) -> MessageCategory {
        match self {
            FlexranMessage::Hello(_)
            | FlexranMessage::ConfigRequest(_)
            | FlexranMessage::ConfigReply(_)
            | FlexranMessage::StatsRequest(_)
            | FlexranMessage::ResyncRequest(_) => MessageCategory::AgentManagement,
            FlexranMessage::EchoRequest(_)
            | FlexranMessage::EchoReply(_)
            | FlexranMessage::Heartbeat(_)
            | FlexranMessage::HeartbeatAck(_) => MessageCategory::Liveness,
            FlexranMessage::SubframeTrigger(_) => MessageCategory::Sync,
            FlexranMessage::StatsReply(_) => MessageCategory::StatsReporting,
            FlexranMessage::EventNotification(_) => MessageCategory::Events,
            FlexranMessage::DlSchedulingCommand(_)
            | FlexranMessage::UlSchedulingCommand(_)
            | FlexranMessage::HandoverCommand(_)
            | FlexranMessage::DrxCommand(_)
            | FlexranMessage::AbsCommand(_)
            | FlexranMessage::ScellCommand(_) => MessageCategory::Commands,
            FlexranMessage::VsfPush(_)
            | FlexranMessage::PolicyReconfiguration(_)
            | FlexranMessage::DelegationAck(_) => MessageCategory::Delegation,
            FlexranMessage::ConfigBundlePush(_) | FlexranMessage::ConfigBundleAck(_) => {
                MessageCategory::Config
            }
        }
    }

    /// Short stable name for logs and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            FlexranMessage::Hello(_) => "hello",
            FlexranMessage::EchoRequest(_) => "echo-request",
            FlexranMessage::EchoReply(_) => "echo-reply",
            FlexranMessage::Heartbeat(_) => "heartbeat",
            FlexranMessage::HeartbeatAck(_) => "heartbeat-ack",
            FlexranMessage::ConfigRequest(_) => "config-request",
            FlexranMessage::ConfigReply(_) => "config-reply",
            FlexranMessage::StatsRequest(_) => "stats-request",
            FlexranMessage::SubframeTrigger(_) => "subframe-trigger",
            FlexranMessage::StatsReply(_) => "stats-reply",
            FlexranMessage::EventNotification(_) => "event",
            FlexranMessage::DlSchedulingCommand(_) => "dl-scheduling",
            FlexranMessage::UlSchedulingCommand(_) => "ul-scheduling",
            FlexranMessage::HandoverCommand(_) => "handover",
            FlexranMessage::DrxCommand(_) => "drx",
            FlexranMessage::AbsCommand(_) => "abs",
            FlexranMessage::ScellCommand(_) => "scell",
            FlexranMessage::VsfPush(_) => "vsf-push",
            FlexranMessage::PolicyReconfiguration(_) => "policy-reconfiguration",
            FlexranMessage::DelegationAck(_) => "delegation-ack",
            FlexranMessage::ResyncRequest(_) => "resync-request",
            FlexranMessage::ConfigBundlePush(_) => "config-bundle-push",
            FlexranMessage::ConfigBundleAck(_) => "config-bundle-ack",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hello_roundtrip() {
        let msg = FlexranMessage::Hello(Hello {
            enb_id: EnbId(7),
            n_cells: 2,
            capabilities: vec!["dl_scheduling".into(), "vsf_dsl".into()],
            applied_config: 0,
        });
        let bytes = msg.encode(Header::with_xid(99));
        let (h, got) = FlexranMessage::decode(&bytes).unwrap();
        assert_eq!(h.xid, 99);
        assert_eq!(h.version, PROTOCOL_VERSION);
        assert_eq!(got, msg);
        assert_eq!(got.category(), MessageCategory::AgentManagement);
    }

    #[test]
    fn echo_roundtrip() {
        let msg = FlexranMessage::EchoRequest(Echo {
            timestamp_us: 123456,
            payload: vec![1, 2, 3],
        });
        let bytes = msg.encode(Header::default());
        let (_, got) = FlexranMessage::decode(&bytes).unwrap();
        assert_eq!(got, msg);
    }

    /// Append a valid integrity trailer to a hand-crafted envelope, so
    /// the tests below exercise the field-level checks rather than
    /// tripping on the trailer.
    fn sealed(mut w: WireWriter) -> Bytes {
        let crc = crc32(w.as_slice());
        w.fixed32_always(F_INTEGRITY, crc);
        w.finish()
    }

    #[test]
    fn envelope_requires_header_and_body() {
        // Body-only.
        let mut w = WireWriter::new();
        w.message(F_HELLO, |m| Hello::default().encode_fields(m));
        assert!(FlexranMessage::decode(&sealed(w)).is_err());
        // Header-only.
        let mut w = WireWriter::new();
        w.message(F_HEADER, |m| Header::default().encode_fields(m));
        assert!(FlexranMessage::decode(&sealed(w)).is_err());
        // Unknown envelope field.
        let mut w = WireWriter::new();
        w.message(F_HEADER, |m| Header::default().encode_fields(m));
        w.message(200, |m| m.uint(1, 1));
        assert!(FlexranMessage::decode(&sealed(w)).is_err());
    }

    #[test]
    fn integrity_trailer_catches_every_single_bit_flip() {
        let msg = FlexranMessage::Hello(Hello {
            enb_id: EnbId(7),
            n_cells: 2,
            capabilities: vec!["dl_scheduling".into()],
            applied_config: 0,
        });
        let bytes = msg.encode(Header::with_xid(9)).to_vec();
        // Flip each bit of the envelope in turn — body, trailer key and
        // checksum alike — and demand a decode error every time. This is
        // the guarantee the chaos engine's wire-corruption fault leans
        // on: a mangled frame must never fold into the RIB.
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte] ^= 1 << bit;
                assert!(
                    FlexranMessage::decode(&mutated).is_err(),
                    "bit {bit} of byte {byte} flipped undetected"
                );
            }
        }
        // Truncation at any length is equally fatal.
        for keep in 0..bytes.len() {
            assert!(
                FlexranMessage::decode(&bytes[..keep]).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
        // And the pristine envelope still decodes.
        let (_, got) = FlexranMessage::decode(&bytes).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn sync_message_is_tiny() {
        // Per-TTI sync must stay a few tens of bytes or the Fig. 7 sync
        // series would be wrong by construction.
        let msg = FlexranMessage::SubframeTrigger(SubframeTrigger {
            enb_id: EnbId(1),
            sfn: 1023,
            sf: 9,
            tti: u32::MAX as u64,
        });
        let bytes = msg.encode(Header::with_xid(u32::MAX));
        assert!(bytes.len() <= 40, "sync message is {} bytes", bytes.len());
    }

    proptest! {
        /// Hostile input safety: arbitrary bytes must produce an error or
        /// a message — never a panic (agents parse what the network
        /// delivers).
        #[test]
        fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = FlexranMessage::decode(&data);
        }

        /// Envelope roundtrip for randomized echo payloads and xids.
        #[test]
        fn echo_roundtrip_random(
            xid in any::<u32>(),
            ts in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let msg = FlexranMessage::EchoRequest(Echo { timestamp_us: ts, payload });
            let bytes = msg.encode(Header::with_xid(xid));
            let (h, got) = FlexranMessage::decode(&bytes).unwrap();
            prop_assert_eq!(h.xid, xid);
            prop_assert_eq!(got, msg);
        }
    }

    #[test]
    fn categories_cover_all_kinds() {
        use MessageCategory as C;
        let samples: Vec<(FlexranMessage, C)> = vec![
            (FlexranMessage::Hello(Hello::default()), C::AgentManagement),
            (
                FlexranMessage::SubframeTrigger(SubframeTrigger::default()),
                C::Sync,
            ),
            (
                FlexranMessage::StatsReply(StatsReply::default()),
                C::StatsReporting,
            ),
            (
                FlexranMessage::EventNotification(EventNotification::default()),
                C::Events,
            ),
            (
                FlexranMessage::DlSchedulingCommand(DlSchedulingCommand::default()),
                C::Commands,
            ),
            (FlexranMessage::VsfPush(VsfPush::default()), C::Delegation),
            (FlexranMessage::Heartbeat(Heartbeat::default()), C::Liveness),
            (
                FlexranMessage::HeartbeatAck(Heartbeat::default()),
                C::Liveness,
            ),
            (FlexranMessage::EchoRequest(Echo::default()), C::Liveness),
        ];
        for (msg, cat) in samples {
            assert_eq!(msg.category(), cat, "{}", msg.kind());
        }
    }

    #[test]
    fn resync_request_roundtrip() {
        let msg = FlexranMessage::ResyncRequest(ResyncRequest {
            enb_id: EnbId(3),
            since_tti: 4242,
        });
        let bytes = msg.encode(Header::with_xid(5));
        let (h, got) = FlexranMessage::decode(&bytes).unwrap();
        assert_eq!(h.xid, 5);
        assert_eq!(got, msg);
        assert_eq!(got.category(), MessageCategory::AgentManagement);
        assert_eq!(got.kind(), "resync-request");
    }

    #[test]
    fn heartbeat_roundtrip_and_size() {
        let msg = FlexranMessage::Heartbeat(Heartbeat {
            seq: 42,
            tti: 9001,
            applied_config: 0,
        });
        let bytes = msg.encode(Header::with_xid(7));
        let (h, got) = FlexranMessage::decode(&bytes).unwrap();
        assert_eq!(h.xid, 7);
        assert_eq!(got, msg);
        // Liveness probes ride the control channel every heartbeat period;
        // they must stay tiny so Fig. 7's overhead accounting is honest.
        assert!(bytes.len() <= 24, "heartbeat is {} bytes", bytes.len());
        let ack = FlexranMessage::HeartbeatAck(Heartbeat {
            seq: 42,
            tti: 9001,
            applied_config: 0,
        });
        let (_, got) = FlexranMessage::decode(&ack.encode(Header::with_xid(8))).unwrap();
        assert_eq!(got, ack);
    }
}
