//! RIB durability: snapshot + delta journal for master crash-recovery.
//!
//! The paper's master is a single point of failure for the *knowledge*
//! plane: agents survive an outage under local control (PR 1), but a
//! restarted master used to come back with an empty RIB and no memory of
//! the delegated state (report subscriptions, pushed VSFs, policies) it
//! owed each agent. The journal closes that gap.
//!
//! ## Format
//!
//! The journal is a byte log (held in memory here; a file in a real
//! deployment — the format is already position-independent and
//! self-delimiting). Layout:
//!
//! ```text
//! magic "FXJ1"
//! u32 BE  snapshot section length   | synthesized full-RIB records
//! u32 BE  replay section length     | delegated-state records
//! ...     delta records to EOF      | raw agent messages since snapshot
//! ```
//!
//! Every record is `tag:u8  enb:u32 BE  tti:u64 BE  len:u32 BE  payload`,
//! where the payload is an encoded [`FlexranMessage`] envelope. Reusing
//! the wire codec keeps the journal format in lock-step with the protocol
//! (one golden format, one fuzz corpus) and makes recovery literally a
//! replay: every record funnels through [`RibUpdater::apply`], the same
//! single writer that built the RIB the first time.
//!
//! A delta record's payload is the envelope as it was received
//! ([`RibJournal::record_delta_envelope`]): the bytes the updater's
//! message was decoded from, so a report is serialized once, by its
//! sender, and never re-encoded for the log. Its header therefore carries
//! the sender's `xid`, where synthesized records carry the default
//! header; recovery ignores headers. Messages whose envelope is not at
//! hand — the `Hello` the master's pre-hello drain hands to a shard, or
//! anything from a transport that does not lend envelopes — are encoded
//! by [`RibJournal::record_delta`] instead.
//!
//! ## Snapshot synthesis
//!
//! Rather than inventing a second serialization of the RIB forest, the
//! snapshot *is a message sequence* that reconstructs it exactly: per
//! agent a `Hello` (identity, capabilities, connect time), per cell a
//! `ConfigReply` and a `StatsReply` at the cell's recorded update time,
//! per UE a `UeAttached` event (tag, connectivity) followed by a
//! `StatsReply` carrying the raw report, and a `SubframeTrigger` for the
//! last sync pair. Compaction (every `snapshot_every` write cycles)
//! rewrites the snapshot from the live RIB and clears the deltas, so
//! journal memory is bounded by RIB size + one compaction window.
//!
//! ## Recovery
//!
//! [`MasterController::recover`](crate::master::MasterController::recover)
//! replays the snapshot and deltas through the updater, marks every
//! recovered agent stale (the data is a pre-crash epoch until the agent
//! re-syncs), and holds the replay section as pending delegated state to
//! re-send when each agent's `Hello` arrives.

use std::collections::BTreeMap;

use flexran_proto::messages::events::EventKind;
use flexran_proto::messages::stats::StatsReply;
use flexran_proto::messages::{
    ConfigReply, EventNotification, FlexranMessage, Header, Hello, SubframeTrigger,
};
use flexran_proto::wire::WireWriter;
use flexran_types::ids::EnbId;
use flexran_types::time::Tti;
use flexran_types::{FlexError, Result};

use crate::rib::Rib;

const MAGIC: &[u8; 4] = b"FXJ1";

/// Record tags.
const TAG_RIB: u8 = 1;
const TAG_REPLAY: u8 = 2;
/// Fleet-rollout state record. Unlike the other two kinds, the payload is
/// *not* a wire envelope but the rollout controller's own codec (see
/// [`crate::config`]): rollout state is master intent — bundle store,
/// history, state-machine position — and has no agent-message equivalent.
/// Rollout records ride in the replay section, so they survive compaction
/// exactly like delegated state does.
const TAG_ROLLOUT: u8 = 3;

/// Cap on a single journal record payload — same bound as a wire frame,
/// for the same reason: anything larger is corruption, not data.
const MAX_RECORD_BYTES: usize = flexran_proto::frame::MAX_FRAME_BYTES;

/// The snapshot + delta journal.
#[derive(Debug, Clone)]
pub struct RibJournal {
    /// Write cycles between snapshot rewrites.
    snapshot_every: u64,
    cycles_since_snapshot: u64,
    snapshot: Vec<u8>,
    deltas: Vec<u8>,
    replay: Vec<u8>,
    /// Current rollout-controller state (raw [`crate::config`] codec
    /// bytes; empty = no rollout state). Rewritten wholesale on every
    /// rollout mutation — the state is small and self-contained, so one
    /// current record beats an unbounded mutation log.
    rollout: Vec<u8>,
    /// Delta records appended since the last compaction (diagnostics).
    deltas_recorded: u64,
    /// Snapshot rewrites performed (diagnostics).
    compactions: u64,
}

/// Append the 17-byte header of a record whose payload is `len` bytes.
fn append_record_header(buf: &mut Vec<u8>, tag: u8, enb: EnbId, tti: Tti, len: u32) {
    buf.push(tag);
    buf.extend_from_slice(&enb.0.to_be_bytes());
    buf.extend_from_slice(&tti.0.to_be_bytes());
    buf.extend_from_slice(&len.to_be_bytes());
}

/// Append one record to a section. The envelope is encoded in place,
/// straight behind the record header (the section lends its buffer to a
/// writer for the duration), and the length is patched in afterwards —
/// no intermediate buffer, no copy.
fn append_record(buf: &mut Vec<u8>, tag: u8, enb: EnbId, tti: Tti, msg: &FlexranMessage) {
    append_record_header(buf, tag, enb, tti, 0);
    let len_pos = buf.len() - 4;
    let mut w = WireWriter::from_vec(std::mem::take(buf));
    msg.encode_append(Header::default(), &mut w);
    *buf = w.into_vec();
    let payload_len = (buf.len() - len_pos - 4) as u32;
    if let Some(slot) = buf.get_mut(len_pos..len_pos + 4) {
        slot.copy_from_slice(&payload_len.to_be_bytes());
    }
}

/// Panic-free cursor over a record section.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(FlexError::Codec("journal truncated".into()));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn take_u32(buf: &mut &[u8]) -> Result<u32> {
    let b = take(buf, 4)?;
    let mut a = [0u8; 4];
    a.copy_from_slice(b);
    Ok(u32::from_be_bytes(a))
}

fn take_u64(buf: &mut &[u8]) -> Result<u64> {
    let b = take(buf, 8)?;
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    Ok(u64::from_be_bytes(a))
}

/// One decoded journal record.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    pub enb: EnbId,
    pub tti: Tti,
    pub msg: FlexranMessage,
}

/// Everything a restarted master reconstructs from the journal bytes.
#[derive(Debug, Clone, Default)]
pub struct RecoveredState {
    /// Snapshot + delta records, in application order.
    pub rib_records: Vec<JournalRecord>,
    /// Delegated-state messages per agent, in original send order.
    pub replay: BTreeMap<EnbId, Vec<FlexranMessage>>,
    /// Rollout-controller state (raw [`crate::config`] codec bytes), if a
    /// rollout record was journaled. Last record wins.
    pub rollout: Option<Vec<u8>>,
}

fn parse_section(mut buf: &[u8], expect_tag: u8, out: &mut Vec<JournalRecord>) -> Result<()> {
    while !buf.is_empty() {
        let tag = take(&mut buf, 1)?;
        if tag != [expect_tag] {
            return Err(FlexError::Codec(format!(
                "journal record tag {} where {expect_tag} expected",
                tag.first().copied().unwrap_or(0)
            )));
        }
        let enb = EnbId(take_u32(&mut buf)?);
        let tti = Tti(take_u64(&mut buf)?);
        let len = take_u32(&mut buf)? as usize;
        if len > MAX_RECORD_BYTES {
            return Err(FlexError::Codec(format!(
                "journal record of {len} bytes exceeds the {MAX_RECORD_BYTES}-byte cap"
            )));
        }
        let payload = take(&mut buf, len)?;
        let (_, msg) = FlexranMessage::decode(payload)?;
        out.push(JournalRecord { enb, tti, msg });
    }
    Ok(())
}

/// Parse the replay section, which carries two record kinds: delegated
/// state (`TAG_REPLAY`, wire-envelope payload) and the rollout state
/// record (`TAG_ROLLOUT`, raw codec payload — the one record kind whose
/// payload is not a `FlexranMessage`). Journals from before the rollout
/// subsystem simply have no `TAG_ROLLOUT` record and recover with
/// `rollout: None`.
fn parse_replay_section(mut buf: &[u8], state: &mut RecoveredState) -> Result<()> {
    while !buf.is_empty() {
        let tag = take(&mut buf, 1)?;
        let tag = tag.first().copied().unwrap_or(0);
        if tag != TAG_REPLAY && tag != TAG_ROLLOUT {
            return Err(FlexError::Codec(format!(
                "journal record tag {tag} where {TAG_REPLAY} or {TAG_ROLLOUT} expected"
            )));
        }
        let enb = EnbId(take_u32(&mut buf)?);
        let _tti = Tti(take_u64(&mut buf)?);
        let len = take_u32(&mut buf)? as usize;
        if len > MAX_RECORD_BYTES {
            return Err(FlexError::Codec(format!(
                "journal record of {len} bytes exceeds the {MAX_RECORD_BYTES}-byte cap"
            )));
        }
        let payload = take(&mut buf, len)?;
        if tag == TAG_ROLLOUT {
            state.rollout = Some(payload.to_vec());
        } else {
            let (_, msg) = FlexranMessage::decode(payload)?;
            state.replay.entry(enb).or_default().push(msg);
        }
    }
    Ok(())
}

impl RibJournal {
    pub fn new(snapshot_every: u64) -> Self {
        RibJournal {
            snapshot_every: snapshot_every.max(1),
            cycles_since_snapshot: 0,
            snapshot: Vec::new(),
            deltas: Vec::new(),
            replay: Vec::new(),
            rollout: Vec::new(),
            deltas_recorded: 0,
            compactions: 0,
        }
    }

    /// Journal one RIB-mutating agent message (called right after the
    /// updater folds it) by encoding it — for messages whose received
    /// envelope is not at hand (see [`Self::record_delta_envelope`]).
    pub fn record_delta(&mut self, enb: EnbId, now: Tti, msg: &FlexranMessage) {
        append_record(&mut self.deltas, TAG_RIB, enb, now, msg);
        self.deltas_recorded += 1;
    }

    /// Journal one RIB-mutating agent message as the envelope it arrived
    /// in, byte for byte (called right after the updater folds the
    /// message `envelope` decoded to). Recovery decodes it to that same
    /// message; the sender's header rides along and is ignored.
    pub fn record_delta_envelope(&mut self, enb: EnbId, now: Tti, envelope: &[u8]) {
        append_record_header(&mut self.deltas, TAG_RIB, enb, now, envelope.len() as u32);
        self.deltas.extend_from_slice(envelope);
        self.deltas_recorded += 1;
    }

    /// Journal one delegated-state message (stats subscription, VSF push,
    /// policy). Replay records survive compaction: they are the master's
    /// *intent*, not derivable from the RIB.
    pub fn record_replay(&mut self, enb: EnbId, msg: &FlexranMessage) {
        append_record(&mut self.replay, TAG_REPLAY, enb, Tti::ZERO, msg);
    }

    /// Journal the rollout controller's current state (raw codec bytes),
    /// replacing any previous rollout record. Like replay records, the
    /// rollout record is intent — not derivable from the RIB — and
    /// survives compaction.
    pub fn record_rollout(&mut self, state: &[u8]) {
        self.rollout.clear();
        self.rollout.extend_from_slice(state);
    }

    /// Called once per closed write cycle; rewrites the snapshot and
    /// drops the deltas every `snapshot_every` cycles.
    pub fn on_write_cycle(&mut self, rib: &Rib) {
        self.cycles_since_snapshot += 1;
        if self.cycles_since_snapshot >= self.snapshot_every {
            // lint:allow(alloc-reach) compaction — amortized over snapshot_every cycles
            self.compact(rib);
        }
    }

    /// Rewrite the snapshot from the live RIB now and clear the deltas.
    pub fn compact(&mut self, rib: &Rib) {
        self.snapshot.clear();
        synthesize_snapshot(rib, &mut self.snapshot);
        self.deltas.clear();
        self.cycles_since_snapshot = 0;
        self.compactions += 1;
    }

    /// Carry the replay section of a previous incarnation forward
    /// (recovery seeding — a twice-crashed master must still owe its
    /// agents the same delegated state).
    pub fn seed_replay(&mut self, state: &RecoveredState) {
        for (enb, msgs) in &state.replay {
            for msg in msgs {
                self.record_replay(*enb, msg);
            }
        }
        if let Some(rollout) = &state.rollout {
            self.record_rollout(rollout);
        }
    }

    /// Serialize the whole journal (what a deployment would fsync).
    pub fn bytes(&self) -> Vec<u8> {
        let rollout_len = if self.rollout.is_empty() {
            0
        } else {
            17 + self.rollout.len()
        };
        let mut out = Vec::with_capacity(
            12 + self.snapshot.len() + self.replay.len() + rollout_len + self.deltas.len(),
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.snapshot.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.snapshot);
        out.extend_from_slice(&((self.replay.len() + rollout_len) as u32).to_be_bytes());
        out.extend_from_slice(&self.replay);
        if !self.rollout.is_empty() {
            // Same record framing as every other kind, raw payload: the
            // rollout state has no eNodeB or TTI of its own.
            append_record_header(
                &mut out,
                TAG_ROLLOUT,
                EnbId(0),
                Tti::ZERO,
                self.rollout.len() as u32,
            );
            out.extend_from_slice(&self.rollout);
        }
        out.extend_from_slice(&self.deltas);
        out
    }

    /// Parse journal bytes back into records. Structured errors on any
    /// corruption — truncated sections, bad magic, oversized records,
    /// undecodable payloads — never a panic.
    pub fn parse(bytes: &[u8]) -> Result<RecoveredState> {
        let mut buf = bytes;
        let magic = take(&mut buf, 4)?;
        if magic != MAGIC {
            return Err(FlexError::Codec("journal magic mismatch".into()));
        }
        let snap_len = take_u32(&mut buf)? as usize;
        let snapshot = take(&mut buf, snap_len)?;
        let replay_len = take_u32(&mut buf)? as usize;
        let replay = take(&mut buf, replay_len)?;
        let deltas = buf;

        let mut state = RecoveredState::default();
        parse_section(snapshot, TAG_RIB, &mut state.rib_records)?;
        parse_section(deltas, TAG_RIB, &mut state.rib_records)?;
        parse_replay_section(replay, &mut state)?;
        Ok(state)
    }

    /// Journal heap footprint (bounded-memory assertions).
    pub fn heap_bytes(&self) -> usize {
        self.snapshot.capacity()
            + self.deltas.capacity()
            + self.replay.capacity()
            + self.rollout.capacity()
    }

    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    pub fn deltas_recorded(&self) -> u64 {
        self.deltas_recorded
    }
}

/// Emit the message sequence that rebuilds `rib` exactly when replayed
/// through [`crate::updater::RibUpdater::apply`] at each record's TTI.
fn synthesize_snapshot(rib: &Rib, out: &mut Vec<u8>) {
    for agent in rib.agents() {
        let enb = agent.enb_id;
        append_record(
            out,
            TAG_RIB,
            enb,
            agent.connected_at,
            &FlexranMessage::Hello(Hello {
                enb_id: enb,
                n_cells: agent.n_cells,
                capabilities: agent.capabilities.clone(),
                // Sessions are marked down on recovery and agents
                // re-introduce themselves, so the live signature arrives
                // with the post-recovery Hello, not from the snapshot.
                applied_config: 0,
            }),
        );
        for cell in agent.cells() {
            if let Some(config) = &cell.config {
                append_record(
                    out,
                    TAG_RIB,
                    enb,
                    cell.updated,
                    &FlexranMessage::ConfigReply(ConfigReply {
                        enb_id: enb,
                        cells: vec![*config],
                        ues: Vec::new(),
                    }),
                );
            }
            if let Some(report) = &cell.last_report {
                append_record(
                    out,
                    TAG_RIB,
                    enb,
                    cell.updated,
                    &FlexranMessage::StatsReply(StatsReply {
                        enb_id: enb,
                        tti: cell.updated.0,
                        cells: vec![*report],
                        ues: Vec::new(),
                    }),
                );
            }
            for ue in cell.ues() {
                // The attach/RACH event restores the UE tag and the
                // connected flag (neither carried by reports); a stats
                // record then overwrites the report verbatim. UEs that
                // never produced a stats report still hold the default
                // report (whose RNTI field is 0, which the updater's
                // validation rejects) — they are restored by the event
                // alone, which recreates that default state exactly.
                let kind = if ue.report.connected {
                    EventKind::UeAttached
                } else {
                    EventKind::RachAttempt
                };
                append_record(
                    out,
                    TAG_RIB,
                    enb,
                    ue.updated,
                    &FlexranMessage::EventNotification(EventNotification {
                        enb_id: enb,
                        kind,
                        cell: cell.cell_id.0,
                        rnti: ue.rnti.0,
                        ue_tag: ue.ue_tag.0,
                        tti: ue.updated.0,
                        ..EventNotification::default()
                    }),
                );
                if ue.report.rnti != 0 {
                    append_record(
                        out,
                        TAG_RIB,
                        enb,
                        ue.updated,
                        &FlexranMessage::StatsReply(StatsReply {
                            enb_id: enb,
                            tti: ue.updated.0,
                            cells: Vec::new(),
                            ues: vec![ue.report.clone()],
                        }),
                    );
                }
            }
        }
        if let Some((agent_tti, received)) = agent.last_sync {
            append_record(
                out,
                TAG_RIB,
                enb,
                received,
                &FlexranMessage::SubframeTrigger(SubframeTrigger {
                    enb_id: enb,
                    sfn: (agent_tti.0 / 10 % 1024) as u16,
                    sf: (agent_tti.0 % 10) as u8,
                    tti: agent_tti.0,
                }),
            );
        }
    }
}

/// Magic for a multi-segment journal container (one `FXJ1` journal per
/// RIB shard, concatenated): `FXS1  u32 count  (u32 len  bytes)*`.
const SEG_MAGIC: &[u8; 4] = b"FXS1";

/// Wrap per-shard journal byte blobs into one container blob (what a
/// sharded master persists as its crash-recovery image).
pub fn encode_segments(segments: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = segments.iter().map(|s| s.len() + 4).sum();
    let mut out = Vec::with_capacity(8 + total);
    out.extend_from_slice(SEG_MAGIC);
    out.extend_from_slice(&(segments.len() as u32).to_be_bytes());
    for seg in segments {
        out.extend_from_slice(&(seg.len() as u32).to_be_bytes());
        out.extend_from_slice(seg);
    }
    out
}

/// Split a container blob back into per-shard journal segments. A bare
/// single-shard `FXJ1` journal (the pre-sharding format) parses as one
/// segment, so old journal images still recover.
pub fn split_segments(bytes: &[u8]) -> Result<Vec<&[u8]>> {
    if bytes.starts_with(MAGIC) {
        return Ok(vec![bytes]);
    }
    let mut buf = bytes;
    let magic = take(&mut buf, 4)?;
    if magic != SEG_MAGIC {
        return Err(FlexError::Codec("journal magic mismatch".into()));
    }
    let count = take_u32(&mut buf)? as usize;
    let mut segments = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let len = take_u32(&mut buf)? as usize;
        segments.push(take(&mut buf, len)?);
    }
    if !buf.is_empty() {
        return Err(FlexError::Codec(
            "journal container has trailing bytes".into(),
        ));
    }
    Ok(segments)
}

/// Whether a message kind mutates the RIB when applied by the updater —
/// i.e. whether it belongs in the delta journal.
pub fn mutates_rib(msg: &FlexranMessage) -> bool {
    matches!(
        msg,
        FlexranMessage::Hello(_)
            | FlexranMessage::ConfigReply(_)
            | FlexranMessage::SubframeTrigger(_)
            | FlexranMessage::StatsReply(_)
            | FlexranMessage::EventNotification(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updater::RibUpdater;
    use flexran_proto::messages::stats::UeReport;

    fn rebuild(state: &RecoveredState) -> Rib {
        let mut rib = Rib::new();
        let mut up = RibUpdater::new();
        for r in &state.rib_records {
            up.apply(&mut rib, r.enb, &r.msg, r.tti);
        }
        rib
    }

    fn populate(rib: &mut Rib, up: &mut RibUpdater, j: &mut RibJournal) {
        let feed = |rib: &mut Rib,
                    up: &mut RibUpdater,
                    j: &mut RibJournal,
                    enb: EnbId,
                    tti: Tti,
                    msg: FlexranMessage| {
            up.apply(rib, enb, &msg, tti);
            if mutates_rib(&msg) {
                j.record_delta(enb, tti, &msg);
            }
        };
        feed(
            rib,
            up,
            j,
            EnbId(1),
            Tti(3),
            FlexranMessage::Hello(Hello {
                enb_id: EnbId(1),
                n_cells: 1,
                capabilities: vec!["dl_scheduling".into()],
                applied_config: 0,
            }),
        );
        feed(
            rib,
            up,
            j,
            EnbId(1),
            Tti(10),
            FlexranMessage::EventNotification(EventNotification {
                enb_id: EnbId(1),
                kind: EventKind::UeAttached,
                cell: 0,
                rnti: 0x100,
                ue_tag: 7,
                tti: 9,
                ..EventNotification::default()
            }),
        );
        feed(
            rib,
            up,
            j,
            EnbId(1),
            Tti(20),
            FlexranMessage::StatsReply(StatsReply {
                enb_id: EnbId(1),
                tti: 18,
                cells: vec![],
                ues: vec![UeReport {
                    rnti: 0x100,
                    cell: 0,
                    connected: true,
                    wideband_cqi: 11,
                    subband_cqi: [9, 10, 11].into(),
                    ..UeReport::default()
                }],
            }),
        );
        feed(
            rib,
            up,
            j,
            EnbId(1),
            Tti(21),
            FlexranMessage::SubframeTrigger(SubframeTrigger {
                enb_id: EnbId(1),
                sfn: 1,
                sf: 9,
                tti: 19,
            }),
        );
    }

    #[test]
    fn deltas_roundtrip_to_equal_rib() {
        let mut rib = Rib::new();
        let mut up = RibUpdater::new();
        let mut j = RibJournal::new(1000); // no compaction in this test
        populate(&mut rib, &mut up, &mut j);
        let state = RibJournal::parse(&j.bytes()).unwrap();
        assert_eq!(rebuild(&state), rib);
    }

    #[test]
    fn verbatim_envelope_record_parses_to_the_decoded_message() {
        use flexran_proto::inline::InlineVec;
        use flexran_proto::messages::stats::RlcReport;
        use flexran_proto::messages::PROTOCOL_VERSION;
        use flexran_proto::wire::{crc32, WireReader};

        fn field(data: &[u8], want: u32) -> &[u8] {
            let mut r = WireReader::new(data);
            while let Some((f, v)) = r.next_field().unwrap() {
                if f == want {
                    return v.as_bytes().unwrap();
                }
            }
            panic!("no field {want}");
        }

        // Every repeated field of the report at its capacity.
        let report = UeReport {
            rnti: 0x1FF,
            connected: true,
            wideband_cqi: 15,
            subband_cqi: InlineVec::full(15),
            subband_cqi_cw1: InlineVec::full(14),
            bsr: InlineVec::full(63),
            rlc: InlineVec::full(RlcReport {
                lcid: 3,
                tx_queue_bytes: u64::MAX,
                hol_delay_ms: 40,
                status_pdu_bytes: 9,
            }),
            harq_states: InlineVec::full(1),
            harq_rounds: InlineVec::full(3),
            tbs_per_process: InlineVec::full(u32::MAX),
            ul_subband_sinr: InlineVec::full(1_400),
            active_scells: InlineVec::full(7),
            ..UeReport::default()
        };
        let msg = FlexranMessage::StatsReply(StatsReply {
            enb_id: EnbId(1),
            tti: 77,
            cells: vec![],
            ues: vec![report],
        });
        // What a future sender might put on the wire: the same report
        // plus a field this decoder does not know, under a non-zero xid.
        let plain = msg.encode(Header::default());
        let ue = field(field(&plain, 17), 4);
        let mut unknown = WireWriter::new();
        unknown.uint(99, 12_345);
        let mut ue_ext = ue.to_vec();
        ue_ext.extend_from_slice(unknown.as_slice());
        let mut w = WireWriter::new();
        w.message(1, |h| {
            h.uint(1, PROTOCOL_VERSION as u64);
            h.uint(2, 0xBEEF);
        });
        w.message(17, |reply| {
            reply.uint(1, 1);
            reply.uint(2, 77);
            reply.bytes_field(4, &ue_ext);
        });
        let crc = crc32(w.as_slice());
        w.fixed32_always(2, crc);
        let envelope = w.finish();
        let (header, decoded) = FlexranMessage::decode(&envelope).unwrap();
        assert_eq!(header.xid, 0xBEEF);
        assert_eq!(decoded, msg, "the unknown field is skipped");

        let mut j = RibJournal::new(1000);
        j.record_delta_envelope(EnbId(1), Tti(9), &envelope);
        let bytes = j.bytes();
        assert!(bytes.ends_with(&envelope), "the payload is the envelope");
        let state = RibJournal::parse(&bytes).unwrap();
        assert_eq!(state.rib_records.len(), 1);
        let r = &state.rib_records[0];
        assert_eq!((r.enb, r.tti), (EnbId(1), Tti(9)));
        assert_eq!(r.msg, decoded);
    }

    #[test]
    fn compacted_snapshot_roundtrips_to_equal_rib() {
        let mut rib = Rib::new();
        let mut up = RibUpdater::new();
        let mut j = RibJournal::new(1000);
        populate(&mut rib, &mut up, &mut j);
        j.compact(&rib);
        assert_eq!(j.deltas_recorded(), 4);
        assert_eq!(j.compactions(), 1);
        let state = RibJournal::parse(&j.bytes()).unwrap();
        assert_eq!(
            rebuild(&state),
            rib,
            "snapshot must rebuild the RIB exactly"
        );
    }

    #[test]
    fn replay_section_survives_compaction() {
        let mut rib = Rib::new();
        let mut up = RibUpdater::new();
        let mut j = RibJournal::new(1000);
        populate(&mut rib, &mut up, &mut j);
        j.record_replay(
            EnbId(1),
            &FlexranMessage::StatsRequest(flexran_proto::messages::StatsRequest::default()),
        );
        j.compact(&rib);
        let state = RibJournal::parse(&j.bytes()).unwrap();
        let ops = state.replay.get(&EnbId(1)).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].kind(), "stats-request");
    }

    #[test]
    fn rollout_record_roundtrips_and_survives_compaction() {
        let mut rib = Rib::new();
        let mut up = RibUpdater::new();
        let mut j = RibJournal::new(1000);
        populate(&mut rib, &mut up, &mut j);
        j.record_rollout(b"rollout-state-v1");
        // Also a replay record, to prove the two kinds coexist in order.
        j.record_replay(
            EnbId(1),
            &FlexranMessage::StatsRequest(flexran_proto::messages::StatsRequest::default()),
        );
        j.compact(&rib);
        let state = RibJournal::parse(&j.bytes()).unwrap();
        assert_eq!(state.rollout.as_deref(), Some(&b"rollout-state-v1"[..]));
        assert_eq!(state.replay.get(&EnbId(1)).unwrap().len(), 1);
        // A later record replaces the earlier one (current-state semantics).
        j.record_rollout(b"rollout-state-v2");
        let state = RibJournal::parse(&j.bytes()).unwrap();
        assert_eq!(state.rollout.as_deref(), Some(&b"rollout-state-v2"[..]));
        // Seeding a fresh journal carries the record forward.
        let mut j2 = RibJournal::new(8);
        j2.seed_replay(&state);
        let state2 = RibJournal::parse(&j2.bytes()).unwrap();
        assert_eq!(state2.rollout.as_deref(), Some(&b"rollout-state-v2"[..]));
    }

    #[test]
    fn journal_without_rollout_record_recovers_none() {
        let mut rib = Rib::new();
        let mut up = RibUpdater::new();
        let mut j = RibJournal::new(1000);
        populate(&mut rib, &mut up, &mut j);
        let state = RibJournal::parse(&j.bytes()).unwrap();
        assert!(state.rollout.is_none());
    }

    #[test]
    fn corrupt_journals_error_structurally() {
        let mut rib = Rib::new();
        let mut up = RibUpdater::new();
        let mut j = RibJournal::new(1000);
        populate(&mut rib, &mut up, &mut j);
        let good = j.bytes();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(RibJournal::parse(&bad).is_err());
        // Truncations at every boundary must error, never panic.
        for cut in 0..good.len() {
            if cut == 12 {
                continue; // empty journal header alone is valid only at full length
            }
            let _ = RibJournal::parse(&good[..cut]);
        }
        // Flipped byte anywhere: error or (rarely) a different valid
        // journal — never a panic.
        for i in 0..good.len() {
            let mut mutated = good.clone();
            mutated[i] ^= 0x55;
            let _ = RibJournal::parse(&mutated);
        }
    }

    #[test]
    fn segment_container_roundtrips() {
        let mut rib = Rib::new();
        let mut up = RibUpdater::new();
        let mut j = RibJournal::new(1000);
        populate(&mut rib, &mut up, &mut j);
        let segs = vec![j.bytes(), RibJournal::new(4).bytes(), Vec::new()];
        let blob = encode_segments(&segs);
        let parts = split_segments(&blob).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], segs[0].as_slice());
        assert_eq!(parts[1], segs[1].as_slice());
        assert!(parts[2].is_empty());
        // The first segment is a complete journal in its own right.
        let state = RibJournal::parse(parts[0]).unwrap();
        assert_eq!(rebuild(&state), rib);
    }

    #[test]
    fn bare_journal_parses_as_one_segment() {
        // Pre-sharding journal images (bare FXJ1) must keep recovering.
        let j = RibJournal::new(8);
        let bytes = j.bytes();
        let parts = split_segments(&bytes).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], bytes.as_slice());
    }

    #[test]
    fn corrupt_containers_error_structurally() {
        let blob = encode_segments(&[RibJournal::new(8).bytes()]);
        assert!(split_segments(b"not a journal").is_err());
        assert!(split_segments(&[]).is_err());
        // Truncations and byte flips: error or a valid parse, never panic.
        for cut in 0..blob.len() {
            let _ = split_segments(&blob[..cut]);
        }
        for i in 0..blob.len() {
            let mut mutated = blob.clone();
            mutated[i] ^= 0x55;
            let _ = split_segments(&mutated);
        }
        // Trailing garbage is corruption, not slack.
        let mut padded = blob.clone();
        padded.push(0);
        assert!(split_segments(&padded).is_err());
    }

    #[test]
    fn on_write_cycle_compacts_on_schedule() {
        let mut rib = Rib::new();
        let mut up = RibUpdater::new();
        let mut j = RibJournal::new(3);
        populate(&mut rib, &mut up, &mut j);
        j.on_write_cycle(&rib);
        j.on_write_cycle(&rib);
        assert_eq!(j.compactions(), 0);
        j.on_write_cycle(&rib);
        assert_eq!(j.compactions(), 1);
        // Memory stays bounded across many cycles.
        let after_first = j.heap_bytes();
        for _ in 0..100 {
            j.on_write_cycle(&rib);
        }
        assert!(j.heap_bytes() <= after_first.max(1) * 2);
    }
}
