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
//! replay: every record funnels through
//! [`RibUpdater::apply`](crate::updater::RibUpdater::apply), the same
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
//! ## Per-agent segments
//!
//! In memory the journal keeps one segment per agent — its snapshot, its
//! deltas since that snapshot, and the write cycles since — and every
//! record goes to its agent's segment. The split is sound because the
//! updater never writes one agent's subtree while applying another
//! agent's message, so the relative order of two agents' records never
//! matters to recovery. [`RibJournal::write_segments`] persists each
//! segment as an `FXJ1` journal of its own (what the master puts in its
//! `FXS1` container, see [`encode_segments`]); [`RibJournal::bytes`]
//! writes the whole journal as one.
//!
//! ## Snapshot synthesis
//!
//! Rather than inventing a second serialization of the RIB forest, the
//! snapshot *is a message sequence* that reconstructs it exactly: per
//! agent a `Hello` (identity, capabilities, connect time), per cell a
//! `ConfigReply` and a `StatsReply` at the cell's recorded update time,
//! per UE a `UeAttached` event (tag, connectivity) followed by a
//! `StatsReply` carrying the raw report, and a `SubframeTrigger` for the
//! last sync pair. The messages are refilled in reused scratch bodies, so
//! a compaction allocates nothing once the buffers have grown.
//!
//! ## Compaction
//!
//! Compacting a segment rewrites its snapshot from the agent's live
//! subtree and clears its deltas. Each write cycle compacts every segment
//! that is `snapshot_every` cycles old (an upper bound on a segment's
//! age) and, in addition, at most one segment whose deltas have grown
//! past [`DELTA_SNAPSHOT_RATIO`] times its snapshot — the one furthest
//! over. The byte rule bounds journal memory by the RIB's size rather
//! than by time (Raft's size-triggered log compaction, per agent), and
//! compacting one agent at a time bounds a cycle's compaction cost by
//! one subtree, whatever the fleet size.
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
use flexran_proto::messages::stats::{StatsReply, UeReport};
use flexran_proto::messages::{
    ConfigReply, EventNotification, FlexranMessage, Header, Hello, SubframeTrigger,
};
use flexran_proto::wire::WireWriter;
use flexran_types::ids::EnbId;
use flexran_types::time::Tti;
use flexran_types::{FlexError, Result};

use crate::rib::{AgentNode, Rib};

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

/// The byte rule: a write cycle compacts (at most) one segment whose
/// deltas exceed this many times its snapshot. Larger values trade
/// memory for fewer compactions: an agent's retained deltas stay below
/// `DELTA_SNAPSHOT_RATIO × snapshot + one cycle's deltas`, and it is
/// compacted about once every `DELTA_SNAPSHOT_RATIO × snapshot / deltas
/// per cycle` cycles.
pub const DELTA_SNAPSHOT_RATIO: usize = 32;

/// One agent's slice of the journal.
#[derive(Debug, Clone, Default)]
struct Segment {
    /// Records that rebuild the agent's subtree as of its last compaction.
    snapshot: Vec<u8>,
    /// The agent's delta records since then.
    deltas: Vec<u8>,
    /// Write cycles since the last compaction.
    cycles_since: u64,
}

impl Segment {
    /// Bytes of deltas beyond the byte rule's threshold (0 = within).
    fn bytes_over(&self) -> usize {
        self.deltas
            .len()
            .saturating_sub(DELTA_SNAPSHOT_RATIO * self.snapshot.len())
    }
}

/// The snapshot + delta journal: one segment per agent, plus the
/// delegated state and the rollout record, which are intent and survive
/// compaction.
#[derive(Debug, Clone)]
pub struct RibJournal {
    /// Upper bound, in write cycles, on a segment's age.
    snapshot_every: u64,
    segments: BTreeMap<EnbId, Segment>,
    replay: Vec<u8>,
    /// Current rollout-controller state (raw [`crate::config`] codec
    /// bytes; empty = no rollout state). Rewritten wholesale on every
    /// rollout mutation — the state is small and self-contained, so one
    /// current record beats an unbounded mutation log.
    rollout: Vec<u8>,
    scratch: SnapshotScratch,
    /// Delta records appended over the journal's lifetime (diagnostics).
    deltas_recorded: u64,
    /// Segment compactions performed (diagnostics).
    compactions: u64,
}

/// Reused message bodies for snapshot synthesis. Each record is encoded
/// from one of these, refilled in place, so a compaction allocates
/// nothing once the bodies and the segment buffers have grown.
#[derive(Debug, Clone, Default)]
struct SnapshotScratch {
    hello: Hello,
    config: ConfigReply,
    stats: StatsReply,
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
            segments: BTreeMap::new(),
            replay: Vec::new(),
            rollout: Vec::new(),
            scratch: SnapshotScratch::default(),
            deltas_recorded: 0,
            compactions: 0,
        }
    }

    /// Journal one RIB-mutating agent message (called right after the
    /// updater folds it) by encoding it — for messages whose received
    /// envelope is not at hand (see [`Self::record_delta_envelope`]).
    pub fn record_delta(&mut self, enb: EnbId, now: Tti, msg: &FlexranMessage) {
        let segment = self.segments.entry(enb).or_default();
        append_record(&mut segment.deltas, TAG_RIB, enb, now, msg);
        self.deltas_recorded += 1;
    }

    /// Journal one RIB-mutating agent message as the envelope it arrived
    /// in, byte for byte (called right after the updater folds the
    /// message `envelope` decoded to). Recovery decodes it to that same
    /// message; the sender's header rides along and is ignored.
    pub fn record_delta_envelope(&mut self, enb: EnbId, now: Tti, envelope: &[u8]) {
        let segment = self.segments.entry(enb).or_default();
        append_record_header(
            &mut segment.deltas,
            TAG_RIB,
            enb,
            now,
            envelope.len() as u32,
        );
        segment.deltas.extend_from_slice(envelope);
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

    /// Called once per closed write cycle: compacts every segment that is
    /// `snapshot_every` cycles old, then at most one more whose deltas
    /// exceed [`DELTA_SNAPSHOT_RATIO`] times its snapshot — the one with
    /// the most bytes over.
    pub fn on_write_cycle(&mut self, rib: &Rib) {
        let mut furthest: Option<(EnbId, usize)> = None;
        for (&enb, segment) in &mut self.segments {
            segment.cycles_since += 1;
            if segment.cycles_since >= self.snapshot_every {
                compact_segment(segment, rib.agent(enb), &mut self.scratch);
                self.compactions += 1;
                continue;
            }
            let over = segment.bytes_over();
            if over > furthest.map_or(0, |(_, most)| most) {
                furthest = Some((enb, over));
            }
        }
        if let Some((enb, _)) = furthest {
            if let Some(segment) = self.segments.get_mut(&enb) {
                compact_segment(segment, rib.agent(enb), &mut self.scratch);
                self.compactions += 1;
            }
        }
        // A segment whose agent left the RIB now holds nothing: drop it.
        self.segments
            .retain(|_, s| !(s.snapshot.is_empty() && s.deltas.is_empty()));
    }

    /// Compact every segment now: rewrite each agent's snapshot from the
    /// live RIB and clear the deltas. Agents in `rib` without a segment
    /// get one; segments of agents no longer in `rib` are dropped.
    pub fn compact(&mut self, rib: &Rib) {
        self.segments.retain(|&enb, _| rib.agent(enb).is_some());
        for agent in rib.agents() {
            let segment = self.segments.entry(agent.enb_id).or_default();
            compact_segment(segment, Some(agent), &mut self.scratch);
            self.compactions += 1;
        }
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

    /// Serialize the whole journal as one `FXJ1` journal.
    pub fn bytes(&self) -> Vec<u8> {
        encode_journal(self.segments.values(), &self.replay, &self.rollout)
    }

    /// Serialize the journal as one `FXJ1` journal per agent segment, in
    /// agent-id order, then one for the replay section and rollout record
    /// if either is non-empty — the per-agent form a master persists in
    /// its [`encode_segments`] container.
    pub fn write_segments(&self, out: &mut Vec<Vec<u8>>) {
        for segment in self.segments.values() {
            out.push(encode_journal(std::iter::once(segment), &[], &[]));
        }
        if !self.replay.is_empty() || !self.rollout.is_empty() {
            out.push(encode_journal(
                std::iter::empty(),
                &self.replay,
                &self.rollout,
            ));
        }
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
        self.segments
            .values()
            .map(|s| s.snapshot.capacity() + s.deltas.capacity())
            .sum::<usize>()
            + self.replay.capacity()
            + self.rollout.capacity()
    }

    /// Agents that have a segment, ascending by id.
    #[cfg(test)]
    pub(crate) fn agents(&self) -> impl Iterator<Item = EnbId> + '_ {
        self.segments.keys().copied()
    }

    /// Segment compactions performed, by either rule or by [`Self::compact`].
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    pub fn deltas_recorded(&self) -> u64 {
        self.deltas_recorded
    }
}

/// Rewrite a segment's snapshot from its agent's live subtree (`None`:
/// the agent left the RIB, so the segment empties) and clear its deltas.
fn compact_segment(
    segment: &mut Segment,
    agent: Option<&AgentNode>,
    scratch: &mut SnapshotScratch,
) {
    segment.snapshot.clear();
    if let Some(agent) = agent {
        synthesize_agent(agent, &mut segment.snapshot, scratch);
    }
    segment.deltas.clear();
    segment.cycles_since = 0;
}

/// Write one `FXJ1` journal: the segments' snapshots, the replay section
/// (delegated state, then the rollout record if any), the segments'
/// deltas. Each agent's records stay in order; interleaving across agents
/// is immaterial to recovery (see the module docs).
fn encode_journal<'a>(
    segments: impl Iterator<Item = &'a Segment> + Clone,
    replay: &[u8],
    rollout: &[u8],
) -> Vec<u8> {
    let rollout_len = if rollout.is_empty() {
        0
    } else {
        17 + rollout.len()
    };
    let snapshot_len: usize = segments.clone().map(|s| s.snapshot.len()).sum();
    let deltas_len: usize = segments.clone().map(|s| s.deltas.len()).sum();
    let mut out = Vec::with_capacity(12 + snapshot_len + replay.len() + rollout_len + deltas_len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(snapshot_len as u32).to_be_bytes());
    for segment in segments.clone() {
        out.extend_from_slice(&segment.snapshot);
    }
    out.extend_from_slice(&((replay.len() + rollout_len) as u32).to_be_bytes());
    out.extend_from_slice(replay);
    if !rollout.is_empty() {
        // Same record framing as every other kind, raw payload: the
        // rollout state has no eNodeB or TTI of its own.
        append_record_header(
            &mut out,
            TAG_ROLLOUT,
            EnbId(0),
            Tti::ZERO,
            rollout.len() as u32,
        );
        out.extend_from_slice(rollout);
    }
    for segment in segments {
        out.extend_from_slice(&segment.deltas);
    }
    out
}

impl SnapshotScratch {
    fn append_hello(&mut self, out: &mut Vec<u8>, enb: EnbId, tti: Tti) {
        let msg = FlexranMessage::Hello(std::mem::take(&mut self.hello));
        append_record(out, TAG_RIB, enb, tti, &msg);
        if let FlexranMessage::Hello(body) = msg {
            self.hello = body;
        }
    }

    fn append_config(&mut self, out: &mut Vec<u8>, enb: EnbId, tti: Tti) {
        let msg = FlexranMessage::ConfigReply(std::mem::take(&mut self.config));
        append_record(out, TAG_RIB, enb, tti, &msg);
        if let FlexranMessage::ConfigReply(body) = msg {
            self.config = body;
        }
    }

    fn append_stats(&mut self, out: &mut Vec<u8>, enb: EnbId, tti: Tti) {
        let msg = FlexranMessage::StatsReply(std::mem::take(&mut self.stats));
        append_record(out, TAG_RIB, enb, tti, &msg);
        if let FlexranMessage::StatsReply(body) = msg {
            self.stats = body;
        }
    }
}

/// Emit the message sequence that rebuilds `agent`'s subtree exactly when
/// replayed through [`crate::updater::RibUpdater::apply`] at each
/// record's TTI.
fn synthesize_agent(agent: &AgentNode, out: &mut Vec<u8>, scratch: &mut SnapshotScratch) {
    let enb = agent.enb_id;
    scratch.hello.enb_id = enb;
    scratch.hello.n_cells = agent.n_cells;
    scratch.hello.capabilities.clone_from(&agent.capabilities);
    // Sessions are marked down on recovery and agents re-introduce
    // themselves, so the live signature arrives with the post-recovery
    // Hello, not from the snapshot.
    scratch.hello.applied_config = 0;
    scratch.append_hello(out, enb, agent.connected_at);
    scratch.config.enb_id = enb;
    scratch.config.ues.clear();
    scratch.stats.enb_id = enb;
    for cell in agent.cells() {
        if let Some(config) = &cell.config {
            scratch.config.cells.clear();
            scratch.config.cells.push(*config);
            scratch.append_config(out, enb, cell.updated);
        }
        if let Some(report) = &cell.last_report {
            scratch.stats.tti = cell.updated.0;
            scratch.stats.cells.clear();
            scratch.stats.cells.push(*report);
            scratch.stats.ues.clear();
            scratch.append_stats(out, enb, cell.updated);
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
                scratch.stats.tti = ue.updated.0;
                scratch.stats.cells.clear();
                if scratch.stats.ues.is_empty() {
                    scratch.stats.ues.push(UeReport::default());
                }
                scratch.stats.ues.truncate(1);
                if let Some(slot) = scratch.stats.ues.first_mut() {
                    slot.clone_from(&ue.report);
                }
                scratch.append_stats(out, enb, ue.updated);
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
        // Start from a snapshot and record nothing more, so no segment
        // is over the byte bound and only the cycle bound acts.
        j.compact(&rib);
        assert_eq!(j.compactions(), 1);
        j.on_write_cycle(&rib);
        j.on_write_cycle(&rib);
        assert_eq!(j.compactions(), 1);
        j.on_write_cycle(&rib);
        assert_eq!(j.compactions(), 2);
        // Memory stays bounded across many cycles.
        let after_first = j.heap_bytes();
        for _ in 0..100 {
            j.on_write_cycle(&rib);
        }
        assert!(j.heap_bytes() <= after_first.max(1) * 2);
    }

    /// A full report per agent per cycle, `n_ues` UEs each.
    fn report(enb: EnbId, n_ues: u16, t: u64) -> FlexranMessage {
        FlexranMessage::StatsReply(StatsReply {
            enb_id: enb,
            tti: t,
            cells: vec![],
            ues: (0..n_ues)
                .map(|i| UeReport {
                    rnti: 0x100 + i,
                    connected: true,
                    wideband_cqi: (t % 15) as u8,
                    subband_cqi: [9, 10, 11].into(),
                    dl_tbs_bits_total: t * 1_000 + u64::from(i),
                    ..UeReport::default()
                })
                .collect(),
        })
    }

    #[test]
    fn byte_rule_bounds_each_segment_and_compacts_one_per_cycle() {
        let mut rib = Rib::new();
        let mut up = RibUpdater::new();
        // The cycle bound is out of reach: only the byte rule compacts.
        let mut j = RibJournal::new(u64::MAX);
        let agents = [(EnbId(1), 2u16), (EnbId(2), 5), (EnbId(3), 9)];
        let mut feed = |rib: &mut Rib, j: &mut RibJournal, enb: EnbId, t: u64, msg| {
            up.apply(rib, enb, &msg, Tti(t));
            j.record_delta(enb, Tti(t), &msg);
        };
        for &(enb, n_ues) in &agents {
            let hello = FlexranMessage::Hello(Hello {
                enb_id: enb,
                n_cells: 1,
                capabilities: vec!["dl_scheduling".into()],
                applied_config: 0,
            });
            feed(&mut rib, &mut j, enb, 0, hello);
            feed(&mut rib, &mut j, enb, 0, report(enb, n_ues, 0));
        }
        // Fresh segments have empty snapshots, so all start over the
        // bound at once and queue for their turn; the bound below is the
        // steady state's, from a first snapshot on.
        j.compact(&rib);
        let mut cycle_bytes = BTreeMap::new();
        for t in 1..=2_000u64 {
            for &(enb, n_ues) in &agents {
                let before = j.segments.get(&enb).map_or(0, |s| s.deltas.len());
                feed(&mut rib, &mut j, enb, t, report(enb, n_ues, t));
                let after = j.segments.get(&enb).map_or(0, |s| s.deltas.len());
                cycle_bytes.insert(enb, after - before);
            }
            let compactions = j.compactions();
            j.on_write_cycle(&rib);
            assert!(
                j.compactions() - compactions <= 1,
                "cycle {t}: more than one byte-triggered compaction"
            );
            for (enb, segment) in &j.segments {
                let bound = 2 * (DELTA_SNAPSHOT_RATIO * segment.snapshot.len() + cycle_bytes[enb]);
                assert!(
                    segment.deltas.capacity() <= bound,
                    "cycle {t}: {enb} retains {} delta bytes, bound {bound}",
                    segment.deltas.capacity()
                );
            }
        }
        // Every agent was compacted again and again, and the journal
        // still rebuilds the RIB exactly.
        assert!(j.compactions() > 10 * agents.len() as u64);
        let state = RibJournal::parse(&j.bytes()).unwrap();
        assert_eq!(rebuild(&state), rib);
    }

    #[test]
    fn segments_follow_the_rib() {
        let mut rib = Rib::new();
        let mut up = RibUpdater::new();
        let mut j = RibJournal::new(1000);
        populate(&mut rib, &mut up, &mut j);
        assert_eq!(j.agents().collect::<Vec<_>>(), [EnbId(1)]);
        // An agent whose subtree leaves the RIB leaves no segment behind,
        // whichever rule compacts it.
        rib.remove_agent(EnbId(1));
        j.on_write_cycle(&rib);
        assert_eq!(j.agents().count(), 0);
        populate(&mut rib, &mut up, &mut j);
        rib.remove_agent(EnbId(1));
        j.compact(&rib);
        assert_eq!(j.agents().count(), 0);
        // A full compaction gives every RIB agent a segment.
        let mut other = Rib::new();
        populate(&mut other, &mut up, &mut RibJournal::new(1000));
        j.compact(&other);
        assert_eq!(j.agents().collect::<Vec<_>>(), [EnbId(1)]);
        assert_eq!(rebuild(&RibJournal::parse(&j.bytes()).unwrap()), other);
    }

    #[test]
    fn per_agent_segments_each_recover_their_agent() {
        let mut rib = Rib::new();
        let mut up = RibUpdater::new();
        let mut j = RibJournal::new(1000);
        populate(&mut rib, &mut up, &mut j);
        let hello = FlexranMessage::Hello(Hello {
            enb_id: EnbId(2),
            n_cells: 1,
            capabilities: vec![],
            applied_config: 0,
        });
        up.apply(&mut rib, EnbId(2), &hello, Tti(30));
        j.record_delta(EnbId(2), Tti(30), &hello);
        j.compact(&rib);
        let msg = report(EnbId(2), 3, 31);
        up.apply(&mut rib, EnbId(2), &msg, Tti(31));
        j.record_delta(EnbId(2), Tti(31), &msg);
        j.record_replay(
            EnbId(2),
            &FlexranMessage::StatsRequest(flexran_proto::messages::StatsRequest::default()),
        );
        let mut segments = Vec::new();
        j.write_segments(&mut segments);
        assert_eq!(segments.len(), 3, "two agents, then the replay section");
        let mut rebuilt = Rib::new();
        let mut replay = 0;
        for bytes in &segments {
            let state = RibJournal::parse(bytes).unwrap();
            let agents: std::collections::BTreeSet<EnbId> =
                state.rib_records.iter().map(|r| r.enb).collect();
            assert!(agents.len() <= 1, "one agent per segment");
            for r in &state.rib_records {
                up.apply(&mut rebuilt, r.enb, &r.msg, r.tti);
            }
            replay += state.replay.values().map(Vec::len).sum::<usize>();
        }
        assert_eq!(rebuilt, rib);
        assert_eq!(replay, 1);
    }
}
