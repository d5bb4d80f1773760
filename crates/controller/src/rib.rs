//! The RAN Information Base (paper §4.3.3).
//!
//! "A key component that maintains all the statistics and configuration
//! related information about the underlying network entities [...]
//! structured as a forest graph": each tree is rooted at an agent, with
//! the agent's cells at the second level and the UEs attached to each
//! (primary) cell as leaves. Following the paper, the RIB stores *raw*
//! reported data (no high-level abstraction — that is §7.3 future work):
//! the leaves hold the last [`UeReport`] verbatim.
//!
//! Only the RIB Updater writes (see [`crate::updater`]); applications and
//! the event service read.

use std::collections::BTreeMap;

use flexran_proto::messages::config::CellConfigPb;
use flexran_proto::messages::{CellReport, UeReport};
use flexran_types::ids::{CellId, EnbId, Rnti, UeId};
use flexran_types::time::Tti;

/// Leaf: one UE's last-known state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UeNode {
    pub rnti: Rnti,
    pub ue_tag: UeId,
    /// The raw last report (the paper's "raw data to the northbound API").
    pub report: UeReport,
    /// Master-clock time of the last update.
    pub updated: Tti,
}

/// Second level: one cell. UE leaves live in a dense slab sorted by
/// RNTI: hot readers (`RibView` polls, `run_rib_slot` walks) scan a
/// contiguous slice instead of chasing B-tree nodes; attach/detach pays
/// the (cold) sorted insert/remove.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellNode {
    pub cell_id: CellId,
    pub config: Option<CellConfigPb>,
    pub last_report: Option<CellReport>,
    pub updated: Tti,
    ues: Vec<UeNode>,
}

impl CellNode {
    /// All UE leaves, ascending by RNTI (the hot read path).
    pub fn ues(&self) -> &[UeNode] {
        &self.ues
    }

    pub fn ue(&self, rnti: Rnti) -> Option<&UeNode> {
        self.ues
            .binary_search_by_key(&rnti, |u| u.rnti)
            .ok()
            // lint:allow(panic) index returned by binary_search on this vec
            .map(|i| &self.ues[i])
    }

    pub fn ue_mut(&mut self, rnti: Rnti) -> Option<&mut UeNode> {
        self.ues
            .binary_search_by_key(&rnti, |u| u.rnti)
            .ok()
            // lint:allow(panic) index returned by binary_search on this vec
            .map(|i| &mut self.ues[i])
    }

    /// Writer-side find-or-create (attach path; the slab insert keeps
    /// ascending-RNTI order so reads stay bit-identical to the B-tree
    /// layout this replaced).
    pub fn ue_entry(&mut self, rnti: Rnti) -> &mut UeNode {
        let i = match self.ues.binary_search_by_key(&rnti, |u| u.rnti) {
            Ok(i) => i,
            Err(i) => {
                self.ues.insert(
                    i,
                    UeNode {
                        rnti,
                        ..UeNode::default()
                    },
                );
                i
            }
        };
        // lint:allow(panic) `i` is a hit or the freshly inserted position
        &mut self.ues[i]
    }

    /// Writer-side insert of a fully built leaf (fixtures, shard merge).
    pub fn insert_ue(&mut self, node: UeNode) {
        match self.ues.binary_search_by_key(&node.rnti, |u| u.rnti) {
            // lint:allow(panic) index returned by binary_search on this vec
            Ok(i) => self.ues[i] = node,
            Err(i) => self.ues.insert(i, node),
        }
    }

    pub fn remove_ue(&mut self, rnti: Rnti) -> Option<UeNode> {
        self.ues
            .binary_search_by_key(&rnti, |u| u.rnti)
            .ok()
            .map(|i| self.ues.remove(i))
    }

    pub fn n_ues(&self) -> usize {
        self.ues.len()
    }
}

/// Root: one agent / eNodeB.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AgentNode {
    pub enb_id: EnbId,
    pub capabilities: Vec<String>,
    /// Cell count the agent declared in its `Hello`. The RIB Updater
    /// rejects reports and events for cell ids outside `0..n_cells` —
    /// they can only come from a corrupted or misbehaving agent, and
    /// folding them in would grow phantom subtrees nothing ever prunes.
    pub n_cells: u32,
    pub connected_at: Tti,
    /// Last subframe sync: `(agent TTI, master time when received)`. The
    /// agent view is stale by the one-way control-channel delay — exactly
    /// the offset the schedule-ahead parameter must absorb (paper §5.3).
    pub last_sync: Option<(Tti, Tti)>,
    /// Master time the agent's session was declared dead, if it currently
    /// is. While set, the whole subtree is a pre-outage snapshot: it is
    /// kept (the topology has not changed, and the rejoining agent will
    /// refresh it) but readers must not treat it as live state.
    pub stale_since: Option<Tti>,
    /// Dense cell slab sorted by cell id (same flattening as
    /// [`CellNode::ues`]).
    cells: Vec<CellNode>,
}

impl AgentNode {
    /// All cells, ascending by id (the hot read path).
    pub fn cells(&self) -> &[CellNode] {
        &self.cells
    }

    pub fn cell(&self, cell: CellId) -> Option<&CellNode> {
        self.cells
            .binary_search_by_key(&cell, |c| c.cell_id)
            .ok()
            // lint:allow(panic) index returned by binary_search on this vec
            .map(|i| &self.cells[i])
    }

    pub fn cell_mut(&mut self, cell: CellId) -> Option<&mut CellNode> {
        self.cells
            .binary_search_by_key(&cell, |c| c.cell_id)
            .ok()
            // lint:allow(panic) index returned by binary_search on this vec
            .map(|i| &mut self.cells[i])
    }

    /// Writer-side find-or-create (config/report/attach paths).
    pub fn cell_entry(&mut self, cell: CellId) -> &mut CellNode {
        let i = match self.cells.binary_search_by_key(&cell, |c| c.cell_id) {
            Ok(i) => i,
            Err(i) => {
                self.cells.insert(
                    i,
                    CellNode {
                        cell_id: cell,
                        ..CellNode::default()
                    },
                );
                i
            }
        };
        // lint:allow(panic) `i` is a hit or the freshly inserted position
        &mut self.cells[i]
    }

    pub fn remove_cell(&mut self, cell: CellId) -> Option<CellNode> {
        self.cells
            .binary_search_by_key(&cell, |c| c.cell_id)
            .ok()
            .map(|i| self.cells.remove(i))
    }

    /// The newest subframe the master knows the agent has reached.
    pub fn synced_subframe(&self) -> Option<Tti> {
        self.last_sync.map(|(agent_tti, _)| agent_tti)
    }

    /// Start a staleness epoch (agent session declared dead). Keeps the
    /// first epoch start if called repeatedly during one outage.
    pub fn mark_stale(&mut self, now: Tti) {
        self.stale_since.get_or_insert(now);
    }

    /// End the staleness epoch (agent session restored).
    pub fn mark_fresh(&mut self) {
        self.stale_since = None;
    }

    pub fn is_stale(&self) -> bool {
        self.stale_since.is_some()
    }
}

/// `debug-invariants` bookkeeping: the master opens the write window at
/// the start of each RIB slot and closes it before the apps slot; any
/// mutation while closed, or a non-monotonic cycle epoch, asserts.
#[cfg(feature = "debug-invariants")]
#[derive(Debug, Clone, Default)]
struct WriteGuard {
    /// Writes are currently forbidden (apps slot / between cycles, once
    /// a cycle has ever been opened).
    locked: bool,
    /// Epoch of the last opened write cycle — must advance strictly.
    last_cycle: Option<Tti>,
}

/// The RAN Information Base.
///
/// Agent subtrees live in index-addressed slots (`slots`): a slot id is
/// assigned on attach, stays stable for the agent's lifetime, and is
/// recycled after a permanent departure. The `EnbId` → slot map is the
/// *cold* path — attach, detach and point queries; every per-cycle walk
/// (`agents`, `all_ues`, the shard RIB slot) iterates `order`, which
/// holds the live slots ascending by agent id so iteration order — and
/// therefore every digest and journal snapshot — is bit-identical to
/// the B-tree forest this replaced.
#[derive(Clone, Default)]
pub struct Rib {
    slots: Vec<Option<AgentNode>>,
    /// Cold id → slot lookup (attach/detach/point queries).
    index: BTreeMap<EnbId, usize>,
    /// Live slots, ascending by `EnbId` (the hot iteration order).
    order: Vec<usize>,
    /// Recyclable slot ids.
    free: Vec<usize>,
    #[cfg(feature = "debug-invariants")]
    write_guard: WriteGuard,
}

/// Slot numbering and free-list state are attach-order artefacts, not
/// forest data: `Debug` renders the id-ordered forest only, so a dump
/// (and anything hashing it) is identical across shard layouts and
/// recovery paths that build the same forest.
impl std::fmt::Debug for Rib {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.agents().map(|a| (a.enb_id, a)))
            .finish()
    }
}

/// Forest equality — write-guard bookkeeping is deliberately excluded so
/// a recovered RIB (which never opened a cycle yet) can compare equal to
/// the pre-crash original (journal round-trip golden tests).
impl PartialEq for Rib {
    fn eq(&self, other: &Self) -> bool {
        // Slot numbering is an artefact of attach order; forests are
        // equal when the id-ordered agent sequences are.
        self.n_agents() == other.n_agents() && self.agents().eq(other.agents())
    }
}

impl Rib {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open the write window for cycle `now`. Under `debug-invariants`
    /// this asserts the cycle epoch advances strictly monotonically and
    /// re-enables mutation; without the feature it is a no-op. A freshly
    /// constructed RIB is writable (standalone fixtures never open
    /// cycles), so the discipline only engages once a Task Manager does.
    pub fn open_write_cycle(&mut self, now: Tti) {
        #[cfg(feature = "debug-invariants")]
        {
            if let Some(last) = self.write_guard.last_cycle {
                assert!(
                    now > last,
                    "RIB write-cycle epoch must be strictly monotonic: \
                     opened {now:?} after {last:?}"
                );
            }
            self.write_guard.last_cycle = Some(now);
            self.write_guard.locked = false;
        }
        #[cfg(not(feature = "debug-invariants"))]
        let _ = now;
    }

    /// Close the write window (the apps slot begins). Under
    /// `debug-invariants`, RIB mutation until the next
    /// [`Rib::open_write_cycle`] asserts; a no-op otherwise.
    pub fn close_write_cycle(&mut self) {
        #[cfg(feature = "debug-invariants")]
        {
            self.write_guard.locked = true;
        }
    }

    #[cfg(feature = "debug-invariants")]
    fn assert_writable(&self) {
        assert!(
            !self.write_guard.locked,
            "RIB mutated outside the RIB slot: the single-writer \
             discipline (paper Fig. 5) allows writes only between \
             open_write_cycle and close_write_cycle"
        );
    }

    pub fn agent(&self, enb: EnbId) -> Option<&AgentNode> {
        let &slot = self.index.get(&enb)?;
        // lint:allow(panic) `index` only holds live slot positions
        self.slots[slot].as_ref()
    }

    /// Writer-side access: creates the agent node if missing. Only the
    /// RIB Updater (and test/bench harnesses constructing RIB fixtures)
    /// should call this — applications read.
    pub fn agent_mut(&mut self, enb: EnbId) -> &mut AgentNode {
        #[cfg(feature = "debug-invariants")]
        self.assert_writable();
        let slot = match self.index.get(&enb) {
            Some(&s) => s,
            None => self.attach_slot(
                enb,
                AgentNode {
                    enb_id: enb,
                    ..AgentNode::default()
                },
            ),
        };
        // lint:allow(panic) `index` and `slots` move in lockstep; a hit is live
        self.slots[slot].as_mut().expect("indexed slot is live")
    }

    /// Cold path: claim a slot for a new agent and splice it into the
    /// id-ordered iteration sequence.
    fn attach_slot(&mut self, enb: EnbId, node: AgentNode) -> usize {
        let slot = match self.free.pop() {
            Some(s) => {
                // lint:allow(panic) `free` only holds retired in-bounds slots
                self.slots[s] = Some(node);
                s
            }
            None => {
                self.slots.push(Some(node));
                self.slots.len() - 1
            }
        };
        self.index.insert(enb, slot);
        let pos = self
            .order
            .binary_search_by_key(&enb, |&s| {
                // lint:allow(panic) `order` only lists live slots
                self.slots[s].as_ref().expect("ordered slot is live").enb_id
            })
            .unwrap_or_else(|p| p);
        self.order.insert(pos, slot);
        slot
    }

    /// Adopt a fully built agent subtree (shard-merge path: assembling a
    /// shard-transparent RIB snapshot from per-shard forests). Writer-side
    /// like [`Rib::agent_mut`] — only the shard merge and fixtures call it.
    pub fn adopt_agent(&mut self, node: AgentNode) {
        #[cfg(feature = "debug-invariants")]
        self.assert_writable();
        match self.index.get(&node.enb_id) {
            // lint:allow(panic) `index` only holds live slot positions
            Some(&slot) => self.slots[slot] = Some(node),
            None => {
                self.attach_slot(node.enb_id, node);
            }
        }
    }

    /// Remove an agent (permanent departure). Transient session loss
    /// should use [`AgentNode::mark_stale`] instead, which preserves the
    /// subtree for the agent's return.
    pub fn remove_agent(&mut self, enb: EnbId) {
        #[cfg(feature = "debug-invariants")]
        self.assert_writable();
        let Some(slot) = self.index.remove(&enb) else {
            return;
        };
        // lint:allow(panic) `index` only holds live slot positions
        self.slots[slot] = None;
        self.free.push(slot);
        if let Some(pos) = self.order.iter().position(|&s| s == slot) {
            self.order.remove(pos);
        }
    }

    /// Agents whose sessions are currently down, with their epoch starts.
    pub fn stale_agents(&self) -> Vec<(EnbId, Tti)> {
        self.agents()
            .filter_map(|a| a.stale_since.map(|t| (a.enb_id, t)))
            .collect()
    }

    pub fn agents(&self) -> impl Iterator<Item = &AgentNode> {
        self.order
            .iter()
            // lint:allow(panic) `order` only lists live slots
            .map(|&s| self.slots[s].as_ref().expect("ordered slot is live"))
    }

    pub fn n_agents(&self) -> usize {
        self.order.len()
    }

    pub fn cell(&self, enb: EnbId, cell: CellId) -> Option<&CellNode> {
        self.agent(enb)?.cell(cell)
    }

    pub fn ue(&self, enb: EnbId, cell: CellId, rnti: Rnti) -> Option<&UeNode> {
        self.cell(enb, cell)?.ue(rnti)
    }

    /// All UEs across the forest, with their coordinates.
    pub fn all_ues(&self) -> Vec<(EnbId, CellId, &UeNode)> {
        let mut out = Vec::new();
        for a in self.agents() {
            for c in a.cells() {
                for u in c.ues() {
                    out.push((a.enb_id, c.cell_id, u));
                }
            }
        }
        out
    }

    /// Total UE count.
    pub fn n_ues(&self) -> usize {
        self.agents()
            .flat_map(|a| a.cells())
            .map(|c| c.n_ues())
            .sum()
    }

    /// Approximate heap footprint of the RIB — the memory series of
    /// paper Fig. 8.
    pub fn heap_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        total += self.slots.capacity() * std::mem::size_of::<Option<AgentNode>>();
        total += (self.order.capacity() + self.free.capacity()) * std::mem::size_of::<usize>();
        for a in self.agents() {
            total += a
                .capabilities
                .iter()
                .map(|s| s.capacity() + 24)
                .sum::<usize>();
            for c in a.cells() {
                total += std::mem::size_of::<CellNode>();
                // A report holds its arrays inline, so the leaf's size
                // is its whole footprint.
                total += c.n_ues() * std::mem::size_of::<UeNode>();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_structure_navigable() {
        let mut rib = Rib::new();
        {
            let agent = rib.agent_mut(EnbId(1));
            agent.connected_at = Tti(0);
            let cell = agent.cell_entry(CellId(0));
            cell.insert_ue(UeNode {
                rnti: Rnti(0x100),
                ue_tag: UeId(7),
                ..UeNode::default()
            });
        }
        assert_eq!(rib.n_agents(), 1);
        assert_eq!(rib.n_ues(), 1);
        assert!(rib.ue(EnbId(1), CellId(0), Rnti(0x100)).is_some());
        assert!(rib.ue(EnbId(1), CellId(0), Rnti(0x101)).is_none());
        assert_eq!(rib.all_ues().len(), 1);
        rib.remove_agent(EnbId(1));
        assert_eq!(rib.n_agents(), 0);
    }

    #[test]
    fn heap_grows_with_content() {
        let mut rib = Rib::new();
        let empty = rib.heap_bytes();
        let agent = rib.agent_mut(EnbId(1));
        let cell = agent.cell_entry(CellId(0));
        for i in 0..16u16 {
            let mut node = UeNode {
                rnti: Rnti(0x100 + i),
                ..Default::default()
            };
            node.report.subband_cqi = [9; 13].into();
            cell.insert_ue(node);
        }
        assert!(rib.heap_bytes() > empty + 16 * 100);
    }

    #[test]
    fn staleness_epoch_preserves_subtree() {
        let mut rib = Rib::new();
        {
            let agent = rib.agent_mut(EnbId(1));
            let cell = agent.cell_entry(CellId(0));
            cell.insert_ue(UeNode {
                rnti: Rnti(0x100),
                ..UeNode::default()
            });
        }
        assert!(rib.stale_agents().is_empty());
        rib.agent_mut(EnbId(1)).mark_stale(Tti(500));
        // Repeated marking keeps the original epoch start.
        rib.agent_mut(EnbId(1)).mark_stale(Tti(900));
        assert_eq!(rib.stale_agents(), vec![(EnbId(1), Tti(500))]);
        assert!(rib.agent(EnbId(1)).unwrap().is_stale());
        // The subtree is a snapshot, not deleted.
        assert!(rib.ue(EnbId(1), CellId(0), Rnti(0x100)).is_some());
        rib.agent_mut(EnbId(1)).mark_fresh();
        assert!(!rib.agent(EnbId(1)).unwrap().is_stale());
        assert!(rib.stale_agents().is_empty());
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    #[should_panic(expected = "single-writer")]
    fn locked_rib_rejects_writes() {
        let mut rib = Rib::new();
        rib.open_write_cycle(Tti(1));
        rib.close_write_cycle();
        rib.agent_mut(EnbId(1));
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    #[should_panic(expected = "monotonic")]
    fn write_cycle_epoch_must_advance() {
        let mut rib = Rib::new();
        rib.open_write_cycle(Tti(5));
        rib.open_write_cycle(Tti(5));
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    fn reopened_cycle_restores_writability() {
        let mut rib = Rib::new();
        rib.open_write_cycle(Tti(1));
        rib.agent_mut(EnbId(1));
        rib.close_write_cycle();
        rib.open_write_cycle(Tti(2));
        rib.agent_mut(EnbId(2));
        assert_eq!(rib.n_agents(), 2);
    }

    #[test]
    fn synced_subframe_reflects_last_sync() {
        let mut rib = Rib::new();
        let agent = rib.agent_mut(EnbId(1));
        assert_eq!(agent.synced_subframe(), None);
        agent.last_sync = Some((Tti(500), Tti(510)));
        assert_eq!(
            rib.agent(EnbId(1)).unwrap().synced_subframe(),
            Some(Tti(500))
        );
    }
}
