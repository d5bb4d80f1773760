//! Span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer: a span has a name, a start, an end, the span that
//! caused it and the TTI it belongs to. A layer's *self time* is its
//! span's duration minus the part its child spans cover, so self times
//! of one TTI add up to the TTI. Every span feeds a per-name total; the
//! first [`STORE_CAP`] spans are also kept in memory and written to
//! `benchmark/out/trace_<workload>.json` when the run ends.

use std::cell::RefCell;
use std::time::Instant;

/// Spans kept for the trace file (totals cover every span).
pub const STORE_CAP: usize = 60_000;

/// Span names; the index is the span's id.
pub const NAMES: &[&str] = &[
    "core.step",
    "core.front",
    "core.phase_a",
    "core.coupling",
    "core.phase_b",
    "core.merge",
    "controller.rib_slot",
    "controller.apps_slot",
    "tcp.iteration",
    "agent.phase_a",
    "agent.phase_b",
    "controller.begin",
    "controller.finish",
    "proto.tcp_send",
    "proto.tcp_recv",
];

pub const CORE_STEP: u16 = 0;
pub const CORE_FRONT: u16 = 1;
pub const CORE_PHASE_A: u16 = 2;
pub const CORE_COUPLING: u16 = 3;
pub const CORE_PHASE_B: u16 = 4;
pub const CORE_MERGE: u16 = 5;
pub const CTRL_RIB_SLOT: u16 = 6;
pub const CTRL_APPS_SLOT: u16 = 7;
pub const TCP_ITERATION: u16 = 8;
pub const AGENT_PHASE_A: u16 = 9;
pub const AGENT_PHASE_B: u16 = 10;
pub const CTRL_BEGIN: u16 = 11;
pub const CTRL_FINISH: u16 = 12;
pub const TCP_SEND: u16 = 13;
pub const TCP_RECV: u16 = 14;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: u16,
    /// Sequence number of the causing span, [`NO_PARENT`] for a root.
    pub parent: u32,
    pub seq: u32,
    pub tti: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: u16,
    seq: u32,
    tti: u64,
    start_ns: u64,
    children_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    totals: Vec<SpanTotal>,
    store: Vec<SpanRecord>,
    next_seq: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            totals: vec![SpanTotal::default(); NAMES.len()],
            store: Vec::new(),
            next_seq: 0,
        }
    }
}

impl Recorder {
    /// Reserve the span store up front so recording never allocates.
    pub fn reserve_store(&mut self) {
        self.store.reserve_exact(STORE_CAP);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span at `start_ns` as a child of the innermost open span.
    pub fn open_at(&mut self, name: u16, tti: u64, start_ns: u64) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.stack.push(Open {
            name,
            seq,
            tti,
            start_ns,
            children_ns: 0,
        });
    }

    /// Close the innermost open span at `end_ns`.
    pub fn close_at(&mut self, end_ns: u64) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.children_ns += dur;
                p.seq
            }
            None => NO_PARENT,
        };
        let t = &mut self.totals[open.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.children_ns);
        if self.store.len() < STORE_CAP {
            self.store.push(SpanRecord {
                name: open.name,
                parent,
                seq: open.seq,
                tti: open.tti,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// A closed child span of the innermost open span (inherits its TTI).
    pub fn leaf(&mut self, name: u16, start_ns: u64, end_ns: u64) {
        let tti = self.stack.last().map(|o| o.tti).unwrap_or(0);
        self.open_at(name, tti, start_ns);
        self.close_at(end_ns);
    }

    pub fn total(&self, name: u16) -> SpanTotal {
        self.totals[name as usize]
    }

    pub fn records(&self) -> &[SpanRecord] {
        &self.store
    }

    /// The stored spans as a JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(self.store.len() * 96 + 256);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"stored\":{},\"recorded\":{},\"spans\":[",
            self.store.len(),
            self.totals.iter().map(|t| t.count).sum::<u64>()
        );
        for (i, r) in self.store.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"tti\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.seq,
                NAMES[r.name as usize],
                if r.parent == NO_PARENT {
                    "null".to_string()
                } else {
                    r.parent.to_string()
                },
                r.tti,
                r.start_ns,
                r.end_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

thread_local! {
    /// The generator thread's recorder. `None` = tracing off, which is
    /// all an untraced run ever sees.
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

thread_local! {
    /// Whether the current window is a traced one (the traced run
    /// alternates traced and untraced windows to price the tracing).
    static ACTIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

pub fn set_active(on: bool) {
    ACTIVE.with(|a| a.set(on));
}

#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Create this thread's recorder (idempotent).
pub fn enable() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.is_none() {
            let mut rec = Recorder::default();
            rec.reserve_store();
            *r = Some(rec);
        }
    });
}

/// Run `f` on the recorder if tracing is on.
pub fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDER.with(|r| r.borrow_mut().as_mut().map(f))
}

/// The recorder's clock if this is a traced window, for [`leaf_from`].
#[inline]
pub fn start() -> Option<u64> {
    if active() {
        with(|r| r.now_ns())
    } else {
        None
    }
}

/// Record a leaf span from `t0` to now under the innermost open span.
pub fn leaf_from(name: u16, t0: u64) {
    with(|r| {
        let t1 = r.now_ns();
        r.leaf(name, t0, t1)
    });
}

/// Time `f` as a span named `name` in a traced window, else just run it.
#[inline]
pub fn span<R>(name: u16, tti: u64, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    with(|r| {
        let t = r.now_ns();
        r.open_at(name, tti, t)
    });
    let out = f();
    with(|r| {
        let t = r.now_ns();
        r.close_at(t)
    });
    out
}
