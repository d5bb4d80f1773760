//! `TimedTransport`: the benchmark's wrapper around a real transport.
//!
//! It does three things from outside the transport, through the
//! [`Transport`] trait alone:
//!
//! * **Lockstep delivery.** `tcp_loop` drives two agents and the master
//!   from one thread, so when an endpoint polls, everything its peer sent
//!   has already been written to the socket. The two endpoints of a link
//!   share a sent-message counter per direction; `try_recv` does not
//!   report "nothing there" while the peer's counter is ahead of what this
//!   side has received, it polls again. The kernel needs that time to
//!   deliver, so it belongs to the measured loop, and the run becomes
//!   exactly repeatable: no message is ever seen an iteration late. Polls
//!   that had to wait are counted as `deferred`.
//! * **Control-loop stamps.** On the agent side, sending
//!   `SubframeTrigger{tti = x}` is stamped, and the stamp is matched when
//!   `try_recv` returns the `DlSchedulingCommand` whose `target_tti` is
//!   `x + ahead`: report leaves the agent → command is back at the agent.
//! * **Spans and counts**, in a traced window only: one `proto.tcp_send`
//!   / `proto.tcp_recv` span per call, and call / empty-poll counters
//!   (per thread: `tcp_loop` drives every endpoint from one).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexran::proto::messages::{FlexranMessage, Header};
use flexran::proto::{ByteCounters, Transport};
use flexran::types::{FlexError, Result};

use crate::spans;

/// How long `try_recv` waits for a message its peer has already sent
/// before reporting a transport error instead of hanging the run.
const LOCKSTEP_TIMEOUT: Duration = Duration::from_secs(2);

/// Call counters over every endpoint driven by this thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallCounts {
    /// `send` calls in traced windows.
    pub sends: u64,
    /// `try_recv` calls in traced windows.
    pub recv_calls: u64,
    /// ... of which returned "nothing there".
    pub empty_polls: u64,
    /// Polls (any window) that found the socket empty while a message
    /// was in flight and waited for it.
    pub deferred: u64,
}

thread_local! {
    // The master's endpoints are boxed away inside it, so the counters
    // live beside the endpoints, not in them.
    static CALLS: std::cell::Cell<CallCounts> = const {
        std::cell::Cell::new(CallCounts { sends: 0, recv_calls: 0, empty_polls: 0, deferred: 0 })
    };
}

pub fn calls() -> CallCounts {
    CALLS.with(|c| c.get())
}

fn count(f: impl FnOnce(&mut CallCounts)) {
    CALLS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

pub struct TimedTransport<T: Transport> {
    inner: T,
    /// Messages this endpoint has sent (read by the peer).
    tx_sent: Arc<AtomicU64>,
    /// Messages the peer has sent towards this endpoint.
    rx_sent: Arc<AtomicU64>,
    rx_seen: u64,
    /// Schedule-ahead of the remote scheduler; `None` on the master side,
    /// which stamps nothing.
    ahead: Option<u64>,
    pending: VecDeque<(u64, Instant)>,
    loop_ns: Vec<u64>,
}

/// Wrap the two endpoints of one link. `ahead` is the remote scheduler's
/// schedule-ahead in TTIs, used to match a command to its trigger.
pub fn timed_pair<A: Transport, M: Transport>(
    agent_side: A,
    master_side: M,
    ahead: u64,
) -> (TimedTransport<A>, TimedTransport<M>) {
    let up = Arc::new(AtomicU64::new(0));
    let down = Arc::new(AtomicU64::new(0));
    (
        TimedTransport::new(agent_side, up.clone(), down.clone(), Some(ahead)),
        TimedTransport::new(master_side, down, up, None),
    )
}

impl<T: Transport> TimedTransport<T> {
    fn new(inner: T, tx_sent: Arc<AtomicU64>, rx_sent: Arc<AtomicU64>, ahead: Option<u64>) -> Self {
        TimedTransport {
            inner,
            tx_sent,
            rx_sent,
            rx_seen: 0,
            ahead,
            pending: VecDeque::with_capacity(16),
            loop_ns: Vec::with_capacity(16),
        }
    }

    /// Move the control-loop latencies matched since the last call into
    /// `out` (nanoseconds, in arrival order).
    pub fn drain_loop_ns(&mut self, out: &mut Vec<u64>) {
        out.append(&mut self.loop_ns);
    }

    /// Triggers still waiting for their command.
    pub fn unmatched(&self) -> usize {
        self.pending.len()
    }

    fn recv_lockstep(&mut self) -> Result<Option<(Header, FlexranMessage)>> {
        let mut waiting_since: Option<Instant> = None;
        loop {
            if let Some(m) = self.inner.try_recv()? {
                self.rx_seen += 1;
                return Ok(Some(m));
            }
            // SeqCst: the counter orders the peer's send before this read
            // should the endpoints ever run on different threads.
            if self.rx_seen >= self.rx_sent.load(Ordering::SeqCst) {
                return Ok(None);
            }
            let since = *waiting_since.get_or_insert_with(|| {
                count(|c| c.deferred += 1);
                Instant::now()
            });
            if since.elapsed() > LOCKSTEP_TIMEOUT {
                return Err(FlexError::Transport(
                    "lockstep wait: a sent message never arrived".into(),
                ));
            }
            std::hint::spin_loop();
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, header: Header, msg: &FlexranMessage) -> Result<()> {
        let t0 = spans::start();
        if let (Some(_), FlexranMessage::SubframeTrigger(t)) = (self.ahead, msg) {
            // A trigger whose command never came must not grow the queue.
            if self.pending.len() == self.pending.capacity() {
                self.pending.pop_front();
            }
            self.pending.push_back((t.tti, Instant::now()));
        }
        self.inner.send(header, msg)?;
        self.tx_sent.fetch_add(1, Ordering::SeqCst);
        if let Some(t0) = t0 {
            count(|c| c.sends += 1);
            spans::leaf_from(spans::TCP_SEND, t0);
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<(Header, FlexranMessage)>> {
        let t0 = spans::start();
        let got = self.recv_lockstep()?;
        if let (Some(ahead), Some((_, FlexranMessage::DlSchedulingCommand(cmd)))) =
            (self.ahead, &got)
        {
            let arrived = Instant::now();
            while let Some(&(tti, sent)) = self.pending.front() {
                if tti + ahead > cmd.target_tti {
                    break; // command for an older trigger than any pending
                }
                self.pending.pop_front();
                if tti + ahead == cmd.target_tti {
                    self.loop_ns.push((arrived - sent).as_nanos() as u64);
                    break;
                }
            }
        }
        if let Some(t0) = t0 {
            count(|c| {
                c.recv_calls += 1;
                c.empty_polls += got.is_none() as u64;
            });
            spans::leaf_from(spans::TCP_RECV, t0);
        }
        Ok(got)
    }

    fn tx_counters(&self) -> ByteCounters {
        self.inner.tx_counters()
    }

    fn rx_counters(&self) -> ByteCounters {
        self.inner.rx_counters()
    }

    fn purge_inbound(&mut self) -> usize {
        self.inner.purge_inbound()
    }
}
