//! Transports carrying FlexRAN protocol messages.
//!
//! The paper's implementation runs the protocol over TCP; the agent talks
//! to the master through "an asynchronous interface that abstracts the
//! communication operations" whose implementation "can vary (socket-based,
//! pub/sub etc.)". [`Transport`] is that abstraction. Three
//! implementations exist:
//!
//! * [`TcpTransport`] — real sockets (`std::net`), non-blocking reads,
//!   length-delimited frames. Used by the deployment-mode examples and
//!   integration tests.
//! * [`ReconnectingTcpTransport`] — wraps [`TcpTransport`] with automatic
//!   redial on connection loss (exponential backoff with deterministic
//!   jitter). A dead connection surfaces as *silence*, not as a transport
//!   error, so the owning agent keeps cycling under local control while
//!   the session heals.
//! * [`channel_pair`] — in-process queues (for unit tests and same-process
//!   deployments with no emulated latency).
//! * `flexran-sim`'s virtual-time link — deterministic latency/jitter
//!   emulation for the experiments (defined in that crate against this
//!   trait's message/counter vocabulary).
//!
//! Every transport counts serialized bytes per [`MessageCategory`](crate::category::MessageCategory) in both
//! directions — the raw data of the Fig. 7 signalling-overhead study.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;

use flexran_types::{FlexError, Result};

use crate::category::ByteCounters;
use crate::frame::{encode_message_frame_into, FrameDecoder};
use crate::messages::{FlexranMessage, Header};
use crate::wire::WireWriter;

/// A bidirectional, non-blocking message channel.
pub trait Transport: Send {
    /// Queue a message for the peer.
    fn send(&mut self, header: Header, msg: &FlexranMessage) -> Result<()>;

    /// Next message from the peer, if one has arrived.
    fn try_recv(&mut self) -> Result<Option<(Header, FlexranMessage)>>;

    /// The encoded envelope (integrity trailer included) that the most
    /// recent [`Transport::try_recv`] decoded into the message it
    /// returned: what arrived, for consumers that persist it (the RIB
    /// journal) instead of encoding the decoded message again. `None`
    /// after a `try_recv` that returned `Ok(None)` or `Err`, and from
    /// transports that do not keep the bytes (the default).
    fn last_envelope(&self) -> Option<&[u8]> {
        None
    }

    /// Bytes sent so far, by category (wire size including framing).
    fn tx_counters(&self) -> ByteCounters;

    /// Bytes received so far, by category.
    fn rx_counters(&self) -> ByteCounters;

    /// Drop inbound data that has arrived but not yet been delivered via
    /// [`Transport::try_recv`], returning how many messages were lost.
    /// Models a process crash: bytes addressed to a dead process vanish
    /// with its socket. The default is a no-op — real sockets lose their
    /// kernel buffers when the process dies, so only transports that queue
    /// in user space (the sim link) have anything to purge.
    fn purge_inbound(&mut self) -> usize {
        0
    }
}

/// Frame overhead added per message by stream transports.
pub const FRAME_OVERHEAD_BYTES: u64 = 4;

// ----------------------------------------------------------------------
// In-process channel transport
// ----------------------------------------------------------------------

/// One endpoint of an in-process transport pair.
pub struct ChannelTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    queue: VecDeque<Vec<u8>>,
    /// Encode scratch, reused across sends.
    scratch: WireWriter,
    tx_counters: ByteCounters,
    rx_counters: ByteCounters,
}

/// Create a connected pair of in-process transports.
pub fn channel_pair() -> (ChannelTransport, ChannelTransport) {
    let (a_tx, b_rx) = mpsc::channel();
    let (b_tx, a_rx) = mpsc::channel();
    (
        ChannelTransport {
            tx: a_tx,
            rx: a_rx,
            queue: VecDeque::new(),
            scratch: WireWriter::new(),
            tx_counters: ByteCounters::new(),
            rx_counters: ByteCounters::new(),
        },
        ChannelTransport {
            tx: b_tx,
            rx: b_rx,
            queue: VecDeque::new(),
            scratch: WireWriter::new(),
            tx_counters: ByteCounters::new(),
            rx_counters: ByteCounters::new(),
        },
    )
}

impl Transport for ChannelTransport {
    fn send(&mut self, header: Header, msg: &FlexranMessage) -> Result<()> {
        msg.encode_into(header, &mut self.scratch);
        self.tx_counters.add(
            msg.category(),
            self.scratch.len() as u64 + FRAME_OVERHEAD_BYTES,
        );
        self.tx
            .send(self.scratch.as_slice().to_vec())
            .map_err(|_| FlexError::Transport("peer endpoint dropped".into()))
    }

    fn try_recv(&mut self) -> Result<Option<(Header, FlexranMessage)>> {
        // Drain the channel into the local queue first so counters stay
        // accurate even if the peer has already hung up.
        while let Ok(m) = self.rx.try_recv() {
            self.queue.push_back(m);
        }
        let Some(bytes) = self.queue.pop_front() else {
            return Ok(None);
        };
        let (header, msg) = FlexranMessage::decode(&bytes)?;
        self.rx_counters
            .add(msg.category(), bytes.len() as u64 + FRAME_OVERHEAD_BYTES);
        Ok(Some((header, msg)))
    }

    fn tx_counters(&self) -> ByteCounters {
        self.tx_counters
    }

    fn rx_counters(&self) -> ByteCounters {
        self.rx_counters
    }
}

// ----------------------------------------------------------------------
// TCP transport
// ----------------------------------------------------------------------

/// FlexRAN protocol endpoint over a TCP stream.
///
/// Reads are non-blocking (poll with [`Transport::try_recv`] from the
/// owner's loop); writes spin briefly on a full socket buffer (which for
/// the protocol's message sizes resolves within microseconds), then fall
/// back to a parked wait with a bounded, escalating timeout.
pub struct TcpTransport {
    stream: TcpStream,
    decoder: FrameDecoder,
    read_buf: Vec<u8>,
    /// Frame buffer, reused across sends: each envelope is encoded
    /// straight behind its length prefix.
    scratch: WireWriter,
    tx_counters: ByteCounters,
    rx_counters: ByteCounters,
    peer_closed: bool,
    /// `read` calls made on the socket (diagnostics).
    socket_reads: u64,
}

impl TcpTransport {
    /// Connect to a listening master/agent.
    pub fn connect(addr: &str) -> Result<Self> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| FlexError::Transport(format!("connect {addr}: {e}")))?;
        Self::from_stream(stream)
    }

    /// Wrap an accepted stream.
    pub fn from_stream(stream: TcpStream) -> Result<Self> {
        stream
            .set_nodelay(true)
            .map_err(|e| FlexError::Transport(format!("set_nodelay: {e}")))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| FlexError::Transport(format!("set_nonblocking: {e}")))?;
        Ok(TcpTransport {
            stream,
            decoder: FrameDecoder::new(),
            read_buf: vec![0u8; 64 * 1024],
            scratch: WireWriter::new(),
            tx_counters: ByteCounters::new(),
            rx_counters: ByteCounters::new(),
            peer_closed: false,
            socket_reads: 0,
        })
    }

    /// Whether the peer has closed its end.
    pub fn peer_closed(&self) -> bool {
        self.peer_closed
    }

    /// `read` calls made on the socket so far (diagnostics).
    pub fn socket_reads(&self) -> u64 {
        self.socket_reads
    }

    /// Read what the socket holds into the frame decoder: until a read
    /// comes back short (the kernel buffer is drained, so another would
    /// only say `WouldBlock`), the peer closes, or nothing is there.
    fn fill_from_socket(&mut self) -> Result<()> {
        loop {
            self.socket_reads += 1;
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    self.peer_closed = true;
                    return Ok(());
                }
                Ok(n) => {
                    let (decoder, buf) = (&mut self.decoder, &self.read_buf);
                    // lint:allow(panic) — `n <= buf.len()` per the Read contract.
                    decoder.extend(&buf[..n]);
                    if n < buf.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FlexError::Transport(format!("read: {e}"))),
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, header: Header, msg: &FlexranMessage) -> Result<()> {
        encode_message_frame_into(msg, header, &mut self.scratch)?;
        let frame = self.scratch.as_slice();
        let mut off = 0usize;
        let mut stalls = 0u64;
        while off < frame.len() {
            // lint:allow(panic) — `off < len` is the loop condition.
            match self.stream.write(&frame[off..]) {
                Ok(0) => return Err(FlexError::Transport("socket closed mid-write".into())),
                Ok(n) => {
                    off += n;
                    stalls = 0;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // A full socket buffer normally drains within
                    // microseconds, so spin briefly; past that, park
                    // with an escalating (bounded) timeout so a stalled
                    // peer doesn't cost a busy core. A spurious unpark
                    // just retries the write.
                    stalls += 1;
                    if stalls <= 64 {
                        std::thread::yield_now();
                    } else {
                        let wait = std::time::Duration::from_micros(stalls.min(1_000));
                        std::thread::park_timeout(wait);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FlexError::Transport(format!("write: {e}"))),
            }
        }
        self.tx_counters.add(msg.category(), frame.len() as u64);
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<(Header, FlexranMessage)>> {
        // A frame already buffered (several arrive per read under load)
        // is served without touching the socket.
        if !self.decoder.has_frame() {
            self.fill_from_socket()?;
        }
        let Some(frame) = self.decoder.next_frame()? else {
            // Once the peer has closed, no further bytes can ever arrive,
            // so surface an error whether the decoder is empty or holds a
            // truncated frame — returning `Ok(None)` with leftover bytes
            // would make the owner poll silence forever.
            if self.peer_closed {
                let truncated = self.decoder.buffered();
                return Err(FlexError::Transport(if truncated == 0 {
                    "connection closed by peer".into()
                } else {
                    format!("connection closed by peer mid-frame ({truncated} bytes truncated)")
                }));
            }
            return Ok(None);
        };
        let (header, msg) = FlexranMessage::decode(frame)?;
        self.rx_counters
            .add(msg.category(), frame.len() as u64 + FRAME_OVERHEAD_BYTES);
        Ok(Some((header, msg)))
    }

    fn tx_counters(&self) -> ByteCounters {
        self.tx_counters
    }

    fn rx_counters(&self) -> ByteCounters {
        self.rx_counters
    }
}

// ----------------------------------------------------------------------
// Reconnecting TCP transport
// ----------------------------------------------------------------------

/// Reconnect backoff schedule: exponential growth from `initial_ms` to
/// `max_ms`, with a deterministic ±`jitter_frac` spread so a fleet of
/// agents redialling a restarted master does not stampede in lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// Delay before the first redial attempt (milliseconds).
    pub initial_ms: u64,
    /// Ceiling on the delay between attempts (milliseconds).
    pub max_ms: u64,
    /// Growth factor applied after each failed attempt.
    pub multiplier: f64,
    /// Jitter as a fraction of the delay (0.2 → delay × [0.8, 1.2)).
    pub jitter_frac: f64,
    /// Seed for the jitter stream — same seed, same schedule.
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            initial_ms: 50,
            max_ms: 5_000,
            multiplier: 2.0,
            jitter_frac: 0.2,
            seed: 1,
        }
    }
}

/// A [`TcpTransport`] that redials on connection loss.
///
/// Any socket-level failure (refused connect, peer close, reset) drops
/// the current connection, folds its byte counters into the lifetime
/// totals, and schedules a reconnect per [`BackoffConfig`]. While
/// disconnected, [`Transport::try_recv`] returns `Ok(None)` and
/// [`Transport::send`] returns a transport error — the caller's liveness
/// machinery (not the transport) decides what the outage means.
pub struct ReconnectingTcpTransport {
    addr: String,
    backoff: BackoffConfig,
    inner: Option<TcpTransport>,
    /// Counters from connections that have already died.
    closed_tx: ByteCounters,
    closed_rx: ByteCounters,
    delay_ms: u64,
    next_attempt: std::time::Instant,
    reconnects: u64,
    ever_connected: bool,
    rng: u64,
}

impl ReconnectingTcpTransport {
    /// Create the endpoint and attempt an immediate first connect. A
    /// refused first dial is not an error — the transport starts in the
    /// disconnected state and retries on the backoff schedule.
    pub fn connect(addr: impl Into<String>, backoff: BackoffConfig) -> Self {
        let mut t = ReconnectingTcpTransport {
            addr: addr.into(),
            backoff,
            inner: None,
            closed_tx: ByteCounters::new(),
            closed_rx: ByteCounters::new(),
            delay_ms: backoff.initial_ms,
            // Redial pacing is real-time by nature; deterministic runs
            // use the sim-link transport instead of this one.
            // lint:allow(wall-clock)
            next_attempt: std::time::Instant::now(),
            reconnects: 0,
            ever_connected: false,
            rng: backoff.seed.max(1),
        };
        t.try_reconnect();
        t
    }

    /// Whether a live connection currently exists.
    pub fn is_connected(&self) -> bool {
        self.inner.is_some()
    }

    /// Successful redials after the initial connect.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The delay the next failed attempt would schedule (milliseconds).
    pub fn current_backoff_ms(&self) -> u64 {
        self.delay_ms
    }

    fn next_jitter(&mut self) -> f64 {
        // xorshift64 — proto carries no RNG dependency, and the jitter
        // stream must be reproducible from the seed.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    fn drop_connection(&mut self) {
        if let Some(inner) = self.inner.take() {
            self.closed_tx.merge(&inner.tx_counters());
            self.closed_rx.merge(&inner.rx_counters());
        }
        self.schedule_retry();
    }

    fn schedule_retry(&mut self) {
        let jitter = 1.0 + self.backoff.jitter_frac * (2.0 * self.next_jitter() - 1.0);
        let wait_ms = (self.delay_ms as f64 * jitter).max(0.0) as u64;
        // lint:allow(wall-clock) — backoff windows are real-time spans.
        self.next_attempt = std::time::Instant::now() + std::time::Duration::from_millis(wait_ms);
        self.delay_ms = ((self.delay_ms as f64 * self.backoff.multiplier) as u64)
            .clamp(self.backoff.initial_ms.max(1), self.backoff.max_ms.max(1));
    }

    /// Attempt a redial if disconnected and the backoff window has
    /// elapsed. Returns whether a connection now exists.
    fn try_reconnect(&mut self) -> bool {
        if self.inner.is_some() {
            return true;
        }
        // lint:allow(wall-clock) — compares against the real-time window.
        if std::time::Instant::now() < self.next_attempt {
            return false;
        }
        match TcpTransport::connect(&self.addr) {
            Ok(t) => {
                self.inner = Some(t);
                self.delay_ms = self.backoff.initial_ms;
                if self.ever_connected {
                    self.reconnects += 1;
                }
                self.ever_connected = true;
                true
            }
            Err(_) => {
                self.schedule_retry();
                false
            }
        }
    }
}

impl Transport for ReconnectingTcpTransport {
    fn send(&mut self, header: Header, msg: &FlexranMessage) -> Result<()> {
        // `try_reconnect() == true` guarantees `inner` is populated, but
        // propagate the disconnected error rather than panic regardless.
        let Some(inner) = (if self.try_reconnect() {
            self.inner.as_mut()
        } else {
            None
        }) else {
            return Err(FlexError::Transport(format!(
                "disconnected from {} (redialling)",
                self.addr
            )));
        };
        match inner.send(header, msg) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.drop_connection();
                Err(e)
            }
        }
    }

    fn try_recv(&mut self) -> Result<Option<(Header, FlexranMessage)>> {
        if !self.try_reconnect() {
            return Ok(None);
        }
        let Some(inner) = self.inner.as_mut() else {
            return Ok(None);
        };
        match inner.try_recv() {
            Ok(m) => Ok(m),
            Err(_) => {
                // Peer close / reset: become silent and redial, rather
                // than surfacing a fatal error to the polling loop.
                self.drop_connection();
                Ok(None)
            }
        }
    }

    fn tx_counters(&self) -> ByteCounters {
        let mut total = self.closed_tx;
        if let Some(inner) = &self.inner {
            total.merge(&inner.tx_counters());
        }
        total
    }

    fn rx_counters(&self) -> ByteCounters {
        let mut total = self.closed_rx;
        if let Some(inner) = &self.inner {
            total.merge(&inner.rx_counters());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::MessageCategory;
    use crate::messages::{Echo, Hello};
    use flexran_types::ids::EnbId;

    fn hello(n: u32) -> FlexranMessage {
        FlexranMessage::Hello(Hello {
            enb_id: EnbId(n),
            n_cells: 1,
            capabilities: vec![],
            applied_config: 0,
        })
    }

    #[test]
    fn channel_pair_roundtrip_and_counters() {
        let (mut a, mut b) = channel_pair();
        assert!(b.try_recv().unwrap().is_none());
        a.send(Header::with_xid(5), &hello(1)).unwrap();
        a.send(Header::with_xid(6), &hello(2)).unwrap();
        let (h, m) = b.try_recv().unwrap().unwrap();
        assert_eq!(h.xid, 5);
        assert_eq!(m, hello(1));
        let (h, _) = b.try_recv().unwrap().unwrap();
        assert_eq!(h.xid, 6);
        assert!(b.try_recv().unwrap().is_none());
        assert_eq!(
            a.tx_counters().messages(MessageCategory::AgentManagement),
            2
        );
        assert_eq!(
            b.rx_counters().bytes(MessageCategory::AgentManagement),
            a.tx_counters().bytes(MessageCategory::AgentManagement)
        );
    }

    #[test]
    fn channel_detects_dropped_peer() {
        let (mut a, b) = channel_pair();
        drop(b);
        assert!(a.send(Header::default(), &hello(1)).is_err());
    }

    #[test]
    fn tcp_roundtrip_localhost() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            // Echo whatever arrives, then wait for the big message.
            let mut got = Vec::new();
            while got.len() < 2 {
                if let Some((h, m)) = t.try_recv().unwrap() {
                    t.send(h, &m).unwrap();
                    got.push(m.kind());
                }
                std::thread::yield_now();
            }
            got
        });

        let mut c = TcpTransport::connect(&addr.to_string()).unwrap();
        c.send(Header::with_xid(1), &hello(42)).unwrap();
        // A larger frame exercising partial reads.
        let big = FlexranMessage::EchoRequest(Echo {
            timestamp_us: 1,
            payload: vec![7u8; 100_000],
        });
        c.send(Header::with_xid(2), &big).unwrap();

        let mut echoed = Vec::new();
        while echoed.len() < 2 {
            if let Some((_, m)) = c.try_recv().unwrap() {
                echoed.push(m);
            }
            std::thread::yield_now();
        }
        assert_eq!(echoed[0], hello(42));
        assert_eq!(echoed[1], big);
        assert_eq!(server.join().unwrap(), vec!["hello", "echo-request"]);
        assert!(c.tx_counters().total_bytes() > 100_000);
    }

    fn fast_backoff() -> BackoffConfig {
        BackoffConfig {
            initial_ms: 1,
            max_ms: 10,
            multiplier: 2.0,
            jitter_frac: 0.2,
            seed: 7,
        }
    }

    #[test]
    fn reconnecting_transport_survives_master_restart() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let mut c = ReconnectingTcpTransport::connect(addr.to_string(), fast_backoff());
        assert!(c.is_connected());
        assert_eq!(c.reconnects(), 0);

        // First master incarnation: echo one message, then die.
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::from_stream(stream).unwrap();
        c.send(Header::with_xid(1), &hello(1)).unwrap();
        loop {
            if let Some((h, m)) = server.try_recv().unwrap() {
                server.send(h, &m).unwrap();
                break;
            }
            std::thread::yield_now();
        }
        let echoed = loop {
            if let Some((_, m)) = c.try_recv().unwrap() {
                break m;
            }
            std::thread::yield_now();
        };
        assert_eq!(echoed, hello(1));
        let bytes_before_crash = c.tx_counters().total_bytes();
        drop(server);
        drop(listener);

        // The outage is silence, not an error; sends fail softly.
        let dead = std::time::Instant::now();
        while c.is_connected() {
            assert!(c.try_recv().unwrap().is_none());
            assert!(dead.elapsed() < std::time::Duration::from_secs(5));
        }
        assert!(c.send(Header::default(), &hello(2)).is_err());

        // Master restarts on the same port (retry the bind: the OS may
        // not release it instantly).
        let listener = loop {
            match std::net::TcpListener::bind(addr) {
                Ok(l) => break l,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        };
        let redialled = std::time::Instant::now();
        loop {
            let _ = c.try_recv().unwrap(); // drives the redial
            if c.is_connected() {
                break;
            }
            assert!(
                redialled.elapsed() < std::time::Duration::from_secs(10),
                "redial never succeeded"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(c.reconnects(), 1);
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::from_stream(stream).unwrap();

        // Traffic flows again and lifetime counters span both epochs.
        c.send(Header::with_xid(2), &hello(3)).unwrap();
        let got = loop {
            if let Some((_, m)) = server.try_recv().unwrap() {
                break m;
            }
            std::thread::yield_now();
        };
        assert_eq!(got, hello(3));
        assert!(c.tx_counters().total_bytes() > bytes_before_crash);
        assert_eq!(
            c.tx_counters().messages(MessageCategory::AgentManagement),
            2,
            "counters accumulate across connection epochs"
        );
    }

    #[test]
    fn backoff_schedule_grows_and_caps() {
        // Nothing listens on a reserved-then-closed port: every dial fails.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut c = ReconnectingTcpTransport::connect(
            addr.to_string(),
            BackoffConfig {
                initial_ms: 4,
                max_ms: 32,
                multiplier: 2.0,
                jitter_frac: 0.0,
                seed: 1,
            },
        );
        assert!(!c.is_connected());
        // The failed initial dial already doubled the delay once.
        let mut seen = vec![c.current_backoff_ms()];
        for _ in 0..5 {
            // Force the next attempt immediately regardless of wall clock.
            c.next_attempt = std::time::Instant::now();
            let _ = c.try_recv().unwrap();
            seen.push(c.current_backoff_ms());
        }
        assert_eq!(seen, vec![8, 16, 32, 32, 32, 32], "doubles then caps");
    }

    #[test]
    fn jitter_stream_is_deterministic() {
        let mk = || ReconnectingTcpTransport {
            addr: "127.0.0.1:1".into(),
            backoff: BackoffConfig::default(),
            inner: None,
            closed_tx: ByteCounters::new(),
            closed_rx: ByteCounters::new(),
            delay_ms: 50,
            next_attempt: std::time::Instant::now(),
            reconnects: 0,
            ever_connected: false,
            rng: 42,
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..100 {
            let (ja, jb) = (a.next_jitter(), b.next_jitter());
            assert_eq!(ja, jb);
            assert!((0.0..1.0).contains(&ja));
        }
    }

    #[test]
    fn back_to_back_frames_take_one_socket_read() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut c = TcpTransport::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        let mut server = TcpTransport::from_stream(listener.accept().unwrap().0).unwrap();
        server.send(Header::with_xid(1), &hello(1)).unwrap();
        server.send(Header::with_xid(2), &hello(2)).unwrap();
        // Wait until both frames sit in the client's receive buffer.
        let sent = server.tx_counters().total_bytes() as usize;
        let mut peek = vec![0u8; 2 * sent];
        while !matches!(c.stream.peek(&mut peek), Ok(n) if n >= sent) {
            std::thread::yield_now();
        }
        let (h1, m1) = c.try_recv().unwrap().unwrap();
        let (h2, m2) = c.try_recv().unwrap().unwrap();
        assert_eq!((h1.xid, m1, h2.xid, m2), (1, hello(1), 2, hello(2)));
        assert_eq!(c.socket_reads(), 1, "one short read took both frames");
    }

    #[test]
    fn tcp_peer_close_is_an_error_after_drain() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            t.send(Header::default(), &hello(9)).unwrap();
            // Drop: closes the socket.
        });
        let mut c = TcpTransport::connect(&addr.to_string()).unwrap();
        t.join().unwrap();
        // First the buffered message arrives...
        let msg = loop {
            if let Some((_, m)) = c.try_recv().unwrap() {
                break m;
            }
            std::thread::yield_now();
        };
        assert_eq!(msg, hello(9));
        // ...then the close surfaces as a transport error.
        let err = loop {
            match c.try_recv() {
                Ok(Some(_)) => panic!("no more messages expected"),
                Ok(None) => std::thread::yield_now(),
                Err(e) => break e,
            }
        };
        assert_eq!(err.category(), "transport");
    }

    #[test]
    fn tcp_peer_close_mid_frame_is_an_error() {
        // Regression: a peer dying after delivering only part of a frame
        // used to leave `try_recv` returning `Ok(None)` forever — the
        // decoder held the truncated bytes, `buffered() != 0` suppressed
        // the close error, and the owner polled silence for eternity.
        use std::io::Write as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Announce an 8-byte frame, deliver 3 payload bytes, die.
            stream.write_all(&8u32.to_be_bytes()).unwrap();
            stream.write_all(&[1, 2, 3]).unwrap();
        });
        let mut c = TcpTransport::connect(&addr.to_string()).unwrap();
        t.join().unwrap();
        let err = loop {
            match c.try_recv() {
                Ok(Some(_)) => panic!("truncated frame must not decode"),
                Ok(None) => std::thread::yield_now(),
                Err(e) => break e,
            }
        };
        assert_eq!(err.category(), "transport");
        assert!(
            err.to_string().contains("truncated"),
            "error should say bytes were truncated: {err}"
        );
    }
}
