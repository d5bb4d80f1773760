#![deny(unsafe_code)]
//! # flexran-proto
//!
//! The FlexRAN protocol: the southbound control channel between the master
//! controller and the agents (paper §4.3.2).
//!
//! * [`wire`] — Protocol Buffers wire format, implemented from scratch
//!   (varints, ZigZag, tag/length framing, packed repeated fields), so
//!   serialized message sizes match what the paper's protobuf-based
//!   implementation puts on the wire.
//! * [`messages`] — the message set, organized by the Agent API call
//!   types of paper Table 1 (configuration, statistics, commands,
//!   event triggers, control delegation) plus session management and the
//!   per-TTI subframe sync.
//! * [`inline`] — fixed-capacity inline storage for a UE report's
//!   repeated fields (no heap on the statistics path).
//! * [`frame`] — length-delimited framing for stream transports.
//! * [`transport`] — the async channel abstraction with TCP and
//!   in-process implementations (the virtual-time implementation lives in
//!   `flexran-sim`).
//! * [`category`] — per-category byte accounting (the Fig. 7 series).

pub mod category;
pub mod frame;
pub mod inline;
pub mod messages;
pub mod transport;
pub mod wire;

pub use category::{ByteCounters, MessageCategory};
pub use messages::{
    AbsCommand, CellReport, ConfigReply, ConfigRequest, DelegationAck, DlSchedulingCommand,
    DrxCommand, EventNotification, FlexranMessage, HandoverCommand, Header, PolicyReconfiguration,
    ReportConfig, ReportFlags, ReportType, ResyncRequest, StatsReply, StatsRequest,
    SubframeTrigger, UeReport, UlSchedulingCommand, VsfArtifact, VsfPush, PROTOCOL_VERSION,
};
pub use transport::{
    channel_pair, BackoffConfig, ChannelTransport, ReconnectingTcpTransport, TcpTransport,
    Transport,
};
