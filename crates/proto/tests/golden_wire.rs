//! Golden wire-format snapshot.
//!
//! The FlexRAN protocol's value rests on a *stable* wire format: the
//! signalling-overhead experiment (paper Fig. 7) measures exact encoded
//! sizes, and mixed-version master/agent deployments rely on protobuf
//! field-number compatibility. This test freezes the bytes of one
//! representative message per category; any encoder change that moves a
//! field number, wire type or encoding detail fails here and must be a
//! deliberate, reviewed protocol revision (update the hex only then).
//!
//! Protocol revision: every envelope now ends in a five-byte integrity
//! trailer (envelope field 2, fixed32 CRC-32 of the preceding bytes), so
//! corrupted or truncated frames are rejected at decode instead of
//! folding phantom state into the RIB.

use flexran_proto::messages::commands::DciPb;
use flexran_proto::messages::events::EventKind;
use flexran_proto::messages::{
    CellReport, ConfigBundleAck, ConfigBundlePb, ConfigBundlePush, DlSchedulingCommand,
    EventNotification, FlexranMessage, Header, Hello, ResyncRequest, StatsReply, UeReport,
};
use flexran_types::ids::EnbId;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn snapshot(msg: &FlexranMessage) -> String {
    hex(&msg.encode(Header::with_xid(7)))
}

/// Every golden message must also decode back to itself: the snapshot
/// alone would not catch the encoder and decoder drifting together in a
/// way that loses information.
fn roundtrip(msg: &FlexranMessage) {
    let bytes = msg.encode(Header::with_xid(7));
    let (header, decoded) = FlexranMessage::decode(&bytes).expect("golden bytes decode");
    assert_eq!(header.xid, 7);
    assert_eq!(&decoded, msg);
}

#[test]
fn hello_snapshot() {
    let msg = FlexranMessage::Hello(Hello {
        enb_id: EnbId(42),
        n_cells: 2,
        capabilities: vec!["dl_scheduling".into(), "handover".into()],
        applied_config: 0,
    });
    roundtrip(&msg);
    // `applied_config` (field 4) is skip-if-zero, so a pre-rollout Hello
    // still encodes to the historical bytes.
    assert_eq!(
        snapshot(&msg),
        "0a0408011007521d082a10021a0d646c5f7363686564756c696e671a0868616e646f766572151cc70442"
    );
}

#[test]
fn config_bundle_push_snapshot() {
    // Added for the fleet config rollout: envelope field 31. New message —
    // existing field numbers are untouched.
    let msg = FlexranMessage::ConfigBundlePush(ConfigBundlePush {
        enb_id: EnbId(4),
        bundle: ConfigBundlePb {
            version: 3,
            policy_yaml: "mac:\n".into(),
            vsf_key: "max-cqi".into(),
            scheduler: "max-cqi".into(),
            signature: 0x1122334455667788,
        },
    });
    roundtrip(&msg);
    assert_eq!(
        snapshot(&msg),
        "0a0408011007fa012908041225080312056d61633a0a1a076d61782d6371692207\
         6d61782d6371692888ef99abc5e88c9111150cbefe2f"
    );
}

#[test]
fn config_bundle_ack_snapshot() {
    // Added for the fleet config rollout: envelope field 32.
    let msg = FlexranMessage::ConfigBundleAck(ConfigBundleAck {
        enb_id: EnbId(4),
        version: 3,
        signature: 0x1122334455667788,
        ok: true,
        error: String::new(),
    });
    roundtrip(&msg);
    assert_eq!(
        snapshot(&msg),
        "0a0408011007820210080410031888ef99abc5e88c91112001150b09d325"
    );
}

#[test]
fn stats_reply_snapshot() {
    let msg = FlexranMessage::StatsReply(StatsReply {
        enb_id: EnbId(1),
        tti: 1000,
        cells: vec![CellReport {
            cell_id: 0,
            noise_interference_decidbm: -1043,
            dl_prbs_used_total: 50,
            ul_prbs_used_total: 12,
            active_ues: 1,
            ..CellReport::default()
        }],
        ues: vec![UeReport {
            rnti: 0x100,
            cell: 0,
            connected: true,
            wideband_cqi: 12,
            subband_cqi: [11, 12, 13].into(),
            bsr: [0, 7, 0, 0].into(),
            ..UeReport::default()
        }],
    });
    roundtrip(&msg);
    assert_eq!(snapshot(&msg), "0a04080110078a0129080110e8071a0b080110a5101832200c280122150880021001280c32030b0c0d3a0400070000800201155c793008");
}

#[test]
fn dl_scheduling_command_snapshot() {
    let msg = FlexranMessage::DlSchedulingCommand(DlSchedulingCommand {
        enb_id: EnbId(3),
        cell: 0,
        target_tti: 2048,
        dcis: vec![DciPb {
            rnti: 0x101,
            n_prb: 25,
            mcs: 16,
            harq_pid: 2,
            ndi: true,
            tpc: 1,
            dai: 0,
            vrb_format: 0,
            aggregation_level: 4,
            tbs_bits: 18336,
            rb_bitmap: 0x1ffff,
        }],
    });
    roundtrip(&msg);
    assert_eq!(
        snapshot(&msg),
        "0a04080110079a012108031001188010221808810210191810200328013001480450a08f015dffff010015c902efbe"
    );
}

#[test]
fn resync_request_snapshot() {
    // Added for master crash-recovery: envelope field 30. New message —
    // existing field numbers are untouched.
    let msg = FlexranMessage::ResyncRequest(ResyncRequest {
        enb_id: EnbId(9),
        since_tti: 500,
    });
    roundtrip(&msg);
    assert_eq!(snapshot(&msg), "0a0408011007f20105080910f40315ddd70bb4");
}

#[test]
fn event_notification_snapshot() {
    let msg = FlexranMessage::EventNotification(EventNotification {
        enb_id: EnbId(5),
        kind: EventKind::UeAttached,
        cell: 0,
        rnti: 0x102,
        ue_tag: 9,
        tti: 777,
        ..EventNotification::default()
    });
    roundtrip(&msg);
    assert_eq!(
        snapshot(&msg),
        "0a040801100792010e080510011801208202280a30890615a5fabd99"
    );
}
