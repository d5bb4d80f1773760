//! Pinned trusted-authority signatures (paper §4.3.1 code signing).
//!
//! The master signs VSF pushes and config bundles and the agent verifies
//! them, so the keyed hash behind both must never drift. These pins were
//! recorded from the signing code as first written; any change to the
//! key, the hash, the field order or the separators moves them.

use flexran_agent::{sign_push, verify_push};
use flexran_proto::messages::{ConfigBundlePb, VsfArtifact, VsfPush};

fn push(module: &str, vsf: &str, name: &str, artifact: VsfArtifact) -> VsfPush {
    VsfPush {
        module: module.into(),
        vsf: vsf.into(),
        name: name.into(),
        artifact,
        signature: vec![],
    }
}

fn registry(key: &str) -> VsfArtifact {
    VsfArtifact::Registry { key: key.into() }
}

fn dsl(source: &str) -> VsfArtifact {
    VsfArtifact::Dsl {
        source: source.into(),
    }
}

#[test]
fn vsf_push_signatures_are_pinned() {
    let cases = [
        (
            push(
                "mac",
                "dl_ue_scheduler",
                "pf",
                registry("proportional-fair"),
            ),
            0x665f_124e_b4b5_e524u64,
        ),
        (
            push("mac", "dl_ue_scheduler", "rr", registry("round-robin")),
            0xe5e8_7a1b_d1c3_fde7,
        ),
        (
            push("mac", "dl_ue_scheduler", "chaos-0", dsl("priority = cqi\n")),
            0x11b6_ea8b_1dca_0fea,
        ),
        (
            push("rrc", "handover", "a3", registry("a3-handover")),
            0xb593_a7b1_228a_c564,
        ),
        (push("", "", "", registry("")), 0x675f_e2bb_5c33_af44),
        (push("", "", "", dsl("")), 0x675f_e3bb_5c33_b0f7),
        (
            push(
                "mac",
                "dl_ue_scheduler",
                "ωμέγα",
                dsl("priority = cqi * 2 # ±½ ü\n"),
            ),
            0x51f0_5259_3e6d_8cfc,
        ),
        (
            push(
                "pdcp",
                "ul_ue_scheduler",
                "naïve",
                registry("ul-round-robin-ß"),
            ),
            0xc860_6dd3_47a5_4b75,
        ),
    ];
    let mut got = Vec::new();
    for (mut p, _) in cases.clone() {
        sign_push(&mut p);
        verify_push(&p).expect("a freshly signed push verifies");
        let sig: [u8; 8] = p.signature.as_slice().try_into().expect("8-byte signature");
        got.push(u64::from_be_bytes(sig));
    }
    let want: Vec<u64> = cases.iter().map(|(_, pin)| *pin).collect();
    assert_eq!(got, want, "VsfPush signatures moved; got {got:#018x?}");
}

#[test]
fn config_bundle_signatures_are_pinned() {
    let cases = [
        ((0u64, "", "", ""), 0x68da_d639_7414_9e24u64),
        ((1, "", "round-robin", "round-robin"), 0x679a_6f5f_db10_5743),
        (
            (2, "", "proportional-fair", "proportional-fair"),
            0xfc0d_d917_414c_5582,
        ),
        ((3, "mac:\n", "max-cqi", "max-cqi"), 0x4317_9f15_141e_74c4),
        (
            (
                u64::MAX,
                "mac:\n  dl_ue_scheduler:\n    behavior: pf\n",
                "",
                "proportional-fair",
            ),
            0xb8ba_af36_0bd0_f700,
        ),
        ((42, "ωμέγα: ±½\n", "naïve", "ß"), 0x4983_7b1f_8623_fb15),
    ];
    let mut got = Vec::new();
    for ((version, policy, vsf_key, scheduler), _) in cases {
        let b = ConfigBundlePb::signed(version, policy.into(), vsf_key.into(), scheduler.into());
        assert!(b.verify(), "a freshly signed bundle verifies");
        assert_eq!(b.signature, b.compute_signature());
        got.push(b.signature);
    }
    let want: Vec<u64> = cases.iter().map(|(_, pin)| *pin).collect();
    assert_eq!(
        got, want,
        "ConfigBundlePb signatures moved; got {got:#018x?}"
    );
}
