//! The master signs what the agent verifies: on arbitrary VSF pushes, the
//! signature a `MasterController::push_vsf(.., sign = true)` puts on the
//! wire equals the agent's own `sign_push`, byte for byte, and verifies.

use proptest::prelude::*;

use flexran_agent::{sign_push, verify_push};
use flexran_controller::master::{MasterController, TaskManagerConfig};
use flexran_proto::messages::{FlexranMessage, Header, Hello, VsfArtifact, VsfPush};
use flexran_proto::transport::{channel_pair, Transport};
use flexran_types::ids::EnbId;
use flexran_types::time::Tti;

/// The signed push as it arrives at the agent end of the link.
fn master_signed(push: &VsfPush) -> VsfPush {
    let mut master = MasterController::new(TaskManagerConfig::default());
    let (mut agent_side, master_side) = channel_pair();
    master.add_agent(Box::new(master_side));
    agent_side
        .send(
            Header::default(),
            &FlexranMessage::Hello(Hello {
                enb_id: EnbId(1),
                n_cells: 1,
                capabilities: vec![],
                applied_config: 0,
            }),
        )
        .expect("channel send");
    master.run_cycle(Tti(0));
    master
        .push_vsf(EnbId(1), push.clone(), true)
        .expect("session exists after hello");
    loop {
        match agent_side.try_recv().expect("channel recv") {
            Some((_, FlexranMessage::VsfPush(p))) => return p,
            Some(_) => continue,
            None => panic!("the master sent no VsfPush"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn master_signature_equals_agent_signature(
        module in "\\PC{0,12}",
        vsf in "\\PC{0,20}",
        name in "\\PC{0,12}",
        is_dsl in any::<bool>(),
        body in "\\PC{0,60}",
        stale in proptest::collection::vec(any::<u8>(), 0..10),
    ) {
        let artifact = if is_dsl {
            VsfArtifact::Dsl { source: body }
        } else {
            VsfArtifact::Registry { key: body }
        };
        // A stale signature on the way in must be replaced, not kept.
        let push = VsfPush { module, vsf, name, artifact, signature: stale };
        let mut expect = push.clone();
        sign_push(&mut expect);
        let got = master_signed(&push);
        prop_assert_eq!(&got.signature, &expect.signature);
        prop_assert!(verify_push(&got).is_ok());
    }
}
