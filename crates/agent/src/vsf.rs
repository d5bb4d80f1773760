//! Virtual Subsystem Functions: the cache, the registry and code signing.
//!
//! The paper's VSF-updation mechanism pushes compiled shared libraries to
//! the agent, stores them "in a cache memory at the agent-side", and lets
//! the master "swap \[them\] at runtime" — measured at ~103 ns per swap
//! (§5.4). [`VsfSlot`] is that cache: named implementations per CMI slot,
//! with activation being a name lookup (the criterion bench
//! `vsf_swap` reproduces the swap-latency measurement).
//!
//! Pushed artifacts are verified against a trusted-authority signature
//! before entering the cache (§4.3.1's code-signing requirement); the
//! signature is [`VsfPush::compute_signature`], an HMAC-style keyed
//! FNV-1a over the artifact — a stand-in with the same accept/reject
//! semantics.

use std::collections::BTreeMap;

use flexran_proto::messages::delegation::VsfPush;
use flexran_stack::mac::scheduler::{DlScheduler, UlScheduler};
use flexran_types::{FlexError, Result};

use crate::cmi::HandoverVsf;

/// A named cache of implementations for one CMI slot, with one active.
pub struct VsfSlot<T: ?Sized> {
    cache: BTreeMap<String, Box<T>>,
    active: Option<String>,
    /// Swap counter (observability).
    pub swaps: u64,
}

impl<T: ?Sized> Default for VsfSlot<T> {
    fn default() -> Self {
        VsfSlot {
            cache: BTreeMap::new(),
            active: None,
            swaps: 0,
        }
    }
}

impl<T: ?Sized> VsfSlot<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Store an implementation under `name` (replacing any previous one
    /// with that name; an active implementation stays active through a
    /// same-name replacement).
    pub fn insert(&mut self, name: impl Into<String>, imp: Box<T>) {
        self.cache.insert(name.into(), imp);
    }

    /// Make `name` the active implementation. This is the runtime swap:
    /// a map lookup plus a small string clone — nanoseconds.
    pub fn activate(&mut self, name: &str) -> Result<()> {
        if !self.cache.contains_key(name) {
            return Err(FlexError::NotFound(format!(
                "VSF '{name}' not in cache (available: {:?})",
                self.cache.keys().collect::<Vec<_>>()
            )));
        }
        self.active = Some(name.to_string());
        self.swaps += 1;
        Ok(())
    }

    /// Name of the active implementation.
    pub fn active_name(&self) -> Option<&str> {
        self.active.as_deref()
    }

    /// Whether `name` is in the cache (validate-before-swap checks).
    pub fn contains(&self, name: &str) -> bool {
        self.cache.contains_key(name)
    }

    /// The active implementation, if any.
    pub fn active_mut(&mut self) -> Option<&mut T> {
        let name = self.active.as_ref()?;
        self.cache.get_mut(name).map(|b| &mut **b)
    }

    /// A specific cached implementation.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut T> {
        self.cache.get_mut(name).map(|b| &mut **b)
    }

    pub fn names(&self) -> Vec<&str> {
        self.cache.keys().map(|s| s.as_str()).collect()
    }

    pub fn len(&self) -> usize {
        self.cache.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

/// A concrete VSF implementation, typed by the CMI slot it fills.
pub enum VsfImpl {
    DlScheduler(Box<dyn DlScheduler>),
    UlScheduler(Box<dyn UlScheduler>),
    Handover(Box<dyn HandoverVsf>),
}

impl VsfImpl {
    pub fn kind(&self) -> &'static str {
        match self {
            VsfImpl::DlScheduler(_) => "dl-scheduler",
            VsfImpl::UlScheduler(_) => "ul-scheduler",
            VsfImpl::Handover(_) => "handover",
        }
    }
}

type Factory = Box<dyn Fn() -> VsfImpl + Send + Sync>;

/// The registry of pre-compiled, signable VSF implementations — the model
/// of the paper's "online VSF store" of certified shared libraries.
pub struct VsfRegistry {
    factories: BTreeMap<String, Factory>,
}

impl VsfRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        VsfRegistry {
            factories: BTreeMap::new(),
        }
    }

    /// The registry with the data plane's baseline schedulers plus the
    /// remote stub (a scheduler that emits nothing locally because the
    /// decisions arrive from the master over the FlexRAN protocol).
    pub fn with_builtins() -> Self {
        use flexran_stack::mac::scheduler::{
            MaxCqiScheduler, ProportionalFairScheduler, RoundRobinScheduler, UlRoundRobinScheduler,
        };
        let mut r = Self::new();
        r.register("round-robin", || {
            VsfImpl::DlScheduler(Box::new(RoundRobinScheduler::new()))
        });
        r.register("proportional-fair", || {
            VsfImpl::DlScheduler(Box::new(ProportionalFairScheduler::new()))
        });
        r.register("max-cqi", || {
            VsfImpl::DlScheduler(Box::new(MaxCqiScheduler::new()))
        });
        r.register("remote-stub", || {
            VsfImpl::DlScheduler(Box::new(RemoteStubScheduler))
        });
        r.register("ul-round-robin", || {
            VsfImpl::UlScheduler(Box::new(UlRoundRobinScheduler::new()))
        });
        r.register("a3-handover", || {
            VsfImpl::Handover(Box::new(crate::cmi::A3HandoverVsf::default()))
        });
        r
    }

    /// Register a factory under `key`.
    pub fn register(
        &mut self,
        key: impl Into<String>,
        factory: impl Fn() -> VsfImpl + Send + Sync + 'static,
    ) {
        self.factories.insert(key.into(), Box::new(factory));
    }

    /// Instantiate the implementation registered under `key`.
    pub fn instantiate(&self, key: &str) -> Result<VsfImpl> {
        self.factories
            .get(key)
            .map(|f| f())
            .ok_or_else(|| FlexError::Delegation(format!("no registry entry '{key}'")))
    }

    pub fn keys(&self) -> Vec<&str> {
        self.factories.keys().map(|s| s.as_str()).collect()
    }
}

impl Default for VsfRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

/// The remote stub: emits no local decisions — the master's centralized
/// scheduler drives the cell through DlSchedulingCommand messages.
#[derive(Debug, Default)]
pub struct RemoteStubScheduler;

impl DlScheduler for RemoteStubScheduler {
    fn name(&self) -> &str {
        "remote-stub"
    }

    fn schedule_dl_into(
        &mut self,
        _input: &flexran_stack::mac::scheduler::DlSchedulerInput,
        out: &mut flexran_stack::mac::scheduler::DlSchedulerOutput,
    ) {
        out.dcis.clear();
    }
}

// ----------------------------------------------------------------------
// Code signing
// ----------------------------------------------------------------------

/// Sign a push (the trusted authority / master side).
pub fn sign_push(push: &mut VsfPush) {
    push.signature = push.compute_signature().to_be_bytes().to_vec();
}

/// Verify a push's signature (the agent side).
pub fn verify_push(push: &VsfPush) -> Result<()> {
    if push.signature == push.compute_signature().to_be_bytes() {
        Ok(())
    } else {
        Err(FlexError::Delegation(format!(
            "signature verification failed for VSF '{}' ({}/{})",
            push.name, push.module, push.vsf
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexran_proto::messages::delegation::VsfArtifact;

    #[test]
    fn slot_insert_activate_swap() {
        let mut slot: VsfSlot<dyn DlScheduler> = VsfSlot::new();
        assert!(slot.active_mut().is_none());
        slot.insert(
            "rr",
            Box::new(flexran_stack::mac::scheduler::RoundRobinScheduler::new()),
        );
        slot.insert(
            "pf",
            Box::new(flexran_stack::mac::scheduler::ProportionalFairScheduler::new()),
        );
        assert!(slot.activate("missing").is_err());
        slot.activate("rr").unwrap();
        assert_eq!(slot.active_mut().unwrap().name(), "round-robin");
        slot.activate("pf").unwrap();
        assert_eq!(slot.active_mut().unwrap().name(), "proportional-fair");
        assert_eq!(slot.swaps, 2);
        assert_eq!(slot.names(), vec!["pf", "rr"]);
    }

    #[test]
    fn registry_builtins_instantiate() {
        let r = VsfRegistry::with_builtins();
        for key in ["round-robin", "proportional-fair", "max-cqi", "remote-stub"] {
            let imp = r.instantiate(key).unwrap();
            assert_eq!(imp.kind(), "dl-scheduler", "{key}");
        }
        assert_eq!(
            r.instantiate("ul-round-robin").unwrap().kind(),
            "ul-scheduler"
        );
        assert!(r.instantiate("nope").is_err());
    }

    #[test]
    fn signatures_accept_genuine_and_reject_tampered() {
        let mut push = VsfPush {
            module: "mac".into(),
            vsf: "dl_ue_scheduler".into(),
            name: "pf".into(),
            artifact: VsfArtifact::Registry {
                key: "proportional-fair".into(),
            },
            signature: vec![],
        };
        sign_push(&mut push);
        verify_push(&push).unwrap();
        // Tamper with the artifact after signing.
        let mut evil = push.clone();
        evil.artifact = VsfArtifact::Registry {
            key: "max-cqi".into(),
        };
        assert!(verify_push(&evil).is_err());
        // Tamper with the signature itself.
        let mut bad_sig = push.clone();
        bad_sig.signature[0] ^= 0xFF;
        assert!(verify_push(&bad_sig).is_err());
        // Missing signature.
        let mut unsigned = push.clone();
        unsigned.signature.clear();
        assert!(verify_push(&unsigned).is_err());
    }

    #[test]
    fn remote_stub_emits_nothing() {
        use flexran_stack::mac::scheduler::DlSchedulerInput;
        use flexran_types::ids::CellId;
        use flexran_types::time::Tti;
        let mut s = RemoteStubScheduler;
        let out = s.schedule_dl(&DlSchedulerInput {
            cell: CellId(0),
            now: Tti(0),
            target: Tti(0),
            available_prb: 50,
            max_dcis: 10,
            ues: vec![],
            retx: vec![],
        });
        assert!(out.dcis.is_empty());
    }
}
