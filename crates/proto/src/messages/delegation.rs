//! Control-delegation messages: VSF updation and policy reconfiguration
//! (paper §4.3.1).
//!
//! A [`VsfPush`] carries new behaviour for one `(control module, VSF)`
//! pair. In the paper the payload is a shared library compiled for the
//! agent's architecture; here the artifact is either a *registry
//! reference* (modelling a signed, pre-compiled library the agent resolves
//! locally — see `DESIGN.md` substitutions) or a *DSL program* the agent
//! compiles with its built-in scheduling-policy interpreter (realizing the
//! paper's §7.3 future-work item of a technology-agnostic VSF language).
//!
//! A [`PolicyReconfiguration`] carries the YAML-subset document of Fig. 3:
//! per control module, a `behavior:` (which cached VSF implementation to
//! link to the CMI call) and `parameters:` (runtime-tunable values of the
//! active VSF).

use flexran_types::hash::Fnv1a;
use flexran_types::Result;

use crate::wire::{WireReader, WireWriter};

/// The payload of a VSF push.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VsfArtifact {
    /// Resolve `key` against the agent's registry of pre-compiled,
    /// signature-checked implementations.
    Registry { key: String },
    /// Compile `source` with the agent's scheduling-policy DSL.
    Dsl { source: String },
}

impl Default for VsfArtifact {
    fn default() -> Self {
        VsfArtifact::Registry { key: String::new() }
    }
}

/// Push a new VSF implementation into an agent-side control module's
/// cache. The implementation becomes *available*; activating it requires
/// a policy reconfiguration (`behavior:`) — exactly the paper's two-step
/// mechanism that lets the master pre-stage implementations and swap them
/// at runtime with ~100 ns latency.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VsfPush {
    /// Control module name (`"mac"`, `"rrc"`, `"pdcp"`).
    pub module: String,
    /// VSF slot within the module (e.g. `"dl_ue_scheduler"`).
    pub vsf: String,
    /// Cache name under which the implementation is stored.
    pub name: String,
    pub artifact: VsfArtifact,
    /// Detached signature over the artifact (the trusted-authority code
    /// signing of paper §4.3.1; agents reject pushes failing verification).
    pub signature: Vec<u8>,
}

impl VsfPush {
    /// The keyed FNV-1a signature over (module, vsf, name, artifact kind,
    /// artifact); it travels as its big-endian bytes in `signature`.
    pub fn compute_signature(&self) -> u64 {
        let mut h = Fnv1a::keyed(super::SIGNING_KEY);
        for field in [&self.module, &self.vsf, &self.name] {
            h.write(field.as_bytes());
            h.write(&[0]);
        }
        match &self.artifact {
            VsfArtifact::Registry { key } => {
                h.write(&[0]);
                h.write(key.as_bytes());
            }
            VsfArtifact::Dsl { source } => {
                h.write(&[1]);
                h.write(source.as_bytes());
            }
        }
        h.finish()
    }

    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.string(1, &self.module);
        w.string(2, &self.vsf);
        w.string(3, &self.name);
        match &self.artifact {
            VsfArtifact::Registry { key } => {
                w.uint(4, 0);
                w.string(5, key);
            }
            VsfArtifact::Dsl { source } => {
                w.uint(4, 1);
                w.string(6, source);
            }
        }
        w.bytes_field(7, &self.signature);
    }

    pub(crate) fn decode(data: &[u8]) -> Result<VsfPush> {
        let mut m = VsfPush::default();
        let mut kind = 0u64;
        let mut key = String::new();
        let mut source = String::new();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.module = v.as_str()?.to_string(),
                2 => m.vsf = v.as_str()?.to_string(),
                3 => m.name = v.as_str()?.to_string(),
                4 => kind = v.as_u64()?,
                5 => key = v.as_str()?.to_string(),
                6 => source = v.as_str()?.to_string(),
                7 => m.signature = v.as_bytes()?.to_vec(),
                _ => {}
            }
        }
        m.artifact = if kind == 1 {
            VsfArtifact::Dsl { source }
        } else {
            VsfArtifact::Registry { key }
        };
        Ok(m)
    }
}

/// A policy reconfiguration document (YAML subset, Fig. 3 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicyReconfiguration {
    pub yaml: String,
}

impl PolicyReconfiguration {
    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.string(1, &self.yaml);
    }

    pub(crate) fn decode(data: &[u8]) -> Result<PolicyReconfiguration> {
        let mut m = PolicyReconfiguration::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            if f == 1 {
                m.yaml = v.as_str()?.to_string();
            }
        }
        Ok(m)
    }
}

/// Acknowledgement for a delegation operation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DelegationAck {
    /// xid of the request being acknowledged.
    pub xid: u32,
    pub ok: bool,
    pub error: String,
}

impl DelegationAck {
    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.xid as u64);
        w.uint(2, self.ok as u64);
        w.string(3, &self.error);
    }

    pub(crate) fn decode(data: &[u8]) -> Result<DelegationAck> {
        let mut m = DelegationAck::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.xid = v.as_u32()?,
                2 => m.ok = v.as_u64()? != 0,
                3 => m.error = v.as_str()?.to_string(),
                _ => {}
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{FlexranMessage, Header};

    #[test]
    fn registry_push_roundtrip() {
        let msg = FlexranMessage::VsfPush(VsfPush {
            module: "mac".into(),
            vsf: "dl_ue_scheduler".into(),
            name: "local-pf".into(),
            artifact: VsfArtifact::Registry {
                key: "proportional-fair".into(),
            },
            signature: vec![0xAB; 32],
        });
        let (_, got) = FlexranMessage::decode(&msg.encode(Header::with_xid(7))).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn dsl_push_roundtrip() {
        let msg = FlexranMessage::VsfPush(VsfPush {
            module: "mac".into(),
            vsf: "dl_ue_scheduler".into(),
            name: "weighted".into(),
            artifact: VsfArtifact::Dsl {
                source: "priority = rate / avg_rate ^ 0.5".into(),
            },
            signature: vec![1, 2, 3],
        });
        let (_, got) = FlexranMessage::decode(&msg.encode(Header::default())).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn policy_reconfiguration_roundtrip() {
        let yaml = "mac:\n  dl_ue_scheduler:\n    behavior: local-pf\n    parameters:\n      fairness_exponent: 0.7\n";
        let msg =
            FlexranMessage::PolicyReconfiguration(PolicyReconfiguration { yaml: yaml.into() });
        let (_, got) = FlexranMessage::decode(&msg.encode(Header::default())).unwrap();
        let FlexranMessage::PolicyReconfiguration(p) = got else {
            panic!("wrong variant");
        };
        assert_eq!(p.yaml, yaml);
    }

    #[test]
    fn ack_roundtrip_including_failure() {
        let msg = FlexranMessage::DelegationAck(DelegationAck {
            xid: 9,
            ok: false,
            error: "signature rejected".into(),
        });
        let (_, got) = FlexranMessage::decode(&msg.encode(Header::default())).unwrap();
        assert_eq!(got, msg);
    }
}
