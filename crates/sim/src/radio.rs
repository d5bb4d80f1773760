//! The radio environment: per-UE channels wired into the data plane.
//!
//! Two modes per UE, freely mixable in one simulation:
//!
//! * **Process mode** — the UE's SINR follows a [`ChannelProcess`]
//!   (fixed CQI, square wave, trace, AR(1) fading). Used by every
//!   single-cell experiment.
//! * **Geometry mode** — the UE has a position ([`MobilityModel`]) and
//!   its SINR is computed from the [`Environment`]'s path loss against
//!   whichever cells transmit in the subframe. Used by the eICIC and
//!   mobility use cases, where cross-cell interference is the point.
//!
//! [`PhyAdapter`] implements the data plane's [`PhyView`] for one eNodeB
//! by mapping `(cell, rnti)` to the simulation-global UE and asking the
//! environment.

use std::collections::BTreeMap;

use flexran_phy::channel::ChannelProcess;
use flexran_phy::geometry::Environment;
use flexran_phy::mobility::MobilityModel;
use flexran_stack::enb::PhyView;
use flexran_types::ids::{CellId, Rnti, UeId};
use flexran_types::time::Tti;

/// How one UE's radio conditions are produced.
pub enum UeRadio {
    Process(Box<dyn ChannelProcess>),
    Geo {
        mobility: Box<dyn MobilityModel>,
        /// Site index (in the [`Environment`]) of the serving cell.
        serving_site: usize,
    },
}

/// The simulation-global radio state.
///
/// Channel queries ([`RadioEnvironment::sinr_db`],
/// [`RadioEnvironment::rsrp_all_sites`]) take `&mut self`: each UE's
/// channel is stateful (fading RNG, mobility), and the harness queries
/// it from one thread, agent by agent.
pub struct RadioEnvironment {
    env: Option<Environment>,
    /// Slab indexed by `UeId`: the harness hands ids out sequentially,
    /// so the per-measurement lookup is one bounds check. Ids nobody
    /// registered are `None` holes.
    ues: Vec<Option<UeRadio>>,
    /// Sites transmitting in the current subframe (geometry mode).
    active_sites: Vec<usize>,
    /// SINR for UEs nobody registered (harness bugs surface as terrible
    /// radio, not a panic).
    pub default_sinr_db: f64,
}

impl Default for RadioEnvironment {
    fn default() -> Self {
        Self::new()
    }
}

impl RadioEnvironment {
    /// Process-mode-only environment.
    pub fn new() -> Self {
        RadioEnvironment {
            env: None,
            ues: Vec::new(),
            active_sites: Vec::new(),
            default_sinr_db: -20.0,
        }
    }

    /// Environment with multi-cell geometry.
    pub fn with_geometry(env: Environment) -> Self {
        RadioEnvironment {
            env: Some(env),
            ..Self::new()
        }
    }

    /// Register (or replace) a UE's radio. The slab grows to the highest
    /// id registered, so ids should be dense — the harnesses' are.
    pub fn register_ue(&mut self, ue: UeId, radio: UeRadio) {
        let i = ue.0 as usize;
        if i >= self.ues.len() {
            self.ues.resize_with(i + 1, || None);
        }
        self.ues[i] = Some(radio);
    }

    fn ue_mut(&mut self, ue: UeId) -> Option<&mut UeRadio> {
        self.ues.get_mut(ue.0 as usize)?.as_mut()
    }

    /// Re-home a geometry-mode UE after handover.
    pub fn set_serving_site(&mut self, ue: UeId, site: usize) {
        if let Some(UeRadio::Geo { serving_site, .. }) = self.ue_mut(ue) {
            *serving_site = site;
        }
    }

    /// Set which sites transmit this subframe (geometry mode; call before
    /// the eNodeBs' `finish_tti`). Copies into an internal buffer whose
    /// capacity is reused, so per-TTI updates never allocate.
    pub fn set_active_sites(&mut self, sites: &[usize]) {
        self.active_sites.clear();
        self.active_sites.extend_from_slice(sites);
    }

    /// SINR for a UE at `tti`.
    pub fn sinr_db(&mut self, ue: UeId, tti: Tti) -> f64 {
        match self.ues.get_mut(ue.0 as usize).and_then(Option::as_mut) {
            None => self.default_sinr_db,
            Some(UeRadio::Process(p)) => p.sinr_db(tti),
            Some(UeRadio::Geo {
                mobility,
                serving_site,
            }) => {
                let pos = mobility.position(tti);
                match &self.env {
                    None => self.default_sinr_db,
                    Some(env) => env.sinr_db(*serving_site, pos, &self.active_sites),
                }
            }
        }
    }

    /// RSRP of every site at the UE's current position (geometry mode;
    /// feeds measurement reports for the mobility manager). Empty in
    /// process mode.
    pub fn rsrp_all_sites(&mut self, ue: UeId, tti: Tti) -> Vec<(usize, f64)> {
        let Some(UeRadio::Geo { mobility, .. }) = self.ue_mut(ue) else {
            return Vec::new();
        };
        let pos = mobility.position(tti);
        let Some(env) = &self.env else {
            return Vec::new();
        };
        (0..env.n_sites())
            .map(|i| (i, env.rsrp_dbm(i, pos).0))
            .collect()
    }

    /// Number of registered UEs.
    pub fn n_ues(&self) -> usize {
        self.ues.iter().flatten().count()
    }
}

/// [`PhyView`] for one eNodeB, backed by the global radio environment.
pub struct PhyAdapter<'a> {
    pub radio: &'a mut RadioEnvironment,
    /// `(cell, rnti)` → simulation-global UE for this eNodeB.
    pub rnti_map: &'a BTreeMap<(CellId, Rnti), UeId>,
}

impl PhyView for PhyAdapter<'_> {
    fn sinr_db(&mut self, cell: CellId, rnti: Rnti, tti: Tti) -> f64 {
        match self.rnti_map.get(&(cell, rnti)) {
            Some(ue) => self.radio.sinr_db(*ue, tti),
            None => self.radio.default_sinr_db,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexran_phy::channel::FixedCqi;
    use flexran_phy::geometry::{PathLossModel, Position, TxSite};
    use flexran_phy::link_adaptation::{cqi_from_sinr, Cqi};
    use flexran_phy::mobility::Stationary;
    use flexran_types::units::Dbm;

    #[test]
    fn process_mode_reports_configured_cqi() {
        let mut radio = RadioEnvironment::new();
        radio.register_ue(UeId(1), UeRadio::Process(Box::new(FixedCqi(Cqi(10)))));
        let s = radio.sinr_db(UeId(1), Tti(5));
        assert_eq!(cqi_from_sinr(s), Cqi(10));
    }

    #[test]
    fn unregistered_ids_get_the_default() {
        let mut radio = RadioEnvironment::new();
        // Empty slab, a hole below a registered id, and past the end.
        assert_eq!(radio.sinr_db(UeId(9), Tti(0)), -20.0);
        radio.register_ue(UeId(5), UeRadio::Process(Box::new(FixedCqi(Cqi(10)))));
        radio.default_sinr_db = -33.0;
        for missing in [0, 4, 6, 9, u32::MAX] {
            assert_eq!(
                radio.sinr_db(UeId(missing), Tti(0)),
                -33.0,
                "UeId({missing})"
            );
            assert!(radio.rsrp_all_sites(UeId(missing), Tti(0)).is_empty());
            radio.set_serving_site(UeId(missing), 1); // must not panic
        }
        assert_eq!(radio.n_ues(), 1);
    }

    #[test]
    fn re_registering_replaces_without_double_counting() {
        let mut radio = RadioEnvironment::new();
        radio.register_ue(UeId(2), UeRadio::Process(Box::new(FixedCqi(Cqi(4)))));
        radio.register_ue(UeId(1), UeRadio::Process(Box::new(FixedCqi(Cqi(7)))));
        assert_eq!(radio.n_ues(), 2);
        radio.register_ue(UeId(2), UeRadio::Process(Box::new(FixedCqi(Cqi(12)))));
        assert_eq!(radio.n_ues(), 2);
        assert_eq!(cqi_from_sinr(radio.sinr_db(UeId(2), Tti(0))), Cqi(12));
        assert_eq!(cqi_from_sinr(radio.sinr_db(UeId(1), Tti(0))), Cqi(7));
    }

    #[test]
    fn geometry_mode_couples_interference() {
        let mut env = Environment::new(10_000_000);
        let macro_ = env.add_site(TxSite {
            position: Position::new(0.0, 0.0),
            tx_power: Dbm(43.0),
            path_loss: PathLossModel::UrbanMacro,
        });
        let small = env.add_site(TxSite {
            position: Position::new(400.0, 0.0),
            tx_power: Dbm(30.0),
            path_loss: PathLossModel::SmallCell,
        });
        let mut radio = RadioEnvironment::with_geometry(env);
        radio.register_ue(
            UeId(1),
            UeRadio::Geo {
                mobility: Box::new(Stationary(Position::new(410.0, 0.0))),
                serving_site: small,
            },
        );
        radio.set_active_sites(&[macro_, small]);
        let interfered = radio.sinr_db(UeId(1), Tti(0));
        radio.set_active_sites(&[small]);
        let clean = radio.sinr_db(UeId(1), Tti(1));
        assert!(clean > interfered + 5.0);
    }

    #[test]
    fn adapter_maps_rnti_to_ue() {
        let mut radio = RadioEnvironment::new();
        radio.register_ue(UeId(1), UeRadio::Process(Box::new(FixedCqi(Cqi(15)))));
        let mut map = BTreeMap::new();
        map.insert((CellId(0), Rnti(0x100)), UeId(1));
        let mut phy = PhyAdapter {
            radio: &mut radio,
            rnti_map: &map,
        };
        let good = phy.sinr_db(CellId(0), Rnti(0x100), Tti(0));
        assert_eq!(cqi_from_sinr(good), Cqi(15));
        let missing = phy.sinr_db(CellId(0), Rnti(0x999), Tti(0));
        assert_eq!(cqi_from_sinr(missing), Cqi(0));
    }

    #[test]
    fn handover_rehoming_changes_serving_site() {
        let mut env = Environment::new(10_000_000);
        let a = env.add_site(TxSite {
            position: Position::new(0.0, 0.0),
            tx_power: Dbm(43.0),
            path_loss: PathLossModel::UrbanMacro,
        });
        let b = env.add_site(TxSite {
            position: Position::new(1000.0, 0.0),
            tx_power: Dbm(43.0),
            path_loss: PathLossModel::UrbanMacro,
        });
        let mut radio = RadioEnvironment::with_geometry(env);
        radio.register_ue(
            UeId(1),
            UeRadio::Geo {
                mobility: Box::new(Stationary(Position::new(900.0, 0.0))),
                serving_site: a,
            },
        );
        radio.set_active_sites(&[a, b]);
        let far = radio.sinr_db(UeId(1), Tti(0));
        radio.set_serving_site(UeId(1), b);
        let near = radio.sinr_db(UeId(1), Tti(1));
        assert!(near > far, "serving the close cell must be better");
        // RSRP list covers both sites.
        let rsrp = radio.rsrp_all_sites(UeId(1), Tti(2));
        assert_eq!(rsrp.len(), 2);
        assert!(rsrp[1].1 > rsrp[0].1);
    }
}
