//! Node configuration (Table 2 defaults).

use ni_coherence::CoherenceConfig;
use ni_fabric::RackConfig;
use ni_mem::MemConfig;
use ni_noc::{MeshConfig, NocOutConfig, RoutingPolicy};
use ni_qp::QpConfig;
use ni_rmc::{NiPlacement, RmcConfig};

/// On-chip interconnect organization.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Topology {
    /// 2D mesh, one tile per core (Table 2).
    #[default]
    Mesh,
    /// NOC-Out: flattened-butterfly LLC row plus per-column trees (§6.3).
    NocOut,
}

/// How [`Chip::tick`](crate::Chip::tick) visits its components.
///
/// Both modes are bit-identical in every observable (fingerprints, stats,
/// traces): `Event` skips only ticks that are provably no-ops. `Poll` is
/// kept as the reference implementation the fingerprint tests compare
/// against.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TickMode {
    /// Event-driven (default): per-class activity timestamps gate each
    /// component visit, and a chip whose next self-driven event is in the
    /// future skips whole cycles in its dormant fast path.
    #[default]
    Event,
    /// Poll everything: every component of every class is visited every
    /// cycle (the pre-event-driven reference behavior).
    Poll,
}

/// Full node configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChipConfig {
    /// Interconnect organization.
    pub topology: Topology,
    /// NI placement design point.
    pub placement: NiPlacement,
    /// Mesh routing policy (ignored by NOC-Out, which is source-routed).
    pub routing: RoutingPolicy,
    /// Cache hierarchy parameters.
    pub coherence: CoherenceConfig,
    /// Memory controller parameters.
    pub mem: MemConfig,
    /// Queue-pair geometry and software costs.
    pub qp: QpConfig,
    /// RMC pipeline parameters.
    pub rmc: RmcConfig,
    /// Rack emulation parameters (hops, 35ns links, mirroring).
    pub rack: RackConfig,
    /// This chip's node id in the rack (0 for single-node runs; assigned by
    /// the multi-node [`crate::Rack`] driver otherwise).
    pub node_id: u16,
    /// Master RNG seed for this chip's run. Threaded into the rack
    /// emulator's traffic generator (overriding `rack.seed`) so every run —
    /// emulated or multi-node — is reproducible from its config alone.
    pub seed: u64,
    /// Mesh parameters.
    pub mesh: MeshConfig,
    /// NOC-Out parameters.
    pub nocout: NocOutConfig,
    /// Cores running the workload (the rest idle), from core 0 upward.
    pub active_cores: usize,
    /// Tick discipline: event-driven active sets (default) or the
    /// poll-everything reference loop.
    pub tick_mode: TickMode,
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            topology: Topology::Mesh,
            placement: NiPlacement::Split,
            routing: RoutingPolicy::CdrNi,
            coherence: CoherenceConfig::default(),
            mem: MemConfig::default(),
            qp: QpConfig::default(),
            rmc: RmcConfig::default(),
            rack: RackConfig::default(),
            node_id: 0,
            seed: RackConfig::default().seed,
            mesh: MeshConfig::default(),
            nocout: NocOutConfig::default(),
            active_cores: 64,
            tick_mode: TickMode::default(),
        }
    }
}

impl ChipConfig {
    /// Total core count.
    pub fn n_cores(&self) -> usize {
        match self.topology {
            Topology::Mesh => usize::from(self.mesh.width) * usize::from(self.mesh.height),
            Topology::NocOut => {
                usize::from(self.nocout.columns) * usize::from(self.nocout.cores_per_column)
            }
        }
    }

    /// Number of LLC/directory banks (one per tile on the mesh, one per LLC
    /// tile on NOC-Out).
    pub fn n_banks(&self) -> u32 {
        match self.topology {
            Topology::Mesh => self.n_cores() as u32,
            Topology::NocOut => u32::from(self.nocout.columns),
        }
    }

    /// Number of NI blocks / RRPPs / memory controllers (one per mesh row or
    /// butterfly column).
    pub fn n_edge(&self) -> usize {
        match self.topology {
            Topology::Mesh => usize::from(self.mesh.height),
            Topology::NocOut => usize::from(self.nocout.columns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_describe_the_paper_chip() {
        let c = ChipConfig::default();
        assert_eq!(c.n_cores(), 64);
        assert_eq!(c.n_banks(), 64);
        assert_eq!(c.n_edge(), 8);
        assert_eq!(c.placement, NiPlacement::Split);
        assert_eq!(c.routing, RoutingPolicy::CdrNi);
        // Table 2: 50ns memory, 35ns per network hop, 128-entry WQs.
        assert_eq!(c.mem.latency, 100);
        assert_eq!(c.rack.hop_cycles, 70);
        assert_eq!(c.qp.wq_entries, 128);
    }

    #[test]
    fn nocout_has_eight_llc_banks() {
        let c = ChipConfig {
            topology: Topology::NocOut,
            ..ChipConfig::default()
        };
        assert_eq!(c.n_cores(), 64);
        assert_eq!(c.n_banks(), 8);
        assert_eq!(c.n_edge(), 8);
    }
}
