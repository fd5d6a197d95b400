//! Helpers shared by the integration tests.

use rackni::ni_fabric::{FabricStats, FaultStats};
use rackni::ni_soc::{Chip, NodeStats, Rack};

/// Everything a rack run determines: every node's [`NodeStats`] in node-id
/// order (op counts, watchdog counters, latency histograms, tenant rows,
/// RRPP service latency), the fabric's traffic and fault counters, and its
/// hop count. Runs that must be bit-identical — same seed twice, any worker
/// count, either tick mode, quanta or per-cycle ticks — compare equal.
pub type Fingerprint = (Vec<NodeStats>, FabricStats, FaultStats, u64);

/// The [`Fingerprint`] of `rack` as it stands.
pub fn fingerprint(rack: &Rack) -> Fingerprint {
    (
        rack.chips().iter().map(Chip::stats).collect(),
        rack.fabric_stats(),
        rack.fault_stats(),
        rack.hops_traversed(),
    )
}
