//! One mergeable snapshot of a node's simulated outcomes.
//!
//! Every observable the paper and the serving studies report — completed
//! and failed operations, §6.2's application payload bytes, the Table 3
//! latency tails, per-tenant SLO accumulators, RGP/RCP watchdog counters,
//! RRPP service latency — is a per-node count summed over a rack.
//! [`NodeStats`] carries all of them in one value: [`Chip::stats`] builds
//! it from the chip's cores and pipelines, and [`Rack::stats`] folds the
//! chip snapshots with [`NodeStats::merge`] in node-id order.
//!
//! The snapshot holds only integer simulated state that no schedule
//! choice can perturb — nothing that depends on the tick mode, the worker
//! count or the wall clock (so no full-tick count and no NOC counters,
//! whose `inject_rejects` counts per-attempt retries). That makes it `Eq`,
//! and makes a node-ordered `Vec<NodeStats>` a complete determinism
//! fingerprint: two runs that must be bit-identical compare equal.
//!
//! [`Chip::stats`]: crate::Chip::stats
//! [`Rack::stats`]: crate::Rack::stats

use ni_engine::{Histogram, RunningMean};
use ni_metrics::{merge_tenant_stats, TenantStats};
use ni_rmc::BackendStats;

/// The simulated outcomes of one node, or of many merged together.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Operations issued into the NI (QP enqueues and NUMA loads).
    pub issued: u64,
    /// Operations completed, successful and failed: every reaped CQ entry.
    pub completed: u64,
    /// Operations that completed with an error CQ status (the ITT watchdog
    /// gave up after a link or node death). Always `<= completed`.
    pub failed: u64,
    /// Failed operations that were remote reads — the user-visible request
    /// losses an availability study counts. Always `<= failed`.
    pub failed_reads: u64,
    /// Operations that completed ok only through a recovery path (WQ replay
    /// or a write quorum that absorbed a dead leg). Always `<= completed`.
    pub degraded: u64,
    /// Payload bytes of successful completions (goodput).
    pub bytes_completed: u64,
    /// Application payload bytes moved: remote-read data RCPs delivered
    /// into local buffers plus data RRPPs served (§6.2's bandwidth
    /// definition, which also sees retried traffic).
    pub app_payload_bytes: u64,
    /// RGP/RCP counters over every backend.
    pub backend: BackendStats,
    /// End-to-end remote-read latency (sync, async and NUMA reads).
    pub read_latency: Histogram,
    /// Latency of degraded remote reads — those completed through a WQ
    /// replay — kept apart so failover cost does not smear the healthy tail.
    pub degraded_read_latency: Histogram,
    /// Per-tenant SLO accumulators, keyed by the cores' tenant tags.
    pub tenants: TenantStats,
    /// RRPP service latency (arrival to response injection) over every RRPP.
    pub rrpp_latency: RunningMean,
}

impl NodeStats {
    /// An empty snapshot: the identity of [`merge`](NodeStats::merge).
    pub fn new() -> NodeStats {
        NodeStats::default()
    }

    /// Accumulate another node's snapshot into this one. Histograms keep
    /// exact samples in merge order, so fold nodes in node-id order.
    pub fn merge(&mut self, other: &NodeStats) {
        self.issued += other.issued;
        self.completed += other.completed;
        self.failed += other.failed;
        self.failed_reads += other.failed_reads;
        self.degraded += other.degraded;
        self.bytes_completed += other.bytes_completed;
        self.app_payload_bytes += other.app_payload_bytes;
        self.backend.merge(&other.backend);
        self.read_latency.merge(&other.read_latency);
        self.degraded_read_latency
            .merge(&other.degraded_read_latency);
        merge_tenant_stats(&mut self.tenants, &other.tenants);
        self.rrpp_latency.merge(&other.rrpp_latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_every_field_and_empty_is_its_identity() {
        let mut a = NodeStats::new();
        a.issued = 5;
        a.completed = 4;
        a.failed = 1;
        a.failed_reads = 1;
        a.degraded = 2;
        a.bytes_completed = 192;
        a.app_payload_bytes = 256;
        a.backend.itt_timeouts.add(3);
        a.read_latency.record(400);
        a.degraded_read_latency.record(900);
        a.tenants.entry(1).or_default().completed = 4;
        a.rrpp_latency.record(60);

        let mut folded = NodeStats::new();
        folded.merge(&a);
        assert_eq!(folded, a, "merging into the empty snapshot is a copy");

        folded.merge(&a);
        assert_eq!(folded.issued, 10);
        assert_eq!(folded.completed, 8);
        assert_eq!(folded.failed_reads, 2);
        assert_eq!(folded.app_payload_bytes, 512);
        assert_eq!(folded.backend.itt_timeouts.get(), 6);
        assert_eq!(folded.read_latency.stats().count(), 2);
        assert_eq!(folded.degraded_read_latency.percentile(1.0), 900);
        assert_eq!(folded.tenants[&1].completed, 8);
        assert_eq!(folded.rrpp_latency.count(), 2);
        assert_ne!(folded, a);
    }
}
