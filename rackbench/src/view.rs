//! One read-only view over a finished rack, whether it ran as a `Rack` or
//! under the traced driver, and the fingerprint two runs must agree on.

use rackni::ni_engine::Histogram;
use rackni::ni_fabric::{Fabric, FabricStats, LinkReport, TorusFabric};
use rackni::ni_metrics::{merge_tenant_stats, TenantStats};
use rackni::ni_rmc::BackendStats;
use rackni::ni_soc::{Chip, Rack};

/// What the benchmark reads off a finished rack.
pub struct View<'a> {
    /// The chips, in node-id order.
    pub chips: &'a [Chip],
    fabric: FabricStats,
    /// Torus link traversals.
    pub hops: u64,
    /// Per-directed-link report.
    pub links: Vec<LinkReport>,
    /// Busiest link's peak windowed bandwidth, GB/s.
    pub peak_link_gbps: f64,
    /// Busiest link's bytes over the mean loaded link's.
    pub link_byte_skew: f64,
    /// Packets a dead node erased.
    pub packets_dropped: u64,
}

impl<'a> View<'a> {
    /// View a rack driven by `Rack::run`.
    pub fn of_rack(rack: &'a Rack) -> View<'a> {
        View {
            chips: rack.chips(),
            fabric: rack.fabric_stats(),
            hops: rack.hops_traversed(),
            links: rack.link_report(),
            peak_link_gbps: rack.peak_link_gbps(),
            link_byte_skew: rack.link_byte_skew(),
            packets_dropped: rack.fault_stats().packets_dropped.get(),
        }
    }

    /// View chips and a fabric driven by hand.
    pub fn of_parts(chips: &'a [Chip], fabric: &TorusFabric) -> View<'a> {
        View {
            chips,
            fabric: fabric.stats(),
            hops: fabric.hops_traversed(),
            links: fabric.link_report(),
            peak_link_gbps: fabric.peak_link_gbps(),
            link_byte_skew: fabric.link_byte_skew(),
            packets_dropped: fabric.fault_stats().packets_dropped.get(),
        }
    }

    /// Operations completed, ok or failed.
    pub fn completed_ops(&self) -> u64 {
        self.chips.iter().map(Chip::completed_ops).sum()
    }

    /// Operations completed with an error status.
    pub fn failed_ops(&self) -> u64 {
        self.chips.iter().map(Chip::failed_ops).sum()
    }

    /// Application payload bytes moved, summed over nodes.
    pub fn payload_bytes(&self) -> u64 {
        self.chips.iter().map(Chip::app_payload_bytes).sum()
    }

    /// Rack-wide remote-read latency distribution, merged in node order.
    pub fn read_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for c in self.chips {
            h.merge(&c.read_latency_histogram());
        }
        h
    }

    /// Rack-wide per-tenant accumulators, merged in node order.
    pub fn tenants(&self) -> TenantStats {
        let mut map = TenantStats::new();
        for c in self.chips {
            merge_tenant_stats(&mut map, &c.tenant_stats());
        }
        map
    }

    /// RGP/RCP counters over every backend of every node.
    pub fn backend(&self) -> BackendStats {
        let mut total = BackendStats::default();
        for c in self.chips {
            total.merge(&c.backend_stats());
        }
        total
    }

    /// Packets that finished their fabric journey (requests + responses).
    pub fn delivered_packets(&self) -> u64 {
        self.fabric.incoming_generated.get() + self.fabric.responded.get()
    }

    /// Chip ticks that ran the full component loop, summed over chips.
    pub fn full_ticks(&self) -> u64 {
        self.chips.iter().map(Chip::full_ticks).sum()
    }

    /// NOC `(injected packets, flit hops, inject rejects)`, summed.
    pub fn noc(&self) -> (u64, u64, u64) {
        self.chips.iter().fold((0, 0, 0), |(i, f, r), c| {
            let s = c.noc_stats();
            (
                i + s.injected_packets.get(),
                f + s.flit_hops.get(),
                r + s.inject_rejects.get(),
            )
        })
    }

    /// Rows held in every chip's latency-tomography table.
    pub fn trace_rows(&self) -> u64 {
        self.chips.iter().map(|c| c.traces.len() as u64).sum()
    }

    /// The simulated outcome two runs of one seed must share exactly.
    pub fn fingerprint(&self) -> Fingerprint {
        let read = self.read_latency();
        let be = self.backend();
        let (noc_injected, noc_flit_hops, noc_rejects) = self.noc();
        Fingerprint {
            completed_ops: self.completed_ops(),
            failed_ops: self.failed_ops(),
            read_count: read.stats().count(),
            read_p50: read.percentile(0.50),
            read_p99: read.percentile(0.99),
            hops: self.hops,
            payload_bytes: self.payload_bytes(),
            fabric: [
                self.fabric.sent.get(),
                self.fabric.responded.get(),
                self.fabric.incoming_generated.get(),
            ],
            link_bytes: self.links.iter().map(|l| l.bytes).sum(),
            link_busy_max: self.links.iter().map(|l| l.busy_cycles).max().unwrap_or(0),
            backend: [
                be.transfers.get(),
                be.requests_sent.get(),
                be.responses.get(),
                be.payload_bytes.get(),
                be.itt_stalls.get(),
                be.itt_timeouts.get(),
                be.itt_retries.get(),
                be.failed_transfers.get(),
                be.stale_responses.get(),
                be.replays.get(),
                be.quorum_writes.get(),
                be.quorum_leg_failures.get(),
            ],
            noc: [noc_injected, noc_flit_hops, noc_rejects],
            full_ticks: self.full_ticks(),
            trace_rows: self.trace_rows(),
            tenants: self
                .tenants()
                .iter()
                .map(|(tag, a)| {
                    [
                        u64::from(*tag),
                        a.issued,
                        a.completed,
                        a.failed,
                        a.bytes,
                        a.latency.stats().count(),
                        a.latency.percentile(0.99),
                    ]
                })
                .collect(),
        }
    }
}

/// Every simulated count and latency statistic the benchmark reports or
/// checks. Simulator-only changes must leave it identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Operations completed, ok or failed.
    pub completed_ops: u64,
    /// Operations completed with an error status.
    pub failed_ops: u64,
    /// Remote-read latency samples.
    pub read_count: u64,
    /// Remote-read median latency, cycles.
    pub read_p50: u64,
    /// Remote-read 99th-percentile latency, cycles.
    pub read_p99: u64,
    /// Torus link traversals.
    pub hops: u64,
    /// Application payload bytes.
    pub payload_bytes: u64,
    /// Fabric `[sent, responded, incoming]`.
    pub fabric: [u64; 3],
    /// Bytes over every directed link.
    pub link_bytes: u64,
    /// Busiest link's serialization cycles.
    pub link_busy_max: u64,
    /// Every `BackendStats` counter, in declaration order.
    pub backend: [u64; 12],
    /// NOC `[injected packets, flit hops, inject rejects]`.
    pub noc: [u64; 3],
    /// Full chip ticks, summed over chips.
    pub full_ticks: u64,
    /// Latency-tomography rows held.
    pub trace_rows: u64,
    /// Per tenant: `[tag, issued, completed, failed, bytes, samples, p99]`.
    pub tenants: Vec<[u64; 7]>,
}
