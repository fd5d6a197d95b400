//! End-to-end integration tests: every NI design on every topology, driven
//! through the public `rackni` API, with cross-crate invariants checked on
//! the assembled node.

use rackni::ni_rmc::NiPlacement;
use rackni::ni_soc::{run_sync_latency, Chip, ChipConfig, Topology, Workload};

fn cfg(p: NiPlacement, t: Topology) -> ChipConfig {
    ChipConfig {
        placement: p,
        topology: t,
        ..ChipConfig::default()
    }
}

#[test]
fn every_design_completes_sync_reads_on_every_topology() {
    for topo in [Topology::Mesh, Topology::NocOut] {
        for p in [
            NiPlacement::Edge,
            NiPlacement::PerTile,
            NiPlacement::Split,
            NiPlacement::Numa,
        ] {
            let r = run_sync_latency(cfg(p, topo), 64, 4);
            assert_eq!(r.ops, 4, "{p:?} on {topo:?}");
            assert!(
                r.mean_cycles > 200.0 && r.mean_cycles < 2000.0,
                "{p:?} on {topo:?}: {} cycles",
                r.mean_cycles
            );
        }
    }
}

#[test]
fn design_space_latency_ordering_matches_paper() {
    // Paper §6.1: NUMA < NIper-tile ~ NIsplit << NIedge at one hop.
    let n = run_sync_latency(cfg(NiPlacement::Numa, Topology::Mesh), 64, 6).mean_cycles;
    let pt = run_sync_latency(cfg(NiPlacement::PerTile, Topology::Mesh), 64, 6).mean_cycles;
    let sp = run_sync_latency(cfg(NiPlacement::Split, Topology::Mesh), 64, 6).mean_cycles;
    let ed = run_sync_latency(cfg(NiPlacement::Edge, Topology::Mesh), 64, 6).mean_cycles;
    assert!(n < pt && n < sp && n < ed, "NUMA floor: {n} {pt} {sp} {ed}");
    assert!(
        ed > sp && ed > pt,
        "edge pays for QP round trips: {ed} vs {sp}/{pt}"
    );
    // Split within ~10% of per-tile (paper: both within 3% of each other).
    assert!((sp / pt - 1.0).abs() < 0.10, "split {sp} vs per-tile {pt}");
    // Edge overhead over NUMA is large (paper: ~80%).
    assert!(ed / n > 1.4, "edge {ed} vs numa {n}");
}

#[test]
fn multiblock_unroll_scales_latency_with_size() {
    let sizes = [64u64, 1024, 4096];
    let mut prev = 0.0;
    for s in sizes {
        let r = run_sync_latency(cfg(NiPlacement::Split, Topology::Mesh), s, 3);
        assert!(
            r.mean_cycles > prev,
            "latency must grow with size: {s}B gave {}",
            r.mean_cycles
        );
        prev = r.mean_cycles;
    }
    // 4096B = 64 blocks unrolled at 1/cycle; the extra latency over 64B
    // must be at least the unroll serialization plus streaming returns.
    let small = run_sync_latency(cfg(NiPlacement::Split, Topology::Mesh), 64, 3).mean_cycles;
    assert!(
        prev - small > 60.0,
        "4KB must cost >= 63 unroll cycles more"
    );
}

#[test]
fn conservation_requests_equal_responses_after_drain() {
    let mut chip = Chip::new(
        cfg(NiPlacement::Split, Topology::Mesh),
        Workload::AsyncRead {
            size: 512,
            poll_every: 4,
        },
    );
    chip.run(30_000);
    let sent = chip.fabric_stats().sent.get();
    let responded = chip.fabric_stats().responded.get();
    assert!(sent > 0, "workload made no progress");
    // Responses lag sends by at most the in-flight window, which is
    // structurally bounded by WQ capacity: 64 QPs x 128 entries x 8 blocks.
    assert!(responded <= sent);
    assert!(
        sent - responded <= 64 * 128 * 8,
        "in-flight beyond structural capacity: {sent} sent, {responded} responded"
    );
    // And the steady-state majority of requests must have completed.
    assert!(
        responded * 2 > sent,
        "response starvation: {sent} sent, {responded} responded"
    );
}

#[test]
fn rate_matching_mirrors_outgoing_traffic() {
    let mut chip = Chip::new(
        cfg(NiPlacement::Split, Topology::Mesh),
        Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        },
    );
    chip.run(30_000);
    let sent = chip.fabric_stats().sent.get();
    let incoming = chip.fabric_stats().incoming_generated.get();
    assert_eq!(sent, incoming, "§5: incoming rate matches outgoing rate");
    assert!(
        chip.stats().rrpp_latency.mean() > 0.0,
        "RRPPs serviced incoming requests"
    );
}

#[test]
fn latency_runs_measure_zero_load_rrpp_service_time() {
    // §5: the rack emulator mirrors each outgoing request, so the local
    // RRPPs service an unloaded request stream; their measured latency is
    // the paper's 208-cycle "RRPP servicing" component.
    let r = run_sync_latency(cfg(NiPlacement::Split, Topology::Mesh), 64, 5);
    assert!(
        r.rrpp_cycles > 0.0,
        "mirrored requests must reach the RRPPs"
    );
    assert!(
        (r.rrpp_cycles - 208.0).abs() < 60.0,
        "zero-load RRPP service {} should be near the paper's 208 cycles",
        r.rrpp_cycles
    );
}

#[test]
fn app_bandwidth_counts_both_directions() {
    let mut chip = Chip::new(
        cfg(NiPlacement::Split, Topology::Mesh),
        Workload::AsyncRead {
            size: 1024,
            poll_every: 4,
        },
    );
    chip.run(40_000);
    let stats = chip.stats();
    let total = stats.app_payload_bytes;
    assert!(total > 0);
    // Mirrored traffic means RRPP-sent bytes roughly track RCP-delivered
    // bytes; both must be non-trivial.
    let ops = stats.completed;
    assert!(ops > 0);
    assert!(total >= ops * 1024, "delivered bytes cover completed reads");
}

#[test]
fn idle_workload_stays_quiescent() {
    let mut chip = Chip::new(cfg(NiPlacement::Split, Topology::Mesh), Workload::Idle);
    chip.run(5_000);
    let stats = chip.stats();
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.app_payload_bytes, 0);
    assert_eq!(chip.fabric_stats().sent.get(), 0);
}

#[test]
fn single_active_core_only_that_core_progresses() {
    let mut c = cfg(NiPlacement::Split, Topology::Mesh);
    c.active_cores = 1;
    let mut chip = Chip::new(c, Workload::SyncRead { size: 64 });
    chip.run(20_000);
    assert!(chip.cores[0].stats.completed > 0);
    for i in 1..chip.cores.len() {
        assert_eq!(chip.cores[i].stats.completed, 0, "core {i} should idle");
    }
}

#[test]
fn more_hops_cost_more_latency() {
    let mut near = cfg(NiPlacement::Split, Topology::Mesh);
    near.rack.hops = 1;
    let mut far = cfg(NiPlacement::Split, Topology::Mesh);
    far.rack.hops = 6;
    let rn = run_sync_latency(near, 64, 4).mean_cycles;
    let rf = run_sync_latency(far, 64, 4).mean_cycles;
    // 5 extra hops x 70 cycles x 2 directions = 700 cycles.
    let delta = rf - rn;
    assert!(
        (delta - 700.0).abs() < 50.0,
        "hop scaling: near {rn}, far {rf}, delta {delta}"
    );
}

#[test]
fn latency_percentiles_are_ordered() {
    let r = run_sync_latency(cfg(NiPlacement::Split, Topology::Mesh), 64, 12);
    assert!(r.p50_cycles > 0);
    assert!(r.p50_cycles <= r.p95_cycles);
    assert!(r.p95_cycles <= r.p99_cycles);
    // An unloaded synchronous stream has a tight distribution: the tail
    // stays within 2x of the median.
    assert!(
        r.p99_cycles < r.p50_cycles * 2,
        "p50 {} p99 {}",
        r.p50_cycles,
        r.p99_cycles
    );
}
