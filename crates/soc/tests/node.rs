//! Full-node integration tests: end-to-end remote reads through every NI
//! placement on both topologies.

use ni_rmc::NiPlacement;
use ni_soc::{run_sync_latency, Chip, ChipConfig, Topology, Workload};

fn cfg(placement: NiPlacement) -> ChipConfig {
    ChipConfig {
        placement,
        ..ChipConfig::default()
    }
}

#[test]
fn sync_read_completes_on_split() {
    let r = run_sync_latency(cfg(NiPlacement::Split), 64, 5);
    assert_eq!(r.ops, 5);
    // Sanity bounds: must exceed the bare network+service floor (~350) and
    // stay within a small multiple of the paper's 447.
    assert!(r.mean_cycles > 300.0, "too fast: {}", r.mean_cycles);
    assert!(r.mean_cycles < 1500.0, "too slow: {}", r.mean_cycles);
}

#[test]
fn sync_read_completes_on_edge_and_pertile() {
    let e = run_sync_latency(cfg(NiPlacement::Edge), 64, 5);
    let p = run_sync_latency(cfg(NiPlacement::PerTile), 64, 5);
    assert_eq!(e.ops, 5);
    assert_eq!(p.ops, 5);
    // The paper's core result: QP interactions make NIedge slower than
    // NIper-tile for single-block reads.
    assert!(
        e.mean_cycles > p.mean_cycles,
        "edge {} should exceed per-tile {}",
        e.mean_cycles,
        p.mean_cycles
    );
}

#[test]
fn numa_baseline_is_fastest() {
    let n = run_sync_latency(cfg(NiPlacement::Numa), 64, 5);
    let s = run_sync_latency(cfg(NiPlacement::Split), 64, 5);
    assert!(n.ops >= 5);
    assert!(
        n.mean_cycles < s.mean_cycles,
        "NUMA {} should undercut split {}",
        n.mean_cycles,
        s.mean_cycles
    );
}

#[test]
fn multiblock_transfer_completes() {
    let r = run_sync_latency(cfg(NiPlacement::Split), 1024, 3);
    assert_eq!(r.ops, 3);
    let small = run_sync_latency(cfg(NiPlacement::Split), 64, 3);
    assert!(r.mean_cycles > small.mean_cycles);
}

#[test]
fn nocout_topology_completes() {
    let mut c = cfg(NiPlacement::Split);
    c.topology = Topology::NocOut;
    let r = run_sync_latency(c, 64, 3);
    assert_eq!(r.ops, 3);
    assert!(
        r.mean_cycles > 300.0 && r.mean_cycles < 2000.0,
        "{}",
        r.mean_cycles
    );
}

#[test]
fn async_cores_make_progress_and_mirror_traffic() {
    let mut c = cfg(NiPlacement::Split);
    c.active_cores = 8;
    let mut chip = Chip::new(
        c,
        Workload::AsyncRead {
            size: 512,
            poll_every: 4,
        },
    );
    chip.run(60_000);
    let stats = chip.stats();
    assert!(stats.completed > 50, "only {} ops", stats.completed);
    assert!(stats.app_payload_bytes > 0);
    // Rate matching: incoming requests were generated and serviced.
    assert!(chip.fabric_stats().incoming_generated.get() > 0);
    assert!(stats.rrpp_latency.mean() > 0.0);
}
