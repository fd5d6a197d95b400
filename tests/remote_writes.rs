//! Remote-write path integration tests.
//!
//! soNUMA's one-sided operations include writes (§2.2): the RGP backend
//! loads each payload block from local memory (Fig. 4a's "Memory Read"
//! stage) before shipping it, and the remote RRPP absorbs it into memory.
//! The paper's evaluation uses reads; these tests cover the symmetric path
//! the architecture defines.

use rackni::ni_rmc::NiPlacement;
use rackni::ni_soc::{
    run_sync_latency, run_sync_write_latency, run_write_bandwidth, Chip, ChipConfig, Topology,
    Workload,
};

fn cfg(p: NiPlacement) -> ChipConfig {
    ChipConfig {
        placement: p,
        ..ChipConfig::default()
    }
}

#[test]
fn sync_writes_complete_on_every_design() {
    for p in NiPlacement::QP_DESIGNS {
        let r = run_sync_write_latency(cfg(p), 64, 4);
        assert_eq!(r.ops, 4, "{p:?}");
        assert!(
            r.mean_cycles > 300.0 && r.mean_cycles < 2500.0,
            "{p:?}: {} cycles",
            r.mean_cycles
        );
    }
}

#[test]
fn write_latency_exceeds_read_latency_by_a_local_memory_access() {
    // The write path adds a local read (directory + DRAM, ~150-250 cycles)
    // before the block can leave the node.
    let read = run_sync_latency(cfg(NiPlacement::Split), 64, 5).mean_cycles;
    let write = run_sync_write_latency(cfg(NiPlacement::Split), 64, 5).mean_cycles;
    assert!(write > read + 50.0, "write {write} vs read {read}");
    assert!(write < read + 400.0, "write {write} vs read {read}");
}

#[test]
fn multiblock_writes_unroll_completely() {
    let r = run_sync_write_latency(cfg(NiPlacement::Split), 4096, 3);
    assert_eq!(r.ops, 3);
    let small = run_sync_write_latency(cfg(NiPlacement::Split), 64, 3);
    assert!(r.mean_cycles > small.mean_cycles + 60.0);
}

#[test]
fn write_bandwidth_moves_payload_both_ways() {
    let r = run_write_bandwidth(cfg(NiPlacement::Split), 1024, 30_000, 3);
    assert!(
        r.app_gbps > 10.0,
        "write bandwidth collapsed: {}",
        r.app_gbps
    );
    assert!(r.cycles >= 30_000);
}

#[test]
fn rrpps_absorb_mirrored_incoming_writes() {
    let mut chip = Chip::new(
        cfg(NiPlacement::Split),
        Workload::AsyncWrite {
            size: 512,
            poll_every: 4,
        },
    );
    chip.run(30_000);
    let stats = chip.stats();
    assert!(stats.completed > 0);
    // Mirrored traffic means incoming write requests hit the local RRPPs.
    assert_eq!(
        chip.fabric_stats().sent.get(),
        chip.fabric_stats().incoming_generated.get()
    );
    assert!(stats.rrpp_latency.mean() > 0.0);
    assert!(stats.app_payload_bytes > 0);
}

#[test]
fn writes_work_on_nocout_too() {
    let mut c = cfg(NiPlacement::Split);
    c.topology = Topology::NocOut;
    let r = run_sync_write_latency(c, 64, 3);
    assert_eq!(r.ops, 3);
}

#[test]
fn per_tile_write_unrolls_read_local_payload_first() {
    // NIper-tile backends sit at the tiles; their payload loads go through
    // the regular non-caching path and the unrolled writes detour via the
    // edge NI. The op must still complete with the same semantics.
    let r = run_sync_write_latency(cfg(NiPlacement::PerTile), 1024, 3);
    assert_eq!(r.ops, 3);
}
