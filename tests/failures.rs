//! Failure-injection integration tests: the tier-1-sized versions of the
//! claims `examples/failure_study.rs` asserts at paper scale — a mid-run
//! link kill that `fault-adaptive` routes around while dimension-order
//! stalls into the ITT watchdog, a node kill that ends in error CQ entries
//! instead of a hang, and healthy-fabric equivalence between
//! `fault-adaptive` and `minimal-adaptive` through the whole rack stack.

use rackni::experiments::{run_failure_point, FailureParams, FaultCase};
use rackni::ni_fabric::{FaultPlan, ReplicaCfg, RoutingKind, Torus3D};
use rackni::ni_soc::{Capped, ChipConfig, Rack, RackSimConfig, Synthetic, Workload, ZipfHotspot};

/// Small-rack sweep parameters: tight enough for debug-profile tier-1
/// runs, loose enough that healthy transfers never trip the watchdog.
fn params() -> FailureParams {
    FailureParams {
        ops_per_core: 6,
        kill_at: 300,
        itt_timeout: 1_500,
        itt_retries: 1,
        horizon: 40_000,
    }
}

fn zipf_point(fault: FaultCase, routing: RoutingKind) -> rackni::experiments::FailurePoint {
    run_failure_point(
        (3, 3, 1),
        "zipf",
        Box::<ZipfHotspot>::default(),
        routing,
        fault,
        params(),
    )
}

/// The acceptance property at tier-1 size: after a mid-run link kill,
/// `fault-adaptive` completes the capped Zipf job with zero casualties
/// while dimension-order either never finishes or pays >=2x grinding
/// through ITT timeouts.
#[test]
fn fault_adaptive_completes_the_link_kill_job_dor_stalls_on() {
    let ada = zipf_point(FaultCase::LinkKill, RoutingKind::FaultAdaptive);
    assert!(
        ada.completed_all,
        "fault-adaptive must finish the job: {ada:?}"
    );
    assert_eq!(
        ada.failed_ops, 0,
        "a single dead link is routable-around: {ada:?}"
    );
    let dor = zipf_point(FaultCase::LinkKill, RoutingKind::DimensionOrder);
    assert!(
        dor.dead_link_stalls > 0,
        "DOR must actually hit the dead link: {dor:?}"
    );
    // The structural form of the acceptance property (the strict >=2x
    // completion-time version runs at 4x4x4 scale in
    // `examples/failure_study.rs`, where the margin is wide): health-blind
    // routing stalls into the ITT watchdog and loses ops the detour-capable
    // policy saves, and pays more cycles doing it.
    assert!(
        !dor.completed_all
            || (dor.itt_timeouts > 0
                && dor.failed_ops > ada.failed_ops
                && dor.completion_cycles > ada.completion_cycles),
        "DOR must stall into the watchdog and pay for it: dor {dor:?} vs ada {ada:?}"
    );
}

/// A node kill cannot be routed around, but it must not hang the rack:
/// every op addressed to the corpse completes with an error CQ status,
/// and the error ops stay out of the (successful-reads) latency tail.
#[test]
fn node_kill_completes_with_error_cq_entries_instead_of_hanging() {
    for routing in [RoutingKind::DimensionOrder, RoutingKind::FaultAdaptive] {
        let p = zipf_point(FaultCase::NodeKill, routing);
        assert!(p.completed_all, "{}: rack hung: {p:?}", routing.name());
        assert!(
            p.failed_ops > 0,
            "{}: killing the hot node must cost failures: {p:?}",
            routing.name()
        );
        assert!(
            p.completion_cycles < params().horizon,
            "{}: completion rode the horizon: {p:?}",
            routing.name()
        );
        assert!(
            p.packets_dropped > 0,
            "{}: the dead node must erase traffic: {p:?}",
            routing.name()
        );
        assert!(
            p.itt_timeouts >= p.failed_ops,
            "{}: every failure implies at least one watchdog expiry: {p:?}",
            routing.name()
        );
    }
}

/// Healthy-fabric cells are a control group: with no fault scheduled,
/// both policies finish clean and the watchdog never fires.
#[test]
fn healthy_cells_complete_clean_under_both_policies() {
    for routing in [RoutingKind::DimensionOrder, RoutingKind::FaultAdaptive] {
        let p = zipf_point(FaultCase::None, routing);
        assert!(p.completed_all && p.failed_ops == 0, "{p:?}");
        assert_eq!(p.itt_timeouts, 0, "spurious watchdog expiry: {p:?}");
        assert_eq!(p.escape_hops, 0, "no fault, no escapes: {p:?}");
    }
}

/// On a healthy fabric `fault-adaptive` must be bit-identical to
/// `minimal-adaptive` through the whole rack stack — same ops, payload,
/// hops, and per-link byte distribution (the route-level property is also
/// proptested in `ni-fabric`; this is the end-to-end version).
#[test]
fn fault_adaptive_is_bit_identical_to_minimal_adaptive_when_healthy() {
    let run = |routing: RoutingKind| {
        let cfg = RackSimConfig {
            torus: Torus3D::new(3, 3, 1),
            chip: ChipConfig {
                active_cores: 2,
                seed: 0xfa17,
                ..ChipConfig::default()
            },
            routing,
            threads: 1,
            ..RackSimConfig::default()
        };
        let capped = Capped::new(
            Box::new(Synthetic::from_workload(Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            })),
            6,
        );
        let mut rack = Rack::with_scenario(cfg, &capped);
        rack.run(20_000);
        let stats = rack.stats();
        (
            stats.completed,
            stats.failed,
            stats.app_payload_bytes,
            rack.hops_traversed(),
            rack.link_report()
                .iter()
                .map(|l| (l.packets, l.bytes))
                .collect::<Vec<_>>(),
        )
    };
    let ada = run(RoutingKind::MinimalAdaptive);
    let fa = run(RoutingKind::FaultAdaptive);
    assert!(ada.0 > 0, "reference run must do work");
    assert_eq!(fa, ada, "healthy fault-adaptive diverged from adaptive");
}

/// A repaired link comes back for real: a run whose plan kills a link and
/// repairs it later completes everything without a single failure, while
/// still having actually stalled at the dead link in between.
#[test]
fn link_repair_restores_the_job_without_casualties() {
    let torus = Torus3D::new(3, 1, 1);
    let mut chip = ChipConfig {
        active_cores: 1,
        ..ChipConfig::default()
    };
    // Watchdog armed but generous: the repair lands long before expiry.
    chip.rmc.itt_timeout = 20_000;
    chip.rmc.itt_retries = 1;
    let cfg = RackSimConfig {
        torus,
        chip,
        routing: RoutingKind::DimensionOrder,
        faults: FaultPlan::new().link_down(0, 1, 200).link_up(0, 1, 2_000),
        threads: 1,
        ..RackSimConfig::default()
    };
    let capped = Capped::new(
        Box::new(Synthetic::from_workload(Workload::AsyncRead {
            size: 256,
            poll_every: 2,
        })),
        4,
    );
    let mut rack = Rack::with_scenario(cfg, &capped);
    let expected = 3 * 4;
    let mut guard = 0;
    while rack.stats().completed < expected {
        rack.run(500);
        guard += 1;
        assert!(guard < 200, "repaired job never completed");
    }
    assert_eq!(rack.stats().failed, 0, "repair must beat the watchdog");
    assert!(
        rack.fault_stats().dead_link_stalls.get() > 0,
        "the kill window must have actually stalled traffic"
    );
}

/// A recovery-enabled rack: K-way replication + WQ replay armed, node 4
/// killed mid-run, fault-adaptive routing, a capped job so completion is
/// checkable. Shared by the two transparent-recovery property tests below.
fn recovery_rack(workload: Workload, k: u8, w: u8) -> (Rack, u32, u64) {
    let killed = 4u32;
    let mut chip = ChipConfig {
        active_cores: 2,
        seed: 0x4ec1,
        ..ChipConfig::default()
    };
    chip.rmc.itt_timeout = 1_500;
    chip.rmc.itt_retries = 1;
    chip.rmc.replication = ReplicaCfg { k, w, seed: 0x4ec1 };
    chip.rmc.replay_budget = u32::from(k.max(1)) - 1;
    let cfg = RackSimConfig {
        torus: Torus3D::new(3, 3, 1),
        chip,
        routing: RoutingKind::FaultAdaptive,
        faults: FaultPlan::new().node_down(killed, 300),
        threads: 1,
        ..RackSimConfig::default()
    };
    let ops_per_core = 6u64;
    let capped = Capped::new(Box::new(Synthetic::from_workload(workload)), ops_per_core);
    let mut rack = Rack::with_scenario(cfg, &capped);
    // 8 surviving nodes x 2 cores x 6 ops; the corpse's own job is void.
    let survivor_expected = 8 * 2 * ops_per_core;
    let mut guard = 0;
    loop {
        rack.run(2_000);
        let done: u64 = rack
            .chips()
            .iter()
            .enumerate()
            .filter(|&(n, _)| n as u32 != killed)
            .map(|(_, c)| c.completed_ops())
            .sum();
        if done >= survivor_expected {
            break;
        }
        guard += 1;
        assert!(
            guard < 100,
            "survivors never completed the job: {done}/{survivor_expected}"
        );
    }
    // With W=1 a quorum write notifies on the first ack, so the job can
    // finish while legs addressed to the corpse are still in flight. Drain
    // past the watchdog so every straggler leg resolves before we inspect
    // the counters.
    rack.run(8_000);
    (rack, killed, survivor_expected)
}

/// The tentpole acceptance property at tier-1 size: with K=2 replicas and
/// WQ replay armed, a node kill loses ZERO reads on surviving nodes —
/// every read addressed to the corpse replays toward the alternate replica
/// and completes, degraded but successful.
#[test]
fn node_kill_at_k2_loses_zero_reads_on_survivors() {
    let (rack, killed, _) = recovery_rack(
        Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        },
        2,
        1,
    );
    for (n, chip) in rack.chips().iter().enumerate() {
        if n as u32 == killed {
            continue;
        }
        assert_eq!(
            chip.stats().failed_reads,
            0,
            "survivor {n} lost reads despite K=2 + replay"
        );
    }
    let stats = rack.stats();
    assert!(
        stats.backend.replays.get() > 0,
        "recovery must actually run through the replay path"
    );
    assert!(
        stats.degraded > 0,
        "replayed reads must surface the degraded completion flag"
    );
}

/// Quorum writes survive one dead replica: with K=2/W=1 every write fans
/// out to both replicas and completes on the surviving ack, so survivors
/// see no error completions and the dead legs land in the leg-failure
/// counter instead of `failed_transfers`.
#[test]
fn quorum_writes_survive_one_dead_replica() {
    let (rack, killed, _) = recovery_rack(
        Workload::AsyncWrite {
            size: 256,
            poll_every: 4,
        },
        2,
        1,
    );
    for (n, chip) in rack.chips().iter().enumerate() {
        if n as u32 == killed {
            continue;
        }
        assert_eq!(chip.failed_ops(), 0, "survivor {n} saw an error CQ entry");
    }
    let be = rack.stats().backend;
    assert!(
        be.quorum_writes.get() > 0,
        "K=2 writes must fan out through the quorum table"
    );
    assert!(
        be.quorum_leg_failures.get() > 0,
        "the dead replica's legs must be absorbed by the quorum"
    );
}
