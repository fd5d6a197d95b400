//! Multi-node rack integration tests: cross-node request/response semantics
//! over the real torus fabric, the latency floor of the wires, per-link
//! accounting, and bit-exact reproducibility from the config seed. Every
//! bit-identity check compares the shared `common::fingerprint`.

mod common;

use rackni::ni_fabric::{FaultPlan, RoutingKind, Torus3D};
use rackni::ni_mem::Addr;
use rackni::ni_qp::RemoteOp;
use rackni::ni_rmc::NiPlacement;
use rackni::ni_soc::{
    Chip, ChipConfig, ClosedLoop, GraphShard, KvStore, NodeStats, Op, OpCtx, Rack, RackSimConfig,
    Scenario, TenantMix, TrafficPattern, Workload,
};

use common::fingerprint;

const REMOTE_BASE: u64 = 1 << 40;

fn rack_cfg(torus: Torus3D, active_cores: usize, traffic: TrafficPattern) -> RackSimConfig {
    RackSimConfig {
        torus,
        chip: ChipConfig {
            active_cores,
            ..ChipConfig::default()
        },
        traffic,
        ..RackSimConfig::default()
    }
}

fn run_until(rack: &mut Rack, limit: u64, mut done: impl FnMut(&Rack) -> bool) {
    let mut guard = 0u64;
    while !done(rack) {
        rack.tick();
        guard += 1;
        assert!(guard < limit, "rack run exceeded {limit} cycles");
    }
}

/// Satellite requirement: node A remote-writes a block homed on node B,
/// then remote-reads it back — the value round-trips through B's actual
/// memory hierarchy, and both operations pay at least the physical network
/// floor of `2 x hops x 70` cycles (35 ns per hop at 2 GHz).
#[test]
fn cross_node_write_then_read_round_trips_through_remote_memory() {
    let torus = Torus3D::new(2, 2, 2);
    // Opposite pattern: node 0 targets its antipode, node 7, 3 hops away.
    let mut rack = Rack::new(
        rack_cfg(torus, 1, TrafficPattern::Opposite),
        Workload::SyncWrite { size: 64 },
    );
    let target = rack.chips()[0].cores[0].target();
    assert_eq!(u32::from(target), 7);
    let hops = u64::from(torus.hops(0, u32::from(target)));
    assert_eq!(hops, 3);

    // Seed the payload in node 0's local buffer; node 7's remote region
    // starts clean so the landing is observable.
    const TOKEN: u64 = 0xfeed_c0de_0123_4567;
    let lbuf = Addr(rack.chips()[0].cores[0].local_buf().0).block();
    let remote = Addr(REMOTE_BASE).block();
    rack.chip_mut(0).poke_block(lbuf, TOKEN);
    assert_eq!(rack.chips()[7].peek_block(remote), 0, "remote starts clean");

    // Phase 1: the write crosses the rack and lands in node 7's memory.
    run_until(&mut rack, 200_000, |r| r.chips()[0].completed_ops() >= 1);
    assert_eq!(
        rack.chips()[7].peek_block(remote),
        TOKEN,
        "write payload must land in the remote node's memory"
    );
    let write_lat = rack.chips()[0].cores[0].stats.latency.mean();
    assert!(
        write_lat >= (2 * hops * 70) as f64,
        "write latency {write_lat} beats the 2 x {hops} x 70 network floor"
    );

    // Phase 2: clear the local buffer and read the block back.
    rack.chip_mut(0).poke_block(lbuf, 0);
    rack.chip_mut(0).cores[0].reset_workload(Workload::SyncRead { size: 64 });
    run_until(&mut rack, 400_000, |r| r.chips()[0].completed_ops() >= 2);
    assert_eq!(
        rack.chips()[0].peek_block(lbuf),
        TOKEN,
        "read must return the value written in phase 1"
    );
    let mean_lat = rack.chips()[0].cores[0].stats.latency.mean();
    assert!(
        mean_lat >= (2 * hops * 70) as f64,
        "mean op latency {mean_lat} beats the network floor"
    );
}

/// An 8-node rack completes real traffic on every node, and the fabric's
/// per-directed-link counters account every hop traversed.
#[test]
fn eight_node_rack_completes_ops_on_every_node() {
    let mut rack = Rack::new(
        rack_cfg(Torus3D::new(2, 2, 2), 2, TrafficPattern::Uniform),
        Workload::SyncRead { size: 64 },
    );
    rack.run(15_000);
    for chip in rack.chips() {
        let stats = chip.stats();
        let node = chip.node_id();
        assert!(stats.completed > 0, "node {node} completed nothing");
        assert!(stats.app_payload_bytes > 0, "node {node} moved no payload");
    }
    let link_sum: u64 = rack.link_report().iter().map(|l| l.packets).sum();
    assert_eq!(link_sum, rack.hops_traversed());
    assert!(rack.peak_link_gbps() > 0.0);
    let fs = rack.fabric_stats();
    assert!(fs.sent.get() > 0 && fs.responded.get() > 0);
}

/// NUMA-mode loads (no QP machinery) also cross the real torus and find
/// their way back to the issuing core.
#[test]
fn numa_workload_crosses_the_torus() {
    let mut rack = Rack::new(
        rack_cfg(Torus3D::new(2, 1, 1), 1, TrafficPattern::Neighbor),
        Workload::NumaRead,
    );
    run_until(&mut rack, 100_000, |r| {
        r.chips().iter().all(|c| c.completed_ops() >= 3)
    });
    // One hop each way at 70 cycles plus remote service: well above 140.
    let lat = rack.chips()[0].cores[0].stats.latency.mean();
    assert!(lat >= 140.0, "NUMA latency {lat} beats the wire floor");
}

/// The two-phase parallel tick is bit-identical to the serial path: the
/// same seeded 3x3x3 scenario run (a) serially via `Rack::tick`, (b) through
/// `Rack::run` pinned to one worker, and (c) through `Rack::run` with four
/// workers must produce identical fingerprints.
#[test]
fn parallel_rack_is_bit_identical_to_serial_at_any_thread_count() {
    let cycles = 1_500u64;
    let build = |threads: usize| {
        let mut cfg = rack_cfg(Torus3D::new(3, 3, 3), 2, TrafficPattern::Uniform);
        cfg.chip.seed = 0xd15c0;
        cfg.threads = threads;
        Rack::new(
            cfg,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        )
    };

    let mut serial = build(1);
    for _ in 0..cycles {
        serial.tick();
    }
    assert!(
        serial.stats().completed > 0,
        "reference run must do real work"
    );
    assert!(
        serial.hops_traversed() > 0,
        "reference run must cross the fabric"
    );
    let want = fingerprint(&serial);

    for threads in [1usize, 4] {
        let mut rack = build(threads);
        rack.run(cycles);
        assert_eq!(
            fingerprint(&rack),
            want,
            "{threads}-thread run diverged from the serial reference"
        );
    }
}

/// A run with a `FaultPlan` — link kill, node kill, and a repair, with the
/// ITT watchdog armed — is still a pure function of its config: serial
/// ticking, one worker, and four workers must produce identical
/// fingerprints — fault-path and watchdog counters included. All fault
/// state lives in the driver-side fabric and the per-chip backends, so
/// thread count can never observe it mid-change.
#[test]
fn faulted_rack_runs_are_bit_identical_across_thread_counts() {
    let build = |threads: usize| {
        let mut cfg = rack_cfg(Torus3D::new(3, 3, 1), 2, TrafficPattern::Uniform);
        cfg.chip.seed = 0xfa117;
        cfg.chip.rmc.itt_timeout = 1_200;
        cfg.chip.rmc.itt_retries = 1;
        cfg.threads = threads;
        cfg.routing = RoutingKind::FaultAdaptive;
        cfg.faults = FaultPlan::new()
            .link_down(0, 1, 400)
            .node_down(4, 900)
            .link_up(0, 1, 2_200);
        Rack::new(
            cfg,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        )
    };
    let cycles = 6_000u64;
    let mut serial = build(1);
    for _ in 0..cycles {
        serial.tick();
    }
    assert_fault_plan_bites(&serial);
    let want = fingerprint(&serial);
    for threads in [1usize, 4] {
        let mut rack = build(threads);
        rack.run(cycles);
        assert_eq!(
            fingerprint(&rack),
            want,
            "{threads}-thread faulted run diverged from the serial reference"
        );
    }
}

/// Reproducibility: a rack run is a pure function of its config (seed
/// included), and the emulator path reproduces from `ChipConfig::seed`
/// alone.
#[test]
fn rack_runs_are_reproducible_from_the_config_seed() {
    let run = |seed: u64| {
        let mut cfg = rack_cfg(Torus3D::new(2, 2, 1), 2, TrafficPattern::Uniform);
        cfg.chip.seed = seed;
        let mut rack = Rack::new(
            cfg,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        );
        rack.run(8_000);
        fingerprint(&rack)
    };
    assert_eq!(run(42), run(42), "same seed must reproduce bit-identically");

    let emulated = |seed: u64| {
        let cfg = ChipConfig {
            seed,
            active_cores: 4,
            ..ChipConfig::default()
        };
        let mut chip = Chip::new(
            cfg,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        );
        chip.run(8_000);
        (chip.stats(), chip.fabric_stats())
    };
    assert_eq!(emulated(7), emulated(7));
}

/// The rack-scale experiment sweep produces structurally sound rows.
#[test]
fn rack_scale_experiment_reports_scaling_rows() {
    use rackni::experiments::{rack_scale, Scale};
    let pts = rack_scale(Scale::Quick, TrafficPattern::Uniform);
    assert_eq!(pts.len(), 3);
    for p in &pts {
        assert_eq!(
            p.nodes,
            u32::from(p.dims.0) * u32::from(p.dims.1) * u32::from(p.dims.2)
        );
        assert!(p.completed_ops > 0, "{:?} rack idle", p.dims);
        assert!(p.agg_ni_gbps > 0.0);
        if p.nodes > 1 {
            assert!(p.peak_link_gbps > 0.0);
            assert!(
                p.mean_hops >= 1.0,
                "{:?}: mean hops {}",
                p.dims,
                p.mean_hops
            );
        }
    }
    // More nodes, more aggregate NI throughput (each node adds both
    // requesters and servers).
    assert!(
        pts.last().expect("rows").agg_ni_gbps > pts[0].agg_ni_gbps,
        "aggregate bandwidth should grow with rack size"
    );
}

// ---- Event-driven tick equivalence -----------------------------------------

/// A faulted reference run must actually exercise the fault paths: work
/// completes, packets are dropped, and the ITT watchdog fires.
fn assert_fault_plan_bites(rack: &Rack) {
    let stats = rack.stats();
    let dropped = rack.fault_stats().packets_dropped.get();
    let timeouts = stats.backend.itt_timeouts.get();
    assert!(stats.completed > 0, "reference run must do work");
    assert!(
        dropped > 0 && timeouts > 0,
        "the fault plan must actually bite: {dropped} dropped, {timeouts} timeouts"
    );
}

/// Tentpole acceptance: the event-driven chip tick (activity sets + dormant
/// skip) is bit-identical to the poll-everything reference on a healthy
/// rack — the same seeded 3x3x3 scenario run serially under poll sets the
/// reference, and both tick modes through `Rack::run` at one and four
/// workers must reproduce it exactly.
#[test]
fn event_tick_is_bit_identical_to_poll_on_a_healthy_rack() {
    use rackni::ni_soc::TickMode;

    let build = |mode: TickMode, threads: usize| {
        let mut cfg = rack_cfg(Torus3D::new(3, 3, 3), 2, TrafficPattern::Uniform);
        cfg.chip.seed = 0x71c5;
        cfg.chip.tick_mode = mode;
        cfg.threads = threads;
        Rack::new(
            cfg,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        )
    };
    let cycles = 1_500u64;
    let mut reference = build(TickMode::Poll, 1);
    for _ in 0..cycles {
        reference.tick();
    }
    assert!(
        reference.stats().completed > 0,
        "reference run must do real work"
    );
    assert!(
        reference.hops_traversed() > 0,
        "reference run must cross the fabric"
    );
    let want = fingerprint(&reference);

    for mode in [TickMode::Poll, TickMode::Event] {
        for threads in [1usize, 4] {
            let mut rack = build(mode, threads);
            rack.run(cycles);
            assert_eq!(
                fingerprint(&rack),
                want,
                "{mode:?} tick at {threads} threads diverged from the \
                 serial poll reference"
            );
        }
    }
}

/// Same contract on a *faulted* fabric: with a link kill, a node kill, a
/// repair, and the ITT watchdog firing, the event tick must still match
/// the poll reference bit-for-bit at every thread count — fault counters,
/// watchdog statistics, and per-node completions included.
#[test]
fn event_tick_is_bit_identical_to_poll_on_a_faulted_rack() {
    use rackni::ni_soc::TickMode;

    let build = |mode: TickMode, threads: usize| {
        let mut cfg = rack_cfg(Torus3D::new(3, 3, 1), 2, TrafficPattern::Uniform);
        cfg.chip.seed = 0xfa117;
        cfg.chip.tick_mode = mode;
        cfg.chip.rmc.itt_timeout = 1_200;
        cfg.chip.rmc.itt_retries = 1;
        cfg.threads = threads;
        cfg.routing = RoutingKind::FaultAdaptive;
        cfg.faults = FaultPlan::new()
            .link_down(0, 1, 400)
            .node_down(4, 900)
            .link_up(0, 1, 2_200);
        Rack::new(
            cfg,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        )
    };
    let cycles = 6_000u64;
    let mut reference = build(TickMode::Poll, 1);
    for _ in 0..cycles {
        reference.tick();
    }
    assert_fault_plan_bites(&reference);
    let want = fingerprint(&reference);

    for mode in [TickMode::Poll, TickMode::Event] {
        for threads in [1usize, 4] {
            let mut rack = build(mode, threads);
            rack.run(cycles);
            assert_eq!(
                fingerprint(&rack),
                want,
                "{mode:?} tick at {threads} threads diverged from the \
                 serial poll reference on the faulted fabric"
            );
        }
    }
}

mod tick_equivalence_props {
    use super::*;
    use proptest::prelude::*;
    use rackni::ni_soc::{builtin_scenarios, Bursty, Synthetic, TickMode};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Next-event skipping never reorders or drops a delivery: across
        /// every builtin scenario — plus a `Bursty` duty-cycled one, whose
        /// `IdleFor` windows are exactly what the dormant fast path and
        /// idle-until-X jumps elide — and every routing policy, a seeded
        /// 2x2x2 rack produces identical fingerprints under the poll and
        /// event ticks.
        #[test]
        fn event_tick_preserves_deliveries_across_scenarios_and_policies(
            scenario_idx in 0usize..5,
            routing_idx in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let routing = [
                RoutingKind::DimensionOrder,
                RoutingKind::MinimalAdaptive,
                RoutingKind::FaultAdaptive,
            ][routing_idx];
            let run = |mode: TickMode| {
                let mut cfg = rack_cfg(Torus3D::new(2, 2, 2), 2, TrafficPattern::Uniform);
                cfg.chip.seed = seed;
                cfg.chip.tick_mode = mode;
                cfg.routing = routing;
                cfg.threads = 1;
                let scenario: Box<dyn Scenario> = if scenario_idx == 4 {
                    Box::new(Bursty::new(
                        Box::new(Synthetic::from_workload(Workload::AsyncRead {
                            size: 64,
                            poll_every: 2,
                        })),
                        2,
                        1_000,
                    ))
                } else {
                    builtin_scenarios().swap_remove(scenario_idx)
                };
                let mut rack = Rack::with_scenario(cfg, &*scenario);
                rack.run(4_000);
                fingerprint(&rack)
            };
            let poll = run(TickMode::Poll);
            let event = run(TickMode::Event);
            prop_assert_eq!(
                &poll,
                &event,
                "scenario {} under {:?} (seed {}) diverged between tick modes",
                scenario_idx,
                routing,
                seed
            );
        }
    }
}

/// A degenerate 1x1x1 "rack" routes self-traffic without touching links
/// and still makes progress against its own RRPPs.
#[test]
fn degenerate_single_node_rack_services_itself() {
    let mut rack = Rack::new(
        rack_cfg(Torus3D::new(1, 1, 1), 1, TrafficPattern::Neighbor),
        Workload::SyncRead { size: 64 },
    );
    run_until(&mut rack, 100_000, |r| r.chips()[0].completed_ops() >= 2);
    assert_eq!(rack.hops_traversed(), 0, "self traffic crosses no links");
}

// ---- Lookahead quanta ------------------------------------------------------

/// A scenario whose cores alternate between their own node and the next
/// one: every other op is self-addressed, the one kind of traffic faster
/// than the fabric's lookahead (the port loops it back inside a quantum).
#[derive(Clone, Debug)]
struct SelfAndNext;

impl Scenario for SelfAndNext {
    fn name(&self) -> &str {
        "self-and-next"
    }
    fn for_core(&self, _ctx: &OpCtx) -> Box<dyn Scenario> {
        Box::new(self.clone())
    }
    fn next_op(&mut self, ctx: &OpCtx) -> Op {
        let to = if ctx.issued.is_multiple_of(2) {
            ctx.node
        } else {
            ((u32::from(ctx.node) + 1) % ctx.nodes) as u16
        };
        Op::Remote {
            op: if ctx.issued.is_multiple_of(3) {
                RemoteOp::Write
            } else {
                RemoteOp::Read
            },
            to,
            addr: Addr(REMOTE_BASE + (ctx.issued % 32) * 64),
            size: 128,
            sync: false,
        }
    }
}

/// The two-sided serving mix on a 2x2x2 NIsplit rack: a closed-loop KV
/// tenant (RPCs with RRPP service time) on three cores beside a bulk graph
/// tenant on one.
fn serving_rack(threads: usize) -> Rack {
    let mut cfg = rack_cfg(Torus3D::new(2, 2, 2), 4, TrafficPattern::Uniform);
    cfg.chip.placement = NiPlacement::Split;
    cfg.chip.seed = 0x5e7;
    cfg.threads = threads;
    let kv = ClosedLoop::new(Box::new(KvStore::default().with_service(120)), 2, 40);
    let mix = TenantMix::new()
        .with_tenant(1, Box::new(kv), 3)
        .with_tenant(2, Box::new(GraphShard::default()), 1);
    Rack::with_scenario(cfg, &mix)
}

/// Async reads on a 3x3x1 rack through a seeded fault storm (kill/repair
/// waves from cycle 2,000) with a tight ITT watchdog under fault-adaptive
/// routing.
fn storm_rack(threads: usize) -> Rack {
    let torus = Torus3D::new(3, 3, 1);
    let mut cfg = rack_cfg(torus, 2, TrafficPattern::Uniform);
    cfg.chip.seed = 0x5707;
    cfg.chip.rmc.itt_timeout = 600;
    cfg.chip.rmc.itt_retries = 1;
    cfg.routing = RoutingKind::FaultAdaptive;
    cfg.faults = FaultPlan::fault_storm(torus, 9, 4, 2, 2_000, 120, 90);
    cfg.threads = threads;
    Rack::new(
        cfg,
        Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        },
    )
}

/// Quantum boundaries: [`Rack::run`]`(n)` is exactly `n` calls of
/// [`Rack::tick`] for run lengths around the lookahead `L` — `1, L-1, L,
/// L+1, 2L+3`, each starting wherever the previous one ended (so quanta
/// fall at every offset), then an interleaved `tick, run(L+5), tick` — at
/// one and three workers (uneven chunks), on the racks that stress the
/// quantum: the two-sided serving mix, a fault storm under the ITT
/// watchdog, and self-addressed traffic on a 1x1x1 rack and a 2x2x1 rack.
/// A per-cycle reference rack advances in lock step and the shared
/// fingerprint must match after every call.
#[test]
fn run_is_exactly_repeated_tick_across_quantum_boundaries() {
    type Build = fn(usize) -> Rack;
    // The storm's kill/repair waves straddle the checked calls after
    // warm-up.
    let (serving, storm): (Build, Build) = (serving_rack, storm_rack);
    let single: Build = |threads| {
        let mut cfg = rack_cfg(Torus3D::new(1, 1, 1), 2, TrafficPattern::Neighbor);
        cfg.threads = threads;
        Rack::with_scenario(cfg, &SelfAndNext)
    };
    let self_addressed: Build = |threads| {
        let mut cfg = rack_cfg(Torus3D::new(2, 2, 1), 2, TrafficPattern::Neighbor);
        cfg.chip.seed = 0x5e1f;
        cfg.threads = threads;
        Rack::with_scenario(cfg, &SelfAndNext)
    };

    for (name, build) in [
        ("serving", serving),
        ("fault-storm", storm),
        ("1x1x1", single),
        ("self-addressed 2x2x1", self_addressed),
    ] {
        for threads in [1usize, 3] {
            let mut reference = build(1);
            let mut rack = build(threads);
            let l = rack.lookahead();
            assert_eq!(l, 71, "hop_cycles + 1");
            // Warm up past the first completions so every later call starts
            // with traffic on the wires.
            let warm = 30 * l;
            for _ in 0..warm {
                reference.tick();
            }
            rack.run(warm);
            let mut calls: Vec<(&str, u64)> = [1, l - 1, l, l + 1, 2 * l + 3]
                .into_iter()
                .map(|n| ("run", n))
                .collect();
            calls.extend([("tick", 1), ("run", l + 5), ("tick", 1)]);
            for (call, n) in calls {
                for _ in 0..n {
                    reference.tick();
                }
                if call == "tick" {
                    rack.tick();
                } else {
                    rack.run(n);
                }
                assert_eq!(rack.now(), reference.now());
                assert_eq!(
                    fingerprint(&rack),
                    fingerprint(&reference),
                    "{name} at {threads} threads: {call}({n}) ending at {:?} \
                     diverged from per-cycle ticking",
                    rack.now()
                );
            }
            let completed = reference.stats().completed;
            assert!(completed > 0, "{name}: the reference must do work");
            if name == "fault-storm" {
                let dropped = reference.fault_stats().packets_dropped.get();
                assert!(dropped > 0, "{name}: the storm must bite");
            }
        }
    }
}

/// `Rack::stats` is the node-order fold of the chip snapshots, and the
/// snapshot is internally consistent: per-tenant rows sum to the totals,
/// and `failed_reads <= failed <= completed <= issued`, `degraded <=
/// completed` hold on every node and rack-wide — on the serving mix and
/// on a fault storm where the watchdog fails and replays operations.
#[test]
fn rack_stats_fold_chip_snapshots_consistently() {
    for (name, mut rack) in [("serving", serving_rack(1)), ("fault-storm", storm_rack(1))] {
        rack.run(6_000);
        let total = rack.stats();
        let mut folded = NodeStats::new();
        for chip in rack.chips() {
            let node = chip.stats();
            assert_ordered(name, &node);
            folded.merge(&node);
        }
        assert_eq!(total, folded, "{name}: Rack::stats is not the chip fold");
        assert_ordered(name, &total);
        assert!(total.completed > 0, "{name}: the run must do work");
        let tenant_sum = |f: fn(&rackni::ni_metrics::TenantAccum) -> u64| -> u64 {
            total.tenants.values().map(f).sum()
        };
        assert_eq!(tenant_sum(|t| t.issued), total.issued, "{name}: issued");
        assert_eq!(tenant_sum(|t| t.completed), total.completed, "{name}");
        assert_eq!(tenant_sum(|t| t.failed), total.failed, "{name}: failed");
        assert_eq!(tenant_sum(|t| t.degraded), total.degraded, "{name}");
        assert_eq!(tenant_sum(|t| t.bytes), total.bytes_completed, "{name}");
        if name == "fault-storm" {
            assert!(
                total.backend.itt_timeouts.get() > 0 && total.failed > 0,
                "{name}: the storm must trip the watchdog and fail ops"
            );
        } else {
            assert!(total.tenants.len() >= 2, "{name}: both tenants report");
        }
    }
}

/// The ordering relations every [`NodeStats`] must satisfy.
fn assert_ordered(name: &str, s: &NodeStats) {
    assert!(
        s.failed_reads <= s.failed && s.failed <= s.completed && s.completed <= s.issued,
        "{name}: failed_reads {} <= failed {} <= completed {} <= issued {} violated",
        s.failed_reads,
        s.failed,
        s.completed,
        s.issued
    );
    assert!(
        s.degraded <= s.completed,
        "{name}: degraded {} > completed {}",
        s.degraded,
        s.completed
    );
}
