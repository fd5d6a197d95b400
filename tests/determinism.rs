//! Same-seed bit-identity regression for the determinism cleanup ni_lint
//! forced: build the same seeded rack twice *in the same process* and
//! require identical fingerprints.
//!
//! This catches exactly the hazard class the linter's `hash-order` rule
//! polices: `HashMap`'s per-instance `RandomState` draws fresh OS entropy
//! for every map, so iteration order differs between two maps built in one
//! process. Before the cleanup, the cache complex broke LRU-victim ties and
//! the trace table folded float means in hash order — both converted to
//! `BTreeMap` (along with the RMC pipeline and chip dispatch maps), and
//! these runs pin the conversion down. The fingerprint is the shared one
//! (`common::fingerprint`): every node's stats snapshot plus the fabric's
//! counters, so a reordered victim choice, retry or delivery anywhere —
//! down to one latency sample or one tenant's accounting — shows up.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use rackni::ni_fabric::{FaultPlan, ReplicaCfg, RoutingKind, Torus3D};
use rackni::ni_soc::{
    ChipConfig, ClosedLoop, GraphShard, KvStore, Op, OpCtx, Rack, RackSimConfig, Scenario,
    TenantMix, TrafficPattern, Workload,
};

use common::fingerprint;

/// A healthy seeded rack: 2x2x2 torus, every node issuing async remote
/// reads. Exercises the frontend poll/dispatch maps, the RRPP pending
/// queues, the directory and cache-complex maps on every chip.
fn healthy_run(cycles: u64) -> Rack {
    let mut cfg = RackSimConfig {
        torus: Torus3D::new(2, 2, 2),
        chip: ChipConfig {
            active_cores: 2,
            ..ChipConfig::default()
        },
        traffic: TrafficPattern::Uniform,
        ..RackSimConfig::default()
    };
    cfg.chip.seed = 0xd51e;
    let mut rack = Rack::new(
        cfg,
        Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        },
    );
    rack.run(cycles);
    rack
}

/// A faulty seeded rack: a mid-run link kill under health-blind
/// dimension-order routing, so transfers stall into the ITT watchdog. The
/// watchdog's timeout scan walks the backend's transfer table and its retry
/// purge `retain`s it — the iteration-order-sensitive paths the `BTreeMap`
/// conversion fixed — and the retried traffic reshapes every downstream
/// cache/directory map.
fn faulty_run(cycles: u64) -> Rack {
    let mut cfg = RackSimConfig {
        torus: Torus3D::new(3, 3, 1),
        chip: ChipConfig {
            active_cores: 2,
            ..ChipConfig::default()
        },
        traffic: TrafficPattern::Uniform,
        routing: RoutingKind::DimensionOrder,
        faults: FaultPlan::new().link_down(0, 1, 300),
        ..RackSimConfig::default()
    };
    cfg.chip.seed = 0xfa11;
    cfg.chip.rmc.itt_timeout = 1_500;
    cfg.chip.rmc.itt_retries = 2;
    let mut rack = Rack::new(
        cfg,
        Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        },
    );
    rack.run(cycles);
    rack
}

/// A recovering seeded rack: K=2 replication with WQ replay armed, a node
/// kill mid-run. The recovery machinery adds two new order-sensitive
/// structures — the quorum table (write legs joining out of order) and the
/// replay path (generation bumps, alternate-destination re-injection) —
/// and this run pins both to the same-seed contract. A 95/5 GET/PUT mix
/// exercises read replay and write quorum in the same run.
fn recovery_run(cycles: u64) -> Rack {
    let mut cfg = RackSimConfig {
        torus: Torus3D::new(3, 3, 1),
        chip: ChipConfig {
            active_cores: 2,
            ..ChipConfig::default()
        },
        traffic: TrafficPattern::Uniform,
        routing: RoutingKind::FaultAdaptive,
        faults: FaultPlan::new().node_down(4, 300),
        ..RackSimConfig::default()
    };
    cfg.chip.seed = 0x4ec0;
    cfg.chip.rmc.itt_timeout = 1_500;
    cfg.chip.rmc.itt_retries = 1;
    cfg.chip.rmc.replication = ReplicaCfg {
        k: 2,
        w: 1,
        seed: 0x4ec0,
    };
    cfg.chip.rmc.replay_budget = 1;
    let mut rack = Rack::with_scenario(cfg, &rackni::ni_soc::KvStore::default());
    rack.run(cycles);
    rack
}

/// A multi-tenant serving rack: a closed-loop KV tenant (two-sided RPCs
/// via a per-block service time, seeded think times) interleaved with a
/// bulk graph tenant on disjoint cores. Adds the serving tier's own
/// order-sensitive surfaces — the closed-loop window bookkeeping
/// (`OpCtx::inflight`), the think-time RNG, the RRPP service-time delay
/// queue, and the per-tenant `BTreeMap` aggregation — to the same-seed
/// contract.
fn serving_run(cycles: u64) -> Rack {
    let mut cfg = RackSimConfig {
        torus: Torus3D::new(3, 3, 1),
        chip: ChipConfig {
            active_cores: 2,
            ..ChipConfig::default()
        },
        ..RackSimConfig::default()
    };
    cfg.chip.seed = 0x5e41;
    let mix = TenantMix::new()
        .with_tenant(
            1,
            Box::new(ClosedLoop::new(
                Box::new(KvStore::default().with_service(150)),
                4,
                64,
            )),
            1,
        )
        .with_tenant(2, Box::new(GraphShard::default()), 1);
    let mut rack = Rack::with_scenario(cfg, &mix);
    rack.run(cycles);
    rack
}

#[test]
fn same_seed_twice_in_one_process_is_bit_identical() {
    let cycles = 4_000;
    let rack = healthy_run(cycles);
    let completed = rack.stats().completed;
    assert!(completed > 0, "run must do real work");
    assert!(rack.hops_traversed() > 0, "run must cross the fabric");
    assert_eq!(
        fingerprint(&rack),
        fingerprint(&healthy_run(cycles)),
        "same seed, same process, different fingerprint"
    );
}

#[test]
fn same_seed_watchdog_run_is_bit_identical() {
    let cycles = 12_000;
    let rack = faulty_run(cycles);
    let timeouts = rack.stats().backend.itt_timeouts.get();
    assert!(timeouts > 0, "the dead link must trip the ITT watchdog");
    assert_eq!(
        fingerprint(&rack),
        fingerprint(&faulty_run(cycles)),
        "same seed, same faults, different fingerprint"
    );
}

#[test]
fn same_seed_recovery_run_is_bit_identical() {
    let cycles = 20_000;
    let rack = recovery_run(cycles);
    let stats = rack.stats();
    assert!(
        stats.backend.replays.get() > 0,
        "the node kill must force WQ replays through the replica map"
    );
    assert!(
        stats.backend.quorum_writes.get() > 0,
        "the PUT slice must fan out through the quorum table"
    );
    assert!(
        stats.degraded > 0,
        "replayed reads must complete with the degraded flag"
    );
    assert_eq!(
        fingerprint(&rack),
        fingerprint(&recovery_run(cycles)),
        "same seed, same recovery, different fingerprint"
    );
}

/// The serving mix adds per-tenant accounting to the contract: a
/// reordering that only moved *which tenant* an op was accounted to would
/// slip past transport-level counters, but not past the per-node tenant
/// rows in the fingerprint.
#[test]
fn same_seed_serving_run_is_bit_identical_per_tenant() {
    let cycles = 10_000;
    let rack = serving_run(cycles);
    let tenants = rack.stats().tenants;
    for (tag, name) in [(1, "kv"), (2, "bulk")] {
        let completed = tenants.get(&tag).map_or(0, |t| t.completed);
        assert!(completed > 0, "{name} tenant must complete ops");
    }
    assert_eq!(
        fingerprint(&rack),
        fingerprint(&serving_run(cycles)),
        "same seed, same mix, different fingerprint"
    );
}

/// Wraps the scenario *inside* a [`ClosedLoop`] and records the largest
/// `ctx.inflight` it was consulted at — the closed loop only reaches its
/// inner generator when it decides to issue a real op, so this observes
/// exactly the pre-issue outstanding count the window must bound.
#[derive(Debug)]
struct Probe {
    inner: Box<dyn Scenario>,
    max_inflight: Arc<AtomicU64>,
}

impl Scenario for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn for_core(&self, ctx: &OpCtx) -> Box<dyn Scenario> {
        Box::new(Probe {
            inner: self.inner.for_core(ctx),
            max_inflight: Arc::clone(&self.max_inflight),
        })
    }
    fn next_op(&mut self, ctx: &OpCtx) -> Op {
        self.max_inflight.fetch_max(ctx.inflight, Ordering::Relaxed);
        self.inner.next_op(ctx)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The closed-loop bound, as a property over the window and think
    /// parameters: across a real rack run, the core never asks the inner
    /// generator for an op while `window` requests are already
    /// outstanding.
    #[test]
    fn closed_loop_never_exceeds_its_window(window in 1u64..=6, think in 0u64..=100) {
        let max_inflight = Arc::new(AtomicU64::new(0));
        let probe = Probe {
            inner: Box::new(KvStore::default().with_service(100)),
            max_inflight: Arc::clone(&max_inflight),
        };
        let closed = ClosedLoop::new(Box::new(probe), window, think);
        let mut cfg = RackSimConfig {
            torus: Torus3D::new(2, 1, 1),
            chip: ChipConfig {
                active_cores: 2,
                ..ChipConfig::default()
            },
            ..RackSimConfig::default()
        };
        cfg.chip.seed = 0xc105;
        let mut rack = Rack::with_scenario(cfg, &closed);
        rack.run(4_000);
        prop_assert!(rack.stats().completed > 0, "run must do real work");
        let seen = max_inflight.load(Ordering::Relaxed);
        prop_assert!(
            seen < window,
            "inner generator consulted at inflight {seen} >= window {window}"
        );
    }
}
