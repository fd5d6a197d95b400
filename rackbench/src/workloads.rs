//! The rack workloads: `uniform-4x4x4` and `serving-4x4x4`, the two in
//! `BENCHMARK.json`, and `idle-8x8x8`, run by hand (see `README.md`).
//!
//! Each one is rebuilt here from public types rather than taken from
//! `experiments`, for two reasons: the workload seed must reach
//! [`ChipConfig::seed`], and the outside-in traced driver needs the exact
//! `(RackSimConfig, Scenario)` pair to build the same chips by hand. The
//! first two mirror `experiments::build_rack_point` and
//! `experiments::build_idle_rack_point` field for field; the third is the
//! serving study's shared tenant mix.
//!
//! Every workload fixes its worker-thread count (nothing reads
//! `RACKNI_THREADS` or the host's parallelism) and its horizon, so the
//! simulated outcome is a pure function of the seed.

use rackni::experiments::{
    SERVING_KV_SERVICE, SERVING_THINK, SERVING_WINDOW, TENANT_BULK, TENANT_KV,
};
use rackni::ni_fabric::Torus3D;
use rackni::ni_rmc::NiPlacement;
use rackni::ni_soc::{
    Bursty, ChipConfig, ClosedLoop, GraphShard, KvStore, Rack, RackSimConfig, Scenario, Synthetic,
    TenantMix, TickMode, TrafficPattern, Workload,
};

/// One workload of record.
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Compute-phase worker threads of the measured `Rack::run`.
    pub threads: usize,
    /// Simulated cycles per run, from a cold rack.
    pub horizon: u64,
    /// Tenant tag whose latency tail is the workload's SLO (the sole
    /// tenant, tag 0, on single-tenant workloads).
    pub slo_tenant: u8,
    /// Tenant tag whose goodput is the workload's bulk figure.
    pub bulk_tenant: u8,
    build: fn(u64) -> (RackSimConfig, Box<dyn Scenario>),
}

/// KV cores per bulk core on each serving chip. The serving study's one
/// KV core per chip completes only ~200 requests per 5k cycles on 64
/// nodes; fifteen complete ~1,700 in the 3k-cycle horizon, clear of the
/// 1,000 samples a p99 needs on every seed tried.
const SERVING_KV_SHARE: u32 = 15;

/// Every workload; the `BENCHMARK.json` ones keep its order.
pub const ALL: [Spec; 3] = [
    Spec {
        name: "uniform-4x4x4",
        threads: 1,
        horizon: 4_000,
        slo_tenant: 0,
        bulk_tenant: 0,
        build: uniform,
    },
    Spec {
        name: "idle-8x8x8",
        threads: 2,
        horizon: 11_000,
        slo_tenant: 0,
        bulk_tenant: 0,
        build: idle,
    },
    Spec {
        name: "serving-4x4x4",
        threads: 2,
        horizon: 3_000,
        slo_tenant: TENANT_KV,
        bulk_tenant: TENANT_BULK,
        build: serving,
    },
];

impl Spec {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        ALL.iter().find(|s| s.name == name)
    }

    /// The rack configuration (with `threads` workers) and the prototype
    /// scenario for `seed`.
    pub fn config(&self, seed: u64, threads: usize) -> (RackSimConfig, Box<dyn Scenario>) {
        let (mut cfg, scenario) = (self.build)(seed);
        cfg.threads = threads;
        (cfg, scenario)
    }

    /// Build the rack for `seed` with `threads` compute-phase workers.
    pub fn rack(&self, seed: u64, threads: usize) -> Rack {
        let (cfg, scenario) = self.config(seed, threads);
        Rack::with_scenario(cfg, scenario.as_ref())
    }
}

fn rack_cfg(dims: (u16, u16, u16), chip: ChipConfig, traffic: TrafficPattern) -> RackSimConfig {
    RackSimConfig {
        torus: Torus3D::new(dims.0, dims.1, dims.2),
        chip,
        traffic,
        ..RackSimConfig::default()
    }
}

/// `build_rack_point((4,4,4), Uniform, _)`: NIedge chips, four cores each
/// streaming 512 B async reads, saturated up to QP depth.
fn uniform(seed: u64) -> (RackSimConfig, Box<dyn Scenario>) {
    let chip = ChipConfig {
        active_cores: 4,
        placement: NiPlacement::Edge,
        seed,
        ..ChipConfig::default()
    };
    let scenario = Synthetic::from_workload(Workload::AsyncRead {
        size: 512,
        poll_every: 4,
    })
    .with_pattern(TrafficPattern::Uniform);
    (
        rack_cfg((4, 4, 4), chip, TrafficPattern::Uniform),
        Box::new(scenario),
    )
}

/// `build_idle_rack_point((8,8,8), _, Event)`: one core per NIedge node
/// doing 2-op 64 B neighbour bursts between 10k-cycle think windows, with
/// the frontends' WQ poll backed off to a 512-cycle cadence.
fn idle(seed: u64) -> (RackSimConfig, Box<dyn Scenario>) {
    let mut chip = ChipConfig {
        active_cores: 1,
        placement: NiPlacement::Edge,
        tick_mode: TickMode::Event,
        seed,
        ..ChipConfig::default()
    };
    chip.rmc.poll_backoff = 512;
    let scenario = Bursty::new(
        Box::new(
            Synthetic::from_workload(Workload::AsyncRead {
                size: 64,
                poll_every: 2,
            })
            .with_pattern(TrafficPattern::Neighbor),
        ),
        2,
        10_000,
    );
    (
        rack_cfg((8, 8, 8), chip, TrafficPattern::Neighbor),
        Box::new(scenario),
    )
}

/// The serving study's shared mix on NIsplit chips: a closed-loop KV RPC
/// tenant (95% GET / 5% PUT, `SERVING_KV_SERVICE` cycles of RRPP service
/// per GET block) beside an open-loop graph-shard bulk tenant, on disjoint
/// cores of every chip.
fn serving(seed: u64) -> (RackSimConfig, Box<dyn Scenario>) {
    let chip = ChipConfig {
        active_cores: SERVING_KV_SHARE as usize + 1,
        placement: NiPlacement::Split,
        seed,
        ..ChipConfig::default()
    };
    let kv = ClosedLoop::new(
        Box::new(KvStore::default().with_service(SERVING_KV_SERVICE)),
        SERVING_WINDOW,
        SERVING_THINK,
    );
    let mix = TenantMix::new()
        .with_tenant(TENANT_KV, Box::new(kv), SERVING_KV_SHARE)
        .with_tenant(TENANT_BULK, Box::new(GraphShard::default()), 1);
    (
        rack_cfg((4, 4, 4), chip, TrafficPattern::Uniform),
        Box::new(mix),
    )
}
