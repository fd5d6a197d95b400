//! Parallel-rack scaling benchmark: the paper's rack sizes (2x2x2 up to the
//! 512-node 8x8x8 torus of §1, plus a 4096-node 16x16x16 stretch point)
//! driven through the lookahead-quantum parallel `Rack::run` loop, with
//! simulator throughput (simulated cycles per wall-clock second) measured
//! serially and in parallel at every size.
//!
//! Three jobs in one binary:
//!
//! 1. **Throughput trajectory** — writes `BENCH_rack.json` (schema
//!    `rackni-bench-rack/3`) so CI can archive cycles/sec per rack size and
//!    scenario, and future PRs can track simulator-performance regressions.
//!    Each point also records its sync rounds (the quanta `Rack::run`
//!    synchronized on, see `Rack::sync_rounds`).
//! 2. **Speedup check** — on multi-core hosts the same seeded run is timed
//!    once pinned to one worker and once across all workers; the ratio is
//!    the parallel-tick speedup, and speedup / threads (serial wall over
//!    threads × parallel wall) the parallel efficiency, both per size.
//! 3. **Determinism guard** — the serial and parallel runs of each point
//!    must produce identical fabric counters, completed ops, and hop
//!    counts; any divergence aborts the benchmark.
//!
//! Two traffic shapes run per sweep:
//!
//! * `uniform-async` — every active core issues back-to-back 512B async
//!   reads (the saturation regime; see `experiments::build_rack_point`).
//! * `idle-heavy` — a stencil-like nearest-neighbour exchange: 2-op bursts
//!   against 10k-cycle declared think windows with frontend poll backoff
//!   (see `experiments::build_idle_rack_point`): the regime the
//!   event-driven chip tick is built for, and the only shape the 4096-node
//!   point runs (a saturated 4096-node rack is a full-scale job, not a CI
//!   smoke).
//!
//! ```sh
//! cargo run --release --example rack_bench                 # quick (CI)
//! RACKNI_SCALE=full cargo run --release --example rack_bench
//! RACKNI_THREADS=8 cargo run --release --example rack_bench
//! ```
//!
//! Chips use the paper's NIedge placement (see `experiments::rack_scale`):
//! the design the paper scales to the full rack, and the config that keeps
//! a fully simulated 512-node rack inside CI budgets.

use std::time::Instant;

use rackni::experiments::{build_idle_rack_point, build_rack_point, Scale};
use rackni::ni_soc::{TickMode, TrafficPattern};
use rackni::parallel::default_threads;
use rackni::report::{f1, BenchRecord, Fields, Table};

/// Traffic shape of one benchmark point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// Saturating back-to-back async reads.
    UniformAsync,
    /// Bursty duty-cycled reads with declared idle windows.
    IdleHeavy,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::UniformAsync => "uniform-async",
            Shape::IdleHeavy => "idle-heavy",
        }
    }
}

/// Observable outcome of one run — serial and parallel runs of the same
/// seeded config must match exactly.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    sent: u64,
    incoming: u64,
    responded: u64,
    completed_ops: u64,
    hops: u64,
}

struct RunResult {
    build_ms: f64,
    wall_ms: f64,
    cps: f64,
    sync_rounds: u64,
    fp: Fingerprint,
}

fn run_point(shape: Shape, dims: (u16, u16, u16), cycles: u64, threads: usize) -> RunResult {
    // One source of truth per shape: the same builders the
    // `experiments::rack_scale` sweep and the simperf gate use, so the
    // BENCH_rack.json trajectory and the sweep tables can never drift
    // apart. Both shapes run the default event-driven tick — the
    // trajectory tracks the simulator as shipped (simperf covers the
    // event-vs-poll comparison).
    let t0 = Instant::now();
    let mut rack = match shape {
        Shape::UniformAsync => build_rack_point(dims, TrafficPattern::Uniform, threads),
        Shape::IdleHeavy => build_idle_rack_point(dims, threads, TickMode::Event),
    };
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    rack.run(cycles);
    let wall = t1.elapsed().as_secs_f64();
    let fs = rack.fabric_stats();
    RunResult {
        build_ms,
        wall_ms: wall * 1e3,
        cps: cycles as f64 / wall.max(1e-9),
        sync_rounds: rack.sync_rounds(),
        fp: Fingerprint {
            sent: fs.sent.get(),
            incoming: fs.incoming_generated.get(),
            responded: fs.responded.get(),
            completed_ops: rack.completed_ops(),
            hops: rack.hops_traversed(),
        },
    }
}

fn main() {
    let scale = Scale::from_env();
    let host_threads = default_threads();
    // (shape, dims, horizon): quick keeps CI smoke runs inside seconds per
    // point; full pins the paper's 512-node rack at a >=50k-cycle horizon
    // (enough for tens of thousands of completed round trips at ~1.1k
    // cycles each). The 16x16x16 4096-node stretch point runs idle-heavy
    // only, at a short horizon — its job is to prove the rack scales 8x
    // past the paper and to put a cycles/sec number on it.
    let points: Vec<(Shape, (u16, u16, u16), u64)> = match scale {
        Scale::Quick => vec![
            (Shape::UniformAsync, (2, 2, 2), 6_000),
            (Shape::UniformAsync, (3, 3, 3), 2_500),
            (Shape::UniformAsync, (4, 4, 4), 1_200),
            (Shape::UniformAsync, (8, 8, 8), 400),
            (Shape::IdleHeavy, (4, 4, 4), 11_500),
            // Pre-discovery window only (the idle-heavy shape's frontends
            // take ~5.4k cycles to round-robin onto the one active QP):
            // this point's job is proving the 4096-node build and pricing
            // the dormant path, not moving traffic — the full sweep does
            // that with a post-discovery horizon.
            (Shape::IdleHeavy, (16, 16, 16), 600),
        ],
        Scale::Full => vec![
            (Shape::UniformAsync, (2, 2, 2), 60_000),
            (Shape::UniformAsync, (3, 3, 3), 60_000),
            (Shape::UniformAsync, (4, 4, 4), 60_000),
            (Shape::UniformAsync, (8, 8, 8), 50_000),
            (Shape::IdleHeavy, (8, 8, 8), 50_000),
            // Past the ~5.4k-cycle WQ-discovery latency, so the burst
            // crosses the 4096-node fabric within the horizon.
            (Shape::IdleHeavy, (16, 16, 16), 8_000),
        ],
    };
    println!(
        "rackni rack_bench: lookahead-quantum parallel rack runs, scale {scale:?}, \
         host threads {host_threads}\n"
    );

    let mut table = Table::new(&[
        "scenario",
        "torus",
        "nodes",
        "cycles",
        "build (ms)",
        "serial cyc/s",
        "parallel cyc/s",
        "threads",
        "speedup",
        "efficiency",
        "rounds",
        "ops",
        "hops",
    ]);
    let mut record = BenchRecord::new(
        "rack",
        3,
        Fields::new()
            .str("scale", scale.name())
            .int("host_threads", host_threads),
    );
    for &(shape, dims, cycles) in &points {
        let nodes = u32::from(dims.0) * u32::from(dims.1) * u32::from(dims.2);
        // Rack::run clamps its pool to the chip count; report the workers
        // the parallel run actually gets, not the raw host count.
        let eff_threads = host_threads.min(nodes as usize).max(1);
        let serial = run_point(shape, dims, cycles, 1);
        // On a single-core host the parallel run would measure the same
        // configuration twice; reuse the serial numbers.
        let parallel = if host_threads > 1 {
            let p = run_point(shape, dims, cycles, 0);
            assert_eq!(
                p.fp,
                serial.fp,
                "{dims:?}/{}: parallel run diverged from the serial reference",
                shape.name()
            );
            Some(p)
        } else {
            None
        };
        let (pcps, pwall) = parallel
            .as_ref()
            .map_or((serial.cps, serial.wall_ms), |p| (p.cps, p.wall_ms));
        let speedup = pcps / serial.cps;
        let efficiency = speedup / eff_threads as f64;
        table.row_owned(vec![
            shape.name().to_string(),
            format!("{}x{}x{}", dims.0, dims.1, dims.2),
            nodes.to_string(),
            cycles.to_string(),
            f1(serial.build_ms),
            f1(serial.cps),
            f1(pcps),
            eff_threads.to_string(),
            format!("{speedup:.2}x"),
            format!("{efficiency:.2}"),
            serial.sync_rounds.to_string(),
            serial.fp.completed_ops.to_string(),
            serial.fp.hops.to_string(),
        ]);
        record.push(
            Fields::new()
                .str("scenario", shape.name())
                .str("torus", &format!("{}x{}x{}", dims.0, dims.1, dims.2))
                .int("nodes", nodes)
                .int("cycles", cycles)
                .float("serial_cps", serial.cps, 1)
                .float("parallel_cps", pcps, 1)
                .int("threads", eff_threads)
                .float("speedup", speedup, 4)
                .float("parallel_efficiency", efficiency, 4)
                .int("sync_rounds", serial.sync_rounds)
                .float("wall_ms_serial", serial.wall_ms, 1)
                .float("wall_ms_parallel", pwall, 1)
                .float("build_ms", serial.build_ms, 1)
                .int("completed_ops", serial.fp.completed_ops)
                .int("hops", serial.fp.hops),
        );
    }
    println!("{}", table.render());
    if host_threads > 1 {
        println!(
            "serial and parallel runs produced identical fabric counters, ops, \
             and hop counts at every size (determinism guard passed)"
        );
    } else {
        println!(
            "single-core host: parallel columns mirror the serial run \
             (speedup needs >1 host thread; set RACKNI_THREADS on a bigger box)"
        );
    }

    let path = record.write().expect("write BENCH_rack.json");
    println!("\nthroughput trajectory written to {}", path.display());
}
