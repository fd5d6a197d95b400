//! Simulator speed: simulated cycles per wall-clock second, the one
//! in-tree harness for how fast the reproduction runs. Not a paper
//! artifact — it guards that the simulator runs the paper's 512-node rack
//! (and an 8x larger one) fast enough to use.
//!
//! Each point is a seeded build plus a timed run ([`Stopwatch`]) of a
//! single chip or a whole rack: idle-heavy racks
//! (`experiments::build_idle_rack_point`) and bursty racks in both tick
//! modes, saturated uniform-async racks (`experiments::build_rack_point`)
//! from 2x2x2 to 8x8x8, an idle-heavy 16x16x16 rack, and two single-chip
//! microbenchmarks. `RACKNI_SCALE=full` adds long-horizon rack points.
//! Every rack point is timed at the default worker count (the `cps`
//! figure) and, on a multi-threaded host, event-tick points again on one
//! worker (`serial_cps`, speedup, parallel efficiency).
//!
//! 1. **Trajectory** — writes `BENCH_simperf.json` (schema
//!    `rackni-bench-simperf/2`) at the workspace root, one row per point,
//!    before any gate runs.
//! 2. **Determinism guard** — any two runs of one workload (serial vs
//!    parallel, poll vs event tick) must produce identical rack stats
//!    snapshots, fabric counters and hop counts, or the harness aborts.
//! 3. **Speedup gate** (machine-independent) — the event tick must clear
//!    [`MIN_EVENT_SPEEDUP`] over the poll tick on the idle-heavy 8x8x8
//!    rack, both measured in the same process.
//! 4. **Regression gate** — every point named in the committed
//!    `BENCH_simperf_baseline.json` (from a slow 1-core container) must
//!    reach [`BASELINE_TOLERANCE`] of its recorded cycles/sec: wide enough
//!    for host variance, tight enough for order-of-magnitude regressions.
//!    Points the baseline does not name are measured but not gated.
//!
//! ```sh
//! cargo bench --bench simperf                   # quick (CI)
//! RACKNI_SCALE=full cargo bench --bench simperf
//! ```

use std::path::Path;

use rackni::experiments::{build_idle_rack_point, build_rack_point, Scale};
use rackni::ni_fabric::{FabricStats, Torus3D};
use rackni::ni_rmc::NiPlacement;
use rackni::ni_soc::{
    Bursty, Chip, ChipConfig, NodeStats, Rack, RackSimConfig, Synthetic, TickMode, TrafficPattern,
    Workload,
};
use rackni::parallel::default_threads;
use rackni::report::{f1, workspace_root, BenchRecord, Fields, Stopwatch, Table};

/// The event tick's minimum speedup over the poll tick on the idle-heavy
/// 8x8x8 rack.
const MIN_EVENT_SPEEDUP: f64 = 3.0;

/// The fraction of its baseline cycles/sec every baselined point must
/// reach.
const BASELINE_TOLERANCE: f64 = 0.25;

/// Traffic shape of a rack point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// Duty-cycled nearest-neighbour bursts against long declared think
    /// windows: the event tick's home regime.
    IdleHeavy,
    /// Short think windows, so full ticks dominate: checks the event
    /// tick's bookkeeping does not cost more than it saves.
    Bursty,
    /// Back-to-back 512B async reads from four cores per node: saturation.
    /// Event tick only.
    UniformAsync,
}

impl Shape {
    fn tag(self) -> &'static str {
        match self {
            Shape::IdleHeavy => "idle_heavy",
            Shape::Bursty => "bursty",
            Shape::UniformAsync => "uniform_async",
        }
    }

    fn build(self, dims: (u16, u16, u16), threads: usize, mode: TickMode) -> Rack {
        match self {
            Shape::IdleHeavy => build_idle_rack_point(dims, threads, mode),
            Shape::Bursty => build_bursty_rack(dims, threads, mode),
            Shape::UniformAsync => {
                assert_eq!(mode, TickMode::Event, "uniform-async runs the event tick");
                build_rack_point(dims, TrafficPattern::Uniform, threads)
            }
        }
    }
}

/// The *bursty* shape: shorter think-time windows than the idle-heavy rack
/// point (8-op bursts against 100-cycle windows, 32-cycle poll backoff),
/// so full ticks are a much larger fraction of the run — the regime where
/// the event tick's win is modest and its bookkeeping overhead would show.
fn build_bursty_rack(dims: (u16, u16, u16), threads: usize, mode: TickMode) -> Rack {
    let mut chip = ChipConfig {
        active_cores: 2,
        placement: NiPlacement::Edge,
        tick_mode: mode,
        ..ChipConfig::default()
    };
    chip.rmc.poll_backoff = 32;
    let cfg = RackSimConfig {
        torus: Torus3D::new(dims.0, dims.1, dims.2),
        chip,
        traffic: TrafficPattern::Uniform,
        threads,
        ..RackSimConfig::default()
    };
    let scenario = Bursty::new(
        Box::new(
            Synthetic::from_workload(Workload::AsyncRead {
                size: 512,
                poll_every: 4,
            })
            .with_pattern(TrafficPattern::Uniform),
        ),
        8,
        100,
    );
    Rack::with_scenario(cfg, &scenario)
}

/// What one point simulates.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// A default-config chip running `Workload` on its own.
    Chip(Workload),
    /// A rack of `shape` traffic over a `dims` torus.
    Rack {
        shape: Shape,
        dims: (u16, u16, u16),
        mode: TickMode,
    },
}

/// One entry of the point list.
struct Point {
    name: String,
    target: Target,
    cycles: u64,
}

fn chip(name: &str, workload: Workload, cycles: u64) -> Point {
    Point {
        name: name.to_string(),
        target: Target::Chip(workload),
        cycles,
    }
}

fn rack(shape: Shape, dims: (u16, u16, u16), mode: TickMode, cycles: u64) -> Point {
    let mode_tag = match mode {
        TickMode::Event => "event",
        TickMode::Poll => "poll",
    };
    Point {
        name: format!(
            "{}_{}x{}x{}_{mode_tag}",
            shape.tag(),
            dims.0,
            dims.1,
            dims.2
        ),
        target: Target::Rack { shape, dims, mode },
        cycles,
    }
}

/// The point list at `scale`. Rack points come first, so a reader that
/// takes its columns from the first row sees the rack columns.
fn points(scale: Scale) -> Vec<Point> {
    use Shape::{Bursty, IdleHeavy, UniformAsync};
    use TickMode::{Event, Poll};
    let mut points = Vec::new();
    // One full burst-plus-think period (~11.5k cycles) per idle-heavy
    // point, so the poll/event ratio reflects the workload's true duty
    // cycle rather than over- or under-weighting the burst tail.
    for dims in [(2, 2, 2), (4, 4, 4), (8, 8, 8)] {
        for mode in [Event, Poll] {
            points.push(rack(IdleHeavy, dims, mode, 11_500));
        }
    }
    for mode in [Event, Poll] {
        points.push(rack(Bursty, (8, 8, 8), mode, 800));
    }
    for (dims, cycles) in [
        ((2, 2, 2), 6_000),
        ((3, 3, 3), 2_500),
        ((4, 4, 4), 1_200),
        ((8, 8, 8), 400),
    ] {
        points.push(rack(UniformAsync, dims, Event, cycles));
    }
    // Pre-discovery window only (the idle-heavy frontends take ~5.4k
    // cycles to round-robin onto the one active QP): this point proves the
    // 4096-node build and prices the dormant path, not traffic.
    points.push(rack(IdleHeavy, (16, 16, 16), Event, 600));
    if scale == Scale::Full {
        for (shape, dims, cycles) in [
            (UniformAsync, (2, 2, 2), 60_000),
            (UniformAsync, (3, 3, 3), 60_000),
            (UniformAsync, (4, 4, 4), 60_000),
            (UniformAsync, (8, 8, 8), 50_000),
            (IdleHeavy, (8, 8, 8), 50_000),
            (IdleHeavy, (16, 16, 16), 8_000),
        ] {
            let mut p = rack(shape, dims, Event, cycles);
            p.name += &format!("_{}k", cycles / 1_000);
            points.push(p);
        }
    }
    points.push(chip("chip_idle", Workload::Idle, 20_000));
    points.push(chip(
        "chip_async_split_512B",
        Workload::AsyncRead {
            size: 512,
            poll_every: 4,
        },
        5_000,
    ));
    points
}

/// The observable outcome of a rack run: its stats snapshot, fabric
/// counters and hop count.
type Fingerprint = (NodeStats, FabricStats, u64);

/// One timed rack run.
struct RackRun {
    build_ms: f64,
    wall_ms: f64,
    cps: f64,
    workers: usize,
    sync_rounds: u64,
    fp: Fingerprint,
}

fn run_rack(
    shape: Shape,
    dims: (u16, u16, u16),
    mode: TickMode,
    threads: usize,
    cycles: u64,
) -> RackRun {
    let build = Stopwatch::start();
    let mut rack = shape.build(dims, threads, mode);
    let build_ms = build.secs() * 1e3;
    // Time only the run: cycles/sec must not drift with construction cost.
    let run = Stopwatch::start();
    rack.run(cycles);
    let wall = run.secs();
    RackRun {
        build_ms,
        wall_ms: wall * 1e3,
        cps: cycles as f64 / wall,
        workers: rack.worker_count(),
        sync_rounds: rack.sync_rounds(),
        fp: (rack.stats(), rack.fabric_stats(), rack.hops_traversed()),
    }
}

/// One workload: a shape, torus and horizon, whatever the tick mode or
/// worker count.
type WorkloadKey = (Shape, (u16, u16, u16), u64);

/// Checks every pair of runs of one workload for identical fingerprints.
#[derive(Default)]
struct Guard {
    runs: Vec<(WorkloadKey, String, Fingerprint)>,
    pairs: usize,
}

impl Guard {
    /// # Panics
    /// Panics when `fp` differs from an earlier run of `workload`.
    fn check(&mut self, workload: WorkloadKey, label: String, fp: Fingerprint) {
        for (w, other, other_fp) in &self.runs {
            if *w == workload {
                assert!(
                    fp == *other_fp,
                    "determinism guard: {label} diverged from {other}"
                );
                self.pairs += 1;
            }
        }
        self.runs.push((workload, label, fp));
    }
}

/// Rack-only columns of a row.
struct RackCols {
    dims: (u16, u16, u16),
    workers: usize,
    build_ms: f64,
    sync_rounds: u64,
    hops: u64,
    /// Cycles/sec pinned to one worker; event-tick points on a
    /// multi-threaded host only.
    serial_cps: Option<f64>,
}

/// One measured point of the trajectory.
struct Row {
    name: String,
    cycles: u64,
    wall_ms: f64,
    cps: f64,
    completed_ops: u64,
    rack: Option<RackCols>,
}

fn measure(p: &Point, host_threads: usize, guard: &mut Guard) -> Row {
    match p.target {
        Target::Chip(workload) => {
            let mut chip = Chip::new(ChipConfig::default(), workload);
            let t = Stopwatch::start();
            chip.run(p.cycles);
            let wall = t.secs();
            Row {
                name: p.name.clone(),
                cycles: p.cycles,
                wall_ms: wall * 1e3,
                cps: p.cycles as f64 / wall,
                completed_ops: chip.stats().completed,
                rack: None,
            }
        }
        Target::Rack { shape, dims, mode } => {
            let workload = (shape, dims, p.cycles);
            let run = run_rack(shape, dims, mode, 0, p.cycles);
            let completed_ops = run.fp.0.completed;
            let hops = run.fp.2;
            guard.check(workload, p.name.clone(), run.fp);
            let serial_cps = (host_threads > 1 && mode == TickMode::Event).then(|| {
                let serial = run_rack(shape, dims, mode, 1, p.cycles);
                guard.check(workload, format!("{} (1 worker)", p.name), serial.fp);
                serial.cps
            });
            Row {
                name: p.name.clone(),
                cycles: p.cycles,
                wall_ms: run.wall_ms,
                cps: run.cps,
                completed_ops,
                rack: Some(RackCols {
                    dims,
                    workers: run.workers,
                    build_ms: run.build_ms,
                    sync_rounds: run.sync_rounds,
                    hops,
                    serial_cps,
                }),
            }
        }
    }
}

/// Extract `"key": <number>` from a single JSON row (a `BenchRecord` puts
/// one point per line, so line-wise scanning is exact).
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// Baseline cycles/sec per point name, read from a previous run's JSON.
fn read_baseline(path: &Path) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(
        text.lines()
            .filter_map(|l| {
                let name = json_str(l, "name")?;
                let cps = json_num(l, "cps")?;
                Some((name.to_string(), cps))
            })
            .collect(),
    )
}

fn main() {
    let scale = Scale::from_env();
    let host_threads = default_threads();
    println!(
        "rackni simperf: simulator cycles/sec, scale {}, host threads {host_threads}\n",
        scale.name()
    );
    let mut guard = Guard::default();
    let rows: Vec<Row> = points(scale)
        .iter()
        .map(|p| measure(p, host_threads, &mut guard))
        .collect();

    let mut table = Table::new(&[
        "point",
        "cycles",
        "build (ms)",
        "wall (ms)",
        "cycles/sec",
        "workers",
        "serial cyc/s",
        "speedup",
        "efficiency",
        "rounds",
        "ops",
        "hops",
    ]);
    let mut record = BenchRecord::new(
        "simperf",
        2,
        Fields::new()
            .str("scale", scale.name())
            .int("host_threads", host_threads),
    );
    let cell = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
    for r in &rows {
        let k = r.rack.as_ref();
        let serial_cps = k.and_then(|k| k.serial_cps);
        let speedup = serial_cps.map(|s| r.cps / s);
        let efficiency = k.zip(speedup).map(|(k, s)| s / k.workers as f64);
        table.row_owned(vec![
            r.name.clone(),
            r.cycles.to_string(),
            cell(k.map(|k| f1(k.build_ms))),
            f1(r.wall_ms),
            f1(r.cps),
            cell(k.map(|k| k.workers.to_string())),
            cell(serial_cps.map(f1)),
            cell(speedup.map(|s| format!("{s:.2}x"))),
            cell(efficiency.map(|e| format!("{e:.2}"))),
            cell(k.map(|k| k.sync_rounds.to_string())),
            r.completed_ops.to_string(),
            cell(k.map(|k| k.hops.to_string())),
        ]);
        let mut fields = Fields::new()
            .str("name", &r.name)
            .int("cycles", r.cycles)
            .float("wall_ms", r.wall_ms, 2)
            .float("cps", r.cps, 1)
            .int("completed_ops", r.completed_ops);
        if let Some(k) = k {
            let (x, y, z) = k.dims;
            fields = fields
                .str("torus", &format!("{x}x{y}x{z}"))
                .int("nodes", u32::from(x) * u32::from(y) * u32::from(z))
                .int("threads", k.workers)
                .float("build_ms", k.build_ms, 1)
                .int("sync_rounds", k.sync_rounds)
                .int("hops", k.hops);
        }
        if let (Some(s), Some(sp), Some(e)) = (serial_cps, speedup, efficiency) {
            fields = fields
                .float("serial_cps", s, 1)
                .float("speedup", sp, 4)
                .float("parallel_efficiency", e, 4);
        }
        record.push(fields);
    }
    println!("{}", table.render());

    let cps_of = |name: &str| rows.iter().find(|r| r.name == name).map(|r| r.cps);
    for r in &rows {
        let Some(base) = r.name.strip_suffix("_event") else {
            continue;
        };
        if let Some(poll_cps) = cps_of(&format!("{base}_poll")) {
            println!("{base}: event tick {:.2}x over poll", r.cps / poll_cps);
        }
    }
    println!(
        "determinism guard passed: {} same-workload pairs among {} rack runs \
         agreed on stats snapshot, fabric counters and hops",
        guard.pairs,
        guard.runs.len()
    );
    if host_threads == 1 {
        println!(
            "single-threaded host: no serial/parallel columns \
             (set RACKNI_THREADS on a bigger box)"
        );
    }

    // Trajectory file, one point per line (the baseline reader depends on
    // the line-wise layout).
    let out = record.write().expect("write BENCH_simperf.json");
    println!("\nsimperf trajectory written to {}", out.display());

    let mut failed = false;

    // Gate 1 (machine-independent): the event tick must actually win on
    // the idle-heavy 512-node rack — the headline claim of the
    // event-driven ticking work.
    let speedup = cps_of("idle_heavy_8x8x8_event").expect("measured point")
        / cps_of("idle_heavy_8x8x8_poll").expect("measured point");
    if speedup < MIN_EVENT_SPEEDUP {
        eprintln!(
            "GATE FAIL: event tick is only {speedup:.2}x over poll on the \
             idle-heavy 8x8x8 rack (need >= {MIN_EVENT_SPEEDUP:.1}x)"
        );
        failed = true;
    } else {
        println!("gate: idle-heavy 8x8x8 event speedup {speedup:.2}x >= {MIN_EVENT_SPEEDUP:.1}x");
    }

    // Gate 2 (baseline-relative): no point may collapse below the
    // tolerance fraction of its committed baseline cycles/sec.
    let baseline_path = workspace_root().join("BENCH_simperf_baseline.json");
    match read_baseline(&baseline_path) {
        None => println!(
            "no baseline at {} — regression gate skipped",
            baseline_path.display()
        ),
        Some(baseline) => {
            let mut checked = 0;
            for (name, base_cps) in &baseline {
                let Some(cps) = cps_of(name) else {
                    // A renamed/retired point is a baseline-refresh job,
                    // not a perf regression.
                    continue;
                };
                checked += 1;
                let floor = base_cps * BASELINE_TOLERANCE;
                if cps < floor {
                    eprintln!(
                        "GATE FAIL: {name} at {cps:.1} cycles/sec, below {floor:.1} \
                         ({BASELINE_TOLERANCE}x of baseline {base_cps:.1})"
                    );
                    failed = true;
                }
            }
            if !failed {
                println!(
                    "gate: all {checked} baselined points within {BASELINE_TOLERANCE}x of \
                     {}",
                    baseline_path.display()
                );
            }
        }
    }

    if failed {
        eprintln!("simperf gates FAILED");
        std::process::exit(1);
    }
}
