//! rackbench — the rack simulator's benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path rackbench/Cargo.toml -- \
//!     --workload uniform-4x4x4 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: host
//! speed, set-up time and peak memory of `Rack::run`, and the simulated
//! machine's outcome. `--trace 1` runs the outside-in traced driver and
//! reports per-layer metrics. Both runs check the simulator's outputs and
//! exit non-zero, without a result line, when a check fails. The last line
//! of standard output is one JSON object; see `README.md` in this
//! directory for the workloads, the metrics and what each should move.

mod driver;
mod host;
mod view;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use rackni::experiments::{table3, Scale};
use rackni::ni_rmc::NiPlacement;
use rackni::paper;

use driver::{Kind, TracedRack};
use host::{median, peak_rss_mb, timed, Probe};
use view::{Fingerprint, View};
use workloads::Spec;

/// The seed later performance claims must also hold on, never used while
/// tuning a change.
const HELD_OUT_SEED: u64 = 104_729;

/// Smallest sample a reported p99 may rest on.
const MIN_P99_SAMPLES: u64 = 1_000;

/// Timed runs of the workload in one `--trace 0` run: at least this many,
/// more while `--seconds` allows.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 9;

/// Rack builds `setup_s` is the median of, each dropped at once.
const SETUP_BUILDS: usize = 9;

/// Chunks each timed run is split into: in `--trace 0` with a host-speed
/// probe after each (a run's rate is scaled by the median reading), in
/// `--trace 1` to interleave the serial, 2-thread and traced racks.
const CHUNKS: u64 = 40;

/// Simulated clock of the modelled chips.
const SIM_GHZ: f64 = 2.0;

type Fallible<T> = Result<T, String>;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Fallible<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&workload).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
        format!("unknown workload {workload} (one of {})", names.join(", "))
    })?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count or other context, printed beside the value.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Fallible<()> {
    if ok {
        Ok(())
    } else {
        Err(format!("self-check failed: {}", what()))
    }
}

fn ensure_same(what: &str, a: &Fingerprint, b: &Fingerprint) -> Fallible<()> {
    check(a == b, || format!("{what}\n  left:  {a:?}\n  right: {b:?}"))
}

/// The checks every healthy workload passes: no failed op, every live
/// tenant completes work, and every reported p99 rests on enough samples.
fn check_outcome(spec: &Spec, v: &View) -> Fallible<()> {
    check(v.failed_ops() == 0, || {
        format!("{} failed ops on a healthy workload", v.failed_ops())
    })?;
    for (tag, a) in v.tenants().iter().filter(|(_, a)| a.issued > 0) {
        check(a.completed > 0, || {
            format!("live tenant {tag} completed nothing")
        })?;
    }
    let reads = v.read_latency().stats().count();
    check(reads >= MIN_P99_SAMPLES, || {
        format!("read p99 rests on {reads} < {MIN_P99_SAMPLES} samples")
    })?;
    let slo = v
        .tenants()
        .get(&spec.slo_tenant)
        .map_or(0, |a| a.latency.stats().count());
    check(slo >= MIN_P99_SAMPLES, || {
        format!(
            "tenant {} p99 rests on {slo} < {MIN_P99_SAMPLES} samples",
            spec.slo_tenant
        )
    })
}

/// The simulated machine's end-to-end outcome over `horizon` cycles.
fn outcome_metrics(spec: &Spec, v: &View, out: &mut Vec<Metric>) {
    let kcycles = spec.horizon as f64 / 1_000.0;
    let ops = v.completed_ops();
    let read = v.read_latency();
    let reads = read.stats().count();
    let tenants = v.tenants();
    let slo = &tenants[&spec.slo_tenant];
    let slo_samples = slo.latency.stats().count();
    out.push(metric(
        "sim_ops_per_kcycle",
        ops as f64 / kcycles,
        "ops/kcycle",
        format!("{ops} ops"),
    ));
    out.push(metric(
        "sim_goodput_gbps",
        v.payload_bytes() as f64 / spec.horizon as f64 * SIM_GHZ,
        "GB/s",
        format!("{} B at {SIM_GHZ} GHz", v.payload_bytes()),
    ));
    out.push(metric(
        "sim_read_p50_cyc",
        read.percentile(0.50) as f64,
        "cycles",
        format!("n={reads}"),
    ));
    out.push(metric(
        "sim_read_p99_cyc",
        read.percentile(0.99) as f64,
        "cycles",
        format!("n={reads}"),
    ));
    out.push(metric(
        "slo_p99_cyc",
        slo.latency.percentile(0.99) as f64,
        "cycles",
        format!("tenant {}, n={slo_samples}", spec.slo_tenant),
    ));
    out.push(metric(
        "slo_goodput_bytes_per_kcycle",
        slo.bytes as f64 / kcycles,
        "B/kcycle",
        format!("tenant {}", spec.slo_tenant),
    ));
    out.push(metric(
        "ok_op_share",
        (ops - v.failed_ops()) as f64 / ops.max(1) as f64,
        "share",
        format!("{} failed of {ops}", v.failed_ops()),
    ));
}

/// Table 3's zero-load totals against the paper's, reported beside the
/// speed numbers and never gated on.
fn accuracy_stamp() -> Vec<String> {
    let t3 = table3(Scale::Quick);
    let mut lines =
        vec!["model accuracy, Table 3 zero-load totals (cycles; reported, not gated):".into()];
    let mut row = |name: &str, sim: f64, paper: u64| {
        let err = (sim / paper as f64 - 1.0) * 100.0;
        lines.push(format!(
            "  {name:<11} sim {sim:>7.1}  paper {paper:>4}  error {err:+.1}%"
        ));
    };
    for (p, b) in &t3.breakdowns {
        let paper_total = match p {
            NiPlacement::Edge => paper::table3_edge::TOTAL,
            NiPlacement::PerTile => paper::table3_per_tile::TOTAL,
            NiPlacement::Split => paper::table3_split::TOTAL,
            NiPlacement::Numa => paper::table3_numa::TOTAL,
        };
        row(p.name(), b.total, paper_total);
    }
    row("NUMA", t3.numa_cycles, paper::table3_numa::TOTAL);
    lines
}

/// `--trace 0`: the end-to-end metrics, tracing off.
///
/// One serial build and run comes first: it gives the reference
/// fingerprint, the simulated outcome and the peak memory before any
/// threaded work can spread allocations over more arenas. Then set-up is
/// timed over `SETUP_BUILDS` builds, and the workload's own `Rack::run`
/// over at least `MIN_REPS` fresh racks, each checked against the
/// reference. Host times are scaled by the probe reading taken next to
/// them (see [`Probe`]).
fn measure(args: &Args) -> Fallible<(Vec<Metric>, u64, u64)> {
    let spec = args.spec;
    let started = Instant::now();
    // Built first, so the serial run below evicts its table from the caches
    // just as every later chunk does before each reading.
    let mut probe = Probe::new();

    let mut rack = spec.rack(args.seed, 1);
    rack.run(spec.horizon);
    let v = View::of_rack(&rack);
    check_outcome(spec, &v)?;
    let reference = v.fingerprint();
    let (attempted, failed) = (v.completed_ops(), v.failed_ops());
    let mut out = vec![];
    outcome_metrics(spec, &v, &mut out);
    let peak_rss = peak_rss_mb();
    drop(v);
    drop(rack);

    let mut setups = Vec::new();
    let mut setup_slowdowns = Vec::new();
    for _ in 0..SETUP_BUILDS {
        setup_slowdowns.push(probe.slowdown());
        let (rack, setup_s) = timed(|| spec.rack(args.seed, spec.threads));
        setups.push(setup_s);
        drop(rack);
    }
    let mut rates = Vec::new();
    let mut raw_rates = Vec::new();
    let chunk = spec.horizon.div_ceil(CHUNKS);
    loop {
        let rep_started = Instant::now();
        let mut rack = spec.rack(args.seed, spec.threads);
        let mut run_s = 0.0;
        let mut slowdowns = Vec::new();
        let mut done = 0;
        while done < spec.horizon {
            let cycles = chunk.min(spec.horizon - done);
            let ((), s) = timed(|| rack.run(cycles));
            run_s += s;
            slowdowns.push(probe.slowdown());
            done += cycles;
        }
        let raw = spec.horizon as f64 / run_s;
        raw_rates.push(raw);
        rates.push(raw * median(&slowdowns));
        ensure_same(
            &format!(
                "a {}-thread run differs from the serial reference",
                spec.threads
            ),
            &reference,
            &View::of_rack(&rack).fingerprint(),
        )?;
        drop(rack);
        let rep_s = rep_started.elapsed().as_secs_f64();
        let next_fits = started.elapsed().as_secs_f64() + rep_s <= args.seconds;
        if rates.len() >= MAX_REPS || (rates.len() >= MIN_REPS && !next_fits) {
            break;
        }
    }

    // A serial workload still has to match its 2-thread run.
    if spec.threads == 1 {
        let mut rack = spec.rack(args.seed, 2);
        rack.run(spec.horizon);
        ensure_same(
            "serial and 2-thread runs differ",
            &reference,
            &View::of_rack(&rack).fingerprint(),
        )?;
    }

    let reps = rates.len();
    let raw = median(&raw_rates);
    println!(
        "host: raw {raw:.1} cycles/s (median of {reps}); probe reference {} ns/load",
        Probe::REF_NS
    );
    for line in accuracy_stamp() {
        println!("{line}");
    }
    let mut host = vec![
        metric(
            "sim_cycles_per_s",
            median(&rates),
            "1/s",
            format!(
                "median of {reps} runs of {} cycles on {} thread(s), host-speed scaled",
                spec.horizon, spec.threads
            ),
        ),
        metric(
            "setup_s",
            median(&setups) / median(&setup_slowdowns),
            "s",
            format!("median of {SETUP_BUILDS} rack builds, host-speed scaled"),
        ),
        metric(
            "peak_rss_mb",
            peak_rss,
            "MB",
            "VmHWM after one serial build and run",
        ),
    ];
    host.append(&mut out);
    Ok((host, attempted, failed))
}

/// `--trace 1`: the per-layer metrics from the outside-in traced driver.
fn traced(args: &Args) -> Fallible<(Vec<Metric>, u64, u64)> {
    let spec = args.spec;
    let (cfg, scenario) = spec.config(args.seed, 1);
    let nodes = cfg.torus.nodes() as u64;
    let mut out = Vec::new();

    // Serial, 2-thread and traced racks advance side by side in chunks, so
    // host drift and first-touch page faults fall on all three alike.
    let mut serial = spec.rack(args.seed, 1);
    let setup_rss = peak_rss_mb();
    let mut parallel = spec.rack(args.seed, 2);
    let mut rack = TracedRack::new(&cfg, scenario.as_ref());
    let (mut serial_s, mut parallel_s, mut traced_s) = (0.0, 0.0, 0.0);
    let chunk = spec.horizon.div_ceil(CHUNKS);
    let mut done = 0;
    while done < spec.horizon {
        let cycles = chunk.min(spec.horizon - done);
        serial_s += timed(|| serial.run(cycles)).1;
        parallel_s += timed(|| parallel.run(cycles)).1;
        traced_s += timed(|| rack.run(cycles)).1;
        done += cycles;
    }
    let sv = View::of_rack(&serial);
    check_outcome(spec, &sv)?;
    let reference = sv.fingerprint();
    let (attempted, failed) = (sv.completed_ops(), sv.failed_ops());
    drop(sv);
    drop(serial);
    ensure_same(
        "serial and 2-thread runs differ",
        &reference,
        &View::of_rack(&parallel).fingerprint(),
    )?;
    drop(parallel);
    let v = rack.view();
    ensure_same(
        "traced driver and untraced Rack::run differ",
        &reference,
        &v.fingerprint(),
    )?;

    let wall = rack.totals(Kind::Cycle);
    let full = rack.totals(Kind::ChipFull);
    let skip = rack.totals(Kind::ChipSkip);
    let ftick = rack.totals(Kind::FabricTick);
    let collect = rack.totals(Kind::Collect);
    let merge = rack.totals(Kind::Merge);
    let chip_ticks = full.count + skip.count;
    check(chip_ticks == nodes * spec.horizon, || {
        format!(
            "{chip_ticks} chip-tick spans for {nodes} nodes x {} cycles",
            spec.horizon
        )
    })?;
    check(full.count == reference.full_ticks, || {
        format!(
            "traced full ticks {} != untraced {}",
            full.count, reference.full_ticks
        )
    })?;
    let share = |ns: u64| ns as f64 / wall.ns as f64;
    let mean = |t: driver::Totals| t.ns as f64 / t.count.max(1) as f64;
    let children = full.ns + skip.ns + ftick.ns + collect.ns + merge.ns;

    out.push(metric(
        "soc.chip_tick.full_count",
        full.count as f64,
        "count",
        "",
    ));
    out.push(metric(
        "soc.chip_tick.full_ns",
        mean(full),
        "ns",
        "mean per full tick",
    ));
    out.push(metric(
        "soc.chip_tick.full_share",
        share(full.ns),
        "share",
        "of traced wall",
    ));
    out.push(metric(
        "soc.chip_tick.skip_count",
        skip.count as f64,
        "count",
        "",
    ));
    out.push(metric(
        "soc.chip_tick.skip_ns",
        mean(skip),
        "ns",
        "mean per skip tick",
    ));
    out.push(metric(
        "soc.driver.other_share",
        share(wall.ns.saturating_sub(children)),
        "share",
        "cycle-span self time",
    ));
    out.push(metric(
        "soc.full_tick_ratio",
        full.count as f64 / chip_ticks as f64,
        "share",
        format!("of {chip_ticks} chip-cycles"),
    ));
    out.push(metric(
        "soc.rack.parallel_speedup",
        serial_s / parallel_s,
        "x",
        format!("serial {serial_s:.3} s / 2-thread {parallel_s:.3} s"),
    ));
    out.push(metric(
        "fabric.tick.share",
        share(ftick.ns),
        "share",
        "of traced wall",
    ));
    out.push(metric(
        "fabric.collect.share",
        share(collect.ns),
        "share",
        format!("{} collect loops", collect.count),
    ));
    out.push(metric(
        "fabric.merge.share",
        share(merge.ns),
        "share",
        "of traced wall",
    ));

    let packets = v.delivered_packets();
    let max_busy = v.links.iter().map(|l| l.busy_cycles).max().unwrap_or(0);
    out.push(metric("fabric.hops", v.hops as f64, "count", ""));
    out.push(metric(
        "fabric.mean_hops",
        v.hops as f64 / packets.max(1) as f64,
        "hops",
        format!("over {packets} delivered packets"),
    ));
    out.push(metric(
        "fabric.link_byte_skew",
        v.link_byte_skew,
        "x",
        "max/mean loaded link",
    ));
    out.push(metric(
        "fabric.peak_link_gbps",
        v.peak_link_gbps,
        "GB/s",
        "",
    ));
    out.push(metric(
        "fabric.max_link_util",
        max_busy as f64 / spec.horizon as f64,
        "share",
        "busiest link's busy cycles",
    ));
    out.push(metric(
        "fabric.packets_dropped",
        v.packets_dropped as f64,
        "count",
        "",
    ));

    let be = v.backend();
    let rrpp: Vec<f64> = v
        .chips
        .iter()
        .map(|c| c.rrpp_mean_latency())
        .filter(|&m| m > 0.0)
        .collect();
    let rrpp_mean = rrpp.iter().sum::<f64>() / rrpp.len().max(1) as f64;
    let rrpp_max = rrpp.iter().copied().fold(0.0, f64::max);
    out.push(metric(
        "rmc.transfers",
        be.transfers.get() as f64,
        "count",
        "",
    ));
    out.push(metric(
        "rmc.itt_stalls",
        be.itt_stalls.get() as f64,
        "count",
        "",
    ));
    out.push(metric(
        "rmc.itt_timeouts",
        be.itt_timeouts.get() as f64,
        "count",
        "",
    ));
    out.push(metric(
        "rmc.itt_retries",
        be.itt_retries.get() as f64,
        "count",
        "",
    ));
    out.push(metric(
        "rmc.stale_responses",
        be.stale_responses.get() as f64,
        "count",
        "",
    ));
    out.push(metric(
        "rmc.rrpp_mean_cyc",
        rrpp_mean,
        "cycles",
        format!("mean over {} serving nodes", rrpp.len()),
    ));
    out.push(metric(
        "rmc.rrpp_max_node_cyc",
        rrpp_max,
        "cycles",
        "slowest node's mean",
    ));

    let (injected, flit_hops, rejects) = v.noc();
    out.push(metric("noc.injected_packets", injected as f64, "count", ""));
    out.push(metric("noc.flit_hops", flit_hops as f64, "count", ""));
    out.push(metric("noc.inject_rejects", rejects as f64, "count", ""));
    out.push(metric(
        "noc.reject_ratio",
        rejects as f64 / (injected + rejects).max(1) as f64,
        "share",
        "rejects per injection attempt",
    ));

    let kcycles = spec.horizon as f64 / 1_000.0;
    let tenants = v.tenants();
    let slo = &tenants[&spec.slo_tenant];
    let bulk = &tenants[&spec.bulk_tenant];
    out.push(metric(
        "tenant.slo.offered_per_kcycle",
        slo.issued as f64 / kcycles,
        "ops/kcycle",
        format!("tenant {}", spec.slo_tenant),
    ));
    out.push(metric(
        "tenant.slo.achieved_per_kcycle",
        slo.completed as f64 / kcycles,
        "ops/kcycle",
        format!("tenant {}", spec.slo_tenant),
    ));
    out.push(metric(
        "tenant.bulk.goodput_bytes_per_kcycle",
        bulk.bytes as f64 / kcycles,
        "B/kcycle",
        format!("tenant {}", spec.bulk_tenant),
    ));

    out.push(metric(
        "mem.setup_rss_mb",
        setup_rss,
        "MB",
        "peak RSS once the first rack is built",
    ));
    out.push(metric(
        "mem.trace_rows",
        v.trace_rows() as f64,
        "count",
        "rows in every chip's latency-tomography table",
    ));
    out.push(metric(
        "trace.overhead_share",
        traced_s / serial_s - 1.0,
        "share",
        format!("traced {traced_s:.3} s vs untraced serial {serial_s:.3} s"),
    ));
    drop(v);

    let path = spans_path(spec.name, args.seed);
    rack.write_spans(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok((out, attempted, failed))
}

/// Where a traced run writes its span log.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.csv"))
}

/// Render a metric value for the result line: every digit, never NaN.
fn json_number(x: f64) -> Fallible<String> {
    check(x.is_finite(), || format!("non-finite metric value {x}"))?;
    Ok(format!("{x:?}"))
}

fn run() -> Fallible<()> {
    let args = parse_args()?;
    let spec = args.spec;
    println!(
        "rackbench: workload {} seed {} (held-out seed {HELD_OUT_SEED}), {} cycles on {} thread(s), trace {}",
        spec.name,
        args.seed,
        spec.horizon,
        spec.threads,
        u8::from(args.trace)
    );
    println!("statistics start from a cold rack (Rack has no stats reset): caches, queues and fabric begin empty");
    let (metrics, attempted, failed) = if args.trace {
        traced(&args)?
    } else {
        measure(&args)?
    };
    for m in &metrics {
        println!(
            "  {:<38} {:>16.4} {:<10} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let mut fields = Vec::new();
    for m in &metrics {
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value)?,
            m.unit
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("rackbench: {e}");
        std::process::exit(1);
    }
}
