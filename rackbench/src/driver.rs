//! The outside-in traced driver: `Rack::tick`'s exchange schedule replayed
//! from public calls only, with a span around each layer's calls.
//!
//! The rack's own phases (`fabric_advance_and_distribute`,
//! `fabric_merge_outboxes`) are private, so this driver rebuilds the rack
//! from the same parts and runs the same schedule itself:
//!
//! 1. `Fabric::tick` on the shared `TorusFabric`, then — only when
//!    `TorusFabric::has_deliveries` — `FabricPort::collect_arrivals` for
//!    every node in node-id order;
//! 2. `Chip::tick` for every chip in node-id order;
//! 3. `FabricPort::flush_outbox` for every node in node-id order.
//!
//! Chips are built with `Chip::with_scenario_on` under `Rack::with_scenario`'s
//! per-node seed rule, so the traced run simulates exactly what the
//! untraced `Rack::run` does; the caller checks that by comparing
//! fingerprints.
//!
//! Spans are kept in memory during the run and written out after it. Each
//! rack cycle is one parent span; its children are one span per
//! `Fabric::tick` call, one per `Chip::tick` call, and one per
//! node-id-ordered loop of `collect_arrivals` or `flush_outbox` calls
//! (timing every one of those calls, most of which return after one flag
//! load, would cost more than the calls). A chip tick is *full* when the
//! chip's `full_ticks` stamp advanced across the call, and a *skip*
//! otherwise. The written log folds each cycle's children by kind — one
//! row per cycle — because a row per chip tick runs to millions of rows on
//! the 512-node rack.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use rackni::ni_engine::Cycle;
use rackni::ni_fabric::{Fabric, FabricPort, TorusFabric, TorusFabricConfig};
use rackni::ni_soc::{Chip, ChipConfig, RackSimConfig, Scenario};

use crate::view::View;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One whole rack cycle (the parent of every other span).
    Cycle,
    /// `Fabric::tick` on the shared torus.
    FabricTick,
    /// The `collect_arrivals` loop over every port.
    Collect,
    /// One `Chip::tick` that ran the full component loop.
    ChipFull,
    /// One `Chip::tick` that took a fast path.
    ChipSkip,
    /// The `flush_outbox` loop over every port.
    Merge,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cycle => "rack.cycle",
            Kind::FabricTick => "fabric.tick",
            Kind::Collect => "fabric.collect",
            Kind::ChipFull => "soc.chip_tick.full",
            Kind::ChipSkip => "soc.chip_tick.skip",
            Kind::Merge => "fabric.merge",
        }
    }
}

/// One recorded span. Spans are stored in the order they end, so a
/// `Cycle` span closes the run of child spans before it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which layer call it covers.
    pub kind: Kind,
    /// Duration in nanoseconds.
    pub dur_ns: u32,
    /// Start, in nanoseconds since the rack was built.
    pub start_ns: u64,
}

impl Span {
    fn new(kind: Kind, origin: Instant, start: Instant, end: Instant) -> Span {
        Span {
            kind,
            start_ns: (start - origin).as_nanos() as u64,
            dur_ns: (end - start).as_nanos().min(u128::from(u32::MAX)) as u32,
        }
    }
}

/// Per-kind totals folded from the span log.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans of this kind.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub ns: u64,
}

/// A rack rebuilt from public parts and driven by hand.
pub struct TracedRack {
    fabric: TorusFabric,
    ports: Vec<FabricPort>,
    chips: Vec<Chip>,
    now: Cycle,
    origin: Instant,
    spans: Vec<Span>,
}

impl TracedRack {
    /// Build the rack `Rack::with_scenario(cfg, scenario)` would build.
    pub fn new(cfg: &RackSimConfig, scenario: &dyn Scenario) -> TracedRack {
        let fabric = TorusFabric::new(TorusFabricConfig {
            torus: cfg.torus,
            hop_cycles: cfg.hop_cycles,
            link_bytes_per_cycle: cfg.link_bytes_per_cycle,
            stats_window: cfg.stats_window,
            routing: cfg.routing,
            faults: cfg.faults.clone(),
        });
        let nodes = cfg.torus.nodes();
        let ports: Vec<FabricPort> = (0..nodes).map(|n| FabricPort::new(n as u16)).collect();
        let chips = (0..nodes)
            .map(|node| {
                let chip_cfg = ChipConfig {
                    node_id: node as u16,
                    // `Rack::with_scenario`'s per-node seed rule.
                    seed: cfg
                        .chip
                        .seed
                        .wrapping_add(u64::from(node).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    ..cfg.chip
                };
                Chip::with_scenario_on(
                    chip_cfg,
                    scenario,
                    Box::new(ports[node as usize].clone()),
                    nodes,
                    Some(cfg.torus),
                )
            })
            .collect();
        TracedRack {
            fabric,
            ports,
            chips,
            now: Cycle::ZERO,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `cycles` more rack cycles with tracing on.
    pub fn run(&mut self, cycles: u64) {
        // One cycle span plus, per cycle, a fabric tick, a merge loop and
        // one span per chip (collect loops are rarer).
        self.spans.reserve(cycles as usize * (self.chips.len() + 4));
        let (spans, origin) = (&mut self.spans, self.origin);
        for _ in 0..cycles {
            let now = self.now;
            let cycle_start = Instant::now();
            self.fabric.tick(now);
            let t1 = Instant::now();
            spans.push(Span::new(Kind::FabricTick, origin, cycle_start, t1));

            if self.fabric.has_deliveries() {
                let t0 = Instant::now();
                for port in &self.ports {
                    port.collect_arrivals(now, &mut self.fabric);
                }
                let t1 = Instant::now();
                spans.push(Span::new(Kind::Collect, origin, t0, t1));
            }

            for chip in &mut self.chips {
                let before = chip.full_ticks();
                let t0 = Instant::now();
                chip.tick();
                let t1 = Instant::now();
                let kind = if chip.full_ticks() != before {
                    Kind::ChipFull
                } else {
                    Kind::ChipSkip
                };
                spans.push(Span::new(kind, origin, t0, t1));
            }

            let t0 = Instant::now();
            for port in &self.ports {
                port.flush_outbox(now, &mut self.fabric);
            }
            let t1 = Instant::now();
            spans.push(Span::new(Kind::Merge, origin, t0, t1));
            spans.push(Span::new(Kind::Cycle, origin, cycle_start, t1));
            self.now += 1;
        }
    }

    /// The finished rack, seen through the same view as a `Rack`.
    pub fn view(&self) -> View<'_> {
        View::of_parts(&self.chips, &self.fabric)
    }

    /// Span count and summed duration of one kind.
    pub fn totals(&self, kind: Kind) -> Totals {
        let mut t = Totals::default();
        for s in self.spans.iter().filter(|s| s.kind == kind) {
            t.count += 1;
            t.ns += u64::from(s.dur_ns);
        }
        t
    }

    /// Write the span log as CSV, one row per rack cycle with its child
    /// spans folded by kind.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        const CHILDREN: [Kind; 5] = [
            Kind::FabricTick,
            Kind::Collect,
            Kind::ChipFull,
            Kind::ChipSkip,
            Kind::Merge,
        ];
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        write!(w, "cycle,start_ns,dur_ns")?;
        for k in CHILDREN {
            write!(w, ",{0}.count,{0}.ns", k.name())?;
        }
        writeln!(w)?;
        let mut fold = [Totals::default(); 5];
        let mut cycle = 0u64;
        for s in &self.spans {
            if s.kind == Kind::Cycle {
                write!(w, "{cycle},{},{}", s.start_ns, s.dur_ns)?;
                for t in &fold {
                    write!(w, ",{},{}", t.count, t.ns)?;
                }
                writeln!(w)?;
                fold = [Totals::default(); 5];
                cycle += 1;
            } else {
                let i = CHILDREN
                    .iter()
                    .position(|&k| k == s.kind)
                    .expect("child kind");
                fold[i].count += 1;
                fold[i].ns += u64::from(s.dur_ns);
            }
        }
        w.flush()
    }
}
