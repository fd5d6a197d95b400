//! The paper's evaluation, regenerated: Tables 1–3, Figs. 5–7, 9 and 10,
//! the §6 design-space conclusion, the rack and scenario sweeps, and the
//! NI-cache and frontend-concurrency ablations, beside the published
//! numbers where they exist. Each section is a call into
//! `rackni::experiments`; the routing ablation (A1) and the torus routing
//! sweep print from `examples/routing_study.rs`.
//!
//! ```sh
//! cargo bench --bench paper_tables                    # every section
//! cargo bench --bench paper_tables -- table3 fig5     # just these
//! RACKNI_SCALE=full cargo bench --bench paper_tables  # §5 methodology
//! ```

use rackni::experiments::{
    self, bandwidth_vs_size, bandwidth_vs_size_render, fe_concurrency_ablation, latency_vs_size,
    latency_vs_size_render, nicache_ablation, Scale, BANDWIDTH_SIZES, LATENCY_SIZES,
};
use rackni::ni_fabric::Torus3D;
use rackni::ni_soc::{ChipConfig, Topology};
use rackni::paper;
use rackni::report::{f1, pct, Table};

/// One section: its command-line name, its banner, and the body that
/// renders its tables.
struct Section {
    name: &'static str,
    banner: &'static str,
    run: fn(Scale) -> String,
}

const SECTIONS: &[Section] = &[
    Section {
        name: "table1",
        banner: "Table 1: QP-based model vs. NUMA load/store, single-block read",
        run: experiments::table1_render,
    },
    Section {
        name: "table2",
        banner: "Table 2: system parameters (simulation configuration)",
        run: table2,
    },
    Section {
        name: "table3",
        banner: "Table 3: zero-load single-block latency tomography, all designs",
        run: experiments::table3_render,
    },
    Section {
        name: "fig5",
        banner: "Fig. 5: E2E latency vs. hop count (512-node 3D torus projection)",
        run: fig5,
    },
    Section {
        name: "fig6",
        banner: "Fig. 6: sync remote-read latency vs. transfer size (mesh)",
        run: |s| latency_vs_size_render(s, Topology::Mesh, &LATENCY_SIZES),
    },
    Section {
        name: "fig7",
        banner: "Fig. 7: aggregate app bandwidth vs. transfer size (mesh, async)",
        run: fig7,
    },
    Section {
        name: "fig9",
        banner: "Fig. 9: sync remote-read latency vs. transfer size (NOC-Out)",
        run: |s| latency_vs_size_render(s, Topology::NocOut, &LATENCY_SIZES),
    },
    Section {
        name: "fig10",
        banner: "Fig. 10: aggregate app bandwidth vs. transfer size (NOC-Out, async)",
        run: |s| bandwidth_vs_size_render(s, Topology::NocOut, &BANDWIDTH_SIZES),
    },
    Section {
        name: "scenarios",
        banner: "Scenario sweep: built-in application scenarios on an 8-node rack (throughput, link/RRPP skew)",
        run: experiments::scenario_sweep_render,
    },
    Section {
        name: "rack",
        banner: "Rack scale: multi-node torus racks, hop-by-hop fabric, parallel two-phase ticking",
        run: experiments::rack_scale_render,
    },
    Section {
        name: "ablation_nicache",
        banner: "Ablation A2: NI-cache Owned-state fast path (NI_split, 64B sync reads)",
        run: ablation_nicache,
    },
    Section {
        name: "ablation_fe_concurrency",
        banner: "Ablation A3: NIedge frontend poll concurrency vs. single-block latency",
        run: ablation_fe_concurrency,
    },
    Section {
        name: "design_space",
        banner: "Design space: NI placement trade-offs on the mesh",
        run: design_space,
    },
];

/// Table 2: the configuration every other section runs. The values the
/// paper fixes are asserted by `ni_soc`'s config tests.
fn table2(_: Scale) -> String {
    let c = ChipConfig::default();
    let mut t = Table::new(&["parameter", "value", "paper (Table 2)"]);
    t.row(&[
        "cores",
        "64 (8x8 mesh tiles)",
        "64, ARM Cortex-A15-like, 2GHz",
    ]);
    t.row_owned(vec![
        "LLC banks".into(),
        c.n_banks().to_string(),
        "16MB NUCA, 1 bank/tile".into(),
    ]);
    t.row_owned(vec![
        "coherence".into(),
        "directory-based non-inclusive MESI (+NI Owned state)".into(),
        "Directory-based Non-Inclusive MESI".into(),
    ]);
    t.row_owned(vec![
        "memory latency".into(),
        format!("{} cycles", c.mem.latency),
        "50ns (100 cycles @ 2GHz)".into(),
    ]);
    t.row_owned(vec![
        "mesh link / hop".into(),
        format!("{}B links, {} cycles/hop", 16, c.mesh.router.hop_latency),
        "16B links, 3 cycles/hop".into(),
    ]);
    t.row_owned(vec![
        "NI".into(),
        format!("RGP/RCP/RRPP, {} RRPPs (one per row)", c.n_edge()),
        "3 pipelines, one RRPP per row (8)".into(),
    ]);
    t.row_owned(vec![
        "network hop".into(),
        format!("{} cycles", c.rack.hop_cycles),
        "fixed 35ns per hop (70 cycles)".into(),
    ]);
    t.row_owned(vec![
        "WQ entries".into(),
        c.qp.wq_entries.to_string(),
        "128 (bandwidth microbenchmark, §5)".into(),
    ]);
    t.render()
}

fn fig5(s: Scale) -> String {
    // The projection's hop range comes from the rack geometry (§6.1.2).
    let t = Torus3D::new(8, 8, 8);
    format!(
        "{}\ntorus 8x8x8: {} nodes, avg hops {:.1} (paper: 6), diameter {} (paper: 12)\n",
        experiments::fig5_render(s),
        t.nodes(),
        t.average_hops(),
        t.max_hops()
    )
}

fn fig7(s: Scale) -> String {
    let render = bandwidth_vs_size_render(s, Topology::Mesh, &BANDWIDTH_SIZES);
    let pts = bandwidth_vs_size(s, Topology::Mesh, &[2048]);
    let peak = pts[0].gbps[0].max(pts[0].gbps[1]);
    format!(
        "{render}\npeak (2KB): {:.0} GBps measured vs {:.0} GBps paper; NOC aggregate {:.0} GBps \
         measured vs {:.0} GBps paper ({:.1}x amplification vs {:.1}x)\n",
        peak,
        paper::bandwidth::PEAK_APP_GBPS,
        pts[0].split_noc_gbps,
        paper::bandwidth::NOC_AGGREGATE_GBPS,
        pts[0].split_noc_gbps / pts[0].gbps[1].max(1.0),
        paper::bandwidth::TRAFFIC_AMPLIFICATION,
    )
}

fn ablation_nicache(s: Scale) -> String {
    let (on, off) = nicache_ablation(s);
    let mut t = Table::new(&["owned state", "E2E cycles", "delta"]);
    t.row_owned(vec!["enabled (paper §3.4)".into(), f1(on), "-".into()]);
    t.row_owned(vec![
        "disabled".into(),
        f1(off),
        pct((off / on - 1.0) * 100.0),
    ]);
    t.render()
}

fn ablation_fe_concurrency(s: Scale) -> String {
    let a = fe_concurrency_ablation(s);
    let over_numa = |cycles: f64| pct((cycles / a.numa_cycles - 1.0) * 100.0);
    let mut t = Table::new(&["fe_poll_concurrency", "E2E cycles", "overhead vs NUMA"]);
    for &(k, cycles) in &a.edge_cycles {
        t.row_owned(vec![k.to_string(), f1(cycles), over_numa(cycles)]);
    }
    t.row_owned(vec![
        "NI_split (any)".into(),
        f1(a.split_cycles),
        over_numa(a.split_cycles),
    ]);
    format!(
        "{}\nEven a fully concurrent edge frontend cannot reach NI_split: the\n\
         remaining gap is the QP blocks ping-ponging across the whole mesh.\n",
        t.render()
    )
}

/// Who wins on latency, who wins on bandwidth: the §6 conclusion matrix.
fn design_space(s: Scale) -> String {
    let lat = latency_vs_size(s, Topology::Mesh, &[64, 16384]);
    let bw = bandwidth_vs_size(s, Topology::Mesh, &[64, 8192]);
    let t3 = experiments::table3(s);

    let mut t = Table::new(&["metric", "NI_edge", "NI_split", "NI_per-tile", "winner"]);
    let row = |name: &str, vals: [f64; 3], higher_better: bool| {
        let names = ["NI_edge", "NI_split", "NI_per-tile"];
        // Strict comparison: the first design listed wins a tie.
        let better = |a: f64, b: f64| if higher_better { a > b } else { a < b };
        let best = (1..3).fold(0, |b, i| if better(vals[i], vals[b]) { i } else { b });
        vec![
            name.to_string(),
            f1(vals[0]),
            f1(vals[1]),
            f1(vals[2]),
            names[best].to_string(),
        ]
    };
    t.row_owned(row("64B latency (ns)", lat[0].ns, false));
    t.row_owned(row("16KB latency (ns)", lat[1].ns, false));
    t.row_owned(row("64B bandwidth (GBps)", bw[0].gbps, true));
    t.row_owned(row("8KB bandwidth (GBps)", bw[1].gbps, true));
    format!(
        "{}\nNUMA floor: {:.0} cycles. NI_split tracks the per-tile design on latency\n\
         and the edge design on bandwidth — the paper's conclusion reproduced.",
        t.render(),
        t3.numa_cycles
    )
}

fn main() {
    // `cargo bench` appends `--bench` to the target's arguments.
    let mut run = Vec::new();
    for name in std::env::args().skip(1).filter(|a| a != "--bench") {
        let Some(section) = SECTIONS.iter().find(|s| s.name == name) else {
            let valid: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
            eprintln!(
                "paper_tables: unknown section '{name}'; valid sections: {}",
                valid.join(", ")
            );
            std::process::exit(2);
        };
        run.push(section);
    }
    if run.is_empty() {
        run.extend(SECTIONS);
    }
    let scale = Scale::from_env();
    for s in run {
        println!("\n=== {} [scale: {scale:?}] ===", s.banner);
        println!("{}", (s.run)(scale));
    }
}
