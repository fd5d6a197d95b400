//! The paper's evaluation, regenerated: Tables 1–3, Figs. 5–7, 9 and 10,
//! the §6 design-space conclusion, the rack and scenario sweeps, the
//! on-chip routing, NI-cache and frontend-concurrency ablations, and the
//! rack-scale studies (torus routing, failure blast radius, K-way
//! recovery, multi-tenant SLOs), beside the published numbers where they
//! exist. Each section is a call into `rackni::experiments`.
//!
//! The study sections are gated: each asserts its claims with the bounds
//! named beside it and exits non-zero on a regression. `failure`,
//! `availability` and `serving` also write `BENCH_<section>.json` at the
//! workspace root (before their gates run, so a failing run keeps its
//! numbers).
//!
//! ```sh
//! cargo bench --bench paper_tables                    # every section
//! cargo bench --bench paper_tables -- table3 fig5     # just these
//! RACKNI_SCALE=full cargo bench --bench paper_tables  # §5 methodology
//! ```

use rackni::experiments::{
    self, availability_points_render, availability_sweep, bandwidth_vs_size,
    bandwidth_vs_size_render, failure_points_render, failure_sweep, fe_concurrency_ablation,
    latency_vs_size, latency_vs_size_render, nicache_ablation, routing_ablation,
    routing_points_render, routing_sweep, serving_interference, serving_points_render,
    serving_sweep, AvailFault, AvailabilityPoint, FailureParams, FailurePoint, FaultCase, Scale,
    ServingPoint, AVAIL_KW, BANDWIDTH_SIZES, LATENCY_SIZES, SERVING_KV_SERVICE, SERVING_THINK,
    SERVING_WINDOW, TENANT_BULK, TENANT_KV,
};
use rackni::ni_fabric::{RoutingKind, Torus3D};
use rackni::ni_noc::RoutingPolicy;
use rackni::ni_soc::{ChipConfig, Topology};
use rackni::paper;
use rackni::report::{f1, pct, BenchRecord, Fields, Table};

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
        name: "routing",
        banner: "Torus routing policies: DOR vs adaptive vs random on a 4x4x4 rack, capped jobs run to completion",
        run: routing,
    },
    Section {
        name: "failure",
        banner: "Failure study: mid-run link/node kill on a 4x4x4 rack, blast radius by routing policy",
        run: failure,
    },
    Section {
        name: "availability",
        banner: "Availability study: K-way replication + WQ replay under node kills on a 4x4x4 rack",
        run: availability,
    },
    Section {
        name: "serving",
        banner: "Serving study: closed-loop KV tenant beside a bulk graph tenant on a 4x4x4 rack",
        run: serving,
    },
    Section {
        name: "ablation_routing",
        banner: "Ablation A1: on-chip routing policy vs. NI_split aggregate bandwidth (2KB async)",
        run: ablation_routing,
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

/// A1 (§4.3/§6.2): remote traffic enters and leaves through one chip edge
/// while most of it terminates at the memory controllers on the opposite
/// edge, so dimension-order routing funnels it into the peripheral
/// columns; the paper's NI-aware CDR routes directory-sourced traffic YX
/// so it never turns at the edges.
fn ablation_routing(s: Scale) -> String {
    let rows = routing_ablation(s, 2048);
    let cdr_ni = rows
        .iter()
        .find(|(p, _)| *p == RoutingPolicy::CdrNi)
        .map(|&(_, g)| g)
        .expect("sweep includes CdrNi");
    let mut t = Table::new(&["policy", "app GBps", "vs CDR+NI"]);
    for (p, g) in &rows {
        t.row_owned(vec![
            format!("{p:?}"),
            f1(*g),
            format!("{:.0}%", 100.0 * g / cdr_ni),
        ]);
    }
    format!(
        "{}\nThe paper reports sub-half peak (~100 vs 214 GBps) without CDR; the\n\
         NI-aware class keeps directory traffic off the NI and MC edge columns.\n",
        t.render()
    )
}

/// The torus sweep (this repo's extension), gated on its headline claim:
/// on Zipf-hotspot traffic, minimal-adaptive routing spreads the hot
/// node's load and beats dimension order on link byte skew.
fn routing(s: Scale) -> String {
    let pts = routing_sweep(s);
    let skew = |routing: RoutingKind| {
        pts.iter()
            .find(|p| p.scenario == "zipf" && p.routing == routing)
            .expect("sweep covers the zipf rows")
            .link_skew
    };
    let (dor, ada) = (
        skew(RoutingKind::DimensionOrder),
        skew(RoutingKind::MinimalAdaptive),
    );
    assert!(
        ada < dor,
        "minimal-adaptive skew {ada:.2}x must undercut DOR {dor:.2}x on the Zipf hotspot"
    );
    format!(
        "{}\nDOR is deterministic dimension order (the pre-policy status quo);\n\
         adaptive picks the least-backlogged productive link per hop (DOR on\n\
         ties); random is the seeded oblivious minimal baseline.\n\n\
         zipf hotspot: adaptive routing cuts link byte skew {dor:.2}x -> {ada:.2}x ({:+.1}%)",
        routing_points_render(&pts),
        (ada / dor - 1.0) * 100.0
    )
}

/// After the mid-run link kill, health-blind dimension-order routing must
/// either not finish the capped Zipf job or take at least this many times
/// fault-adaptive's completion cycles grinding through ITT timeouts.
const DOR_LINK_KILL_SLOWDOWN: u64 = 2;

/// Kill the link between the Zipf hot node and its `+x` neighbor, or the
/// hot node itself, mid-run. Fault-adaptive routing must detour around
/// the dead link with zero casualties; a node kill must end in error CQ
/// entries on every policy instead of hanging a core.
fn failure(s: Scale) -> String {
    let params = FailureParams::at(s);
    let pts = failure_sweep(s);

    let mut record = BenchRecord::new(
        "failure",
        1,
        Fields::new()
            .str("scale", s.name())
            .int("kill_at", params.kill_at)
            .int("itt_timeout", params.itt_timeout)
            .int("itt_retries", params.itt_retries),
    );
    for p in &pts {
        record.push(
            Fields::new()
                .str("scenario", p.scenario)
                .str("fault", p.fault.label())
                .str("routing", p.routing.name())
                .str("torus", &format!("{}x{}x{}", p.dims.0, p.dims.1, p.dims.2))
                .int("kill_at", p.kill_at)
                .int("expected_ops", p.expected_ops)
                .int("completed_ops", p.completed_ops)
                .int("failed_ops", p.failed_ops)
                .bool("completed_all", p.completed_all)
                .int("completion_cycles", p.completion_cycles)
                .int("p50_ok_read", p.p50_read_cycles)
                .int("p99_ok_read", p.p99_read_cycles)
                .float("link_skew", p.link_skew, 4)
                .int("itt_timeouts", p.itt_timeouts)
                .int("itt_retries", p.itt_retries)
                .int("packets_dropped", p.packets_dropped)
                .int("dead_link_stalls", p.dead_link_stalls)
                .int("escape_hops", p.escape_hops),
        );
    }
    let path = record.write().expect("write BENCH_failure.json");

    let find = |scenario: &str, fault: FaultCase, routing: RoutingKind| -> &FailurePoint {
        pts.iter()
            .find(|p| p.scenario == scenario && p.fault == fault && p.routing == routing)
            .expect("sweep covers the full grid")
    };

    // Healthy cells are the control group: everything completes, nothing
    // fails, the watchdog never fires.
    for p in pts.iter().filter(|p| p.fault == FaultCase::None) {
        assert!(
            p.completed_all && p.failed_ops == 0 && p.itt_timeouts == 0,
            "healthy {}/{} cell degraded: {p:?}",
            p.scenario,
            p.routing.name()
        );
    }

    // Link kill: fault-adaptive routes around the dead link and completes
    // the capped Zipf job with zero casualties; dimension order stalls.
    let ada = find("zipf", FaultCase::LinkKill, RoutingKind::FaultAdaptive);
    assert!(
        ada.completed_all && ada.failed_ops == 0,
        "fault-adaptive must complete the link-kill Zipf job cleanly: {ada:?}"
    );
    assert!(
        ada.escape_hops > 0 || ada.dead_link_stalls == 0,
        "the detour should show up as escape hops, not stalls: {ada:?}"
    );
    let dor = find("zipf", FaultCase::LinkKill, RoutingKind::DimensionOrder);
    assert!(
        !dor.completed_all
            || dor.completion_cycles >= DOR_LINK_KILL_SLOWDOWN * ada.completion_cycles,
        "DOR must stall (or finish >={DOR_LINK_KILL_SLOWDOWN}x slower) on the dead link: \
         dor {} vs ada {} cycles",
        dor.completion_cycles,
        ada.completion_cycles
    );

    // Node kill: no policy can reach a corpse, but the rack must *finish*
    // — every op addressed to it completes with an error CQ status well
    // inside the horizon instead of wedging its core.
    for routing in [RoutingKind::DimensionOrder, RoutingKind::FaultAdaptive] {
        for scenario in ["uniform", "zipf"] {
            let p = find(scenario, FaultCase::NodeKill, routing);
            assert!(
                p.completed_all,
                "{scenario}/{}: node kill hung the rack: {p:?}",
                routing.name()
            );
            assert!(
                p.failed_ops > 0,
                "{scenario}/{}: a dead hot node must cost error completions: {p:?}",
                routing.name()
            );
            assert!(
                p.completion_cycles < params.horizon,
                "{scenario}/{}: completion rode the horizon: {p:?}",
                routing.name()
            );
        }
    }
    // Blast-radius containment: fault-adaptive loses only the unavoidable
    // ops (those addressed to the corpse); health-blind DOR additionally
    // wedges flows that merely *relayed* through it, so its casualty count
    // must never be lower.
    let nk_ada = find("zipf", FaultCase::NodeKill, RoutingKind::FaultAdaptive);
    let nk_dor = find("zipf", FaultCase::NodeKill, RoutingKind::DimensionOrder);
    assert!(
        nk_ada.failed_ops <= nk_dor.failed_ops,
        "fault-adaptive must not widen the node-kill blast radius: ada {} vs dor {}",
        nk_ada.failed_ops,
        nk_dor.failed_ops
    );

    format!(
        "{}\nfaults fire at cycle {}; 'ops' counts error completions too, so a\n\
         cell can complete its job with casualties — 'failed' is the blast radius.\n\n\
         link-kill zipf: fault-adaptive completed {}/{} ops in {} cycles with {} failures \
         ({} escape hops); DOR {} in {}{} cycles with {} failures\n\
         node-kill zipf: every op completed; blast radius {} failed ops (fault-adaptive) vs {} \
         (DOR), {} packets erased by the dead node\n\n\
         blast-radius table written to {}",
        failure_points_render(&pts),
        params.kill_at,
        ada.completed_ops,
        ada.expected_ops,
        ada.completion_cycles,
        ada.failed_ops,
        ada.escape_hops,
        if dor.completed_all {
            "completed"
        } else {
            "DID NOT complete"
        },
        if dor.completed_all { "" } else { ">" },
        dor.completion_cycles,
        dor.failed_ops,
        nk_ada.failed_ops,
        nk_dor.failed_ops,
        nk_ada.packets_dropped,
        path.display()
    )
}

/// Replication degree and write quorum against mid-run node kills and
/// fault storms. The gate: at `k >= 2` with WQ replay, surviving nodes
/// lose *zero* reads, and quorum writes absorb the dead replica.
fn availability(s: Scale) -> String {
    let params = FailureParams::at(s);
    let pts = availability_sweep(s);

    let mut record = BenchRecord::new(
        "availability",
        1,
        Fields::new()
            .str("scale", s.name())
            .int("kill_at", params.kill_at)
            .int("itt_timeout", params.itt_timeout)
            .int("itt_retries", params.itt_retries),
    );
    for p in &pts {
        record.push(
            Fields::new()
                .str("scenario", p.scenario)
                .str("fault", p.fault.label())
                .int("k", p.k)
                .int("w", p.w)
                .str("torus", &format!("{}x{}x{}", p.dims.0, p.dims.1, p.dims.2))
                .int("kill_at", p.kill_at)
                .int("expected_ops", p.expected_ops)
                .int("completed_ops", p.completed_ops)
                .int("failed_ops", p.failed_ops)
                .int("lost_reads", p.lost_reads)
                .int("corpse_failed_reads", p.corpse_failed_reads)
                .int("degraded_ops", p.degraded_ops)
                .int("replays", p.replays)
                .int("quorum_writes", p.quorum_writes)
                .int("quorum_leg_failures", p.quorum_leg_failures)
                .bool("completed_all", p.completed_all)
                .int("completion_cycles", p.completion_cycles)
                .int("recovery_cycles", p.recovery_cycles)
                .float("ops_per_kcycle", p.ops_per_kcycle, 4)
                .int("p50_ok_read", p.p50_read_cycles)
                .int("p99_ok_read", p.p99_read_cycles)
                .int("p99_degraded_read", p.p99_degraded_read_cycles),
        );
    }
    let path = record.write().expect("write BENCH_availability.json");

    let find = |scenario: &str, k: u8, fault: AvailFault| -> &AvailabilityPoint {
        pts.iter()
            .find(|p| p.scenario == scenario && p.k == k && p.fault == fault)
            .expect("sweep covers the full grid")
    };

    // Control group: healthy cells complete everything with no losses, no
    // degraded completions, no replays — at every replication degree.
    for p in pts.iter().filter(|p| p.fault == AvailFault::None) {
        assert!(
            p.completed_all && p.failed_ops == 0 && p.degraded_ops == 0 && p.replays == 0,
            "healthy {}/k={} cell degraded: {p:?}",
            p.scenario,
            p.k
        );
    }

    // Baseline: without replication a node kill must cost read losses —
    // this is the blast radius the recovery machinery is judged against.
    let base = find("reads", 1, AvailFault::NodeKill);
    assert!(
        base.lost_reads > 0,
        "k=1 node kill must lose reads or the cell is not stressing anything: {base:?}"
    );

    // Headline: at k >= 2 with replay, a node kill loses ZERO reads on
    // surviving nodes — every read addressed to the corpse fails over.
    for (k, _) in AVAIL_KW.iter().copied().filter(|&(k, _)| k >= 2) {
        for fault in [AvailFault::NodeKill, AvailFault::Storm] {
            let p = find("reads", k, fault);
            assert!(
                p.completed_all,
                "reads/k={k}/{}: job did not complete: {p:?}",
                fault.label()
            );
            assert!(
                p.lost_reads == 0,
                "reads/k={k}/{}: {} reads lost on surviving nodes (expected 0): {p:?}",
                fault.label(),
                p.lost_reads
            );
        }
        let p = find("reads", k, AvailFault::NodeKill);
        assert!(
            p.degraded_ops > 0 && p.replays > 0,
            "reads/k={k}/node-kill: recovery should be visible as replays: {p:?}"
        );
    }

    // Writes: the quorum absorbs the dead replica — no errors on surviving
    // nodes, and the absorbed legs show up in the quorum counters.
    for (k, w) in AVAIL_KW.iter().copied().filter(|&(k, _)| k >= 2) {
        let p = find("writes", k, AvailFault::NodeKill);
        assert!(
            p.completed_all && p.lost_reads == 0,
            "writes/k={k}/w={w}/node-kill: losses on surviving nodes: {p:?}"
        );
        assert!(
            p.quorum_writes > 0,
            "writes/k={k}: no write ever fanned out — replication not engaged: {p:?}"
        );
    }

    let nk2 = find("reads", 2, AvailFault::NodeKill);
    format!(
        "{}\n'lost reads' counts error-completed reads on *surviving* nodes only;\n\
         a dead node's own in-flight client work is reported as corpse losses.\n\n\
         node-kill reads: k=1 lost {} reads; k=2 lost {} (of {} ops, {} degraded via {} \
         replays, recovery {} cycles, p99 ok {} vs degraded {})\n\n\
         availability table written to {}",
        availability_points_render(&pts),
        base.lost_reads,
        nk2.lost_reads,
        nk2.expected_ops,
        nk2.degraded_ops,
        nk2.replays,
        nk2.recovery_cycles,
        nk2.p99_read_cycles,
        nk2.p99_degraded_read_cycles,
        path.display()
    )
}

/// The kv tenant's p99 ceiling under the shared mix, in cycles, at quick
/// scale. Quick scale measures ~13k on the 4x4x4 rack (the bulk tenant
/// runs in open-loop overload, so the kv tail sits near the queueing
/// limit); the bound leaves ~2x headroom without masking a regression
/// that doubles the tail. Numeric bounds gate at quick scale only — the
/// overloaded bulk queues grow with the horizon, so full-scale tails are
/// structurally larger.
const KV_SHARED_P99_CEILING: u64 = 26_000;

/// The kv tenant's goodput floor under the shared mix, bytes per
/// kilocycle rack-wide, at quick scale. Quick scale measures ~4.2k; a
/// closed-loop tenant that stalls (window leak, lost completions) drops
/// well below this.
const KV_SHARED_GOODPUT_FLOOR: f64 = 1_000.0;

/// Every chip hosts one core of a closed-loop Zipf KV tenant (two-sided
/// GET RPCs) and one core of an open-loop bulk graph tenant. Each runs
/// solo and shared, plus a diurnal case that phase-changes from off-peak
/// to the shared mix at half-time. The gate: measurable interference, the
/// kv tail under its ceiling, goodput over its floor, nothing lost.
fn serving(s: Scale) -> String {
    let pts = serving_sweep(s);
    let interference = serving_interference(&pts);

    let mut record = BenchRecord::new(
        "serving",
        1,
        Fields::new()
            .str("scale", s.name())
            .int("window", SERVING_WINDOW)
            .int("think", SERVING_THINK)
            .int("service", SERVING_KV_SERVICE)
            .float("kv_interference_index", interference, 4),
    );
    for p in &pts {
        for t in &p.tenants {
            record.push(
                Fields::new()
                    .str("case", p.case)
                    .str("tenant", t.label)
                    .int("tag", t.tag)
                    .str("torus", &format!("{}x{}x{}", p.dims.0, p.dims.1, p.dims.2))
                    .int("cycles", p.cycles)
                    .float("offered_per_kcycle", t.slo.offered_per_kcycle, 4)
                    .float("achieved_per_kcycle", t.slo.achieved_per_kcycle, 4)
                    .float(
                        "goodput_bytes_per_kcycle",
                        t.slo.goodput_bytes_per_kcycle,
                        4,
                    )
                    .float("failure_rate", t.slo.failure_rate, 6)
                    .int("p50", t.slo.p50)
                    .int("p99", t.slo.p99)
                    .int("p999", t.slo.p999)
                    .int("samples", t.slo.samples),
            );
        }
    }
    let path = record.write().expect("write BENCH_serving.json");

    let find = |case: &str| -> &ServingPoint {
        pts.iter()
            .find(|p| p.case == case)
            .expect("sweep covers the full grid")
    };

    // Every live tenant in every case made progress and lost nothing:
    // a serving tier that fails requests has no SLO to speak of.
    for p in &pts {
        for t in &p.tenants {
            assert!(
                t.slo.samples > 0 && t.slo.achieved_per_kcycle > 0.0,
                "{}/{}: tenant made no progress: {:?}",
                p.case,
                t.label,
                t.slo
            );
            assert!(
                t.slo.failure_rate == 0.0,
                "{}/{}: failed requests: {:?}",
                p.case,
                t.label,
                t.slo
            );
        }
    }

    // Tenant isolation bookkeeping: solo cases must report exactly the
    // tenants they run — tags are plumbed core -> chip -> rack, so a
    // stray tag means the striping or tagging broke.
    let (solo_kv, solo_bulk, shared_mix) = (find("solo-kv"), find("solo-bulk"), find("shared"));
    assert!(
        solo_kv.tenants.len() == 1 && solo_kv.tenant(TENANT_KV).is_some(),
        "solo-kv must report only the kv tenant: {:?}",
        solo_kv.tenants
    );
    assert!(
        solo_bulk.tenants.len() == 1 && solo_bulk.tenant(TENANT_BULK).is_some(),
        "solo-bulk must report only the bulk tenant: {:?}",
        solo_bulk.tenants
    );
    assert!(
        shared_mix.tenants.len() == 2,
        "shared mix must report both tenants: {:?}",
        shared_mix.tenants
    );

    let solo = solo_kv.tenant(TENANT_KV).expect("solo kv ran");
    let shared = shared_mix.tenant(TENANT_KV).expect("shared kv ran");

    // The headline: co-locating the bulk tenant on the same chips and
    // fabric measurably stretches the kv tail — shared p99 strictly above
    // solo p99. If these are equal the tenants are not actually
    // contending and the study measures nothing.
    assert!(
        shared.p99 > solo.p99,
        "no cross-tenant interference: shared kv p99 {} <= solo p99 {}",
        shared.p99,
        solo.p99
    );

    // The SLO gate proper: the kv tenant's shared-mix tail and goodput
    // stay within the serving bounds, calibrated for (and only checked
    // at) quick scale — the scale CI runs.
    if s == Scale::Quick {
        assert!(
            shared.p99 <= KV_SHARED_P99_CEILING,
            "kv SLO violated: shared p99 {} cycles > ceiling {KV_SHARED_P99_CEILING}",
            shared.p99
        );
        assert!(
            shared.goodput_bytes_per_kcycle >= KV_SHARED_GOODPUT_FLOOR,
            "kv goodput {:.1} B/kcycle below floor {KV_SHARED_GOODPUT_FLOOR}",
            shared.goodput_bytes_per_kcycle
        );
    }

    // Diurnal sanity: the phase change takes — the peak half runs the
    // shared mix, so the bulk tenant must appear in the diurnal stats.
    let diurnal = find("diurnal");
    assert!(
        diurnal.tenant(TENANT_KV).is_some() && diurnal.tenant(TENANT_BULK).is_some(),
        "diurnal peak phase never engaged: {:?}",
        diurnal.tenants
    );
    // The off-peak half throttles the kv tenant (8x think time) and the
    // peak half contends with bulk, so a diurnal run must offer less kv
    // load than the uncontended full-length solo run. (Not compared to
    // the shared run: closed-loop offered load is endogenous, and full-
    // time contention suppresses it below even the throttled diurnal.)
    let dkv = diurnal.tenant(TENANT_KV).expect("diurnal kv ran");
    assert!(
        dkv.offered_per_kcycle < solo.offered_per_kcycle,
        "diurnal off-peak phase had no effect: {:.2} >= {:.2} offered/kcycle",
        dkv.offered_per_kcycle,
        solo.offered_per_kcycle
    );

    format!(
        "{}\n\nkv tenant: solo p99 {} cycles, shared p99 {} cycles, interference {:.2}x; \
         shared goodput {:.1} B/kcycle\nserving table written to {}",
        serving_points_render(&pts),
        solo.p99,
        shared.p99,
        interference,
        shared.goodput_bytes_per_kcycle,
        path.display()
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
