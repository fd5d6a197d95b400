//! Buffered per-node fabric endpoints for parallel lock-step racks.
//!
//! A multi-node rack used to hand every chip an `Rc<RefCell<TorusFabric>>`
//! handle, serializing the whole rack behind one shared borrow. A
//! [`FabricPort`] cuts that dependency: it is a per-node *outbox/inbox pair*
//! implementing [`Fabric`], so a chip ticks entirely against local buffers
//! and never touches the shared transport. Every buffered event carries a
//! cycle stamp, which lets the rack driver exchange the buffers with the
//! real transport at two granularities:
//!
//! * **Per cycle** ([`collect_arrivals`](FabricPort::collect_arrivals) and
//!   [`flush_outbox`](FabricPort::flush_outbox)): advance the fabric once,
//!   stamp its fresh arrivals with the cycle, tick every chip, then replay
//!   every outbox into the fabric in node-id order.
//! * **Per lookahead quantum** ([`TorusFabric::open_quantum`] and
//!   [`consume_arrivals`](FabricPort::consume_arrivals)): no packet crosses
//!   a torus link in under [`TorusFabric::lookahead`] cycles, so every
//!   delivery of the next quantum is already on its final wire when the
//!   quantum opens. The fabric hands those deliveries out up front, stamped
//!   with their arrival cycles; each chip then runs the whole quantum
//!   against its port, seeing an arrival only once its own clock reaches
//!   the stamp; finally the driver replays the fabric cycle by cycle,
//!   flushing each outbox event at the cycle it was stamped with and
//!   checking that the fabric makes exactly the deliveries it handed out
//!   (the port keeps a ledger of them).
//!
//! Both schedules inject the same packets at the same cycles in the same
//! node-id order, so they are bit-identical to each other and to ticking
//! the chips serially against a shared fabric — at any worker-thread count.
//!
//! **Self-addressed traffic** is the one exception to the lookahead: the
//! fabric delivers a packet addressed to its own node one cycle after
//! injection. Inside an open quantum the port therefore loops such a packet
//! back itself, stamped one cycle later and queued behind the link arrivals
//! due that cycle (those were pushed onto the wires at least a lookahead
//! earlier, so the fabric pops them first too). It applies the fabric's
//! dead-node rule from the node's scheduled liveness — the node must be up
//! at the injection cycle and at the arrival cycle — and counts the packets
//! that rule drops ([`FabricPort::loopback_drops`]). The packet still
//! enters the fabric at replay, which keeps the fabric's counters exact and
//! lets the ledger check the loop-back; one injected on a quantum's last
//! cycle is left to the next quantum's hand-out.
//!
//! Ports are cloneable handles over an `Arc<Mutex<_>>` (uncontended by
//! construction: a port is touched by exactly one thread in each phase),
//! which is what makes the owning [`Chip`](../../ni_soc) `Send`.
//!
//! [`TorusFabric::open_quantum`]: crate::TorusFabric::open_quantum
//! [`TorusFabric::lookahead`]: crate::TorusFabric::lookahead

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ni_engine::{Counter, Cycle};

use crate::fabric::{Fabric, FabricStats};
use crate::fault::NodeLiveness;
use crate::rack::{RemoteReq, RemoteResp};
use crate::torus_fabric::TorusPkt;

/// Flag value of an empty buffer in [`PortShared`]'s stamp flags.
const EMPTY: u64 = u64::MAX;

/// One buffered event emitted by a chip during the compute phase, replayed
/// into the real fabric during the exchange phase. A single FIFO preserves
/// the chip's exact emission order across requests, responses, and latency
/// samples.
#[derive(Clone, Copy, Debug)]
enum PortEvent {
    /// An outgoing request ([`Fabric::inject`]).
    Req(RemoteReq),
    /// An outgoing response ([`Fabric::inject_resp`]).
    Resp(RemoteResp),
    /// A measured RRPP service latency ([`Fabric::record_rrpp_latency`]).
    RrppLatency(u64),
}

/// Arrivals of one kind, each stamped with the cycle it becomes visible at
/// (non-decreasing front to back).
type Stamped<T> = VecDeque<(Cycle, T)>;

/// Insert `item` due at `at` behind every entry due by then.
fn insert_due<T>(q: &mut Stamped<T>, at: Cycle, item: T) {
    let pos = q.partition_point(|&(due, _)| due <= at);
    q.insert(pos, (at, item));
}

#[derive(Debug, Default)]
struct PortState {
    /// Emitted events stamped with the chip cycle that emitted them, in
    /// emission order.
    outbox: Stamped<PortEvent>,
    inbox_reqs: Stamped<RemoteReq>,
    inbox_resps: Stamped<RemoteResp>,
    /// Deliveries handed to the chip ahead of the fabric in the open
    /// quantum, which the replay must see the fabric make at the same
    /// cycles ([`FabricPort::consume_arrivals`]).
    ledger_reqs: Stamped<RemoteReq>,
    ledger_resps: Stamped<RemoteResp>,
    /// End (exclusive) of the open quantum: self-addressed packets due
    /// before it loop back inside the port. Stale values are harmless —
    /// every later stamp lies past them.
    quantum_end: Cycle,
    /// When this port's node is up (the fabric's dead-node rule).
    liveness: NodeLiveness,
    /// Self-addressed packets the dead-node rule dropped inside the port.
    loopback_drops: Counter,
    /// Port-local traffic counters (this node's view; rack-wide numbers
    /// come from the shared fabric the driver owns).
    stats: FabricStats,
}

impl PortState {
    /// Stamp of the earliest undrained arrival, [`EMPTY`] when none.
    fn inbox_next(&self) -> u64 {
        let r = self.inbox_reqs.front().map_or(EMPTY, |e| e.0 .0);
        let s = self.inbox_resps.front().map_or(EMPTY, |e| e.0 .0);
        r.min(s)
    }

    /// Loop a self-addressed packet injected at `now` back into the inbox,
    /// as the fabric would deliver it one cycle later (see the module
    /// docs).
    fn loop_back(&mut self, now: Cycle, pkt: TorusPkt) {
        let at = now + 1;
        if at >= self.quantum_end {
            // No quantum open past `at`: the fabric delivers it.
            return;
        }
        if !(self.liveness.up_at(now.0) && self.liveness.up_at(at.0)) {
            self.loopback_drops.incr();
            return;
        }
        match pkt {
            TorusPkt::Req(r) => {
                insert_due(&mut self.inbox_reqs, at, r);
                insert_due(&mut self.ledger_reqs, at, r);
            }
            TorusPkt::Resp(r) => {
                insert_due(&mut self.inbox_resps, at, r);
                insert_due(&mut self.ledger_resps, at, r);
            }
        }
    }
}

/// The buffers plus lock-free stamp flags. The flags let the hot idle-port
/// paths — the rack driver's per-cycle merge scan and the chip's per-cycle
/// arrival check — skip the mutex entirely: on a large mostly-idle rack
/// those run once per node per cycle. Each flag holds the stamp of its
/// buffer's earliest entry ([`EMPTY`] when none), stored (`Release`) under
/// the lock after every buffer change and loaded (`Acquire`) without it.
/// The buffers themselves are only read under the lock, and the rack's
/// phase barriers order one phase's writes before the next phase's reads.
#[derive(Debug)]
struct PortShared {
    state: Mutex<PortState>,
    /// Stamp of the oldest outbox event.
    outbox_next: AtomicU64,
    /// Stamp of the earliest undrained arrival.
    inbox_next: AtomicU64,
    /// The chip cycle last passed to [`Fabric::tick`]: the stamp of RRPP
    /// latency samples, whose call carries no cycle.
    chip_now: AtomicU64,
}

/// A per-node buffered endpoint of a lock-step rack: the chip side injects
/// into the outbox and drains the inbox; the rack side exchanges both with
/// the real transport between compute phases. Cloning yields another handle
/// onto the same buffers.
#[derive(Clone, Debug)]
pub struct FabricPort {
    node: u16,
    shared: Arc<PortShared>,
}

impl FabricPort {
    /// Create the port for rack node `node`, on a node that never dies.
    /// [`TorusFabric::port`](crate::TorusFabric::port) builds one that
    /// knows the fabric's fault plan, which lookahead quanta need to loop
    /// self-addressed traffic back.
    pub fn new(node: u16) -> FabricPort {
        FabricPort::with_liveness(node, NodeLiveness::default())
    }

    /// Create the port for rack node `node`, up as `liveness` says.
    pub(crate) fn with_liveness(node: u16, liveness: NodeLiveness) -> FabricPort {
        FabricPort {
            node,
            shared: Arc::new(PortShared {
                state: Mutex::new(PortState {
                    liveness,
                    ..PortState::default()
                }),
                outbox_next: AtomicU64::new(EMPTY),
                inbox_next: AtomicU64::new(EMPTY),
                chip_now: AtomicU64::new(0),
            }),
        }
    }

    /// The node this port belongs to.
    pub fn node(&self) -> u16 {
        self.node
    }

    fn lock(&self) -> MutexGuard<'_, PortState> {
        self.shared.state.lock().expect("port mutex never poisoned")
    }

    /// True when the outbox may hold events awaiting
    /// [`flush_outbox`](FabricPort::flush_outbox) — a lock-free peek.
    pub fn outbox_pending(&self) -> bool {
        self.shared.outbox_next.load(Ordering::Acquire) != EMPTY
    }

    /// Self-addressed packets this port dropped under the dead-node rule
    /// while looping them back (the fabric counts the same packets in its
    /// [`FaultStats::packets_dropped`](crate::FaultStats)).
    pub fn loopback_drops(&self) -> u64 {
        self.lock().loopback_drops.get()
    }

    fn publish_inbox(&self, s: &PortState) {
        self.shared
            .inbox_next
            .store(s.inbox_next(), Ordering::Release);
    }

    /// Exchange-phase step: replay every outbox event stamped at or before
    /// `now` into `fabric` in emission order, injected at `now`. Called by
    /// the rack driver for every node in node-id order, which reproduces
    /// the exact injection order of a serial run. Returns without locking
    /// when the outbox flag shows nothing due.
    pub fn flush_outbox(&self, now: Cycle, fabric: &mut dyn Fabric) {
        if self.shared.outbox_next.load(Ordering::Acquire) > now.0 {
            return;
        }
        let mut s = self.lock();
        while let Some(&(at, ev)) = s.outbox.front() {
            if at > now {
                break;
            }
            s.outbox.pop_front();
            match ev {
                PortEvent::Req(req) => fabric.inject(now, self.node, req),
                PortEvent::Resp(resp) => fabric.inject_resp(now, self.node, resp),
                PortEvent::RrppLatency(cycles) => fabric.record_rrpp_latency(self.node, cycles),
            }
        }
        let next = s.outbox.front().map_or(EMPTY, |e| e.0 .0);
        self.shared.outbox_next.store(next, Ordering::Release);
    }

    /// Per-cycle exchange step: move every arrival addressed to this node
    /// out of `fabric` into the port inbox (FIFO order preserved), stamped
    /// `now` — visible to the chip's tick at `now`.
    pub fn collect_arrivals(&self, now: Cycle, fabric: &mut dyn Fabric) {
        let mut s = self.lock();
        while let Some(r) = fabric.pop_response(now, self.node) {
            s.inbox_resps.push_back((now, r));
        }
        while let Some(r) = fabric.pop_incoming(now, self.node) {
            s.inbox_reqs.push_back((now, r));
        }
        self.publish_inbox(&s);
    }

    /// Open a lookahead quantum ending (exclusive) at `end`: self-addressed
    /// packets due before it loop back inside the port from now on.
    pub(crate) fn open_quantum(&self, end: Cycle) {
        self.lock().quantum_end = end;
    }

    /// Hand the chip a delivery the fabric will make at `at`, ahead of the
    /// fabric, and note it in the ledger. Deliveries arrive in the
    /// fabric's pop order.
    pub(crate) fn hand(&self, at: Cycle, pkt: TorusPkt) {
        let mut s = self.lock();
        match pkt {
            TorusPkt::Req(r) => {
                s.inbox_reqs.push_back((at, r));
                s.ledger_reqs.push_back((at, r));
            }
            TorusPkt::Resp(r) => {
                s.inbox_resps.push_back((at, r));
                s.ledger_resps.push_back((at, r));
            }
        }
        self.publish_inbox(&s);
    }

    /// Quantum replay step: drain the deliveries `fabric` just made to this
    /// node at `now` — the chip already received them from the port — and
    /// check each against the ledger: the cycle always, the packet itself
    /// under `debug_assertions`.
    ///
    /// # Panics
    /// Panics when the fabric delivers a packet the port did not hand out
    /// for `now`: a broken lookahead.
    pub fn consume_arrivals(&self, now: Cycle, fabric: &mut dyn Fabric) {
        let node = self.node;
        let mut s = self.lock();
        while let Some(r) = fabric.pop_response(now, node) {
            let due = s.ledger_resps.pop_front();
            assert!(
                due.is_some_and(|(at, _)| at == now),
                "node {node}: fabric delivered response {r:?} at {now:?}, handed out {due:?}"
            );
            debug_assert_eq!(due.map(|d| d.1), Some(r), "node {node} at {now:?}");
        }
        while let Some(r) = fabric.pop_incoming(now, node) {
            let due = s.ledger_reqs.pop_front();
            assert!(
                due.is_some_and(|(at, _)| at == now),
                "node {node}: fabric delivered request {r:?} at {now:?}, handed out {due:?}"
            );
            debug_assert_eq!(due.map(|d| d.1), Some(r), "node {node} at {now:?}");
        }
    }

    /// Close the quantum the driver just replayed.
    ///
    /// # Panics
    /// Panics when a delivery handed out for the quantum never came out of
    /// the fabric — the count check of the lookahead.
    pub fn close_quantum(&self) {
        let s = self.lock();
        assert!(
            s.ledger_reqs.is_empty() && s.ledger_resps.is_empty(),
            "node {}: handed-out deliveries the fabric never made: {:?} {:?}",
            self.node,
            s.ledger_reqs,
            s.ledger_resps
        );
    }
}

impl Fabric for FabricPort {
    fn inject(&mut self, now: Cycle, from: u16, req: RemoteReq) {
        debug_assert_eq!(from, self.node, "port used by a foreign node");
        let mut s = self.lock();
        s.stats.sent.incr();
        let mut req = req;
        req.src_node = from;
        if req.target_node == self.node {
            s.loop_back(now, TorusPkt::Req(req));
            self.publish_inbox(&s);
        }
        s.outbox.push_back((now, PortEvent::Req(req)));
        self.shared.outbox_next.fetch_min(now.0, Ordering::AcqRel);
    }

    fn inject_resp(&mut self, now: Cycle, from: u16, resp: RemoteResp) {
        debug_assert_eq!(from, self.node, "port used by a foreign node");
        let mut s = self.lock();
        if resp.dst_node == self.node {
            s.loop_back(now, TorusPkt::Resp(resp));
            self.publish_inbox(&s);
        }
        s.outbox.push_back((now, PortEvent::Resp(resp)));
        self.shared.outbox_next.fetch_min(now.0, Ordering::AcqRel);
    }

    fn tick(&mut self, now: Cycle) {
        // Transport time passes in the shared fabric during the exchange
        // phase; the port only learns the chip's clock.
        self.shared.chip_now.store(now.0, Ordering::Relaxed);
    }

    fn pop_response(&mut self, now: Cycle, node: u16) -> Option<RemoteResp> {
        debug_assert_eq!(node, self.node, "port used by a foreign node");
        if self.shared.inbox_next.load(Ordering::Acquire) > now.0 {
            return None;
        }
        let mut s = self.lock();
        if s.inbox_resps.front().is_none_or(|&(at, _)| at > now) {
            return None;
        }
        let (_, r) = s.inbox_resps.pop_front().expect("front checked");
        s.stats.responded.incr();
        self.publish_inbox(&s);
        Some(r)
    }

    fn pop_incoming(&mut self, now: Cycle, node: u16) -> Option<RemoteReq> {
        debug_assert_eq!(node, self.node, "port used by a foreign node");
        if self.shared.inbox_next.load(Ordering::Acquire) > now.0 {
            return None;
        }
        let mut s = self.lock();
        if s.inbox_reqs.front().is_none_or(|&(at, _)| at > now) {
            return None;
        }
        let (_, r) = s.inbox_reqs.pop_front().expect("front checked");
        s.stats.incoming_generated.incr();
        self.publish_inbox(&s);
        Some(r)
    }

    fn record_rrpp_latency(&mut self, node: u16, cycles: u64) {
        debug_assert_eq!(node, self.node, "port used by a foreign node");
        let now = self.shared.chip_now.load(Ordering::Relaxed);
        let mut s = self.lock();
        s.outbox
            .push_back((Cycle(now), PortEvent::RrppLatency(cycles)));
        self.shared.outbox_next.fetch_min(now, Ordering::AcqRel);
    }

    fn stats(&self) -> FabricStats {
        self.lock().stats
    }

    fn is_idle(&self) -> bool {
        // Two lock-free loads: nothing buffered in either direction.
        self.shared.outbox_next.load(Ordering::Acquire) == EMPTY
            && self.shared.inbox_next.load(Ordering::Acquire) == EMPTY
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // A port never acts on its own: arrivals only appear when the rack
        // driver collects or hands them out between compute phases (or the
        // chip loops a packet back to itself). The earliest stamped one is
        // when the chip must next look; a pending outbox is none of the
        // chip's business.
        match self.shared.inbox_next.load(Ordering::Acquire) {
            EMPTY => None,
            at => Some(Cycle(at).max(now)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus_fabric::{TorusFabric, TorusFabricConfig};
    use crate::Torus3D;
    use ni_mem::BlockAddr;

    fn req(tid: u64, target: u16) -> RemoteReq {
        RemoteReq {
            tid,
            is_read: true,
            src_node: 0,
            target_node: target,
            remote_block: BlockAddr(5),
            value: 0,
            service: 0,
        }
    }

    #[test]
    fn outbox_replays_in_emission_order_and_inbox_preserves_fifo() {
        let mut fabric = TorusFabric::new(TorusFabricConfig {
            torus: Torus3D::new(2, 1, 1),
            ..TorusFabricConfig::default()
        });
        let mut port0 = FabricPort::new(0);
        let port1 = FabricPort::new(1);
        port0.inject(Cycle(0), 0, req(1, 1));
        port0.inject(Cycle(0), 0, req(2, 1));
        assert!(!port0.is_idle());
        port0.flush_outbox(Cycle(0), &mut fabric);
        assert!(port0.is_idle());
        assert_eq!(fabric.stats().sent.get(), 2);
        // 32B at 16 B/cycle = 2 cycles serialization + 70 wire; the second
        // request queues 2 more cycles behind the first.
        for now in 1..=74 {
            fabric.tick(Cycle(now));
        }
        port1.collect_arrivals(Cycle(74), &mut fabric);
        let mut chip_side = port1.clone();
        let a = chip_side.pop_incoming(Cycle(74), 1).expect("first arrival");
        let b = chip_side
            .pop_incoming(Cycle(74), 1)
            .expect("second arrival");
        assert_eq!((a.tid, b.tid), (1, 2), "FIFO order preserved end to end");
        assert!(chip_side.pop_incoming(Cycle(74), 1).is_none());
        assert_eq!(chip_side.stats().incoming_generated.get(), 2);
    }

    fn fabric_with(x: u16, faults: crate::FaultPlan) -> TorusFabric {
        TorusFabric::new(TorusFabricConfig {
            torus: Torus3D::new(x, 1, 1),
            faults,
            ..TorusFabricConfig::default()
        })
    }

    #[test]
    fn stamped_arrivals_surface_only_at_their_cycle() {
        let mut fabric = fabric_with(2, crate::FaultPlan::new());
        let ports = [fabric.port(0), fabric.port(1)];
        ports[0].clone().inject(Cycle(0), 0, req(1, 1));
        ports[0].flush_outbox(Cycle(0), &mut fabric);
        // 2 serialization + 70 wire cycles: due at 72, inside [1, 72].
        fabric.open_quantum(Cycle(73), &ports);
        let mut chip_side = ports[1].clone();
        assert_eq!(chip_side.next_event(Cycle(1)), Some(Cycle(72)));
        assert!(!chip_side.is_idle(), "a handed-out arrival is pending");
        assert!(chip_side.pop_incoming(Cycle(71), 1).is_none(), "not yet");
        assert_eq!(chip_side.next_event(Cycle(72)), Some(Cycle(72)));
        let got = chip_side.pop_incoming(Cycle(72), 1).expect("due at 72");
        assert_eq!(got.tid, 1);
        assert_eq!(chip_side.next_event(Cycle(72)), None);
        // Replaying the quantum makes the same delivery, checked off.
        for c in 1..73 {
            fabric.tick(Cycle(c));
            for port in &ports {
                port.consume_arrivals(Cycle(c), &mut fabric);
            }
        }
        for port in &ports {
            port.close_quantum();
        }
        assert!(!fabric.has_deliveries());
    }

    #[test]
    fn outbox_replays_by_cycle_then_emission() {
        let mut fabric = fabric_with(3, crate::FaultPlan::new());
        let mut port = fabric.port(0);
        port.inject(Cycle(5), 0, req(1, 1));
        port.inject(Cycle(5), 0, req(2, 2));
        port.inject(Cycle(7), 0, req(3, 1));
        // Nothing stamped at or before 4.
        port.flush_outbox(Cycle(4), &mut fabric);
        assert_eq!(fabric.stats().sent.get(), 0);
        port.flush_outbox(Cycle(5), &mut fabric);
        assert_eq!(fabric.stats().sent.get(), 2, "both cycle-5 events");
        assert!(port.outbox_pending());
        port.flush_outbox(Cycle(6), &mut fabric);
        assert_eq!(fabric.stats().sent.get(), 2);
        port.flush_outbox(Cycle(7), &mut fabric);
        assert_eq!(fabric.stats().sent.get(), 3);
        assert!(!port.outbox_pending());
        // Emission order within cycle 5 reaches the wire: tid 1 first.
        for c in 6..80 {
            fabric.tick(Cycle(c));
        }
        let first = fabric.pop_incoming(Cycle(80), 1).expect("tid 1");
        let third = fabric.pop_incoming(Cycle(80), 1).expect("tid 3");
        assert_eq!((first.tid, third.tid), (1, 3));
    }

    #[test]
    fn loopback_to_a_node_dying_next_cycle_is_dropped_like_the_fabric_drops_it() {
        // Node 0 dies at cycle 11; a self-addressed request injected at 10
        // would arrive at 11.
        let plan = crate::FaultPlan::new().node_down(0, 11);
        let mut fabric = fabric_with(2, plan);
        let ports = [fabric.port(0), fabric.port(1)];
        for c in 0..10 {
            fabric.tick(Cycle(c));
        }
        fabric.open_quantum(Cycle(40), &ports);
        let mut chip_side = ports[0].clone();
        chip_side.tick(Cycle(10));
        chip_side.inject(Cycle(10), 0, req(4, 0));
        assert!(chip_side.pop_incoming(Cycle(11), 0).is_none());
        assert_eq!(chip_side.next_event(Cycle(11)), None, "nothing looped back");
        assert_eq!(ports[0].loopback_drops(), 1);
        // A healthy loop-back at 8 would have been visible at 9.
        let healthy = fabric_with(1, crate::FaultPlan::new());
        let lone = [healthy.port(0)];
        healthy.open_quantum(Cycle(20), &lone);
        let mut lone_chip = lone[0].clone();
        lone_chip.inject(Cycle(8), 0, req(5, 0));
        assert_eq!(lone_chip.next_event(Cycle(8)), Some(Cycle(9)));
        assert_eq!(lone_chip.pop_incoming(Cycle(9), 0).map(|r| r.tid), Some(5));
        // The replay sends the packet through the fabric, which drops it
        // for the same reason and delivers nothing.
        for c in 10..40 {
            fabric.tick(Cycle(c));
            for port in &ports {
                port.consume_arrivals(Cycle(c), &mut fabric);
                port.flush_outbox(Cycle(c), &mut fabric);
            }
        }
        for port in &ports {
            port.close_quantum();
        }
        assert_eq!(fabric.fault_stats().packets_dropped.get(), 1);
        assert_eq!(fabric.stats().incoming_generated.get(), 0);
    }

    #[test]
    fn clones_share_the_same_buffers() {
        let mut a = FabricPort::new(3);
        let b = a.clone();
        a.inject(Cycle(0), 3, req(9, 0));
        assert!(!b.is_idle());
        assert_eq!(b.stats().sent.get(), 1);
    }
}
