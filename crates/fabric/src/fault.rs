//! Deterministic fault injection for the torus fabric.
//!
//! A [`FaultPlan`] is a schedule of link and node failures (and optional
//! repairs) that a [`TorusFabric`](crate::TorusFabric) applies at fixed
//! cycles: a dead link stops accepting and serializing flits in both
//! directions (packets routed at it park and retry), and a dead node drops
//! every packet it sources, holds in flight, or is addressed by, while its
//! incident links read as down to its neighbors. The plan is plain data — building one performs no
//! I/O and draws no randomness — so a faulted run remains a pure function
//! of its configuration, bit-identical at any thread count. For randomized
//! studies, [`FaultPlan::random_link_kills`] and
//! [`FaultPlan::random_node_kills`] derive schedules from an explicit seed,
//! [`FaultPlan::region_kill`] takes out a whole X/Y/Z slab at once, and
//! [`FaultPlan::fault_storm`] rolls seeded kill/repair waves — all keeping
//! the determinism contract.
//!
//! What the layers above do about a fault is their business: routing
//! policies see link health through
//! [`LinkView`](crate::routing::LinkView) (see
//! [`FaultAdaptive`](crate::routing::FaultAdaptive)), and requesters
//! recover dropped traffic through the RMC backend's ITT timeout/retry
//! machinery.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::torus::{Dir, Torus3D};

/// A torus dimension, for slab-shaped region kills
/// ([`FaultPlan::region_kill`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// The X dimension (fastest-varying in node ids).
    X,
    /// The Y dimension.
    Y,
    /// The Z dimension.
    Z,
}

/// One scheduled fault (or repair) event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Kill the undirected link between neighbor nodes `a` and `b`: both
    /// directed links stop accepting packets at `at_cycle`.
    LinkDown {
        /// One endpoint node id.
        a: u32,
        /// The other endpoint node id (must be a torus neighbor of `a`).
        b: u32,
        /// Cycle the link dies.
        at_cycle: u64,
    },
    /// Repair the undirected link between `a` and `b`.
    LinkUp {
        /// One endpoint node id.
        a: u32,
        /// The other endpoint node id (must be a torus neighbor of `a`).
        b: u32,
        /// Cycle the link comes back.
        at_cycle: u64,
    },
    /// Kill node `node`: from `at_cycle` on, packets it would source,
    /// relay, or consume are dropped, and its incident links read as down
    /// in every neighbor's [`LinkView`](crate::routing::LinkView).
    NodeDown {
        /// The node that dies.
        node: u32,
        /// Cycle it dies.
        at_cycle: u64,
    },
    /// Repair node `node`.
    NodeUp {
        /// The node that comes back.
        node: u32,
        /// Cycle it comes back.
        at_cycle: u64,
    },
}

impl FaultEvent {
    /// The cycle this event fires at.
    pub fn at_cycle(&self) -> u64 {
        match *self {
            FaultEvent::LinkDown { at_cycle, .. }
            | FaultEvent::LinkUp { at_cycle, .. }
            | FaultEvent::NodeDown { at_cycle, .. }
            | FaultEvent::NodeUp { at_cycle, .. } => at_cycle,
        }
    }
}

/// A deterministic schedule of [`FaultEvent`]s, threaded through
/// [`TorusFabricConfig::faults`](crate::TorusFabricConfig) (and
/// `RackSimConfig::faults` at the rack layer) the same way the routing
/// policy is.
///
/// ```
/// use ni_fabric::FaultPlan;
/// // Kill the 0↔1 link at cycle 1000, the whole of node 5 at 2000, and
/// // repair the link at 8000.
/// let plan = FaultPlan::new()
///     .link_down(0, 1, 1_000)
///     .node_down(5, 2_000)
///     .link_up(0, 1, 8_000);
/// assert_eq!(plan.events().len(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (a healthy fabric).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order. The fabric applies them
    /// sorted by cycle (stable, so same-cycle events fire in insertion
    /// order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Schedule an arbitrary event.
    pub fn with(mut self, event: FaultEvent) -> FaultPlan {
        self.events.push(event);
        self
    }

    /// Kill the undirected link between neighbors `a` and `b` at `at_cycle`.
    pub fn link_down(self, a: u32, b: u32, at_cycle: u64) -> FaultPlan {
        self.with(FaultEvent::LinkDown { a, b, at_cycle })
    }

    /// Repair the undirected link between `a` and `b` at `at_cycle`.
    pub fn link_up(self, a: u32, b: u32, at_cycle: u64) -> FaultPlan {
        self.with(FaultEvent::LinkUp { a, b, at_cycle })
    }

    /// Kill `node` at `at_cycle`.
    pub fn node_down(self, node: u32, at_cycle: u64) -> FaultPlan {
        self.with(FaultEvent::NodeDown { node, at_cycle })
    }

    /// Repair `node` at `at_cycle`.
    pub fn node_up(self, node: u32, at_cycle: u64) -> FaultPlan {
        self.with(FaultEvent::NodeUp { node, at_cycle })
    }

    /// A seeded schedule of `count` distinct random link kills, all firing
    /// at `at_cycle`: a pure function of `(torus, seed, count, at_cycle)`,
    /// so randomized blast-radius studies stay reproducible.
    ///
    /// # Panics
    /// Panics when `count` distinct links cannot be scheduled (more kills
    /// requested than the torus plausibly has links) — a short plan
    /// returned silently would make a study report fewer faults than it
    /// configured.
    pub fn random_link_kills(torus: Torus3D, seed: u64, count: usize, at_cycle: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let mut chosen: Vec<(u32, u32)> = Vec::with_capacity(count);
        // Bounded rejection sampling: duplicates are rare for count <<
        // links, and the loop bound keeps a tiny torus from spinning.
        let mut attempts = 0usize;
        while chosen.len() < count && attempts < count * 64 + 64 {
            attempts += 1;
            let a = rng.gen_range(0..torus.nodes());
            let d = Dir::ALL[rng.gen_range(0..6u32) as usize];
            let b = torus.neighbor(a, d);
            if a == b {
                continue; // degenerate 1-wide ring: a "link" back to itself
            }
            let key = (a.min(b), a.max(b));
            if chosen.contains(&key) {
                continue;
            }
            chosen.push(key);
            plan = plan.link_down(key.0, key.1, at_cycle);
        }
        assert!(
            chosen.len() == count,
            "only {} of {count} distinct link kills fit the {:?} torus",
            chosen.len(),
            torus.dims()
        );
        plan
    }

    /// A seeded schedule of `count` distinct random node kills, all firing
    /// at `at_cycle` — the node-granularity companion of
    /// [`random_link_kills`](FaultPlan::random_link_kills), and a pure
    /// function of `(torus, seed, count, at_cycle)`.
    ///
    /// # Panics
    /// Panics when `count` exceeds the torus node count (a short plan
    /// returned silently would make a study report fewer faults than it
    /// configured).
    pub fn random_node_kills(torus: Torus3D, seed: u64, count: usize, at_cycle: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let mut chosen: Vec<u32> = Vec::with_capacity(count);
        let mut attempts = 0usize;
        while chosen.len() < count && attempts < count * 64 + 64 {
            attempts += 1;
            let node = rng.gen_range(0..torus.nodes());
            if chosen.contains(&node) {
                continue;
            }
            chosen.push(node);
            plan = plan.node_down(node, at_cycle);
        }
        assert!(
            chosen.len() == count,
            "only {} of {count} distinct node kills fit the {:?} torus",
            chosen.len(),
            torus.dims()
        );
        plan
    }

    /// Kill every node of one torus slab — all nodes whose `axis`
    /// coordinate equals `index` — at `at_cycle`: the correlated regional
    /// failure (a rack row losing power, a switch taking its column down)
    /// that single-node kills cannot model. The slab of a 4×4×4 torus is 16
    /// nodes; replica placements that pack copies next to their primary die
    /// with it, which is exactly what the spread-first
    /// [`ReplicaMap`](crate::replica::ReplicaMap) placement avoids.
    ///
    /// # Panics
    /// Panics when `index` is outside the torus extent along `axis`.
    pub fn region_kill(self, torus: Torus3D, axis: Axis, index: u16, at_cycle: u64) -> FaultPlan {
        let (dx, dy, dz) = torus.dims();
        let extent = match axis {
            Axis::X => dx,
            Axis::Y => dy,
            Axis::Z => dz,
        };
        assert!(
            index < extent,
            "slab {axis:?}={index} is outside the {:?} torus",
            torus.dims()
        );
        let mut plan = self;
        for node in 0..torus.nodes() {
            let (x, y, z) = torus.coords(node);
            let c = match axis {
                Axis::X => x,
                Axis::Y => y,
                Axis::Z => z,
            };
            if c == index {
                plan = plan.node_down(node, at_cycle);
            }
        }
        plan
    }

    /// A rolling "fault storm": `waves` seeded waves of `kills_per_wave`
    /// node kills, one wave every `period` cycles starting at `first_at`,
    /// each killed node repairing `repair_after` cycles after its death.
    /// Victims are distinct *while down* — a node is only eligible for a
    /// wave once any earlier kill of it has repaired — so the storm models
    /// churn (kill/repair/kill elsewhere) rather than monotone decay. A
    /// pure function of its arguments, like every other constructor here.
    ///
    /// # Panics
    /// Panics when a wave cannot find `kills_per_wave` eligible nodes
    /// (storm too dense for the torus).
    pub fn fault_storm(
        torus: Torus3D,
        seed: u64,
        waves: usize,
        kills_per_wave: usize,
        first_at: u64,
        period: u64,
        repair_after: u64,
    ) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        // Node -> cycle it comes back up (still-down nodes are ineligible).
        let mut up_at: Vec<u64> = vec![0; torus.nodes() as usize];
        for wave in 0..waves {
            let at = first_at + wave as u64 * period;
            let mut killed = 0usize;
            let mut attempts = 0usize;
            while killed < kills_per_wave && attempts < kills_per_wave * 64 + 64 {
                attempts += 1;
                let node = rng.gen_range(0..torus.nodes());
                if up_at[node as usize] > at {
                    continue; // still dead from an earlier wave
                }
                up_at[node as usize] = at + repair_after;
                plan = plan.node_down(node, at).node_up(node, at + repair_after);
                killed += 1;
            }
            assert!(
                killed == kills_per_wave,
                "wave {wave}: only {killed} of {kills_per_wave} kills fit the {:?} torus",
                torus.dims()
            );
        }
        plan
    }

    /// Every node this plan kills at any point (deduplicated, ascending).
    /// Availability studies use it to separate requests *lost by survivors*
    /// from the in-flight work that dies with a killed node itself.
    pub fn killed_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::NodeDown { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The events sorted by firing cycle (stable: same-cycle events keep
    /// insertion order). Used by the fabric at construction.
    pub(crate) fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut ev = self.events.clone();
        ev.sort_by_key(FaultEvent::at_cycle);
        ev
    }

    /// When `node` is up, as this plan schedules it: the same verdict the
    /// fabric reaches at any cycle after applying every event due by then.
    pub(crate) fn node_liveness(&self, node: u32) -> NodeLiveness {
        let flips = self
            .sorted_events()
            .into_iter()
            .filter_map(|e| match e {
                FaultEvent::NodeDown { node: n, at_cycle } if n == node => Some((at_cycle, false)),
                FaultEvent::NodeUp { node: n, at_cycle } if n == node => Some((at_cycle, true)),
                _ => None,
            })
            .collect();
        NodeLiveness { flips }
    }
}

/// One node's scheduled liveness over time ([`FaultPlan::node_liveness`]):
/// what lets a rack decide, ahead of the fabric, whether a delivery due at
/// a future cycle will be dropped by a dead node. The default is a node
/// that never dies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct NodeLiveness {
    /// `(cycle, up from then on)`, in firing order.
    flips: Vec<(u64, bool)>,
}

impl NodeLiveness {
    /// True when the node is up at `cycle` (after every event due by it).
    pub(crate) fn up_at(&self, cycle: u64) -> bool {
        let due = self.flips.partition_point(|&(at, _)| at <= cycle);
        due == 0 || self.flips[due - 1].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_events_in_order() {
        let p = FaultPlan::new()
            .link_down(0, 1, 10)
            .node_down(3, 5)
            .link_up(0, 1, 20);
        assert!(!p.is_empty());
        assert_eq!(p.events().len(), 3);
        let sorted = p.sorted_events();
        assert_eq!(
            sorted[0],
            FaultEvent::NodeDown {
                node: 3,
                at_cycle: 5
            }
        );
        assert_eq!(sorted[2].at_cycle(), 20);
    }

    #[test]
    fn random_link_kills_are_seed_deterministic_and_distinct() {
        let t = Torus3D::new(4, 4, 4);
        let a = FaultPlan::random_link_kills(t, 7, 5, 100);
        let b = FaultPlan::random_link_kills(t, 7, 5, 100);
        assert_eq!(a, b, "same seed must reproduce the same plan");
        assert_eq!(a.events().len(), 5);
        let mut pairs: Vec<(u32, u32)> = a
            .events()
            .iter()
            .map(|e| match *e {
                FaultEvent::LinkDown { a, b, .. } => (a, b),
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        for &(x, y) in &pairs {
            assert!(t.hops(x, y) == 1, "{x}<->{y} is not a torus link");
        }
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 5, "kills must hit distinct links");
        let c = FaultPlan::random_link_kills(t, 8, 5, 100);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn random_node_kills_are_seed_deterministic_and_distinct() {
        let t = Torus3D::new(4, 4, 4);
        let a = FaultPlan::random_node_kills(t, 7, 5, 100);
        let b = FaultPlan::random_node_kills(t, 7, 5, 100);
        assert_eq!(a, b, "same seed must reproduce the same plan");
        assert_eq!(a.events().len(), 5);
        let mut nodes: Vec<u32> = a
            .events()
            .iter()
            .map(|e| match *e {
                FaultEvent::NodeDown { node, at_cycle } => {
                    assert_eq!(at_cycle, 100);
                    node
                }
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        for &n in &nodes {
            assert!(n < t.nodes(), "node {n} is outside the torus");
        }
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 5, "kills must hit distinct nodes");
        assert_eq!(a.killed_nodes(), nodes);
        let c = FaultPlan::random_node_kills(t, 8, 5, 100);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    #[should_panic(expected = "distinct node kills")]
    fn random_node_kills_panics_when_unsatisfiable() {
        let _ = FaultPlan::random_node_kills(Torus3D::new(2, 1, 1), 7, 3, 100);
    }

    #[test]
    fn region_kill_takes_exactly_one_slab() {
        let t = Torus3D::new(4, 3, 2);
        let p = FaultPlan::new().region_kill(t, Axis::Y, 1, 500);
        // A y=1 slab of a 4x3x2 torus is 4*2 = 8 nodes.
        assert_eq!(p.events().len(), 8);
        for e in p.events() {
            match *e {
                FaultEvent::NodeDown { node, at_cycle } => {
                    assert_eq!(at_cycle, 500);
                    assert_eq!(t.coords(node).1, 1, "node {node} is outside the slab");
                }
                ref other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(p.killed_nodes().len(), 8);
    }

    #[test]
    fn fault_storm_waves_are_deterministic_and_repair() {
        let t = Torus3D::new(4, 4, 1);
        let a = FaultPlan::fault_storm(t, 42, 3, 2, 1_000, 2_000, 1_500);
        let b = FaultPlan::fault_storm(t, 42, 3, 2, 1_000, 2_000, 1_500);
        assert_eq!(a, b, "same seed must reproduce the same storm");
        // 3 waves x 2 kills, each with a matching repair.
        assert_eq!(a.events().len(), 12);
        let downs: Vec<(u32, u64)> = a
            .events()
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::NodeDown { node, at_cycle } => Some((node, at_cycle)),
                _ => None,
            })
            .collect();
        assert_eq!(downs.len(), 6);
        for (i, &(node, at)) in downs.iter().enumerate() {
            assert_eq!(at, 1_000 + (i as u64 / 2) * 2_000, "waves fire on period");
            // Every down has its repair exactly repair_after later.
            assert!(
                a.events().contains(&FaultEvent::NodeUp {
                    node,
                    at_cycle: at + 1_500
                }),
                "node {node} killed at {at} never repairs"
            );
        }
        // Within any wave the two victims are distinct.
        for w in downs.chunks(2) {
            assert_ne!(w[0].0, w[1].0, "a wave must not kill one node twice");
        }
    }

    #[test]
    fn node_liveness_follows_the_stable_firing_order() {
        // Out of insertion order, with a same-cycle down/up pair: the later
        // insertion wins, exactly as the fabric applies them.
        let p = FaultPlan::new()
            .node_up(2, 300)
            .node_down(2, 100)
            .link_down(0, 1, 150)
            .node_down(2, 300)
            .node_up(2, 300)
            .node_down(4, 50);
        let l = p.node_liveness(2);
        assert!(l.up_at(0) && l.up_at(99));
        assert!(!l.up_at(100) && !l.up_at(299));
        assert!(l.up_at(300) && l.up_at(u64::MAX));
        assert!(p.node_liveness(1).up_at(500), "link faults leave nodes up");
        assert_eq!(NodeLiveness::default(), p.node_liveness(7));
    }
}
