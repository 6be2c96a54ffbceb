//! The simulated inter-machine network fabric.
//!
//! One [`NetFabric`] connects every machine of a fleet: egress datagrams
//! drained from each machine's [`NetStack`](crate::net::udp::NetStack)
//! are routed through a seeded latency/loss/reorder model and come out
//! the other side as timed deliveries for the destination machine's NET
//! interrupt.
//!
//! # Determinism
//!
//! The fabric reuses the [`FaultPlan`](k2_soc::fault::FaultPlan)
//! machinery's discipline: each impairment class draws from its own
//! [`SimRng`] stream derived from the fabric seed
//! ([`SimRng::seed_from_stream`]), and decisions are consumed in the
//! order datagrams are routed. The fleet driver routes in strict machine
//! index order at every epoch boundary, so the same seed yields the same
//! drops, the same latencies and the same delivery order — regardless of
//! how many worker threads advanced the machines.
//!
//! Delivery order is *digest-stable*: in-flight datagrams are handed out
//! by [`NetFabric::take_due`] in `(arrival time, route sequence)` order,
//! so ties between datagrams arriving at the same instant break on the
//! deterministic route order. The in-flight queue is a min-heap on that
//! same key; route sequences are unique, so the order is total and the
//! heap's internal layout can never show through.

use crate::net::udp::{EgressDatagram, MachineAddr, Port};
use k2_sim::time::{SimDuration, SimTime};
use k2_sim::SimRng;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Stream ids for [`SimRng::seed_from_stream`] — disjoint from the
/// scheduler/chooser streams the rest of the simulator uses, so fabric
/// decisions never correlate with schedule choices under a shared seed.
const STREAM_DROP: u64 = 0xFAB0;
const STREAM_LATENCY: u64 = 0xFAB1;
const STREAM_REORDER: u64 = 0xFAB2;

/// What the fabric decided to do with one routed datagram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// Queued in flight; will arrive at the given simulated time.
    Queued(SimTime),
    /// Lost to the loss model.
    Dropped,
    /// Addressed to a machine outside the fleet: dropped deterministically
    /// (and counted) — the fabric's ICMP host-unreachable.
    Unroutable,
}

/// A datagram in flight between two machines.
#[derive(Clone, Debug)]
pub struct InFlight {
    /// When it lands at the destination.
    pub arrival: SimTime,
    /// Route order (global, monotonic) — the deterministic tiebreak.
    pub seq: u64,
    /// Sending machine (for diagnostics; the wire does not deliver it).
    pub src: MachineAddr,
    /// Destination machine.
    pub dst: MachineAddr,
    /// Destination port.
    pub dst_port: Port,
    /// Sender's port.
    pub src_port: Port,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Trace context carried verbatim from the egress datagram — the
    /// fabric never reads or rewrites it, so tracing cannot perturb
    /// routing decisions.
    pub trace: k2_sim::span::TraceCtx,
}

/// An [`InFlight`] ordered for the in-flight min-heap: the earliest
/// `(arrival, seq)` is the greatest, so [`BinaryHeap::pop`] yields it.
#[derive(Clone, Debug)]
struct Queued(InFlight);

impl Queued {
    fn key(&self) -> (SimTime, u64) {
        (self.0.arrival, self.0.seq)
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Counters of everything the fabric did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Datagrams offered for routing.
    pub routed: u64,
    /// Datagrams queued and eventually handed to [`NetFabric::take_due`].
    pub delivered: u64,
    /// Datagrams lost to the loss model.
    pub dropped: u64,
    /// Datagrams addressed outside the fleet.
    pub unroutable: u64,
    /// Datagrams that drew extra reorder jitter.
    pub reordered: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// High-water mark of datagrams simultaneously in flight.
    pub max_in_flight: u64,
}

/// Builder for a [`NetFabric`] (mirrors `FaultPlan::builder`).
#[derive(Debug)]
pub struct NetFabricBuilder {
    fabric: NetFabric,
}

impl NetFabricBuilder {
    /// One-way delivery latency drawn uniformly from `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or exceeds `max` — a zero-latency fabric
    /// would deliver within the sending epoch and break the epoch
    /// determinism contract.
    pub fn latency(mut self, min: SimDuration, max: SimDuration) -> Self {
        assert!(!min.is_zero(), "fabric latency must be positive");
        assert!(min <= max, "latency min must not exceed max");
        self.fabric.latency_min = min;
        self.fabric.latency_max = max;
        self
    }

    /// Drop each datagram with probability `p`.
    pub fn loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss rate out of range");
        self.fabric.loss_p = p;
        self
    }

    /// With probability `p`, add extra uniform `(0, max-latency]` jitter
    /// so the datagram can overtake or be overtaken by its neighbours.
    pub fn reorder(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "reorder rate out of range");
        self.fabric.reorder_p = p;
        self
    }

    /// Finishes the fabric.
    pub fn build(self) -> NetFabric {
        self.fabric
    }
}

/// The seeded inter-machine network: loss, latency and reorder in one
/// place, plus the in-flight queue between epoch boundaries.
#[derive(Clone, Debug)]
pub struct NetFabric {
    machines: u32,
    latency_min: SimDuration,
    latency_max: SimDuration,
    loss_p: f64,
    reorder_p: f64,
    rng_drop: SimRng,
    rng_latency: SimRng,
    rng_reorder: SimRng,
    in_flight: BinaryHeap<Queued>,
    seq: u64,
    stats: FabricStats,
}

impl NetFabric {
    /// Starts building a fabric connecting machines `0..machines`, with
    /// decision streams derived from `seed`. Defaults: 1–1 ms latency,
    /// no loss, no reorder.
    pub fn builder(seed: u64, machines: u32) -> NetFabricBuilder {
        NetFabricBuilder {
            fabric: NetFabric {
                machines,
                latency_min: SimDuration::from_ms(1),
                latency_max: SimDuration::from_ms(1),
                loss_p: 0.0,
                reorder_p: 0.0,
                rng_drop: SimRng::seed_from_stream(seed, STREAM_DROP),
                rng_latency: SimRng::seed_from_stream(seed, STREAM_LATENCY),
                rng_reorder: SimRng::seed_from_stream(seed, STREAM_REORDER),
                in_flight: BinaryHeap::new(),
                seq: 0,
                stats: FabricStats::default(),
            },
        }
    }

    /// Routes one egress datagram sent by `src` at time `now` and returns
    /// the verdict. Callers must route in a deterministic order (the
    /// fleet routes machine-by-machine in index order) — the decision
    /// streams advance per routed datagram.
    pub fn route(&mut self, now: SimTime, src: MachineAddr, d: EgressDatagram) -> Route {
        self.stats.routed += 1;
        if u32::from(d.dst.0) >= self.machines {
            self.stats.unroutable += 1;
            return Route::Unroutable;
        }
        if self.rng_drop.gen_bool(self.loss_p) {
            self.stats.dropped += 1;
            return Route::Dropped;
        }
        let spread = self.latency_max.as_ns() - self.latency_min.as_ns();
        let mut latency = self.latency_min.as_ns();
        if spread > 0 {
            latency += self.rng_latency.gen_range(spread + 1);
        }
        if self.rng_reorder.gen_bool(self.reorder_p) {
            // Extra jitter up to one full latency window: enough to
            // overtake neighbours without escaping the epoch horizon by
            // more than 2x.
            latency += self.rng_reorder.gen_range(self.latency_max.as_ns() + 1);
            self.stats.reordered += 1;
        }
        let arrival = now + SimDuration::from_ns(latency);
        self.seq += 1;
        self.in_flight.push(Queued(InFlight {
            arrival,
            seq: self.seq,
            src,
            dst: d.dst,
            dst_port: d.dst_port,
            src_port: d.src_port,
            payload: d.payload,
            trace: d.trace,
        }));
        let depth = self.in_flight.len() as u64;
        if depth > self.stats.max_in_flight {
            self.stats.max_in_flight = depth;
        }
        Route::Queued(arrival)
    }

    /// Moves every in-flight datagram arriving at or before `until` into
    /// `buf` (appending), sorted by `(arrival, seq)` — the digest-stable
    /// delivery order. The remainder stays in flight. `buf` is a caller
    /// scratch buffer; steady state allocates nothing. Costs
    /// O(due · log in-flight): datagrams not yet due are never touched.
    pub fn take_due(&mut self, until: SimTime, buf: &mut Vec<InFlight>) {
        while let Some(next) = self.in_flight.peek_mut() {
            if next.0.arrival > until {
                break;
            }
            let Queued(f) = PeekMut::pop(next);
            self.stats.delivered += 1;
            self.stats.delivered_bytes += f.payload.len() as u64;
            buf.push(f);
        }
    }

    /// Datagrams currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Everything the fabric did so far.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dg(dst: u16, tag: u8) -> EgressDatagram {
        EgressDatagram {
            dst: MachineAddr(dst),
            dst_port: Port(443),
            src_port: Port(32_768),
            payload: vec![tag],
            trace: k2_sim::span::TraceCtx::NONE,
        }
    }

    #[test]
    fn unknown_machine_address_drops_deterministically_and_counts() {
        let mut f = NetFabric::builder(7, 4).build();
        for _ in 0..3 {
            let r = f.route(SimTime::ZERO, MachineAddr(0), dg(4, 0));
            assert_eq!(r, Route::Unroutable);
        }
        assert_eq!(f.stats().unroutable, 3);
        assert_eq!(f.in_flight(), 0, "unroutable datagrams never fly");
        // Same seed, same verdicts: replay is byte-identical.
        let mut g = NetFabric::builder(7, 4).build();
        for _ in 0..3 {
            assert_eq!(
                g.route(SimTime::ZERO, MachineAddr(0), dg(4, 0)),
                Route::Unroutable
            );
        }
        assert_eq!(f.stats(), g.stats());
    }

    #[test]
    fn same_seed_same_decisions() {
        let mk = || {
            NetFabric::builder(2014, 8)
                .latency(SimDuration::from_ms(1), SimDuration::from_ms(5))
                .loss(0.2)
                .reorder(0.3)
                .build()
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..200u16 {
            let ra = a.route(
                SimTime::from_ns(u64::from(i)),
                MachineAddr(0),
                dg(i % 8, i as u8),
            );
            let rb = b.route(
                SimTime::from_ns(u64::from(i)),
                MachineAddr(0),
                dg(i % 8, i as u8),
            );
            assert_eq!(ra, rb);
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().dropped > 0, "p=0.2 over 200 drops some");
        assert!(a.stats().reordered > 0, "p=0.3 over 200 reorders some");
    }

    #[test]
    fn take_due_orders_by_arrival_then_route_seq() {
        let mut f = NetFabric::builder(1, 4)
            .latency(SimDuration::from_ms(2), SimDuration::from_ms(2))
            .build();
        // Two routed at t=0 arrive together (fixed latency): tie breaks
        // on route order. One routed later arrives later.
        f.route(SimTime::ZERO, MachineAddr(0), dg(1, 10));
        f.route(SimTime::ZERO, MachineAddr(1), dg(2, 11));
        f.route(SimTime::from_ns(1), MachineAddr(2), dg(3, 12));
        let mut due = Vec::new();
        f.take_due(SimTime::ZERO + SimDuration::from_ms(2), &mut due);
        let tags: Vec<u8> = due.iter().map(|d| d.payload[0]).collect();
        assert_eq!(
            tags,
            vec![10, 11],
            "tie broken by route seq; later arrival stays"
        );
        assert_eq!(f.in_flight(), 1);
        f.take_due(SimTime::ZERO + SimDuration::from_ms(10), &mut due);
        assert_eq!(due.len(), 3);
        assert_eq!(f.stats().delivered, 3);
        assert_eq!(f.stats().delivered_bytes, 3);
    }

    /// Model check of the heap-ordered queue against the plain definition
    /// of delivery order: everything routed so far, minus what was
    /// delivered, sorted by `(arrival, seq)` and cut at `until`. Routes
    /// at `now` advancing by `step(rng)` ns; returns the fabric's stats.
    fn check_take_due_against_sort(
        mut f: NetFabric,
        step: impl Fn(&mut SimRng) -> u64,
    ) -> FabricStats {
        let mut rng = SimRng::seed_from_u64(0x5EED);
        // The reference: (arrival, seq) of every datagram still in flight.
        let mut reference: Vec<(SimTime, u64)> = Vec::new();
        let mut max_depth = 0usize;
        let mut routed_queued = 0u64;
        let mut now = SimTime::ZERO;
        let mut due = Vec::new();
        for cut in 0..40u64 {
            for _ in 0..rng.gen_range(60) {
                now += SimDuration::from_ns(step(&mut rng));
                let tag = (routed_queued % 251) as u8;
                if let Route::Queued(arrival) =
                    f.route(now, MachineAddr(0), dg(rng.gen_range(16) as u16, tag))
                {
                    routed_queued += 1;
                    reference.push((arrival, routed_queued));
                    max_depth = max_depth.max(reference.len());
                }
            }
            // Cuts land before, inside and beyond the in-flight window.
            let until = now + SimDuration::from_ns(rng.gen_range(3_000_000)) * (cut % 3);
            due.clear();
            f.take_due(until, &mut due);
            reference.sort_unstable();
            let split = reference.partition_point(|&(at, _)| at <= until);
            let expected: Vec<(SimTime, u64)> = reference.drain(..split).collect();
            let got: Vec<(SimTime, u64)> = due.iter().map(|d| (d.arrival, d.seq)).collect();
            assert_eq!(got, expected, "cut {cut} at {until:?}");
            assert_eq!(f.in_flight(), reference.len(), "cut {cut}");
            assert_eq!(f.stats().max_in_flight, max_depth as u64, "cut {cut}");
        }
        assert!(f.stats().delivered > 500, "the model saw real traffic");
        f.stats().clone()
    }

    #[test]
    fn take_due_matches_a_full_sort_over_random_traffic() {
        let wide = NetFabric::builder(99, 16)
            .latency(SimDuration::from_us(500), SimDuration::from_ms(4))
            .loss(0.1)
            .reorder(0.3)
            .build();
        let stats = check_take_due_against_sort(wide, |rng| rng.gen_range(40_000));
        assert!(stats.reordered > 0 && stats.dropped > 0);
        // A 2 ns latency band and 10 us route steps: many datagrams share
        // an arrival instant, so only the route sequence orders them.
        let narrow = NetFabric::builder(7, 16)
            .latency(SimDuration::from_ms(1), SimDuration::from_ns(1_000_002))
            .build();
        check_take_due_against_sort(narrow, |rng| rng.gen_range(3) * 10_000);
    }

    #[test]
    fn in_flight_survives_epoch_boundaries() {
        let mut f = NetFabric::builder(3, 2)
            .latency(SimDuration::from_ms(3), SimDuration::from_ms(3))
            .build();
        f.route(SimTime::ZERO, MachineAddr(0), dg(1, 1));
        let mut due = Vec::new();
        // Epochs of 1 ms: the datagram stays in flight for two boundaries.
        f.take_due(SimTime::ZERO + SimDuration::from_ms(1), &mut due);
        f.take_due(SimTime::ZERO + SimDuration::from_ms(2), &mut due);
        assert!(due.is_empty());
        assert_eq!(f.in_flight(), 1);
        f.take_due(SimTime::ZERO + SimDuration::from_ms(3), &mut due);
        assert_eq!(due.len(), 1);
    }
}
