//! The cycle-stepped mesh transport.

use crate::topology::{MeshConfig, NodeId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Aggregate network statistics (used for NoC energy accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NocStats {
    /// Messages injected.
    pub messages: u64,
    /// Flit-hops transmitted (flits × links traversed) — the NoC dynamic
    /// energy proxy.
    pub flit_hops: u64,
    /// Sum of end-to-end message latencies (cycles).
    pub total_latency: u64,
    /// Cycles any message spent waiting for a reserved link.
    pub contention_cycles: u64,
}

impl NocStats {
    /// Mean end-to-end latency, or 0 if no messages were sent.
    pub fn avg_latency(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.messages as f64
        }
    }
}

#[derive(Debug)]
struct InFlight<T> {
    deliver_at: u64,
    seq: u64,
    dst: NodeId,
    payload: T,
}

// Order by delivery time then injection sequence (deterministic).
impl<T> PartialEq for InFlight<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<T> Eq for InFlight<T> {}
impl<T> PartialOrd for InFlight<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for InFlight<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// A payload-generic 2-D mesh with link-reservation wormhole timing.
///
/// Usage: [`Mesh::send`] during a cycle, then [`Mesh::advance`] once per
/// cycle and drain [`Mesh::take_arrivals`] into a buffer the caller
/// owns and reuses.
#[derive(Debug)]
pub struct Mesh<T> {
    cfg: MeshConfig,
    now: u64,
    seq: u64,
    /// Per directed link: the first cycle at which it is free again.
    link_free_at: Vec<u64>,
    in_flight: BinaryHeap<Reverse<InFlight<T>>>,
    arrivals: Vec<(NodeId, T)>,
    stats: NocStats,
}

impl<T> Mesh<T> {
    /// Create an idle mesh.
    pub fn new(cfg: MeshConfig) -> Self {
        Mesh {
            cfg,
            now: 0,
            seq: 0,
            link_free_at: vec![0; cfg.link_slots()],
            in_flight: BinaryHeap::new(),
            arrivals: Vec::new(),
            stats: NocStats::default(),
        }
    }

    /// The mesh configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Inject a `bytes`-byte message from `src` to `dst`; it will be
    /// delivered to [`Mesh::take_arrivals`] after the modelled latency.
    /// Messages to self are delivered next cycle (router loopback).
    pub fn send(&mut self, src: NodeId, dst: NodeId, bytes: u32, payload: T) {
        let flits = self.cfg.flits(bytes) as u64;
        let mut head_time = self.now;
        let mut contention = 0;
        if src != dst {
            for (router, dir) in self.cfg.route(src, dst) {
                let link = self.cfg.link_id(router, dir);
                let start = head_time.max(self.link_free_at[link]);
                contention += start - head_time;
                self.link_free_at[link] = start + flits;
                head_time = start + self.cfg.link_latency + self.cfg.router_latency;
                self.stats.flit_hops += flits;
            }
        }
        // Tail flit trails the head by flits−1 cycles; loopback costs 1.
        let deliver_at = if src == dst {
            self.now + 1
        } else {
            head_time + flits - 1
        };
        self.stats.messages += 1;
        self.stats.total_latency += deliver_at - self.now;
        self.stats.contention_cycles += contention;
        self.seq += 1;
        self.in_flight.push(Reverse(InFlight {
            deliver_at,
            seq: self.seq,
            dst,
            payload,
        }));
    }

    /// Advance one cycle, moving due messages to the arrival buffer.
    pub fn advance(&mut self) {
        self.now += 1;
        while let Some(Reverse(head)) = self.in_flight.peek() {
            if head.deliver_at > self.now {
                break;
            }
            let Reverse(m) = self.in_flight.pop().expect("peeked");
            self.arrivals.push((m.dst, m.payload));
        }
    }

    /// Append the messages that arrived at or before the current cycle
    /// to `out`, in deterministic injection order.
    pub fn take_arrivals(&mut self, out: &mut Vec<(NodeId, T)>) {
        out.append(&mut self.arrivals);
    }

    /// Are any messages still in flight or undelivered?
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty() && self.arrivals.is_empty()
    }

    /// Snapshot of the accumulated statistics.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// Minimum (uncontended) latency for a `bytes`-byte message over
    /// `hops` links — useful for tests and analytic checks.
    pub fn uncontended_latency(&self, hops: usize, bytes: u32) -> u64 {
        if hops == 0 {
            return 1;
        }
        let flits = self.cfg.flits(bytes) as u64;
        hops as u64 * (self.cfg.link_latency + self.cfg.router_latency) + flits - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MeshConfig;

    fn mesh() -> Mesh<u32> {
        Mesh::new(MeshConfig::for_cores(16))
    }

    fn run_until_arrival(m: &mut Mesh<u32>, limit: u64) -> Vec<(NodeId, u32, u64)> {
        let mut out = Vec::new();
        let mut arrived = Vec::new();
        for _ in 0..limit {
            m.advance();
            m.take_arrivals(&mut arrived);
            for (dst, p) in arrived.drain(..) {
                out.push((dst, p, m.now()));
            }
            if !out.is_empty() {
                break;
            }
        }
        out
    }

    #[test]
    fn single_hop_control_message_latency() {
        let mut m = mesh();
        // node 0 -> node 1: one hop; 8-byte control message = 2 flits.
        m.send(NodeId(0), NodeId(1), 8, 7);
        let got = run_until_arrival(&mut m, 100);
        assert_eq!(got.len(), 1);
        let (dst, p, at) = got[0];
        assert_eq!(dst, NodeId(1));
        assert_eq!(p, 7);
        // 1 hop * (4+1) + (2-1) = 6 cycles.
        assert_eq!(at, m.uncontended_latency(1, 8));
        assert_eq!(at, 6);
    }

    #[test]
    fn multi_hop_data_message_latency() {
        let mut m = mesh();
        // 0=(0,0) -> 15=(3,3): 6 hops; 72-byte data = 18 flits.
        m.send(NodeId(0), NodeId(15), 72, 1);
        let got = run_until_arrival(&mut m, 200);
        // 6*(4+1) + 17 = 47.
        assert_eq!(got[0].2, 47);
        assert_eq!(m.stats().flit_hops, 18 * 6);
    }

    #[test]
    fn loopback_delivers_next_cycle() {
        let mut m = mesh();
        m.send(NodeId(5), NodeId(5), 64, 9);
        m.advance();
        let mut got = Vec::new();
        m.take_arrivals(&mut got);
        assert_eq!(got, vec![(NodeId(5), 9)]);
    }

    #[test]
    fn contention_serialises_messages_on_shared_link() {
        let mut m = mesh();
        // Two 18-flit messages from node 0 to node 1 share the single link.
        m.send(NodeId(0), NodeId(1), 72, 1);
        m.send(NodeId(0), NodeId(1), 72, 2);
        let mut arrivals = Vec::new();
        let mut arrived = Vec::new();
        for _ in 0..200 {
            m.advance();
            m.take_arrivals(&mut arrived);
            arrivals.extend(arrived.drain(..).map(|(_, p)| (p, m.now())));
        }
        assert_eq!(arrivals.len(), 2);
        let t1 = arrivals.iter().find(|(p, _)| *p == 1).unwrap().1;
        let t2 = arrivals.iter().find(|(p, _)| *p == 2).unwrap().1;
        // Second message's head waits 18 cycles for the link reservation.
        assert_eq!(t1, 22); // 5 + 17
        assert_eq!(t2, t1 + 18);
        assert!(m.stats().contention_cycles >= 18);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut m = mesh();
        m.send(NodeId(0), NodeId(1), 72, 1);
        m.send(NodeId(4), NodeId(5), 72, 2);
        let mut times = Vec::new();
        let mut arrived = Vec::new();
        for _ in 0..100 {
            m.advance();
            m.take_arrivals(&mut arrived);
            times.extend(arrived.drain(..).map(|(_, p)| (p, m.now())));
        }
        let t1 = times.iter().find(|(p, _)| *p == 1).unwrap().1;
        let t2 = times.iter().find(|(p, _)| *p == 2).unwrap().1;
        assert_eq!(t1, t2);
        assert_eq!(m.stats().contention_cycles, 0);
    }

    #[test]
    fn deterministic_arrival_order_same_cycle() {
        let mut m = mesh();
        m.send(NodeId(0), NodeId(1), 4, 10);
        m.send(NodeId(2), NodeId(1), 4, 20);
        for _ in 0..10 {
            m.advance();
        }
        let mut got = Vec::new();
        m.take_arrivals(&mut got);
        assert_eq!(got.len(), 2);
        // Same delivery cycle -> injection order preserved.
        assert_eq!(got[0].1, 10);
        assert_eq!(got[1].1, 20);
    }

    #[test]
    fn idle_after_draining() {
        let mut m = mesh();
        assert!(m.is_idle());
        m.send(NodeId(0), NodeId(3), 8, 1);
        assert!(!m.is_idle());
        let mut sink = Vec::new();
        for _ in 0..100 {
            m.advance();
            m.take_arrivals(&mut sink);
        }
        assert!(m.is_idle());
    }

    #[test]
    fn stats_track_messages_and_latency() {
        let mut m = mesh();
        m.send(NodeId(0), NodeId(1), 8, 1);
        m.send(NodeId(1), NodeId(0), 8, 2);
        let mut sink = Vec::new();
        for _ in 0..50 {
            m.advance();
            m.take_arrivals(&mut sink);
        }
        let s = m.stats();
        assert_eq!(s.messages, 2);
        assert!(s.avg_latency() > 0.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every message is delivered exactly once, to the right node, and
        /// no earlier than the uncontended latency bound.
        #[test]
        fn delivery_is_exactly_once_and_not_early(
            sends in proptest::collection::vec((0usize..16, 0usize..16, 1u32..128), 1..40)
        ) {
            let cfg = MeshConfig::for_cores(16);
            let mut m: Mesh<usize> = Mesh::new(cfg);
            let mut expect = Vec::new();
            for (i, &(s, d, bytes)) in sends.iter().enumerate() {
                m.send(NodeId(s), NodeId(d), bytes, i);
                let min = m.uncontended_latency(cfg.hops(NodeId(s), NodeId(d)), bytes);
                expect.push((NodeId(d), min));
            }
            let mut got: Vec<(usize, NodeId, u64)> = Vec::new();
            let mut arrived = Vec::new();
            for _ in 0..100_000u64 {
                m.advance();
                m.take_arrivals(&mut arrived);
                for (dst, p) in arrived.drain(..) {
                    got.push((p, dst, m.now()));
                }
                if m.is_idle() { break; }
            }
            prop_assert!(m.is_idle(), "mesh failed to drain");
            prop_assert_eq!(got.len(), sends.len());
            got.sort_by_key(|&(p, _, _)| p);
            for (p, dst, at) in got {
                let (want_dst, min) = expect[p];
                prop_assert_eq!(dst, want_dst);
                prop_assert!(at >= min, "msg {} early: {} < {}", p, at, min);
            }
        }

        /// Messages between the same (src, dst) pair arrive in injection
        /// order, regardless of size mix and injection spacing: link
        /// reservations serialise them on the shared path, and the
        /// arrival buffer preserves injection order within a cycle. The
        /// coherence protocol relies on this point-to-point FIFO.
        #[test]
        fn same_pair_delivery_is_fifo(
            s in 0usize..16,
            d in 0usize..16,
            msgs in proptest::collection::vec((1u32..128, 0u64..6), 2..24)
        ) {
            let cfg = MeshConfig::for_cores(16);
            let mut m: Mesh<usize> = Mesh::new(cfg);
            let mut sent = 0usize;
            let mut pending = msgs.iter().enumerate();
            let mut next = pending.next();
            let mut got: Vec<(usize, u64)> = Vec::new();
            let mut arrived = Vec::new();
            for _ in 0..200_000u64 {
                // Inject the next message after its requested gap, so the
                // stream interleaves idle and back-to-back cycles.
                while let Some((i, &(bytes, gap))) = next {
                    if m.now() < sent as u64 + gap { break; }
                    m.send(NodeId(s), NodeId(d), bytes, i);
                    sent += 1;
                    next = pending.next();
                }
                m.advance();
                m.take_arrivals(&mut arrived);
                for (_, p) in arrived.drain(..) {
                    got.push((p, m.now()));
                }
                if next.is_none() && m.is_idle() { break; }
            }
            prop_assert!(m.is_idle(), "mesh failed to drain");
            prop_assert_eq!(got.len(), msgs.len());
            for (k, w) in got.windows(2).enumerate() {
                prop_assert!(
                    w[0].0 < w[1].0,
                    "FIFO violated at arrival {}: msg {} (cycle {}) before msg {}",
                    k, w[0].0, w[0].1, w[1].0
                );
                prop_assert!(w[0].1 <= w[1].1, "arrival times went backwards");
            }
        }
    }
}
