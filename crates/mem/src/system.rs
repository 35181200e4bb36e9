//! The full memory system: per-tile L1/L2, distributed MOESI directory,
//! memory controllers, all communicating over the 2-D mesh.
//!
//! See [`crate::coherence`] for the protocol summary. The system is
//! cycle-stepped: callers inject [`MemReq`]s, call [`MemorySystem::tick`]
//! once per cycle, and drain [`MemResp`]s into a buffer they own.
//!
//! Once warm, a cycle does not allocate: mesh arrivals land in a reused
//! buffer, and MSHR wait lists come from a per-tile stock of spare
//! vectors. Only state for lines never seen before (directory entries)
//! still grows.

use crate::cache::{CacheArray, CacheConfig};
use crate::coherence::{CohMsg, Envelope, Moesi};
use crate::stats::{MemActivity, MemStats};
use ptb_isa::{Addr, CoreId};
use ptb_noc::{Mesh, MeshConfig, NodeId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// What the core wants from memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// Read (needs a readable MOESI state).
    Load,
    /// Write (needs ownership).
    Store,
    /// Atomic read-modify-write (needs ownership; the simulator applies the
    /// functional operation when the response arrives).
    Rmw,
}

impl AccessKind {
    fn needs_ownership(self) -> bool {
        !matches!(self, AccessKind::Load)
    }
}

/// A core-originated memory request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemReq {
    /// Caller-chosen correlation id (unique per core).
    pub id: u64,
    /// Issuing core (= tile).
    pub core: CoreId,
    /// Access type.
    pub kind: AccessKind,
    /// Byte address.
    pub addr: Addr,
}

/// Completion of a [`MemReq`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemResp {
    /// The request's correlation id.
    pub id: u64,
    /// The requesting core.
    pub core: CoreId,
    /// The access type of the completed request.
    pub kind: AccessKind,
}

/// Memory-system configuration (paper Table 1 defaults via `Default`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// Private L2 geometry.
    pub l2: CacheConfig,
    /// Main-memory access latency in cycles (Table 1: 300).
    pub mem_latency: u64,
    /// Miss-status holding registers per tile.
    pub mshrs_per_tile: usize,
    /// L1 lookups accepted per tile per cycle.
    pub l1_ports: usize,
    /// Core-side input queue capacity per tile.
    pub inq_capacity: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1: CacheConfig::l1(),
            l2: CacheConfig::l2(),
            mem_latency: 300,
            mshrs_per_tile: 16,
            l1_ports: 2,
            inq_capacity: 16,
        }
    }
}

/// Why an MSHR exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Want {
    Shared,
    Exclusive,
}

#[derive(Debug)]
struct Mshr {
    line: Addr,
    want: Want,
    /// Requests completed when this MSHR resolves.
    waiting: Vec<MemReq>,
    /// Requests that need a stronger state than `want`; re-injected after
    /// resolution.
    deferred: Vec<MemReq>,
    data_or_upgrade: bool,
    /// u32::MAX until the ack count is known.
    acks_expected: u32,
    acks_received: u32,
    /// Exclusivity granted by the response (E on reads, M on writes).
    granted_excl: bool,
}

#[derive(Debug, Clone, Copy)]
struct WbEntry {
    /// Retained so a racing FwdGetS/FwdGetX can still be served with the
    /// right data class (dirty lines must come from this buffer).
    #[allow(dead_code)]
    dirty: bool,
}

#[derive(Debug, Default, Clone)]
struct DirEntry {
    owner: Option<usize>,
    sharers: u64,
    busy: bool,
}

struct Tile {
    l1d: CacheArray<()>,
    l2: CacheArray<Moesi>,
    inq: VecDeque<MemReq>,
    mshrs: Vec<Mshr>,
    /// Emptied `waiting`/`deferred` lists of completed MSHRs, reused by
    /// the next ones.
    spare_lists: Vec<Vec<MemReq>>,
    wb: HashMap<u64, WbEntry>, // keyed by line index
    dir: HashMap<u64, DirEntry>,
    dir_queue: HashMap<u64, VecDeque<Envelope>>,
}

#[derive(Debug)]
enum Ev {
    /// L2 lookup completes for a core request.
    L2Probe(usize, MemReq),
    /// L2 lookup completes for a forwarded coherence request.
    FwdLookup(usize, Envelope),
    /// Memory read at the home completes; send data to the requester.
    MemDone {
        home: usize,
        line: Addr,
        requester: usize,
        excl: bool,
    },
    /// Deliver a response to the core.
    Respond(MemResp),
}

struct Scheduled {
    at: u64,
    seq: u64,
    ev: Ev,
}
impl PartialEq for Scheduled {
    fn eq(&self, o: &Self) -> bool {
        (self.at, self.seq) == (o.at, o.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(o.at, o.seq))
    }
}

/// The complete CMP memory system.
pub struct MemorySystem {
    cfg: MemConfig,
    mesh: Mesh<Envelope>,
    tiles: Vec<Tile>,
    events: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    now: u64,
    /// Mesh deliveries of the current cycle (reused across cycles).
    arrivals: Vec<(NodeId, Envelope)>,
    responses: Vec<MemResp>,
    stats: MemStats,
    activity: MemActivity,
    /// flit-hop counter snapshot for per-tick activity deltas.
    last_flit_hops: u64,
}

impl MemorySystem {
    /// Build a memory system for `n_tiles` cores with the given config and
    /// a mesh sized by [`MeshConfig::for_cores`].
    pub fn new(cfg: MemConfig, n_tiles: usize) -> Self {
        assert!(
            (1..=crate::MAX_CORES).contains(&n_tiles),
            "1..={} tiles supported",
            crate::MAX_CORES
        );
        let mesh = Mesh::new(MeshConfig::for_cores(n_tiles));
        let tiles = (0..n_tiles)
            .map(|_| Tile {
                l1d: CacheArray::new(cfg.l1),
                l2: CacheArray::new(cfg.l2),
                inq: VecDeque::new(),
                mshrs: Vec::with_capacity(cfg.mshrs_per_tile),
                spare_lists: Vec::new(),
                wb: HashMap::new(),
                dir: HashMap::new(),
                dir_queue: HashMap::new(),
            })
            .collect();
        MemorySystem {
            cfg,
            mesh,
            tiles,
            events: BinaryHeap::new(),
            seq: 0,
            now: 0,
            arrivals: Vec::new(),
            responses: Vec::new(),
            stats: MemStats::new(n_tiles),
            activity: MemActivity::default(),
            last_flit_hops: 0,
        }
    }

    /// Number of tiles.
    pub fn n_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Home tile of a line (static address interleaving).
    #[inline]
    pub fn home_of(&self, line: Addr) -> usize {
        (line.line_index() % self.tiles.len() as u64) as usize
    }

    /// Inject a core request. Returns `false` (and drops the request) when
    /// the tile's input queue is full — the caller must retry.
    pub fn request(&mut self, req: MemReq) -> bool {
        let t = req.core.index();
        if self.tiles[t].inq.len() >= self.cfg.inq_capacity {
            return false;
        }
        self.tiles[t].inq.push_back(req);
        true
    }

    /// Append all responses produced up to and including the current
    /// cycle to `out`.
    pub fn drain_responses(&mut self, out: &mut Vec<MemResp>) {
        out.append(&mut self.responses);
    }

    /// Per-tick activity counters (for energy accounting); resets deltas.
    pub fn take_activity(&mut self) -> MemActivity {
        let flits = self.mesh.stats().flit_hops;
        self.activity.noc_flit_hops = flits - self.last_flit_hops;
        self.last_flit_hops = flits;
        std::mem::take(&mut self.activity)
    }

    /// True when no transaction, queued request or message is in flight.
    pub fn is_idle(&self) -> bool {
        self.mesh.is_idle()
            && self.events.is_empty()
            && self.responses.is_empty()
            && self.tiles.iter().all(|t| {
                t.inq.is_empty()
                    && t.mshrs.is_empty()
                    && t.wb.is_empty()
                    && t.dir_queue.values().all(|q| q.is_empty())
                    && t.dir.values().all(|d| !d.busy)
            })
    }

    fn schedule(&mut self, delay: u64, ev: Ev) {
        self.seq += 1;
        self.events.push(Reverse(Scheduled {
            at: self.now + delay,
            seq: self.seq,
            ev,
        }));
    }

    fn send(&mut self, src: usize, dst: usize, line: Addr, msg: CohMsg) {
        self.stats.coh_messages += 1;
        self.mesh.send(
            NodeId(src),
            NodeId(dst),
            msg.bytes(),
            Envelope {
                src: NodeId(src),
                line,
                msg,
            },
        );
    }

    fn respond(&mut self, req: MemReq) {
        self.schedule(
            1,
            Ev::Respond(MemResp {
                id: req.id,
                core: req.core,
                kind: req.kind,
            }),
        );
    }

    /// Advance one cycle. Equivalent to [`MemorySystem::advance_noc`]
    /// followed by [`MemorySystem::advance_events`]; split so callers
    /// that profile host time can attribute the interconnect separately.
    pub fn tick(&mut self) {
        self.advance_noc();
        self.advance_events();
    }

    /// First half of a cycle: bump the clock, advance the mesh, and
    /// deliver arrived messages into the coherence controllers.
    pub fn advance_noc(&mut self) {
        self.now += 1;
        self.mesh.advance();
        // Handling a message only sends new ones; nothing arrives before
        // the next advance, so the buffer can be drained in place.
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.mesh.take_arrivals(&mut arrivals);
        for (dst, env) in arrivals.drain(..) {
            self.handle_msg(dst.0, env);
        }
        self.arrivals = arrivals;
    }

    /// Second half of a cycle: fire due latency events and run the
    /// core-side L1 pipelines. Must follow [`MemorySystem::advance_noc`]
    /// in the same cycle.
    pub fn advance_events(&mut self) {
        // Due events.
        while let Some(Reverse(head)) = self.events.peek() {
            if head.at > self.now {
                break;
            }
            let Reverse(s) = self.events.pop().expect("peeked");
            self.handle_event(s.ev);
        }
        // Core-side L1 pipelines.
        for t in 0..self.tiles.len() {
            for _ in 0..self.cfg.l1_ports {
                let Some(req) = self.tiles[t].inq.pop_front() else {
                    break;
                };
                self.l1_access(t, req);
            }
        }
    }

    // ---------------- requester side ----------------

    fn l1_access(&mut self, t: usize, req: MemReq) {
        self.activity.l1_accesses += 1;
        self.stats.per_core[t].l1_accesses += 1;
        let line = req.addr.line();
        // Defer any access to a line with an eviction in flight.
        if self.tiles[t].wb.contains_key(&line.line_index()) {
            self.tiles[t].inq.push_back(req);
            return;
        }
        let l1_hit = self.tiles[t].l1d.probe(line).is_some();
        if l1_hit {
            if !req.kind.needs_ownership() {
                self.stats.per_core[t].l1_hits += 1;
                self.respond(req);
                return;
            }
            // Stores/RMWs consult the L2 state (L1 is write-through).
            let st = self.tiles[t].l2.peek(line).unwrap_or(Moesi::I);
            if st.writable() {
                self.stats.per_core[t].l1_hits += 1;
                self.activity.l2_accesses += 1;
                if st == Moesi::E {
                    self.tiles[t].l2.update(line, Moesi::M);
                }
                self.respond(req);
                return;
            }
            // S/O (or inclusion violation): fall through to the L2 path to
            // upgrade.
        }
        self.stats.per_core[t].l1_misses += 1;
        self.schedule(self.cfg.l2.latency, Ev::L2Probe(t, req));
    }

    fn l2_probe(&mut self, t: usize, req: MemReq) {
        self.activity.l2_accesses += 1;
        self.stats.per_core[t].l2_accesses += 1;
        let line = req.addr.line();
        if self.tiles[t].wb.contains_key(&line.line_index()) {
            self.tiles[t].inq.push_back(req);
            return;
        }
        let st = self.tiles[t].l2.probe(line).unwrap_or(Moesi::I);
        let satisfied = if req.kind.needs_ownership() {
            st.writable()
        } else {
            st.readable()
        };
        if satisfied {
            self.stats.per_core[t].l2_hits += 1;
            if req.kind.needs_ownership() && st == Moesi::E {
                self.tiles[t].l2.update(line, Moesi::M);
            }
            self.fill_l1(t, line);
            self.respond(req);
            return;
        }
        self.stats.per_core[t].l2_misses += 1;
        let want = if req.kind.needs_ownership() {
            Want::Exclusive
        } else {
            Want::Shared
        };
        // Merge into an existing MSHR if possible.
        if let Some(m) = self.tiles[t].mshrs.iter_mut().find(|m| m.line == line) {
            match (m.want, want) {
                (Want::Exclusive, _) | (Want::Shared, Want::Shared) => m.waiting.push(req),
                (Want::Shared, Want::Exclusive) => m.deferred.push(req),
            }
            return;
        }
        if self.tiles[t].mshrs.len() >= self.cfg.mshrs_per_tile {
            // Structural stall: retry through the input queue.
            self.tiles[t].inq.push_back(req);
            return;
        }
        let tile = &mut self.tiles[t];
        let mut waiting = tile.spare_lists.pop().unwrap_or_default();
        waiting.push(req);
        let deferred = tile.spare_lists.pop().unwrap_or_default();
        tile.mshrs.push(Mshr {
            line,
            want,
            waiting,
            deferred,
            data_or_upgrade: false,
            acks_expected: u32::MAX,
            acks_received: 0,
            granted_excl: false,
        });
        let home = self.home_of(line);
        let msg = match want {
            Want::Shared => CohMsg::GetS,
            Want::Exclusive => CohMsg::GetX,
        };
        self.send(t, home, line, msg);
    }

    fn fill_l1(&mut self, t: usize, line: Addr) {
        // L1 evictions are silent: L1 is write-through and strictly
        // inclusive in L2.
        let _ = self.tiles[t].l1d.insert(line, ());
    }

    /// Install a line granted by the directory and complete the MSHR.
    fn mshr_try_complete(&mut self, t: usize, line: Addr) {
        let Some(pos) = self.tiles[t].mshrs.iter().position(|m| m.line == line) else {
            return;
        };
        {
            let m = &self.tiles[t].mshrs[pos];
            if !m.data_or_upgrade
                || m.acks_expected == u32::MAX
                || m.acks_received < m.acks_expected
            {
                return;
            }
        }
        let mut m = self.tiles[t].mshrs.swap_remove(pos);
        let new_state = match m.want {
            Want::Exclusive => Moesi::M,
            Want::Shared if m.granted_excl => Moesi::E,
            Want::Shared => Moesi::S,
        };
        let evicted = self.tiles[t].l2.insert(line, new_state);
        if let Some((victim, vstate)) = evicted {
            self.evict_l2(t, victim, vstate);
        }
        self.fill_l1(t, line);
        let home = self.home_of(line);
        self.send(t, home, line, CohMsg::Unblock);
        for req in m.waiting.drain(..) {
            self.respond(req);
        }
        let tile = &mut self.tiles[t];
        // Needs a stronger state; goes around again.
        tile.inq.extend(m.deferred.drain(..));
        tile.spare_lists.push(m.waiting);
        tile.spare_lists.push(m.deferred);
    }

    fn evict_l2(&mut self, t: usize, victim: Addr, state: Moesi) {
        if state == Moesi::I {
            return;
        }
        self.stats.per_core[t].l2_evictions += 1;
        if state.dirty() {
            self.stats.per_core[t].dirty_evictions += 1;
        }
        self.tiles[t].l1d.invalidate(victim);
        self.tiles[t].wb.insert(
            victim.line_index(),
            WbEntry {
                dirty: state.dirty(),
            },
        );
        let home = self.home_of(victim);
        let msg = match state {
            Moesi::M | Moesi::O => CohMsg::PutDirty,
            Moesi::E => CohMsg::PutClean,
            Moesi::S => CohMsg::PutShared,
            Moesi::I => unreachable!(),
        };
        self.send(t, home, victim, msg);
    }

    // ---------------- message handling ----------------

    fn handle_msg(&mut self, dst: usize, env: Envelope) {
        match env.msg {
            // Directory-side messages.
            CohMsg::GetS | CohMsg::GetX => self.dir_incoming(dst, env),
            CohMsg::PutDirty | CohMsg::PutClean | CohMsg::PutShared => self.dir_incoming(dst, env),
            CohMsg::Unblock => {
                let line = env.line.line_index();
                let e = self.tiles[dst].dir.entry(line).or_default();
                debug_assert!(e.busy, "Unblock for non-busy line");
                e.busy = false;
                self.dir_service_queue(dst, env.line);
            }
            // Cache-side forwarded requests: cost an L2 lookup.
            CohMsg::FwdGetS { .. } | CohMsg::FwdGetX { .. } => {
                self.schedule(self.cfg.l2.latency, Ev::FwdLookup(dst, env));
            }
            CohMsg::Inv { requester } => {
                // Tag-array invalidation; ack even when the line is absent
                // (our PutShared may be racing this Inv).
                self.tiles[dst].l2.invalidate(env.line);
                self.tiles[dst].l1d.invalidate(env.line);
                self.stats.per_core[dst].invalidations_received += 1;
                self.send(dst, requester.0, env.line, CohMsg::InvAck);
            }
            // Requester-side responses.
            CohMsg::DataMem { excl, acks } => {
                if let Some(m) = self.tiles[dst]
                    .mshrs
                    .iter_mut()
                    .find(|m| m.line == env.line)
                {
                    m.data_or_upgrade = true;
                    m.granted_excl = excl;
                    m.acks_expected = acks;
                }
                self.mshr_try_complete(dst, env.line);
            }
            CohMsg::DataC2C { excl } => {
                self.stats.per_core[dst].c2c_fills += 1;
                if let Some(m) = self.tiles[dst]
                    .mshrs
                    .iter_mut()
                    .find(|m| m.line == env.line)
                {
                    m.data_or_upgrade = true;
                    m.granted_excl = excl;
                }
                self.mshr_try_complete(dst, env.line);
            }
            CohMsg::UpgradeAck { acks } => {
                if let Some(m) = self.tiles[dst]
                    .mshrs
                    .iter_mut()
                    .find(|m| m.line == env.line)
                {
                    m.data_or_upgrade = true;
                    m.granted_excl = true;
                    m.acks_expected = acks;
                }
                self.mshr_try_complete(dst, env.line);
            }
            CohMsg::AckCount { acks } => {
                if let Some(m) = self.tiles[dst]
                    .mshrs
                    .iter_mut()
                    .find(|m| m.line == env.line)
                {
                    m.acks_expected = acks;
                }
                self.mshr_try_complete(dst, env.line);
            }
            CohMsg::InvAck => {
                if let Some(m) = self.tiles[dst]
                    .mshrs
                    .iter_mut()
                    .find(|m| m.line == env.line)
                {
                    m.acks_received += 1;
                }
                self.mshr_try_complete(dst, env.line);
            }
            CohMsg::WbAck => {
                self.tiles[dst].wb.remove(&env.line.line_index());
            }
        }
    }

    fn dir_incoming(&mut self, home: usize, env: Envelope) {
        let line = env.line.line_index();
        let busy = self.tiles[home].dir.entry(line).or_default().busy;
        if busy {
            self.tiles[home]
                .dir_queue
                .entry(line)
                .or_default()
                .push_back(env);
        } else {
            self.dir_process(home, env);
        }
    }

    fn dir_service_queue(&mut self, home: usize, line: Addr) {
        let idx = line.line_index();
        while let Some(env) = self.tiles[home]
            .dir_queue
            .get_mut(&idx)
            .and_then(|q| q.pop_front())
        {
            self.dir_process(home, env);
            // Stop if the processed request made the line busy again.
            if self.tiles[home].dir.entry(idx).or_default().busy {
                break;
            }
        }
    }

    fn dir_process(&mut self, home: usize, env: Envelope) {
        let line_idx = env.line.line_index();
        let src = env.src.0;
        let entry = self.tiles[home].dir.entry(line_idx).or_default().clone();
        match env.msg {
            CohMsg::GetS => {
                let e = self.tiles[home]
                    .dir
                    .get_mut(&line_idx)
                    .expect("entry exists");
                e.busy = true;
                if let Some(owner) = entry.owner {
                    debug_assert_ne!(owner, src, "owner re-requesting: wb defer violated");
                    e.sharers |= 1 << src;
                    self.send(
                        home,
                        owner,
                        env.line,
                        CohMsg::FwdGetS {
                            requester: NodeId(src),
                        },
                    );
                    self.send(home, src, env.line, CohMsg::AckCount { acks: 0 });
                } else if entry.sharers & !(1 << src) != 0 {
                    // Cache-to-cache from the lowest other sharer.
                    let supplier = (entry.sharers & !(1 << src)).trailing_zeros() as usize;
                    e.sharers |= 1 << src;
                    self.send(
                        home,
                        supplier,
                        env.line,
                        CohMsg::FwdGetS {
                            requester: NodeId(src),
                        },
                    );
                    self.send(home, src, env.line, CohMsg::AckCount { acks: 0 });
                } else if entry.sharers != 0 {
                    // Requester is the only registered sharer (a racing Inv
                    // removed its copy); serve from memory, keep S.
                    e.sharers |= 1 << src;
                    self.mem_read(home, env.line, src, false);
                } else {
                    // Uncached: memory read, grant E.
                    e.owner = Some(src);
                    self.mem_read(home, env.line, src, true);
                }
            }
            CohMsg::GetX => {
                let sharers_wo_src = entry.sharers & !(1 << src);
                let n_sharer_invs = sharers_wo_src.count_ones();
                let e = self.tiles[home]
                    .dir
                    .get_mut(&line_idx)
                    .expect("entry exists");
                e.busy = true;
                e.owner = Some(src);
                e.sharers = 0;
                match entry.owner {
                    Some(owner) if owner != src => {
                        // Dirty owner supplies; all sharers invalidate.
                        self.send(
                            home,
                            owner,
                            env.line,
                            CohMsg::FwdGetX {
                                requester: NodeId(src),
                            },
                        );
                        self.invalidate_sharers(home, env.line, sharers_wo_src, src);
                        self.send(
                            home,
                            src,
                            env.line,
                            CohMsg::AckCount {
                                acks: n_sharer_invs,
                            },
                        );
                    }
                    Some(_) => {
                        // owner == src: upgrade from O.
                        self.invalidate_sharers(home, env.line, sharers_wo_src, src);
                        self.send(
                            home,
                            src,
                            env.line,
                            CohMsg::UpgradeAck {
                                acks: n_sharer_invs,
                            },
                        );
                    }
                    None if entry.sharers & (1 << src) != 0 => {
                        // Upgrade from S.
                        self.invalidate_sharers(home, env.line, sharers_wo_src, src);
                        self.send(
                            home,
                            src,
                            env.line,
                            CohMsg::UpgradeAck {
                                acks: n_sharer_invs,
                            },
                        );
                    }
                    None if sharers_wo_src != 0 => {
                        // Clean sharers; lowest supplies, the rest
                        // invalidate.
                        let supplier = sharers_wo_src.trailing_zeros() as usize;
                        let rest = sharers_wo_src & !(1 << supplier);
                        self.invalidate_sharers(home, env.line, rest, src);
                        self.send(
                            home,
                            supplier,
                            env.line,
                            CohMsg::FwdGetX {
                                requester: NodeId(src),
                            },
                        );
                        self.send(
                            home,
                            src,
                            env.line,
                            CohMsg::AckCount {
                                acks: rest.count_ones(),
                            },
                        );
                    }
                    None => {
                        // Uncached.
                        self.mem_read(home, env.line, src, true);
                    }
                }
            }
            CohMsg::PutDirty | CohMsg::PutClean => {
                let e = self.tiles[home]
                    .dir
                    .get_mut(&line_idx)
                    .expect("entry exists");
                if e.owner == Some(src) {
                    e.owner = None;
                    if env.msg == CohMsg::PutDirty {
                        self.stats.mem_writes += 1;
                        self.activity.mem_accesses += 1;
                    }
                }
                self.send(home, src, env.line, CohMsg::WbAck);
            }
            CohMsg::PutShared => {
                let e = self.tiles[home]
                    .dir
                    .get_mut(&line_idx)
                    .expect("entry exists");
                e.sharers &= !(1 << src);
                self.send(home, src, env.line, CohMsg::WbAck);
            }
            other => unreachable!("directory received {other:?}"),
        }
    }

    fn invalidate_sharers(&mut self, home: usize, line: Addr, mut sharers: u64, requester: usize) {
        while sharers != 0 {
            let s = sharers.trailing_zeros() as usize;
            sharers &= !(1 << s);
            self.send(
                home,
                s,
                line,
                CohMsg::Inv {
                    requester: NodeId(requester),
                },
            );
        }
    }

    fn mem_read(&mut self, home: usize, line: Addr, requester: usize, excl: bool) {
        self.stats.mem_reads += 1;
        self.activity.mem_accesses += 1;
        self.schedule(
            self.cfg.mem_latency,
            Ev::MemDone {
                home,
                line,
                requester,
                excl,
            },
        );
    }

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::L2Probe(t, req) => self.l2_probe(t, req),
            Ev::FwdLookup(t, env) => self.fwd_lookup(t, env),
            Ev::MemDone {
                home,
                line,
                requester,
                excl,
            } => {
                self.send(home, requester, line, CohMsg::DataMem { excl, acks: 0 });
            }
            Ev::Respond(resp) => self.responses.push(resp),
        }
    }

    fn fwd_lookup(&mut self, t: usize, env: Envelope) {
        self.activity.l2_accesses += 1;
        match env.msg {
            CohMsg::FwdGetS { requester } => {
                let present = self.tiles[t].l2.peek(env.line).is_some();
                if present {
                    // Supplier keeps the line as Owned (supplies future
                    // reads; treats clean-owned uniformly).
                    let prev = self.tiles[t].l2.peek(env.line).unwrap_or(Moesi::I);
                    let next = if prev.dirty() || prev == Moesi::E {
                        Moesi::O
                    } else {
                        prev
                    };
                    self.tiles[t].l2.update(env.line, next);
                } else {
                    debug_assert!(
                        self.tiles[t].wb.contains_key(&env.line.line_index()),
                        "FwdGetS to a tile without the line or a wb entry"
                    );
                }
                self.stats.per_core[t].fwds_served += 1;
                self.send(t, requester.0, env.line, CohMsg::DataC2C { excl: false });
            }
            CohMsg::FwdGetX { requester } => {
                self.tiles[t].l2.invalidate(env.line);
                self.tiles[t].l1d.invalidate(env.line);
                self.stats.per_core[t].fwds_served += 1;
                // The requester learns its expected ack count from the
                // home's parallel AckCount message.
                self.send(t, requester.0, env.line, CohMsg::DataC2C { excl: true });
            }
            other => unreachable!("fwd_lookup got {other:?}"),
        }
    }
}
