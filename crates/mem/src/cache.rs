//! Generic set-associative cache tag array with true-LRU replacement.
//!
//! The array stores per-line metadata only (tags + a caller-supplied state
//! type); data values are not modelled — timing and coherence are, and the
//! only functionally-meaningful values in the simulation (synchronisation
//! words) live in `ptb-sync`'s fabric.
//!
//! The array is one flat `sets × ways` vector (set `s` occupies ways
//! `s·ways .. (s+1)·ways`): one allocation per cache rather than one per
//! set, and a probe walks one contiguous run.

use ptb_isa::Addr;
use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Paper Table 1: L1 I/D cache — 64 KB, 2-way, 1-cycle latency.
    pub fn l1() -> Self {
        CacheConfig {
            size_bytes: 64 << 10,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        }
    }

    /// Paper Table 1: private unified L2 — 1 MB/core, 4-way, 12-cycle
    /// latency.
    pub fn l2() -> Self {
        CacheConfig {
            size_bytes: 1 << 20,
            ways: 4,
            line_bytes: 64,
            latency: 12,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / self.line_bytes;
        let sets = lines as usize / self.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

#[derive(Debug, Clone)]
struct Way<S> {
    tag: u64,
    valid: bool,
    state: S,
    /// Monotonic last-use stamp for true LRU.
    used: u64,
}

/// A set-associative tag array holding a state value per resident line,
/// stored flat as `sets × ways` entries.
///
/// Replacement is true LRU: a fill takes the first invalid way of the
/// set, else the way with the lowest last-use stamp (ties to the lowest
/// way index).
#[derive(Debug, Clone)]
pub struct CacheArray<S> {
    cfg: CacheConfig,
    ways: Vec<Way<S>>,
    set_mask: u64,
    clock: u64,
    /// Lookup + update counters (for energy accounting).
    pub accesses: u64,
}

impl<S: Copy + Default> CacheArray<S> {
    /// Create an empty array.
    pub fn new(cfg: CacheConfig) -> Self {
        let n = cfg.sets();
        CacheArray {
            cfg,
            ways: vec![
                Way {
                    tag: 0,
                    valid: false,
                    state: S::default(),
                    used: 0
                };
                n * cfg.ways
            ],
            set_mask: n as u64 - 1,
            clock: 0,
            accesses: 0,
        }
    }

    /// The geometry this array was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn index(&self, addr: Addr) -> (usize, u64) {
        let line = addr.0 / self.cfg.line_bytes;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.trailing_ones(),
        )
    }

    /// The ways of set `set`.
    #[inline]
    fn set(&self, set: usize) -> &[Way<S>] {
        let n = self.cfg.ways;
        &self.ways[set * n..(set + 1) * n]
    }

    #[inline]
    fn set_mut(&mut self, set: usize) -> &mut [Way<S>] {
        let n = self.cfg.ways;
        &mut self.ways[set * n..(set + 1) * n]
    }

    /// Look up `addr`; on hit, bump LRU and return a copy of the state.
    pub fn probe(&mut self, addr: Addr) -> Option<S> {
        self.accesses += 1;
        self.clock += 1;
        let (set, tag) = self.index(addr);
        let clock = self.clock;
        self.set_mut(set)
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
            .map(|w| {
                w.used = clock;
                w.state
            })
    }

    /// Look up `addr` without disturbing LRU or counting an access
    /// (snooping / assertions).
    pub fn peek(&self, addr: Addr) -> Option<S> {
        let (set, tag) = self.index(addr);
        self.set(set)
            .iter()
            .find(|w| w.valid && w.tag == tag)
            .map(|w| w.state)
    }

    /// Overwrite the state of a resident line. Returns false if absent.
    pub fn update(&mut self, addr: Addr, state: S) -> bool {
        let (set, tag) = self.index(addr);
        if let Some(w) = self
            .set_mut(set)
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
        {
            w.state = state;
            true
        } else {
            false
        }
    }

    /// Insert `addr` with `state`, evicting the LRU way if the set is full.
    /// Returns the evicted line's (address, state) if one was displaced.
    pub fn insert(&mut self, addr: Addr, state: S) -> Option<(Addr, S)> {
        self.accesses += 1;
        self.clock += 1;
        let clock = self.clock;
        let line_bits = self.set_mask.trailing_ones();
        let line_bytes = self.cfg.line_bytes;
        let (set_idx, tag) = self.index(addr);
        let set = self.set_mut(set_idx);
        if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.state = state;
            w.used = clock;
            return None;
        }
        let victim = if let Some(i) = set.iter().position(|w| !w.valid) {
            i
        } else {
            set.iter()
                .enumerate()
                .min_by_key(|(_, w)| w.used)
                .map(|(i, _)| i)
                .expect("nonempty set")
        };
        let evicted = if set[victim].valid {
            let old_line = (set[victim].tag << line_bits) | set_idx as u64;
            Some((Addr(old_line * line_bytes), set[victim].state))
        } else {
            None
        };
        set[victim] = Way {
            tag,
            valid: true,
            state,
            used: clock,
        };
        evicted
    }

    /// Remove `addr` if resident; returns its state.
    pub fn invalidate(&mut self, addr: Addr) -> Option<S> {
        let (set, tag) = self.index(addr);
        self.set_mut(set)
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
            .map(|w| {
                w.valid = false;
                w.state
            })
    }

    /// Number of resident lines (test/diagnostic helper; O(capacity)).
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray<u8> {
        // 4 sets x 2 ways x 64B lines = 512 B.
        CacheArray::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    fn line(i: u64) -> Addr {
        Addr(i * 64)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe(line(0)), None);
        assert_eq!(c.insert(line(0), 7), None);
        assert_eq!(c.probe(line(0)), Some(7));
        // Same line, different offset still hits.
        assert_eq!(c.probe(Addr(40)), Some(7));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines 0, 4, 8, ... (4 sets).
        c.insert(line(0), 1);
        c.insert(line(4), 2);
        c.probe(line(0)); // make line 4 the LRU
        let evicted = c.insert(line(8), 3);
        assert_eq!(evicted, Some((line(4), 2)));
        assert!(c.probe(line(0)).is_some());
        assert!(c.probe(line(8)).is_some());
        assert!(c.probe(line(4)).is_none());
    }

    #[test]
    fn insert_existing_updates_in_place() {
        let mut c = tiny();
        c.insert(line(0), 1);
        assert_eq!(c.insert(line(0), 9), None);
        assert_eq!(c.probe(line(0)), Some(9));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn update_and_invalidate() {
        let mut c = tiny();
        assert!(!c.update(line(3), 5));
        c.insert(line(3), 1);
        assert!(c.update(line(3), 5));
        assert_eq!(c.peek(line(3)), Some(5));
        assert_eq!(c.invalidate(line(3)), Some(5));
        assert_eq!(c.peek(line(3)), None);
        assert_eq!(c.invalidate(line(3)), None);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        for i in 0..4 {
            c.insert(line(i), i as u8);
        }
        for i in 0..4 {
            assert_eq!(c.probe(line(i)), Some(i as u8));
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn eviction_reports_correct_address() {
        let mut c = tiny();
        c.insert(line(1), 1); // set 1
        c.insert(line(5), 2); // set 1
        let ev = c.insert(line(9), 3); // set 1, evicts LRU = line 1
        assert_eq!(ev, Some((line(1), 1)));
    }

    #[test]
    fn paper_geometries_are_constructible() {
        let l1: CacheArray<u8> = CacheArray::new(CacheConfig::l1());
        assert_eq!(l1.config().sets(), 512);
        let l2: CacheArray<u8> = CacheArray::new(CacheConfig::l2());
        assert_eq!(l2.config().sets(), 4096);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// The cache agrees with a reference model: after any sequence of
        /// inserts/invalidations, a hit returns the last state written and
        /// occupancy never exceeds capacity.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec((0u64..64, 0u8..=2, 0u8..255), 1..300)) {
            let cfg = CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, latency: 1 };
            let capacity = (cfg.size_bytes / cfg.line_bytes) as usize;
            let mut c: CacheArray<u8> = CacheArray::new(cfg);
            let mut model: HashMap<u64, u8> = HashMap::new();
            for (l, op, st) in ops {
                let addr = Addr(l * 64);
                match op {
                    0 => {
                        if let Some((ev, _)) = c.insert(addr, st) {
                            model.remove(&ev.line_index());
                        }
                        model.insert(l, st);
                    }
                    1 => {
                        let got = c.probe(addr);
                        if let Some(s) = got {
                            prop_assert_eq!(model.get(&l), Some(&s));
                        } else {
                            prop_assert!(!model.contains_key(&l));
                        }
                    }
                    _ => {
                        c.invalidate(addr);
                        model.remove(&l);
                    }
                }
                prop_assert!(c.occupancy() <= capacity);
                prop_assert_eq!(c.occupancy(), model.len());
            }
        }
    }
}
