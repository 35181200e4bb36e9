//! L1 instruction cache (Table 1: 64 KB, 2-way, 1-cycle hit).
//!
//! The front end probes this tag array for every fetch group. Misses stall
//! fetch for the L2 hit latency (code working sets fit comfortably in the
//! private L2, so instruction misses never travel the mesh; the data side
//! models full coherence instead). A real tag array — rather than an
//! infinite warm set — matters for workloads whose phase code plus lock
//! and barrier sites exceed a way, where pathological aliasing would
//! otherwise be invisible.
//!
//! The tag array is one flat `sets × ways` vector: set `s` occupies
//! ways `s·ways .. (s+1)·ways`, so a probe touches one contiguous run.

use serde::{Deserialize, Serialize};

/// Geometry + timing of the instruction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ICacheConfig {
    /// Total size in bytes (Table 1: 64 KB).
    pub size_bytes: u64,
    /// Associativity (Table 1: 2).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Cycles fetch stalls on a miss (fill from the private L2).
    pub miss_penalty: u64,
}

impl Default for ICacheConfig {
    fn default() -> Self {
        ICacheConfig {
            size_bytes: 64 << 10,
            ways: 2,
            line_bytes: 64,
            miss_penalty: 12,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    used: u64,
}

/// The instruction-cache tag array, flat: `sets × ways` entries with
/// true-LRU replacement within each set.
#[derive(Debug, Clone)]
pub struct ICache {
    cfg: ICacheConfig,
    ways: Vec<Way>,
    set_mask: u64,
    clock: u64,
    /// Lookups performed.
    pub accesses: u64,
    /// Misses taken.
    pub misses: u64,
}

impl ICache {
    /// Build an empty I-cache.
    pub fn new(cfg: ICacheConfig) -> Self {
        assert!(cfg.ways >= 1, "at least one way");
        let sets = (cfg.size_bytes / cfg.line_bytes) as usize / cfg.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        ICache {
            cfg,
            ways: vec![
                Way {
                    tag: 0,
                    valid: false,
                    used: 0
                };
                sets * cfg.ways
            ],
            set_mask: sets as u64 - 1,
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Probe the line containing `pc`. On a miss the line is filled (the
    /// caller charges `miss_penalty` stall cycles). Returns `true` on hit.
    pub fn fetch(&mut self, pc: u64) -> bool {
        self.accesses += 1;
        self.clock += 1;
        let line = pc / self.cfg.line_bytes;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.trailing_ones();
        let n = self.cfg.ways;
        let ways = &mut self.ways[set * n..(set + 1) * n];
        for w in ways.iter_mut() {
            if w.valid && w.tag == tag {
                w.used = self.clock;
                return true;
            }
        }
        self.misses += 1;
        // Fill into the first invalid way, else the LRU one (valid
        // stamps are at least 1).
        let victim = (0..n)
            .min_by_key(|&i| if ways[i].valid { ways[i].used } else { 0 })
            .expect("at least one way");
        ways[victim] = Way {
            tag,
            valid: true,
            used: self.clock,
        };
        false
    }

    /// Miss penalty in cycles.
    pub fn miss_penalty(&self) -> u64 {
        self.cfg.miss_penalty
    }

    /// Miss rate over all lookups.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ICache {
        // 2 sets x 2 ways x 64B = 256B.
        ICache::new(ICacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            miss_penalty: 12,
        })
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.fetch(0x100));
        assert!(c.fetch(0x104)); // same line
        assert!(c.fetch(0x13f));
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn conflict_eviction_at_low_associativity() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        assert!(!c.fetch(0));
        assert!(!c.fetch(2 * 64));
        assert!(c.fetch(0)); // still resident
        assert!(!c.fetch(4 * 64)); // evicts LRU (line 2)
        assert!(!c.fetch(2 * 64)); // miss again
    }

    #[test]
    fn loop_resident_code_has_negligible_miss_rate() {
        let mut c = ICache::new(ICacheConfig::default());
        // 1 KB loop body fetched a thousand times.
        for _ in 0..1000 {
            for pc in (0x1000..0x1400u64).step_by(4) {
                c.fetch(pc);
            }
        }
        assert!(c.miss_rate() < 0.001, "miss rate {}", c.miss_rate());
    }

    #[test]
    fn default_geometry_matches_table1() {
        let c = ICache::new(ICacheConfig::default());
        assert_eq!(c.ways.len() / c.cfg.ways, 512);
        assert_eq!(c.miss_penalty(), 12);
    }
}
