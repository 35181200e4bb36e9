//! Memory-system statistics and per-tick activity counters.

use serde::{Deserialize, Serialize};

/// Per-core cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreMemStats {
    /// L1D lookups.
    pub l1_accesses: u64,
    /// L1D hits.
    pub l1_hits: u64,
    /// L1D misses (forwarded to L2).
    pub l1_misses: u64,
    /// L2 lookups for core requests.
    pub l2_accesses: u64,
    /// L2 hits that satisfied the request.
    pub l2_hits: u64,
    /// L2 misses (coherence transaction launched).
    pub l2_misses: u64,
    /// Lines filled cache-to-cache (vs. from memory).
    pub c2c_fills: u64,
    /// Invalidations received from the directory.
    pub invalidations_received: u64,
    /// Forwards (FwdGetS/FwdGetX) this tile served.
    pub fwds_served: u64,
    /// L2 victim evictions.
    pub l2_evictions: u64,
    /// L2 victim evictions that required a dirty writeback.
    pub dirty_evictions: u64,
}

impl CoreMemStats {
    /// L1 hit rate in [0, 1]; 0 when no accesses.
    #[cfg(test)]
    pub fn l1_hit_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.l1_accesses as f64
        }
    }
}

/// Whole-system memory statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Per-core breakdown.
    pub per_core: Vec<CoreMemStats>,
    /// Main-memory reads.
    pub mem_reads: u64,
    /// Main-memory writes (dirty writebacks).
    pub mem_writes: u64,
    /// Total coherence messages sent.
    pub coh_messages: u64,
}

impl MemStats {
    /// Zeroed stats for `n` cores.
    pub fn new(n: usize) -> Self {
        MemStats {
            per_core: vec![CoreMemStats::default(); n],
            ..Default::default()
        }
    }

    /// Sum of the per-core stats across all tiles (cheap aggregate for
    /// observers that track whole-chip deltas between cycles).
    pub fn totals(&self) -> CoreMemStats {
        let mut t = CoreMemStats::default();
        for s in &self.per_core {
            t.l1_accesses += s.l1_accesses;
            t.l1_hits += s.l1_hits;
            t.l1_misses += s.l1_misses;
            t.l2_accesses += s.l2_accesses;
            t.l2_hits += s.l2_hits;
            t.l2_misses += s.l2_misses;
            t.c2c_fills += s.c2c_fills;
            t.invalidations_received += s.invalidations_received;
            t.fwds_served += s.fwds_served;
            t.l2_evictions += s.l2_evictions;
            t.dirty_evictions += s.dirty_evictions;
        }
        t
    }
}

/// Energy-relevant event counts accumulated since the last
/// [`crate::MemorySystem::take_activity`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemActivity {
    /// L1 array accesses.
    pub l1_accesses: u64,
    /// L2 array accesses.
    pub l2_accesses: u64,
    /// Flit-hops transmitted on the mesh.
    pub noc_flit_hops: u64,
    /// Main-memory accesses started.
    pub mem_accesses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        let s = CoreMemStats::default();
        assert_eq!(s.l1_hit_rate(), 0.0);
        let s = CoreMemStats {
            l1_accesses: 10,
            l1_hits: 7,
            ..Default::default()
        };
        assert!((s.l1_hit_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn new_sizes_per_core() {
        assert_eq!(MemStats::new(16).per_core.len(), 16);
    }

    #[test]
    fn totals_sums_all_tiles() {
        let mut s = MemStats::new(3);
        s.per_core[0].l1_misses = 4;
        s.per_core[2].l1_misses = 1;
        s.per_core[1].invalidations_received = 7;
        let t = s.totals();
        assert_eq!(t.l1_misses, 5);
        assert_eq!(t.invalidations_received, 7);
        assert_eq!(t.l1_accesses, 0);
    }
}
