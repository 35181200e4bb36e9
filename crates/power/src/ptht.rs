//! The Power-Token History Table (PTHT).
//!
//! An 8 K-entry, PC-indexed table storing the token cost (base + ROB
//! residency) of each static instruction's **last** execution (§III.B).
//! The fetch stage reads it to estimate the power of in-flight work; the
//! commit stage writes the measured cost back. Its own access energy is
//! charged through `CoreActivity::ptht_accesses`.

use serde::{Deserialize, Serialize};

/// Default table size from the paper: 8 K entries.
pub const PTHT_ENTRIES: usize = 8192;

/// PC-indexed history of per-instruction token costs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ptht {
    table: Vec<u16>,
    mask: usize,
    /// Estimation bookkeeping: sum of |estimate − actual| and count, to
    /// reproduce the paper's < 1 % estimation-error claim.
    pub abs_err: f64,
    /// Number of (estimate, actual) pairs folded into `abs_err`.
    pub err_samples: u64,
    /// Sum of actual costs seen at commit (error normalisation).
    pub actual_sum: f64,
}

impl Default for Ptht {
    fn default() -> Self {
        Self::new(PTHT_ENTRIES)
    }
}

impl Ptht {
    /// Create a table with `entries` slots (power of two).
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "PTHT size must be a power of two"
        );
        Ptht {
            table: vec![0; entries],
            mask: entries - 1,
            abs_err: 0.0,
            err_samples: 0,
            actual_sum: 0.0,
        }
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & self.mask
    }

    /// Fetch-time estimate of the token cost of the instruction at `pc`
    /// (its last execution's cost; 0 for never-seen instructions).
    pub fn estimate(&self, pc: u64) -> f64 {
        f64::from(self.table[self.index(pc)])
    }

    /// Commit-time update with the measured cost (base + ROB residency
    /// cycles). Also folds the estimation error into the accuracy stats.
    pub fn update(&mut self, pc: u64, actual_tokens: f64) {
        let idx = self.index(pc);
        let prev = f64::from(self.table[idx]);
        if self.table[idx] != 0 || prev == actual_tokens {
            // Only count error once the entry has been trained.
            self.abs_err += (prev - actual_tokens).abs();
            self.err_samples += 1;
            self.actual_sum += actual_tokens;
        }
        self.table[idx] = actual_tokens.round().clamp(0.0, f64::from(u16::MAX)) as u16;
    }

    /// Mean relative estimation error over trained entries, in [0, 1].
    pub fn relative_error(&self) -> f64 {
        if self.actual_sum == 0.0 {
            0.0
        } else {
            self.abs_err / self.actual_sum
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_table_estimates_zero() {
        let t = Ptht::new(1024);
        assert_eq!(t.estimate(0x4000), 0.0);
    }

    #[test]
    fn update_then_estimate_roundtrips() {
        let mut t = Ptht::new(1024);
        t.update(0x4000, 57.0);
        assert_eq!(t.estimate(0x4000), 57.0);
        // Different pc, same entry only if aliasing: pick a pc in another
        // slot.
        assert_eq!(t.estimate(0x4004), 0.0);
    }

    #[test]
    fn aliasing_wraps_at_table_size() {
        let mut t = Ptht::new(16);
        t.update(0x0, 10.0);
        // pc >> 2 differs by exactly table size -> same slot.
        assert_eq!(t.estimate(64 * 4 / 64 * 64), t.estimate(0)); // same slot 0
        t.update(16 * 4, 99.0); // (pc>>2)=16 -> slot 0 again
        assert_eq!(t.estimate(0x0), 99.0);
    }

    #[test]
    fn stable_costs_give_low_relative_error() {
        let mut t = Ptht::new(256);
        // A loop of 32 static instructions with stable costs, many
        // iterations.
        for _ in 0..100 {
            for pc in (0..32 * 4).step_by(4) {
                t.update(pc as u64, 40.0 + f64::from(pc % 3));
            }
        }
        assert!(t.relative_error() < 0.01, "err {}", t.relative_error());
    }

    #[test]
    fn volatile_costs_give_higher_error() {
        let mut t = Ptht::new(256);
        for i in 0..1000u64 {
            t.update(0x100, if i % 2 == 0 { 10.0 } else { 300.0 });
        }
        assert!(t.relative_error() > 0.5);
    }

    #[test]
    fn saturates_at_u16() {
        let mut t = Ptht::new(64);
        t.update(0, 1e9);
        assert_eq!(t.estimate(0), f64::from(u16::MAX));
    }
}
