//! Per-core execution statistics.

use serde::{Deserialize, Serialize};

/// Counters accumulated over a core's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Core clock cycles executed (excludes DVFS-skipped global cycles).
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Committed instructions that were spin-loop iterations.
    pub committed_spin: u64,
    /// Conditional branches fetched.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Loads satisfied by store-buffer forwarding.
    pub store_forwards: u64,
}

impl CoreStats {
    /// Instructions per core cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Misprediction rate over fetched branches.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
    }

    #[test]
    fn ipc_math() {
        let s = CoreStats {
            cycles: 100,
            committed: 250,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
    }
}
