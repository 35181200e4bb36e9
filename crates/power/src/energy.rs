//! Energy integration over a run.

use serde::{Deserialize, Serialize};

/// Running energy totals for a simulation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChipEnergy {
    /// Cycles integrated.
    pub cycles: u64,
    /// Total tokens per core.
    pub per_core: Vec<f64>,
    /// Total uncore tokens.
    pub uncore: f64,
    /// Running peak of per-cycle chip tokens.
    pub max_chip_cycle: f64,
    /// Σ chip tokens (= per_core totals + uncore, kept for O(1) reads).
    pub total: f64,
    /// Σ chip² (for power variance / standard deviation reporting).
    sum_sq: f64,
}

impl ChipEnergy {
    /// Zeroed accumulator for `n` cores.
    pub fn new(n_cores: usize) -> Self {
        ChipEnergy {
            per_core: vec![0.0; n_cores],
            ..Default::default()
        }
    }

    /// Fold in one cycle: `per_core` tokens (one per core, in core
    /// order) and `uncore` tokens. Returns the cycle's chip total, the
    /// per-core sum in core order plus uncore.
    ///
    /// Takes the caller's per-cycle token slice by reference, so the
    /// simulator's loop integrates energy without building a sample.
    pub fn add(&mut self, per_core: &[f64], uncore: f64) -> f64 {
        debug_assert_eq!(per_core.len(), self.per_core.len());
        self.cycles += 1;
        let chip = per_core.iter().sum::<f64>() + uncore;
        for (acc, &s) in self.per_core.iter_mut().zip(per_core) {
            *acc += s;
        }
        self.uncore += uncore;
        self.total += chip;
        self.sum_sq += chip * chip;
        if chip > self.max_chip_cycle {
            self.max_chip_cycle = chip;
        }
        chip
    }

    /// Mean chip tokens/cycle.
    pub fn mean_power(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total / self.cycles as f64
        }
    }

    /// Standard deviation of per-cycle chip tokens (the paper reports PTB's
    /// minimal power deviation from the budget).
    pub fn power_stddev(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let n = self.cycles as f64;
        let mean = self.total / n;
        (self.sum_sq / n - mean * mean).max(0.0).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_total_sums_cores_and_uncore() {
        let mut e = ChipEnergy::new(2);
        assert_eq!(e.add(&[10.0, 20.0], 5.0), 35.0);
    }

    #[test]
    fn accumulator_integrates() {
        let mut e = ChipEnergy::new(2);
        e.add(&[10.0, 20.0], 5.0);
        e.add(&[30.0, 0.0], 0.0);
        assert_eq!(e.cycles, 2);
        assert_eq!(e.per_core, vec![40.0, 20.0]);
        assert_eq!(e.uncore, 5.0);
        assert_eq!(e.total, 65.0);
        assert_eq!(e.mean_power(), 32.5);
        assert_eq!(e.max_chip_cycle, 35.0);
    }

    #[test]
    fn stddev_of_constant_signal_is_zero() {
        let mut e = ChipEnergy::new(1);
        for _ in 0..100 {
            e.add(&[42.0], 0.0);
        }
        assert!(e.power_stddev() < 1e-9);
    }

    #[test]
    fn stddev_of_alternating_signal() {
        let mut e = ChipEnergy::new(1);
        for i in 0..1000 {
            e.add(&[if i % 2 == 0 { 0.0 } else { 10.0 }], 0.0);
        }
        assert!((e.power_stddev() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_accumulator_is_safe() {
        let e = ChipEnergy::new(4);
        assert_eq!(e.mean_power(), 0.0);
        assert_eq!(e.power_stddev(), 0.0);
    }
}
