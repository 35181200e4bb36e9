//! Wall-clock phase profiling.

use crate::{Phase, SimObserver};
use ptb_metrics::{Histogram, Table};
use std::collections::BTreeMap;

/// Upper edge of the per-sample latency histograms, in nanoseconds.
/// One phase of one simulated cycle rarely exceeds a few microseconds;
/// anything beyond the edge is clamped into the last bin, which is fine
/// for the p50/p95 questions the profiler answers.
const HIST_MAX_NANOS: f64 = 65_536.0;

/// Bins in the per-sample latency histograms (256 ns resolution).
const HIST_BINS: usize = 256;

/// Accumulates wall-clock time per simulator phase (NoC, memory tick,
/// core tick, power sample, mechanism control, observer delivery), as
/// measured by the simulator when [`SimObserver::wants_phase_timing`]
/// returns true.
///
/// Besides the flat per-phase totals fed by [`SimObserver::on_phase_time`],
/// the profiler keeps a [`Histogram`] of per-sample latencies for each
/// phase, so tails are visible, not just means.
///
/// The measurement itself costs a handful of `Instant::now()` calls per
/// simulated cycle, so enable it for profiling runs, not for
/// experiments whose wall-clock time matters.
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    nanos: [u64; Phase::COUNT],
    samples: [u64; Phase::COUNT],
    hists: Vec<Histogram>,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        PhaseProfiler {
            nanos: [0; Phase::COUNT],
            samples: [0; Phase::COUNT],
            hists: Phase::ALL
                .iter()
                .map(|_| Histogram::new(0.0, HIST_MAX_NANOS, HIST_BINS))
                .collect(),
        }
    }
}

impl PhaseProfiler {
    /// Fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `nanos` spent in `phase` (one sample).
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase.index()] += nanos;
        self.samples[phase.index()] += 1;
        self.hists[phase.index()].record(nanos as f64);
    }

    /// Total nanoseconds attributed to `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Number of samples recorded for `phase`.
    pub fn samples(&self, phase: Phase) -> u64 {
        self.samples[phase.index()]
    }

    /// Per-sample latency quantile (`q` in 0..=1) for `phase`, in
    /// nanoseconds, estimated from the phase's histogram (0 when no
    /// samples were recorded).
    pub fn quantile_nanos(&self, phase: Phase, q: f64) -> f64 {
        let h = &self.hists[phase.index()];
        if h.count() == 0 {
            0.0
        } else {
            h.quantile(q)
        }
    }

    /// Total measured nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Share of measured time spent in `phase` (0..=1; 0 if nothing
    /// was measured).
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            self.nanos(phase) as f64 / total as f64
        }
    }

    /// Flat `profile.<phase>_ms` map for `RunReport::extra_metrics`.
    pub fn as_map(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        for p in Phase::ALL {
            m.insert(
                format!("profile.{}_ms", p.name()),
                self.nanos(p) as f64 / 1.0e6,
            );
        }
        m.insert("profile.total_ms".into(), self.total_nanos() as f64 / 1.0e6);
        m
    }

    /// Render as a `phase,total_ms,share_pct,samples,p50_ns,p95_ns`
    /// table.
    pub fn to_table(&self, title: &str) -> Table {
        let mut t = Table::new(
            title,
            &[
                "phase",
                "total_ms",
                "share_pct",
                "samples",
                "p50_ns",
                "p95_ns",
            ],
        );
        for p in Phase::ALL {
            t.row(vec![
                p.name().to_owned(),
                format!("{:.3}", self.nanos(p) as f64 / 1.0e6),
                format!("{:.1}", self.share(p) * 100.0),
                self.samples(p).to_string(),
                format!("{:.0}", self.quantile_nanos(p, 0.5)),
                format!("{:.0}", self.quantile_nanos(p, 0.95)),
            ]);
        }
        t
    }

    /// One-line summary like
    /// `noc 10.0% | mem_tick 31.2% | core_tick 38.0% | ... (total 1234 ms)`.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = Phase::ALL
            .iter()
            .map(|&p| format!("{} {:.1}%", p.name(), self.share(p) * 100.0))
            .collect();
        format!(
            "{} (total {:.0} ms)",
            parts.join(" | "),
            self.total_nanos() as f64 / 1.0e6
        )
    }
}

impl SimObserver for PhaseProfiler {
    fn wants_phase_timing(&self) -> bool {
        true
    }

    fn on_phase_time(&mut self, phase: Phase, nanos: u64) {
        self.record(phase, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_shares() {
        let mut p = PhaseProfiler::new();
        p.on_phase_time(Phase::MemTick, 300);
        p.on_phase_time(Phase::CoreTick, 600);
        p.on_phase_time(Phase::PowerSample, 50);
        p.on_phase_time(Phase::Mechanism, 50);
        p.on_phase_time(Phase::MemTick, 0);
        assert_eq!(p.total_nanos(), 1000);
        assert!((p.share(Phase::CoreTick) - 0.6).abs() < 1e-12);
        let m = p.as_map();
        assert!((m["profile.mem_tick_ms"] - 3.0e-4).abs() < 1e-15);
        assert!(p.summary().contains("core_tick 60.0%"));
    }

    #[test]
    fn empty_profile_is_quiet() {
        let p = PhaseProfiler::new();
        assert_eq!(p.share(Phase::MemTick), 0.0);
        assert!(p.wants_phase_timing());
    }

    #[test]
    fn quantiles_come_from_histograms() {
        let mut p = PhaseProfiler::new();
        for _ in 0..95 {
            p.record(Phase::CoreTick, 1_000);
        }
        for _ in 0..5 {
            p.record(Phase::CoreTick, 60_000);
        }
        assert_eq!(p.samples(Phase::CoreTick), 100);
        let p50 = p.quantile_nanos(Phase::CoreTick, 0.5);
        assert!((768.0..=1_536.0).contains(&p50), "p50 = {p50}");
        let p99 = p.quantile_nanos(Phase::CoreTick, 0.99);
        assert!(p99 >= 59_000.0, "p99 = {p99}");
        // Untouched phase reports 0, not NaN.
        assert_eq!(p.quantile_nanos(Phase::Noc, 0.95), 0.0);
    }

    #[test]
    fn table_has_distribution_columns() {
        let mut p = PhaseProfiler::new();
        p.record(Phase::Noc, 500);
        let csv = p.to_table("profile").to_csv();
        assert!(csv.lines().nth(1).unwrap().contains("p95_ns"));
        assert!(csv.contains("noc,"));
    }
}
