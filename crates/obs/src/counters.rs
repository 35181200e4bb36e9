//! Named counters and gauges fed by observer hooks.

use crate::{MemPulse, RunEnd, RunMeta, SimObserver, SpinKind, ThrottleObs};
use ptb_metrics::Table;
use std::collections::BTreeMap;

/// A registry of named counters (monotonic sums) and gauges (last
/// value), keyed by dotted names like `mech.dvfs_transitions`.
///
/// As a [`SimObserver`] it counts every mechanism decision, spin
/// transition, backpressure retry and memory event of a run; user code
/// can add its own series with [`CounterRegistry::add`] /
/// [`CounterRegistry::set`]. Export as a `ptb_metrics::Table` (CSV) or
/// merge into `RunReport::extra_metrics` via the map view.
#[derive(Debug, Clone, Default)]
pub struct CounterRegistry {
    values: BTreeMap<String, f64>,
}

impl CounterRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (creating it at 0). Only a new
    /// name allocates, so hooks that fire every cycle stay allocation
    /// free.
    pub fn add(&mut self, name: &str, delta: f64) {
        match self.values.get_mut(name) {
            Some(v) => *v += delta,
            // `0.0 + delta`, not `delta`: a new counter fed `-0.0`
            // holds `+0.0`, which serialises differently from `-0.0`.
            None => {
                self.values.insert(name.to_owned(), 0.0 + delta);
            }
        }
    }

    /// Increment counter `name` by 1.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1.0);
    }

    /// Set gauge `name` to `value`, overwriting. Only a new name
    /// allocates.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.values.insert(name.to_owned(), value);
            }
        }
    }

    /// Current value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// All series, sorted by name.
    pub fn as_map(&self) -> &BTreeMap<String, f64> {
        &self.values
    }

    /// Fold another registry into this one: counters accumulate
    /// (`add`), so merging per-run registries — or the farm's `farm.*`
    /// outcome counters — yields totals. Series that only exist in
    /// `other` are created.
    pub fn merge(&mut self, other: &CounterRegistry) {
        for (name, value) in other.as_map() {
            self.add(name, *value);
        }
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no series exist.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Render as a two-column `counter,value` table (CSV via
    /// `Table::to_csv`).
    pub fn to_table(&self, title: &str) -> Table {
        let mut t = Table::new(title, &["counter", "value"]);
        for (name, value) in &self.values {
            t.row(vec![name.clone(), format_value(*value)]);
        }
        t
    }
}

/// Integral counters print without a fractional part.
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

impl SimObserver for CounterRegistry {
    fn on_run_start(&mut self, meta: &RunMeta) {
        self.set("run.n_cores", meta.n_cores as f64);
        self.set("run.budget_tokens", meta.budget_tokens);
    }

    fn on_dvfs_change(
        &mut self,
        _cycle: u64,
        _core: usize,
        _v: f64,
        _f: f64,
        transition_cycles: u64,
    ) {
        self.inc("mech.dvfs_transitions");
        self.add(
            "mech.dvfs_transition_stall_cycles",
            transition_cycles as f64,
        );
    }

    fn on_throttle_change(&mut self, _cycle: u64, _core: usize, _throttle: ThrottleObs) {
        self.inc("mech.throttle_changes");
    }

    fn on_spin_enter(&mut self, _cycle: u64, _core: usize, kind: SpinKind) {
        self.inc("sync.spin_episodes");
        match kind {
            SpinKind::Lock => self.inc("sync.spin_episodes_lock"),
            SpinKind::Barrier => self.inc("sync.spin_episodes_barrier"),
            SpinKind::Other => {}
        }
    }

    fn on_mem_retry(&mut self, _cycle: u64, _core: usize) {
        self.inc("mem.backpressure_retries");
    }

    fn on_mem_pulse(&mut self, _cycle: u64, pulse: &MemPulse) {
        self.add("mem.l1_misses", pulse.l1_misses as f64);
        self.add("mem.l2_misses", pulse.l2_misses as f64);
        self.add("mem.invalidations", pulse.invalidations as f64);
        self.add("mem.accesses", pulse.mem_accesses as f64);
    }

    fn on_run_end(&mut self, end: &RunEnd) {
        self.set("run.cycles", end.cycles as f64);
        self.set("run.energy_tokens", end.energy_tokens);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_hook_traffic() {
        let mut c = CounterRegistry::new();
        c.on_dvfs_change(10, 0, 0.9, 0.8, 60);
        c.on_dvfs_change(20, 1, 1.0, 1.0, 60);
        c.on_spin_enter(30, 0, SpinKind::Lock);
        c.on_mem_retry(31, 2);
        c.on_mem_pulse(
            32,
            &MemPulse {
                l1_misses: 3,
                invalidations: 1,
                ..MemPulse::default()
            },
        );
        assert_eq!(c.get("mech.dvfs_transitions"), Some(2.0));
        assert_eq!(c.get("mech.dvfs_transition_stall_cycles"), Some(120.0));
        assert_eq!(c.get("sync.spin_episodes_lock"), Some(1.0));
        assert_eq!(c.get("mem.backpressure_retries"), Some(1.0));
        assert_eq!(c.get("mem.l1_misses"), Some(3.0));
    }

    #[test]
    fn new_counters_start_at_positive_zero() {
        let mut c = CounterRegistry::new();
        c.add("z", -0.0);
        assert!(c.get("z").is_some_and(|v| v == 0.0 && v.is_sign_positive()));
        c.add("z", 2.5);
        c.add("z", 1.0);
        c.set("g", -0.0);
        assert_eq!(c.get("z"), Some(3.5));
        assert!(c.get("g").is_some_and(|v| v.is_sign_negative()));
    }

    #[test]
    fn merge_accumulates_and_creates() {
        let mut a = CounterRegistry::new();
        a.add("x", 2.0);
        let mut b = CounterRegistry::new();
        b.add("x", 3.0);
        b.add("farm.hits", 7.0);
        a.merge(&b);
        assert_eq!(a.get("x"), Some(5.0));
        assert_eq!(a.get("farm.hits"), Some(7.0));
    }

    #[test]
    fn merge_adds_gauges_too_by_design() {
        // `merge` is additive for every series, including ones written
        // with `set`: a gauge colliding across registries sums. Callers
        // that want last-writer-wins must `set` after merging — this
        // test pins that contract.
        let mut a = CounterRegistry::new();
        a.set("run.n_cores", 16.0);
        let mut b = CounterRegistry::new();
        b.set("run.n_cores", 16.0);
        a.merge(&b);
        assert_eq!(a.get("run.n_cores"), Some(32.0));
        a.set("run.n_cores", 16.0);
        assert_eq!(a.get("run.n_cores"), Some(16.0));
    }

    #[test]
    fn merge_is_commutative_and_ignores_empty() {
        let mut a = CounterRegistry::new();
        a.add("x", 1.0);
        a.add("only_a", 4.0);
        let mut b = CounterRegistry::new();
        b.add("x", 2.0);
        b.add("only_b", 8.0);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.as_map(), ba.as_map());
        assert_eq!(ab.get("x"), Some(3.0));
        assert_eq!(ab.get("only_a"), Some(4.0));
        assert_eq!(ab.get("only_b"), Some(8.0));

        let before = ab.as_map().clone();
        ab.merge(&CounterRegistry::new());
        assert_eq!(ab.as_map(), &before);
    }

    #[test]
    fn merge_self_copy_doubles() {
        let mut a = CounterRegistry::new();
        a.add("x", 2.5);
        let snapshot = a.clone();
        a.merge(&snapshot);
        assert_eq!(a.get("x"), Some(5.0));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn table_is_sorted_and_csv_ready() {
        let mut c = CounterRegistry::new();
        c.set("b.gauge", 1.5);
        c.inc("a.count");
        let t = c.to_table("counters");
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# counters");
        assert_eq!(lines[1], "counter,value");
        assert!(lines[2].starts_with("a.count,1"));
        assert!(lines[3].starts_with("b.gauge,1.5"));
    }
}
