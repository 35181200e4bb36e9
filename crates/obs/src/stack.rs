//! Runtime-composable observer stack.

use crate::{
    AuditObserver, CounterRegistry, EventRecorder, MemPulse, Phase, PhaseProfiler, RunEnd, RunMeta,
    SimObserver, SpinKind, ThrottleObs,
};
use std::collections::BTreeMap;

/// A runtime-selectable bundle of the concrete observers, for callers
/// (CLIs) that decide from flags which ones to enable.
///
/// `ENABLED` is `true` — use this type only when at least one component
/// is on; pass [`crate::NullObserver`] for unobserved runs so the hook
/// code compiles out entirely.
#[derive(Debug, Default)]
pub struct ObsStack {
    /// Event ring buffer + Chrome trace export, when tracing.
    pub recorder: Option<EventRecorder>,
    /// Named counters, when collecting metrics.
    pub counters: Option<CounterRegistry>,
    /// Invariant checks, when auditing.
    pub audit: Option<AuditObserver>,
    /// Wall-clock phase profile, when profiling.
    pub profiler: Option<PhaseProfiler>,
}

impl ObsStack {
    /// Empty stack; add components with the `with_*` builders.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach an [`EventRecorder`] with `capacity` events.
    pub fn with_recorder(mut self, capacity: usize) -> Self {
        self.recorder = Some(EventRecorder::new(capacity));
        self
    }

    /// Attach a [`CounterRegistry`].
    pub fn with_counters(mut self) -> Self {
        self.counters = Some(CounterRegistry::new());
        self
    }

    /// Attach an [`AuditObserver`] checking every `stride` cycles.
    pub fn with_audit(mut self, stride: u64) -> Self {
        self.audit = Some(AuditObserver::new(stride));
        self
    }

    /// Attach a [`PhaseProfiler`].
    pub fn with_profiler(mut self) -> Self {
        self.profiler = Some(PhaseProfiler::new());
        self
    }

    /// True when no component is attached (prefer
    /// [`crate::NullObserver`] then).
    pub fn is_empty(&self) -> bool {
        self.recorder.is_none()
            && self.counters.is_none()
            && self.audit.is_none()
            && self.profiler.is_none()
    }

    /// Merge everything this stack measured into a flat metric map
    /// (e.g. `RunReport::extra_metrics`): all counters, the phase
    /// profile, and recorder occupancy.
    pub fn merge_extra_metrics(&self, into: &mut BTreeMap<String, f64>) {
        if let Some(c) = &self.counters {
            for (k, v) in c.as_map() {
                into.insert(k.clone(), *v);
            }
        }
        if let Some(p) = &self.profiler {
            into.extend(p.as_map());
        }
        if let Some(r) = &self.recorder {
            into.insert("obs.events_recorded".into(), r.len() as f64);
            into.insert("obs.events_dropped".into(), r.dropped() as f64);
        }
        if let Some(a) = &self.audit {
            into.insert("obs.audit_checks".into(), a.checks() as f64);
        }
    }
}

impl SimObserver for ObsStack {
    fn on_run_start(&mut self, meta: &RunMeta) {
        if let Some(o) = &mut self.recorder {
            o.on_run_start(meta);
        }
        if let Some(o) = &mut self.counters {
            o.on_run_start(meta);
        }
        if let Some(o) = &mut self.audit {
            o.on_run_start(meta);
        }
        if let Some(o) = &mut self.profiler {
            o.on_run_start(meta);
        }
    }

    fn on_cycle(&mut self, cycle: u64, per_core: &[f64], uncore: f64, chip: f64) {
        if let Some(o) = &mut self.recorder {
            o.on_cycle(cycle, per_core, uncore, chip);
        }
        if let Some(o) = &mut self.counters {
            o.on_cycle(cycle, per_core, uncore, chip);
        }
        if let Some(o) = &mut self.audit {
            o.on_cycle(cycle, per_core, uncore, chip);
        }
    }

    fn on_dvfs_change(&mut self, cycle: u64, core: usize, v: f64, f: f64, transition_cycles: u64) {
        if let Some(o) = &mut self.recorder {
            o.on_dvfs_change(cycle, core, v, f, transition_cycles);
        }
        if let Some(o) = &mut self.counters {
            o.on_dvfs_change(cycle, core, v, f, transition_cycles);
        }
    }

    fn on_throttle_change(&mut self, cycle: u64, core: usize, throttle: ThrottleObs) {
        if let Some(o) = &mut self.recorder {
            o.on_throttle_change(cycle, core, throttle);
        }
        if let Some(o) = &mut self.counters {
            o.on_throttle_change(cycle, core, throttle);
        }
    }

    fn on_spin_enter(&mut self, cycle: u64, core: usize, kind: SpinKind) {
        if let Some(o) = &mut self.recorder {
            o.on_spin_enter(cycle, core, kind);
        }
        if let Some(o) = &mut self.counters {
            o.on_spin_enter(cycle, core, kind);
        }
    }

    fn on_spin_exit(&mut self, cycle: u64, core: usize) {
        if let Some(o) = &mut self.recorder {
            o.on_spin_exit(cycle, core);
        }
        if let Some(o) = &mut self.counters {
            o.on_spin_exit(cycle, core);
        }
    }

    fn on_mem_retry(&mut self, cycle: u64, core: usize) {
        if let Some(o) = &mut self.recorder {
            o.on_mem_retry(cycle, core);
        }
        if let Some(o) = &mut self.counters {
            o.on_mem_retry(cycle, core);
        }
    }

    fn on_mem_pulse(&mut self, cycle: u64, pulse: &MemPulse) {
        if let Some(o) = &mut self.counters {
            o.on_mem_pulse(cycle, pulse);
        }
    }

    fn wants_phase_timing(&self) -> bool {
        self.profiler.is_some()
    }

    fn on_phase_time(&mut self, phase: Phase, nanos: u64) {
        if let Some(o) = &mut self.recorder {
            o.on_phase_time(phase, nanos);
        }
        if let Some(o) = &mut self.profiler {
            o.on_phase_time(phase, nanos);
        }
    }

    fn on_run_end(&mut self, end: &RunEnd) {
        if let Some(o) = &mut self.recorder {
            o.on_run_end(end);
        }
        if let Some(o) = &mut self.counters {
            o.on_run_end(end);
        }
        if let Some(o) = &mut self.audit {
            o.on_run_end(end);
        }
        if let Some(o) = &mut self.profiler {
            o.on_run_end(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stack_reports_empty() {
        assert!(ObsStack::new().is_empty());
        assert!(!ObsStack::new().with_counters().is_empty());
    }

    #[test]
    fn stack_fans_out_and_merges() {
        let mut s = ObsStack::new()
            .with_recorder(16)
            .with_counters()
            .with_audit(1)
            .with_profiler();
        s.on_run_start(&RunMeta::default());
        s.on_cycle(1, &[1.0, 2.0], 0.25, 3.25);
        s.on_dvfs_change(2, 0, 0.9, 0.8, 60);
        s.on_phase_time(Phase::CoreTick, 500);
        s.on_run_end(&RunEnd {
            cycles: 2,
            energy_tokens: 3.25,
        });
        let mut m = BTreeMap::new();
        s.merge_extra_metrics(&mut m);
        assert_eq!(m["mech.dvfs_transitions"], 1.0);
        assert_eq!(m["obs.audit_checks"], 1.0);
        assert!(m["obs.events_recorded"] >= 1.0);
        assert!(m.contains_key("profile.core_tick_ms"));
        assert!(s.wants_phase_timing());
    }
}
