//! Zero-cost-when-off observability for the PTB simulator.
//!
//! The simulator's inner loop is hot (one iteration per global 3 GHz
//! reference cycle, tens of millions per run), so observability is
//! structured around a compile-time switch: [`SimObserver`] carries a
//! `const ENABLED` flag, every hook site in `ptb-core` is guarded by
//! `if O::ENABLED { ... }`, and the default [`NullObserver`] sets it to
//! `false` — monomorphisation removes the hook code entirely, so an
//! unobserved run has no hook code left to pay for
//! (`tests/observability.rs` checks that `NullObserver` is disabled at
//! compile time and that observing a run does not change it).
//!
//! Concrete observers, composable through [`ObsStack`]:
//!
//! * [`EventRecorder`] — bounded ring buffer of structured [`Event`]s
//!   with Chrome `trace_event` JSON export (loadable in Perfetto or
//!   `chrome://tracing`): cores appear as tracks, mechanism decisions
//!   as instants, chip power and DVFS modes as counter tracks, spin
//!   episodes as duration spans.
//! * [`CounterRegistry`] — named counters/gauges fed by the hooks (and
//!   by user code), exportable as a `ptb_metrics::Table` CSV and
//!   mergeable into `RunReport::extra_metrics`.
//! * [`AuditObserver`] — checks token-conservation invariants every N
//!   cycles and the energy integral at run end, panicking with context
//!   on the first violation.
//! * [`PhaseProfiler`] — wall-clock time per simulator phase (NoC /
//!   memory tick / core tick / power sample / mechanism control /
//!   observer delivery), with per-sample latency histograms.
//!
//! With the `alloc-telemetry` feature, the [`alloc`] module adds a
//! counting global-allocator wrapper so binaries can report allocs and
//! bytes per simulated kilocycle. That module is the only unsafe code
//! in the crate (a `GlobalAlloc` impl cannot be safe), hence the
//! feature-switched lint below: `forbid` normally, `deny` with a scoped
//! `allow` when the feature is on.

#![cfg_attr(not(feature = "alloc-telemetry"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-telemetry", deny(unsafe_code))]
#![deny(missing_docs)]

#[cfg(feature = "alloc-telemetry")]
pub mod alloc;
mod audit;
mod counters;
mod profile;
mod recorder;
mod stack;

pub use audit::AuditObserver;
pub use counters::CounterRegistry;
pub use profile::PhaseProfiler;
pub use recorder::{Event, EventRecorder};
pub use stack::ObsStack;

use serde::{Deserialize, Serialize};

/// Immutable facts about a run, delivered once at start.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMeta {
    /// Benchmark name.
    pub benchmark: String,
    /// Power-management mechanism name.
    pub mechanism: String,
    /// Number of cores.
    pub n_cores: usize,
    /// Reference clock in Hz (converts cycles to wall time in traces).
    pub freq_hz: f64,
    /// Global chip power budget in tokens per cycle.
    pub budget_tokens: f64,
}

impl Default for RunMeta {
    fn default() -> Self {
        RunMeta {
            benchmark: String::new(),
            mechanism: String::new(),
            n_cores: 0,
            freq_hz: 3.0e9,
            budget_tokens: 0.0,
        }
    }
}

/// Final facts about a run, delivered once at end.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RunEnd {
    /// Total global cycles simulated.
    pub cycles: u64,
    /// Total chip energy in tokens, as accumulated by the simulator.
    pub energy_tokens: f64,
}

/// What a core is spinning on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpinKind {
    /// Spinlock acquisition.
    Lock,
    /// Barrier wait.
    Barrier,
    /// Spinning in an unclassified context.
    Other,
}

impl SpinKind {
    /// Short label used in trace span names.
    pub fn label(self) -> &'static str {
        match self {
            SpinKind::Lock => "spin:lock",
            SpinKind::Barrier => "spin:barrier",
            SpinKind::Other => "spin",
        }
    }
}

/// Micro-architectural throttle state, as reported to observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThrottleObs {
    /// Fetch once every N cycles (1 = unthrottled).
    pub fetch_every: u32,
    /// Issue width cap (`usize::MAX` = unlimited).
    pub issue_width: usize,
    /// Usable ROB entries (`usize::MAX` = unlimited).
    pub rob_cap: usize,
}

impl ThrottleObs {
    /// Compact label like `fetch/2 issue<=3` for instants.
    pub fn label(&self) -> String {
        let mut s = format!("fetch/{}", self.fetch_every);
        if self.issue_width != usize::MAX {
            s.push_str(&format!(" issue<={}", self.issue_width));
        }
        if self.rob_cap != usize::MAX {
            s.push_str(&format!(" rob<={}", self.rob_cap));
        }
        s
    }
}

/// Per-cycle memory-system event deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemPulse {
    /// L1 accesses this cycle.
    pub l1_accesses: u64,
    /// L2 bank accesses this cycle.
    pub l2_accesses: u64,
    /// NoC flit-hops this cycle.
    pub noc_flit_hops: u64,
    /// Off-chip memory accesses this cycle.
    pub mem_accesses: u64,
    /// L1 misses this cycle.
    pub l1_misses: u64,
    /// L2 misses this cycle.
    pub l2_misses: u64,
    /// Coherence invalidations received this cycle.
    pub invalidations: u64,
}

impl MemPulse {
    /// True when nothing happened this cycle (such pulses are skipped).
    pub fn is_empty(&self) -> bool {
        *self == MemPulse::default()
    }
}

/// Simulator phases measured by [`PhaseProfiler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Interconnect advance: mesh routing plus delivery of arrived
    /// messages into the coherence controllers.
    Noc,
    /// Memory event wheel + L1 pipelines + response drain + RMW
    /// execution.
    MemTick,
    /// Frequency-scaled core ticks + memory request forwarding.
    CoreTick,
    /// Power sampling, energy/AoPB accounting, thermal step (net of
    /// observer-hook delivery, which is booked under
    /// [`Phase::Observer`]).
    PowerSample,
    /// Context accounting + mechanism control + action application.
    Mechanism,
    /// Observer-hook delivery cost (pulse assembly, `on_cycle` fan-out)
    /// — the overhead of observation itself, kept out of the simulator
    /// buckets so profiles stay honest.
    Observer,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 6;

    /// All phases, in loop order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Noc,
        Phase::MemTick,
        Phase::CoreTick,
        Phase::PowerSample,
        Phase::Mechanism,
        Phase::Observer,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Noc => "noc",
            Phase::MemTick => "mem_tick",
            Phase::CoreTick => "core_tick",
            Phase::PowerSample => "power_sample",
            Phase::Mechanism => "mechanism",
            Phase::Observer => "observer",
        }
    }

    /// Index into per-phase arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::Noc => 0,
            Phase::MemTick => 1,
            Phase::CoreTick => 2,
            Phase::PowerSample => 3,
            Phase::Mechanism => 4,
            Phase::Observer => 5,
        }
    }
}

/// Hooks the simulator calls at interesting points of a run.
///
/// All hooks have no-op defaults; implement only what you need. Hook
/// sites in `ptb-core` are guarded by `if O::ENABLED`, so an observer
/// with `ENABLED = false` ([`NullObserver`]) compiles to nothing.
#[allow(unused_variables)]
pub trait SimObserver {
    /// Compile-time switch: when `false`, every hook site in the
    /// simulator is eliminated by constant folding.
    const ENABLED: bool = true;

    /// A run is starting.
    fn on_run_start(&mut self, meta: &RunMeta) {}

    /// Per-cycle power sample: per-core tokens, uncore tokens, and the
    /// chip total the simulator accounted.
    fn on_cycle(&mut self, cycle: u64, per_core: &[f64], uncore: f64, chip: f64) {}

    /// The mechanism changed a core's DVFS operating point; the core
    /// stalls for `transition_cycles` while the V/f ramp completes.
    fn on_dvfs_change(&mut self, cycle: u64, core: usize, v: f64, f: f64, transition_cycles: u64) {}

    /// The mechanism changed a core's micro-architectural throttle.
    fn on_throttle_change(&mut self, cycle: u64, core: usize, throttle: ThrottleObs) {}

    /// A core entered a spin loop.
    fn on_spin_enter(&mut self, cycle: u64, core: usize, kind: SpinKind) {}

    /// A core left a spin loop (or finished while spinning).
    fn on_spin_exit(&mut self, cycle: u64, core: usize) {}

    /// A core's memory request was rejected by a full input queue and
    /// will be retried next cycle (backpressure).
    fn on_mem_retry(&mut self, cycle: u64, core: usize) {}

    /// Memory-system activity deltas for this cycle (only called for
    /// non-empty pulses).
    fn on_mem_pulse(&mut self, cycle: u64, pulse: &MemPulse) {}

    /// Whether the simulator should measure wall-clock phase times and
    /// deliver them via [`SimObserver::on_phase_time`]. Checked once per
    /// run; timing costs ~6 `Instant::now()` calls per cycle when on.
    fn wants_phase_timing(&self) -> bool {
        false
    }

    /// Wall-clock nanoseconds just spent in `phase` (one cycle's worth).
    fn on_phase_time(&mut self, phase: Phase, nanos: u64) {}

    /// The run finished.
    fn on_run_end(&mut self, end: &RunEnd) {}
}

/// The default observer: all hooks disabled at compile time.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SimObserver for NullObserver {
    const ENABLED: bool = false;
}

impl<O: SimObserver> SimObserver for &mut O {
    const ENABLED: bool = O::ENABLED;

    fn on_run_start(&mut self, meta: &RunMeta) {
        (**self).on_run_start(meta);
    }
    fn on_cycle(&mut self, cycle: u64, per_core: &[f64], uncore: f64, chip: f64) {
        (**self).on_cycle(cycle, per_core, uncore, chip);
    }
    fn on_dvfs_change(&mut self, cycle: u64, core: usize, v: f64, f: f64, transition_cycles: u64) {
        (**self).on_dvfs_change(cycle, core, v, f, transition_cycles);
    }
    fn on_throttle_change(&mut self, cycle: u64, core: usize, throttle: ThrottleObs) {
        (**self).on_throttle_change(cycle, core, throttle);
    }
    fn on_spin_enter(&mut self, cycle: u64, core: usize, kind: SpinKind) {
        (**self).on_spin_enter(cycle, core, kind);
    }
    fn on_spin_exit(&mut self, cycle: u64, core: usize) {
        (**self).on_spin_exit(cycle, core);
    }
    fn on_mem_retry(&mut self, cycle: u64, core: usize) {
        (**self).on_mem_retry(cycle, core);
    }
    fn on_mem_pulse(&mut self, cycle: u64, pulse: &MemPulse) {
        (**self).on_mem_pulse(cycle, pulse);
    }
    fn wants_phase_timing(&self) -> bool {
        (**self).wants_phase_timing()
    }
    fn on_phase_time(&mut self, phase: Phase, nanos: u64) {
        (**self).on_phase_time(phase, nanos);
    }
    fn on_run_end(&mut self, end: &RunEnd) {
        (**self).on_run_end(end);
    }
}

/// Fan-out to two observers (compose further by nesting tuples).
impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_run_start(&mut self, meta: &RunMeta) {
        self.0.on_run_start(meta);
        self.1.on_run_start(meta);
    }
    fn on_cycle(&mut self, cycle: u64, per_core: &[f64], uncore: f64, chip: f64) {
        self.0.on_cycle(cycle, per_core, uncore, chip);
        self.1.on_cycle(cycle, per_core, uncore, chip);
    }
    fn on_dvfs_change(&mut self, cycle: u64, core: usize, v: f64, f: f64, transition_cycles: u64) {
        self.0.on_dvfs_change(cycle, core, v, f, transition_cycles);
        self.1.on_dvfs_change(cycle, core, v, f, transition_cycles);
    }
    fn on_throttle_change(&mut self, cycle: u64, core: usize, throttle: ThrottleObs) {
        self.0.on_throttle_change(cycle, core, throttle);
        self.1.on_throttle_change(cycle, core, throttle);
    }
    fn on_spin_enter(&mut self, cycle: u64, core: usize, kind: SpinKind) {
        self.0.on_spin_enter(cycle, core, kind);
        self.1.on_spin_enter(cycle, core, kind);
    }
    fn on_spin_exit(&mut self, cycle: u64, core: usize) {
        self.0.on_spin_exit(cycle, core);
        self.1.on_spin_exit(cycle, core);
    }
    fn on_mem_retry(&mut self, cycle: u64, core: usize) {
        self.0.on_mem_retry(cycle, core);
        self.1.on_mem_retry(cycle, core);
    }
    fn on_mem_pulse(&mut self, cycle: u64, pulse: &MemPulse) {
        self.0.on_mem_pulse(cycle, pulse);
        self.1.on_mem_pulse(cycle, pulse);
    }
    fn wants_phase_timing(&self) -> bool {
        self.0.wants_phase_timing() || self.1.wants_phase_timing()
    }
    fn on_phase_time(&mut self, phase: Phase, nanos: u64) {
        self.0.on_phase_time(phase, nanos);
        self.1.on_phase_time(phase, nanos);
    }
    fn on_run_end(&mut self, end: &RunEnd) {
        self.0.on_run_end(end);
        self.1.on_run_end(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled<O: SimObserver>() -> bool {
        O::ENABLED
    }

    #[test]
    fn null_observer_is_disabled() {
        assert!(!enabled::<NullObserver>());
        assert!(!enabled::<&mut NullObserver>());
        assert!(!enabled::<(NullObserver, NullObserver)>());
        assert!(enabled::<(NullObserver, CounterRegistry)>());
    }

    #[test]
    fn phase_index_round_trips() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn throttle_label_omits_unlimited_parts() {
        let t = ThrottleObs {
            fetch_every: 2,
            issue_width: usize::MAX,
            rob_cap: usize::MAX,
        };
        assert_eq!(t.label(), "fetch/2");
        let t = ThrottleObs {
            fetch_every: 3,
            issue_width: 2,
            rob_cap: 64,
        };
        assert_eq!(t.label(), "fetch/3 issue<=2 rob<=64");
    }
}
