//! Bounded event recording and Chrome `trace_event` export.

use crate::{Phase, RunMeta, SimObserver, SpinKind, ThrottleObs};
use serde::{json, Deserialize, Map, Serialize, Value};
use std::collections::VecDeque;

/// One recorded simulator event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Strided power sample (chip + uncore tokens for one cycle).
    CycleSample {
        /// Global cycle.
        cycle: u64,
        /// Chip total tokens this cycle.
        chip: f64,
        /// Uncore share of the total.
        uncore: f64,
    },
    /// A core's DVFS operating point changed.
    DvfsChange {
        /// Global cycle.
        cycle: u64,
        /// Core index.
        core: usize,
        /// New voltage (fraction of nominal).
        v: f64,
        /// New frequency (fraction of nominal).
        f: f64,
        /// Stall cycles charged for the transition.
        transition_cycles: u64,
    },
    /// A core's micro-architectural throttle changed.
    ThrottleChange {
        /// Global cycle.
        cycle: u64,
        /// Core index.
        core: usize,
        /// New throttle state.
        throttle: ThrottleObs,
    },
    /// A core entered a spin loop.
    SpinEnter {
        /// Global cycle.
        cycle: u64,
        /// Core index.
        core: usize,
        /// What it spins on.
        kind: SpinKind,
    },
    /// A core left a spin loop.
    SpinExit {
        /// Global cycle.
        cycle: u64,
        /// Core index.
        core: usize,
    },
    /// A memory request hit input-queue backpressure.
    MemRetry {
        /// Global cycle.
        cycle: u64,
        /// Core index.
        core: usize,
    },
    /// Host nanoseconds per simulator phase, accumulated since the
    /// previous `PhaseTimes` event (indexed by [`Phase::index`]).
    PhaseTimes {
        /// Global cycle the window ended on.
        cycle: u64,
        /// Accumulated nanoseconds, one entry per [`Phase::ALL`].
        nanos: Vec<u64>,
    },
}

impl Event {
    /// The cycle this event happened on.
    pub fn cycle(&self) -> u64 {
        match *self {
            Event::CycleSample { cycle, .. }
            | Event::DvfsChange { cycle, .. }
            | Event::ThrottleChange { cycle, .. }
            | Event::SpinEnter { cycle, .. }
            | Event::SpinExit { cycle, .. }
            | Event::MemRetry { cycle, .. } => cycle,
            Event::PhaseTimes { cycle, .. } => cycle,
        }
    }
}

/// A bounded ring buffer of [`Event`]s with Chrome-trace export.
///
/// Capacity is fixed at construction; once full, the **oldest** events
/// are dropped (and counted in [`EventRecorder::dropped`]), so a trace
/// always covers the tail of a run — usually the interesting part when
/// debugging why a run ended the way it did. Power samples are recorded
/// every `sample_stride` cycles to keep counter tracks light; mechanism
/// decisions, spin transitions and retries are recorded unconditionally.
#[derive(Debug, Clone)]
pub struct EventRecorder {
    meta: RunMeta,
    events: VecDeque<Event>,
    capacity: usize,
    sample_stride: u64,
    dropped: u64,
    end_cycle: u64,
    phase_acc: [u64; Phase::COUNT],
    phase_dirty: bool,
}

impl EventRecorder {
    /// Recorder holding at most `capacity` events, sampling power every
    /// 64 cycles.
    pub fn new(capacity: usize) -> Self {
        EventRecorder {
            meta: RunMeta::default(),
            events: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity: capacity.max(1),
            sample_stride: 64,
            dropped: 0,
            end_cycle: 0,
            phase_acc: [0; Phase::COUNT],
            phase_dirty: false,
        }
    }

    /// Emit the accumulated phase-time window as a `PhaseTimes` event
    /// (no-op when nothing accumulated since the last flush).
    fn flush_phase_times(&mut self, cycle: u64) {
        if self.phase_dirty {
            self.push(Event::PhaseTimes {
                cycle,
                nanos: self.phase_acc.to_vec(),
            });
            self.phase_acc = [0; Phase::COUNT];
            self.phase_dirty = false;
        }
    }

    /// Set the power-sample stride (1 = every cycle; runs keep the
    /// default of 64).
    #[cfg(test)]
    pub fn with_sample_stride(mut self, stride: u64) -> Self {
        self.sample_stride = stride.max(1);
        self
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Record one event, evicting the oldest on overflow.
    pub fn push(&mut self, ev: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    fn ts_us(&self, cycle: u64) -> f64 {
        cycle as f64 * 1.0e6 / self.meta.freq_hz
    }

    /// Render the buffer as a Chrome `trace_event` JSON object
    /// (`chrome://tracing` / Perfetto "JSON" format): cores become
    /// threads of process 0, power and DVFS modes become counter
    /// tracks, mechanism decisions become instants, spin episodes
    /// become duration spans.
    pub fn chrome_trace(&self) -> Value {
        let mut events: Vec<Value> = Vec::with_capacity(self.events.len() + self.meta.n_cores + 2);
        events.push(metadata_event("process_name", 0, None, "ptb-sim"));
        for c in 0..self.meta.n_cores {
            events.push(metadata_event(
                "thread_name",
                0,
                Some(c),
                &format!("core {c}"),
            ));
        }
        // Spin spans must nest correctly even though the ring buffer may
        // have evicted an enter: track open spans per core.
        let mut open_spin: Vec<bool> = vec![false; self.meta.n_cores];
        for ev in &self.events {
            let ts = self.ts_us(ev.cycle());
            match ev {
                Event::CycleSample { chip, uncore, .. } => {
                    let mut args = Map::new();
                    args.insert("chip".into(), Value::F64(*chip));
                    args.insert("uncore".into(), Value::F64(*uncore));
                    events.push(counter_event("chip tokens", ts, args));
                }
                Event::DvfsChange {
                    core,
                    v,
                    f,
                    transition_cycles,
                    ..
                } => {
                    let mut args = Map::new();
                    args.insert("f".into(), Value::F64(*f));
                    events.push(counter_event(&format!("core {core} dvfs f"), ts, args));
                    let mut args = Map::new();
                    args.insert("v".into(), Value::F64(*v));
                    args.insert("f".into(), Value::F64(*f));
                    args.insert("transition_cycles".into(), Value::U64(*transition_cycles));
                    events.push(instant_event(
                        &format!("dvfs v={v:.2} f={f:.2}"),
                        ts,
                        *core,
                        args,
                    ));
                }
                Event::ThrottleChange { core, throttle, .. } => {
                    let mut args = Map::new();
                    args.insert(
                        "fetch_every".into(),
                        Value::U64(u64::from(throttle.fetch_every)),
                    );
                    events.push(instant_event(
                        &format!("throttle {}", throttle.label()),
                        ts,
                        *core,
                        args,
                    ));
                }
                Event::SpinEnter { core, kind, .. } => {
                    if *core < open_spin.len() && !open_spin[*core] {
                        open_spin[*core] = true;
                        events.push(span_event("B", kind.label(), ts, *core));
                    }
                }
                Event::SpinExit { core, .. } => {
                    if *core < open_spin.len() && open_spin[*core] {
                        open_spin[*core] = false;
                        events.push(span_event("E", "", ts, *core));
                    }
                }
                Event::MemRetry { core, .. } => {
                    events.push(instant_event(
                        "mem backpressure retry",
                        ts,
                        *core,
                        Map::new(),
                    ));
                }
                Event::PhaseTimes { nanos, .. } => {
                    let mut args = Map::new();
                    for p in Phase::ALL {
                        args.insert(
                            p.name().into(),
                            Value::U64(nanos.get(p.index()).copied().unwrap_or(0)),
                        );
                    }
                    events.push(counter_event("host phase ns", ts, args));
                }
            }
        }
        // Close any span left open at the end of the buffer.
        let end_ts = self.ts_us(
            self.end_cycle
                .max(self.events.back().map(Event::cycle).unwrap_or(0)),
        );
        for (core, open) in open_spin.iter().enumerate() {
            if *open {
                events.push(span_event("E", "", end_ts, core));
            }
        }

        let mut other = Map::new();
        other.insert("benchmark".into(), Value::Str(self.meta.benchmark.clone()));
        other.insert("mechanism".into(), Value::Str(self.meta.mechanism.clone()));
        other.insert("n_cores".into(), Value::U64(self.meta.n_cores as u64));
        other.insert("budget_tokens".into(), Value::F64(self.meta.budget_tokens));
        other.insert("dropped_events".into(), Value::U64(self.dropped));

        let mut root = Map::new();
        root.insert("traceEvents".into(), Value::Array(events));
        root.insert("displayTimeUnit".into(), Value::Str("ms".into()));
        root.insert("otherData".into(), Value::Object(other));
        Value::Object(root)
    }

    /// [`EventRecorder::chrome_trace`] rendered to a JSON string.
    pub fn chrome_trace_json(&self) -> String {
        json::to_string(&self.chrome_trace())
    }
}

fn base_event(name: &str, ph: &str, ts: f64) -> Map {
    let mut m = Map::new();
    m.insert("name".into(), Value::Str(name.to_owned()));
    m.insert("ph".into(), Value::Str(ph.to_owned()));
    m.insert("pid".into(), Value::U64(0));
    m.insert("ts".into(), Value::F64(ts));
    m
}

fn metadata_event(name: &str, pid: u64, tid: Option<usize>, arg_name: &str) -> Value {
    let mut m = Map::new();
    m.insert("name".into(), Value::Str(name.to_owned()));
    m.insert("ph".into(), Value::Str("M".into()));
    m.insert("pid".into(), Value::U64(pid));
    if let Some(t) = tid {
        m.insert("tid".into(), Value::U64(t as u64));
    }
    let mut args = Map::new();
    args.insert("name".into(), Value::Str(arg_name.to_owned()));
    m.insert("args".into(), Value::Object(args));
    Value::Object(m)
}

fn counter_event(name: &str, ts: f64, args: Map) -> Value {
    let mut m = base_event(name, "C", ts);
    m.insert("args".into(), Value::Object(args));
    Value::Object(m)
}

fn instant_event(name: &str, ts: f64, core: usize, args: Map) -> Value {
    let mut m = base_event(name, "i", ts);
    m.insert("tid".into(), Value::U64(core as u64));
    m.insert("s".into(), Value::Str("t".into()));
    m.insert("args".into(), Value::Object(args));
    Value::Object(m)
}

fn span_event(ph: &str, name: &str, ts: f64, core: usize) -> Value {
    let mut m = base_event(name, ph, ts);
    m.insert("tid".into(), Value::U64(core as u64));
    Value::Object(m)
}

impl SimObserver for EventRecorder {
    fn on_run_start(&mut self, meta: &RunMeta) {
        self.meta = meta.clone();
    }

    fn on_cycle(&mut self, cycle: u64, _per_core: &[f64], uncore: f64, chip: f64) {
        if cycle.is_multiple_of(self.sample_stride) {
            self.push(Event::CycleSample {
                cycle,
                chip,
                uncore,
            });
            self.flush_phase_times(cycle);
        }
    }

    fn on_dvfs_change(&mut self, cycle: u64, core: usize, v: f64, f: f64, transition_cycles: u64) {
        self.push(Event::DvfsChange {
            cycle,
            core,
            v,
            f,
            transition_cycles,
        });
    }

    fn on_throttle_change(&mut self, cycle: u64, core: usize, throttle: ThrottleObs) {
        self.push(Event::ThrottleChange {
            cycle,
            core,
            throttle,
        });
    }

    fn on_spin_enter(&mut self, cycle: u64, core: usize, kind: SpinKind) {
        self.push(Event::SpinEnter { cycle, core, kind });
    }

    fn on_spin_exit(&mut self, cycle: u64, core: usize) {
        self.push(Event::SpinExit { cycle, core });
    }

    fn on_mem_retry(&mut self, cycle: u64, core: usize) {
        self.push(Event::MemRetry { cycle, core });
    }

    fn on_phase_time(&mut self, phase: Phase, nanos: u64) {
        self.phase_acc[phase.index()] += nanos;
        self.phase_dirty = true;
    }

    fn on_run_end(&mut self, end: &crate::RunEnd) {
        self.end_cycle = end.cycles;
        self.flush_phase_times(end.cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunEnd;

    fn meta(n: usize) -> RunMeta {
        RunMeta {
            benchmark: "test".into(),
            mechanism: "none".into(),
            n_cores: n,
            freq_hz: 3.0e9,
            budget_tokens: 100.0,
        }
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut r = EventRecorder::new(4).with_sample_stride(1);
        r.on_run_start(&meta(2));
        for cycle in 1..=10 {
            r.on_cycle(cycle, &[1.0, 2.0], 0.5, 3.5);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.events().next().unwrap().cycle(), 7);
    }

    #[test]
    fn chrome_trace_structure() {
        let mut r = EventRecorder::new(64).with_sample_stride(1);
        r.on_run_start(&meta(2));
        r.on_cycle(1, &[1.0, 2.0], 0.5, 3.5);
        r.on_spin_enter(2, 1, SpinKind::Lock);
        r.on_dvfs_change(3, 0, 0.9, 0.8, 60);
        r.on_throttle_change(
            3,
            0,
            ThrottleObs {
                fetch_every: 2,
                issue_width: usize::MAX,
                rob_cap: usize::MAX,
            },
        );
        r.on_spin_exit(4, 1);
        r.on_run_end(&RunEnd {
            cycles: 5,
            energy_tokens: 12.0,
        });
        let v = r.chrome_trace();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        // 1 process + 2 thread metadata + sample + B + 2 dvfs + throttle + E
        assert_eq!(evs.len(), 9);
        let phases: Vec<&str> = evs
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, ["M", "M", "M", "C", "B", "C", "i", "i", "E"]);
        // Every non-metadata event carries a numeric ts.
        for e in evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() != Some("M"))
        {
            assert!(e.get("ts").unwrap().as_f64().is_some());
        }
    }

    #[test]
    fn phase_times_flush_into_counter_track() {
        let mut r = EventRecorder::new(64).with_sample_stride(2);
        r.on_run_start(&meta(1));
        r.on_phase_time(Phase::MemTick, 300);
        r.on_phase_time(Phase::CoreTick, 700);
        r.on_cycle(1, &[1.0], 0.5, 1.5); // off-stride: no flush
        r.on_phase_time(Phase::CoreTick, 1_000);
        r.on_cycle(2, &[1.0], 0.5, 1.5); // strided: sample + flush
        r.on_run_end(&RunEnd {
            cycles: 3,
            energy_tokens: 0.0,
        });
        let times: Vec<&Event> = r
            .events()
            .filter(|e| matches!(e, Event::PhaseTimes { .. }))
            .collect();
        assert_eq!(times.len(), 1, "one flush at the strided sample");
        match times[0] {
            Event::PhaseTimes { cycle, nanos } => {
                assert_eq!(*cycle, 2);
                assert_eq!(nanos[Phase::MemTick.index()], 300);
                assert_eq!(nanos[Phase::CoreTick.index()], 1_700);
            }
            _ => unreachable!(),
        }
        let v = r.chrome_trace();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        let host = evs
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("host phase ns"))
            .expect("host phase counter track");
        let args = host.get("args").unwrap();
        assert_eq!(args.get("core_tick").unwrap().as_u64(), Some(1_700));
        assert_eq!(args.get("noc").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn dangling_spin_span_is_closed() {
        let mut r = EventRecorder::new(8);
        r.on_run_start(&meta(1));
        r.on_spin_enter(10, 0, SpinKind::Barrier);
        r.on_run_end(&RunEnd {
            cycles: 42,
            energy_tokens: 0.0,
        });
        let v = r.chrome_trace();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        let ends: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("E"))
            .collect();
        assert_eq!(ends.len(), 1);
        // Closed at the run-end timestamp, not the event's.
        let ts = ends[0].get("ts").unwrap().as_f64().unwrap();
        assert!((ts - 42.0 * 1.0e6 / 3.0e9).abs() < 1e-12);
    }
}
