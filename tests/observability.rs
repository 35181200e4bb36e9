//! Observability-layer integration tests: serde round trips for the
//! report types, a golden parse-back of the Chrome trace export, and a
//! full observed simulation through `ObsStack`.

use ptb_core::trace::PowerTrace;
use ptb_core::{MechanismKind, PtbPolicy, RunReport, SimConfig, Simulation};
use ptb_obs::{NullObserver, ObsStack, SimObserver};
use ptb_workloads::{Benchmark, Scale};
use serde::json;

fn cfg(n: usize, mech: MechanismKind) -> SimConfig {
    SimConfig {
        n_cores: n,
        scale: Scale::Test,
        mechanism: mech,
        ..SimConfig::default()
    }
}

/// Run `bench` at the config's core count and scale through `obs`.
fn observe<O: SimObserver>(c: SimConfig, bench: Benchmark, obs: &mut O) -> RunReport {
    let spec = bench.spec(c.n_cores, c.scale);
    Simulation::new(c)
        .run_spec_observed(&spec, obs)
        .expect("run")
}

fn ptb() -> MechanismKind {
    MechanismKind::PtbTwoLevel {
        policy: PtbPolicy::ToAll,
        relax: 0.0,
    }
}

#[test]
fn run_report_survives_json_round_trip() {
    let trace_cfg = SimConfig {
        capture_trace: true,
        ..cfg(2, ptb())
    };
    let mut report = observe(trace_cfg, Benchmark::Fft, &mut NullObserver);
    report.extra_metrics.insert("test.metric".into(), 42.5);

    let s = json::to_string(&report);
    let back: RunReport = json::from_str(&s).expect("parse back");
    assert_eq!(back.benchmark, report.benchmark);
    assert_eq!(back.mechanism, report.mechanism);
    assert_eq!(back.cycles, report.cycles);
    assert_eq!(back.energy_tokens, report.energy_tokens);
    assert_eq!(back.cores.len(), report.cores.len());
    assert_eq!(back.cores[0].committed, report.cores[0].committed);
    assert_eq!(back.extra_metrics["test.metric"], 42.5);
    let t = report.trace.as_ref().expect("trace");
    let bt = back.trace.as_ref().expect("trace back");
    assert_eq!(bt.len(), t.len());
    assert_eq!(bt.chip, t.chip);
}

#[test]
fn run_report_without_extra_metrics_still_parses() {
    // Reports serialized before `extra_metrics` existed must load.
    let report = observe(
        cfg(2, MechanismKind::None),
        Benchmark::Radix,
        &mut NullObserver,
    );
    let s = json::to_string(&report);
    let stripped = s.replace(",\"extra_metrics\":{}", "");
    assert_ne!(stripped, s, "field should have been present");
    let back: RunReport = json::from_str(&stripped).expect("parse without field");
    assert!(back.extra_metrics.is_empty());
    assert_eq!(back.cycles, report.cycles);
}

#[test]
fn power_trace_survives_json_round_trip() {
    let mut t = PowerTrace::new(2, 3, 100);
    for cycle in 0..30 {
        t.record(cycle, cycle as f64 * 1.5, &[0.5, 1.0]);
    }
    let s = json::to_string(&t);
    let back: PowerTrace = json::from_str(&s).expect("parse back");
    assert_eq!(back.stride, t.stride);
    assert_eq!(back.chip, t.chip);
    assert_eq!(back.per_core, t.per_core);
}

#[test]
fn chrome_trace_parses_back_with_expected_structure() {
    let mut stack = ObsStack::new().with_recorder(1 << 16);
    observe(cfg(2, ptb()), Benchmark::Fft, &mut stack);
    let rec = stack.recorder.as_ref().expect("recorder");
    assert!(!rec.is_empty(), "no events recorded");

    let parsed = json::parse(&rec.chrome_trace_json()).expect("valid JSON");
    let json::Value::Object(top) = parsed else {
        panic!("top level must be an object");
    };
    let json::Value::Array(events) = &top["traceEvents"] else {
        panic!("traceEvents must be an array");
    };
    assert!(!events.is_empty());
    // Every event carries the mandatory trace_event keys, and the
    // stream opens with process/thread metadata.
    let mut phases = std::collections::BTreeSet::new();
    for ev in events {
        let json::Value::Object(e) = ev else {
            panic!("event must be an object");
        };
        let json::Value::Str(ph) = &e["ph"] else {
            panic!("ph must be a string");
        };
        assert!(e.contains_key("name"));
        assert!(e.contains_key("pid"));
        phases.insert(ph.clone());
    }
    let json::Value::Object(first) = &events[0] else {
        unreachable!()
    };
    assert_eq!(first["ph"], json::Value::Str("M".into()));
    assert!(
        phases.contains("C"),
        "counter events expected, got {phases:?}"
    );
}

#[test]
fn observed_run_matches_unobserved_run() {
    // The observer must not perturb the simulation itself.
    let plain = observe(cfg(2, ptb()), Benchmark::Ocean, &mut NullObserver);
    let mut stack = ObsStack::new()
        .with_recorder(1 << 16)
        .with_counters()
        .with_audit(64);
    let observed = observe(cfg(2, ptb()), Benchmark::Ocean, &mut stack);
    assert_eq!(plain.cycles, observed.cycles);
    assert_eq!(plain.energy_tokens, observed.energy_tokens);
    assert_eq!(plain.committed(), observed.committed());
}

#[test]
fn full_stack_populates_counters_and_audit_passes() {
    let mut stack = ObsStack::new()
        .with_recorder(1 << 16)
        .with_counters()
        .with_audit(32);
    let mut report = observe(cfg(4, ptb()), Benchmark::Barnes, &mut stack);
    stack.merge_extra_metrics(&mut report.extra_metrics);

    let counters = stack.counters.as_ref().expect("counters");
    assert_eq!(counters.get("run.cycles"), Some(report.cycles as f64));
    assert_eq!(counters.get("run.n_cores"), Some(4.0));
    let energy = counters.get("run.energy_tokens").expect("energy counter");
    assert!((energy - report.energy_tokens).abs() < 1e-6 * report.energy_tokens);

    // The audit (token conservation + energy integral) ran and passed.
    let audit = stack.audit.as_ref().expect("audit");
    assert!(audit.checks() > 0);

    assert!(report.extra_metrics.contains_key("obs.events_recorded"));
    assert!(report.extra_metrics["obs.events_recorded"] >= 1.0);
}

#[test]
fn null_observer_is_disabled_at_compile_time() {
    fn enabled<O: SimObserver>() -> bool {
        O::ENABLED
    }
    assert!(!enabled::<NullObserver>());
    // And a run through it equals the plain entry point.
    let spec = Benchmark::Fft.spec(2, Scale::Test);
    let sim = Simulation::new(cfg(2, MechanismKind::Dvfs));
    let a = sim.run_spec(&spec).expect("run");
    let b = sim
        .run_spec_observed(&spec, &mut NullObserver)
        .expect("run");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.energy_tokens, b.energy_tokens);
}
