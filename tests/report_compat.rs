//! `RunReport` forward/backward compatibility: JSON written before the
//! `extra_metrics` field existed, and JSON written by a *future* schema
//! with fields this build does not know, must both load without loss of
//! the known data and without panicking — otherwise a farm store could
//! not be shared across versions at all.

use ptb_core::budget::BudgetSpec;
use ptb_core::report::CoreReport;
use ptb_core::{MechanismKind, RunReport, SimConfig};
use ptb_farm::{binfmt, Farm, FarmJob};
use ptb_power::PowerParams;
use ptb_uarch::CoreConfig;
use ptb_workloads::{Benchmark, Scale};
use serde::{json, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

fn sample_report(extra: bool) -> RunReport {
    let mut extra_metrics = BTreeMap::new();
    if extra {
        extra_metrics.insert("mech.dvfs_transitions".to_string(), 42.0);
        extra_metrics.insert("farm.note".to_string(), 0.5);
    }
    RunReport {
        benchmark: "fft".into(),
        mechanism: "base".into(),
        n_cores: 2,
        cycles: 1000,
        budget: BudgetSpec::new(&PowerParams::default(), &CoreConfig::default(), 2, 0.5),
        energy_tokens: 200.0,
        energy_joules: 1.5,
        aopb_tokens: 50.0,
        aopb_joules: 0.25,
        mean_power: 80.0,
        power_stddev: 4.5,
        cycles_over_budget: 100,
        max_temp_c: 71.25,
        mean_temp_c: 60.5,
        temp_stddev_c: 1.125,
        cores: vec![
            CoreReport {
                ctx_cycles: [600, 200, 100, 100],
                spin_cycles: 250,
                spin_tokens: 10.0,
                tokens: 100.0,
                committed: 900,
                mispredict_rate: 0.0625,
                ptht_error: 0.0078125,
            };
            2
        ],
        trace: None,
        extra_metrics,
    }
}

fn as_object(v: Value) -> serde::Map {
    match v {
        Value::Object(m) => m,
        other => panic!("expected object, got {other:?}"),
    }
}

#[test]
fn report_without_extra_metrics_field_still_loads() {
    // Simulates JSON written before `extra_metrics` existed.
    let mut obj = as_object(sample_report(false).to_value());
    assert!(obj.remove("extra_metrics").is_some());
    let back = RunReport::from_value(&Value::Object(obj)).expect("legacy JSON loads");
    assert!(back.extra_metrics.is_empty());
    assert_eq!(back.cycles, 1000);
    assert_eq!(back.cores.len(), 2);
}

#[test]
fn report_with_extra_metrics_round_trips_without_loss() {
    let report = sample_report(true);
    let text = json::to_string(&report.to_value());
    let back: RunReport = json::from_str(&text).expect("round trip");
    assert_eq!(back.to_value(), report.to_value(), "no field lost");
    assert_eq!(back.extra_metrics.get("mech.dvfs_transitions"), Some(&42.0));
}

#[test]
fn unknown_fields_are_tolerated_not_fatal() {
    // Simulates JSON written by a future schema: extra fields at both
    // the report and per-core level must be ignored, not a panic/error.
    let mut obj = as_object(sample_report(true).to_value());
    obj.insert("future_field".into(), Value::Str("ignore me".into()));
    obj.insert("schema_hint".into(), Value::U64(99));
    let cores = obj.get("cores").and_then(Value::as_array).unwrap().clone();
    let mut core0 = as_object(cores[0].clone());
    core0.insert("future_core_stat".into(), Value::F64(1.5));
    obj.insert(
        "cores".into(),
        Value::Array(vec![Value::Object(core0), cores[1].clone()]),
    );
    let back = RunReport::from_value(&Value::Object(obj)).expect("unknown fields ignored");
    assert_eq!(back.cycles, 1000);
    assert_eq!(back.cores[0].spin_cycles, 250);
}

#[test]
fn store_round_trip_preserves_reports_and_tolerates_unknown_envelope_fields() {
    let dir = std::env::temp_dir().join(format!("ptb-compat-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let farm = Farm::open(&dir).expect("open farm");
    let job = FarmJob::new(
        Benchmark::Fft,
        SimConfig {
            n_cores: 2,
            scale: Scale::Test,
            mechanism: MechanismKind::None,
            ..SimConfig::default()
        },
    );
    let key = job.key();
    let report = sample_report(true);
    farm.store().put(&key, &job, &report).expect("store");

    // Inject an unknown field into the stored job, as a future writer
    // might, and reseal the frame.
    let path = farm.store().path_for(&key).expect("content key");
    let bytes = std::fs::read(&path).unwrap();
    let env = binfmt::decode(&bytes).expect("stored frame decodes");
    let mut job_v = as_object(json::parse(env.job_json).unwrap());
    job_v.insert("written_by".into(), Value::Str("ptb-farm vNext".into()));
    let frame = binfmt::encode(
        &key,
        &json::to_string(&Value::Object(job_v)),
        env.report_json,
    );
    std::fs::write(&path, frame).unwrap();

    match farm.store().get(&key, &job) {
        ptb_farm::StoreLookup::Hit(back) => {
            assert_eq!(
                back.to_value(),
                report.to_value(),
                "lossless through the store"
            );
        }
        other => panic!("expected hit, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
