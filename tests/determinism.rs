//! Determinism regression tests: the correctness precondition for the
//! `ptb-farm` result cache. A cached report may be substituted for a
//! fresh simulation only if the same `SimConfig` + seed always produces
//! the **byte-identical serialised** `RunReport` — not just the same
//! headline numbers.

use ptb_core::{MechanismKind, PtbPolicy, SimConfig, Simulation};
use ptb_farm::FarmJob;
use ptb_workloads::{Benchmark, Scale};
use serde::{json, Serialize};

fn cfg(n_cores: usize, mechanism: MechanismKind) -> SimConfig {
    SimConfig {
        n_cores,
        scale: Scale::Test,
        mechanism,
        ..SimConfig::default()
    }
}

fn serialised(config: &SimConfig, bench: Benchmark) -> String {
    let spec = bench.spec(config.n_cores, config.scale);
    let report = Simulation::new(config.clone())
        .run_spec(&spec)
        .expect("run");
    json::to_string(&report.to_value())
}

#[test]
fn same_config_and_seed_give_byte_identical_reports() {
    let points = [
        (Benchmark::Fft, cfg(2, MechanismKind::None)),
        (Benchmark::Radix, cfg(4, MechanismKind::Dvfs)),
        (
            Benchmark::Barnes,
            cfg(
                4,
                MechanismKind::PtbTwoLevel {
                    policy: PtbPolicy::ToAll,
                    relax: 0.0,
                },
            ),
        ),
    ];
    for (bench, config) in points {
        let a = serialised(&config, bench);
        let b = serialised(&config, bench);
        assert_eq!(
            a,
            b,
            "{bench} under {} must be deterministic",
            config.mechanism.label()
        );
    }
}

#[test]
fn farm_job_simulate_is_deterministic_too() {
    // The farm's execution path (FarmJob::simulate) must agree with the
    // direct Simulation path it caches for.
    let job = FarmJob::new(Benchmark::Ocean, cfg(2, MechanismKind::Dfs));
    let via_farm = json::to_string(&job.simulate().to_value());
    let direct = serialised(&job.config, Benchmark::Ocean);
    assert_eq!(via_farm, direct);
}

#[test]
fn seed_changes_change_the_report() {
    // Sanity check that the determinism above is not vacuous: a
    // different workload seed must actually perturb the simulation.
    let config = cfg(2, MechanismKind::None);
    let mut spec = Benchmark::Fft.spec(2, Scale::Test);
    let baseline = Simulation::new(config.clone())
        .run_spec(&spec)
        .expect("run");
    spec.seed ^= 0xdead_beef;
    let reseeded = Simulation::new(config).run_spec(&spec).expect("run");
    assert_ne!(
        json::to_string(&baseline.to_value()),
        json::to_string(&reseeded.to_value())
    );
}
