//! Workspace-level integration tests: exercise the full public API surface
//! the way the examples and the experiment harness do.

use ptb_core::report::{normalized_aopb_pct, normalized_energy_pct, slowdown_pct};
use ptb_core::sim::SimError;
use ptb_core::{MechanismKind, PtbConfig, PtbPolicy, RunReport, SimConfig, Simulation};
use ptb_isa::{BlockGenConfig, LockId};
use ptb_metrics::{cores_within_tdp, mean, Table};
use ptb_workloads::{
    stmt::{flatten, Stmt},
    Benchmark, Scale, WorkloadSpec,
};

fn cfg(n: usize, mech: MechanismKind) -> SimConfig {
    SimConfig {
        n_cores: n,
        scale: Scale::Test,
        mechanism: mech,
        ..SimConfig::default()
    }
}

/// Run `bench` at the config's core count and scale.
fn run(c: SimConfig, bench: Benchmark) -> Result<RunReport, SimError> {
    let spec = bench.spec(c.n_cores, c.scale);
    Simulation::new(c).run_spec(&spec)
}

#[test]
fn every_benchmark_runs_to_completion_at_two_cores() {
    for bench in Benchmark::ALL {
        let r = run(cfg(2, MechanismKind::None), bench).unwrap_or_else(|e| panic!("{bench}: {e}"));
        assert!(r.cycles > 0, "{bench} produced an empty run");
        assert!(r.committed() > 0);
        assert!(r.energy_tokens > 0.0);
        // Every thread must have committed work.
        for (i, c) in r.cores.iter().enumerate() {
            assert!(c.committed > 0, "{bench} core {i} committed nothing");
        }
    }
}

#[test]
fn report_feeds_metrics_pipeline() {
    let base = run(cfg(2, MechanismKind::None), Benchmark::X264).expect("run");
    let mech = run(cfg(2, MechanismKind::Dvfs), Benchmark::X264).expect("run");
    // The three normalisations the figures use are finite and consistent.
    let e = normalized_energy_pct(&base, &mech);
    let a = normalized_aopb_pct(&base, &mech);
    let s = slowdown_pct(&base, &mech);
    assert!(e.is_finite() && a.is_finite() && s.is_finite());
    assert!(a >= 0.0, "normalized AoPB cannot be negative");
    // And they compose into the table/CSV layer without panicking.
    let mut t = Table::new("smoke", &["bench", "energy", "aopb", "slowdown"]);
    t.row_f(&mech.benchmark, &[e, a, s], 2);
    let txt = t.to_text();
    assert!(txt.contains("x264"));
    assert!(t.to_csv().lines().count() >= 3);
    // Mean over a column is what the Avg. rows use.
    assert!(mean(&[e, a]).is_finite());
}

#[test]
fn custom_workload_through_public_api() {
    // A user-authored workload: producer/consumer around one lock.
    let program_a = flatten(&[
        Stmt::Compute {
            profile: 0,
            count: 400,
        },
        Stmt::Repeat {
            times: 3,
            body: vec![
                Stmt::Lock(LockId(0)),
                Stmt::Compute {
                    profile: 0,
                    count: 50,
                },
                Stmt::Unlock(LockId(0)),
            ],
        },
    ]);
    let spec = WorkloadSpec {
        name: "custom".into(),
        programs: vec![program_a.clone(), program_a],
        profiles: vec![BlockGenConfig::default()],
        lock_kind: Default::default(),
        seed: 1,
    };
    let r = Simulation::new(cfg(
        2,
        MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::ToOne,
            relax: 0.0,
        },
    ))
    .run_spec(&spec)
    .expect("run");
    assert_eq!(r.benchmark, "custom");
    // Both threads acquired the lock 3 times each; the breakdown must show
    // some lock activity.
    assert!(r.breakdown_frac()[1] > 0.0 || r.breakdown_frac()[2] > 0.0);
}

#[test]
fn ptb_config_knobs_are_respected() {
    // A pessimistic 10x balancer latency must not break anything (paper
    // §III.E.2 tests a pessimistic 10-cycle delay).
    let mut c = cfg(
        2,
        MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::ToAll,
            relax: 0.0,
        },
    );
    c.ptb = PtbConfig {
        latency_override: Some(30),
        wire_bits: 2,
        overhead_frac: 0.02,
        ..PtbConfig::default()
    };
    let r = run(c, Benchmark::Watersp).expect("run");
    assert!(r.cycles > 0);
}

#[test]
fn tdp_math_consumes_measured_errors() {
    let base = run(cfg(2, MechanismKind::None), Benchmark::Swaptions).expect("run");
    let ptb = run(
        cfg(
            2,
            MechanismKind::PtbTwoLevel {
                policy: PtbPolicy::Dynamic,
                relax: 0.0,
            },
        ),
        Benchmark::Swaptions,
    )
    .expect("run");
    let err = normalized_aopb_pct(&base, &ptb) / 100.0;
    let cores = cores_within_tdp(100.0, 3.125, err);
    assert!(
        cores >= 16,
        "even a poor mechanism fits the original 16 cores, got {cores}"
    );
    assert!(cores <= 32, "cannot beat the ideal packing");
}

#[test]
fn mechanisms_do_not_change_architectural_work() {
    // Power control changes *when* things happen, never *what* executes:
    // committed instruction counts are identical across mechanisms.
    let count = |mech| {
        run(cfg(2, mech), Benchmark::Blackscholes)
            .expect("run")
            .committed()
    };
    let base = count(MechanismKind::None);
    // Blackscholes has (almost) no spinning, so committed counts must be
    // very close (spin iterations can differ slightly with timing).
    let dvfs = count(MechanismKind::Dvfs);
    let ptb = count(MechanismKind::PtbTwoLevel {
        policy: PtbPolicy::ToAll,
        relax: 0.0,
    });
    // Compute work is identical; only spin iterations at the final
    // barrier vary with timing.
    let tol = base / 20; // 5%
    assert!(
        dvfs.abs_diff(base) <= tol,
        "DVFS changed work: {base} vs {dvfs}"
    );
    assert!(
        ptb.abs_diff(base) <= tol,
        "PTB changed work: {base} vs {ptb}"
    );
}

#[test]
fn core_count_scaling_shows_more_spinning() {
    // Figure 3's headline: spinning grows with the core count.
    let spin_frac = |n: usize| {
        let r = run(cfg(n, MechanismKind::None), Benchmark::Radix).expect("run");
        let spin: u64 = r.cores.iter().map(|c| c.spin_cycles).sum();
        spin as f64 / (r.cycles as f64 * n as f64)
    };
    let at2 = spin_frac(2);
    let at8 = spin_frac(8);
    assert!(
        at8 > at2,
        "radix spinning must grow with cores: 2c {at2:.3} vs 8c {at8:.3}"
    );
}

#[test]
fn spin_gated_ptb_saves_energy_on_contended_workload() {
    // The paper's future-work extension: gating detected spinners should
    // save energy relative to plain PTB on a lock-heavy benchmark.
    let bench = Benchmark::Unstructured;
    let ptb = run(
        cfg(
            4,
            MechanismKind::PtbTwoLevel {
                policy: PtbPolicy::ToAll,
                relax: 0.0,
            },
        ),
        bench,
    )
    .expect("run");
    let gated = run(
        cfg(
            4,
            MechanismKind::PtbSpinGate {
                policy: PtbPolicy::ToAll,
                relax: 0.0,
            },
        ),
        bench,
    )
    .expect("run");
    assert!(
        gated.energy_tokens <= ptb.energy_tokens * 1.02,
        "spin gating must not cost energy: {} vs {}",
        gated.energy_tokens,
        ptb.energy_tokens
    );
    assert!(gated.cycles > 0);
}

#[test]
fn clustered_balancer_runs_a_32_core_cmp() {
    // §III.E.2's scalability proposal: replicate the balancer per group of
    // 16 cores for CMPs beyond the paper's sizes.
    let mut c = cfg(
        32,
        MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::ToAll,
            relax: 0.0,
        },
    );
    c.ptb.cluster_size = Some(16);
    let r = run(c, Benchmark::Watersp).expect("run");
    assert_eq!(r.n_cores, 32);
    assert!(r.committed() > 0);
    // All 32 threads finished the same program.
    for (i, core) in r.cores.iter().enumerate() {
        assert!(core.committed > 0, "core {i} idle");
    }
}
