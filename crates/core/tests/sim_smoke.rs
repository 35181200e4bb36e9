//! End-to-end simulation tests: full stack (workload → cores → MOESI
//! memory → power model → mechanism) on small inputs.

use ptb_core::sim::SimError;
use ptb_core::{MechanismKind, PtbPolicy, RunReport, SimConfig, Simulation};
use ptb_workloads::{Benchmark, Scale};

fn cfg(n: usize, mech: MechanismKind) -> SimConfig {
    SimConfig {
        n_cores: n,
        scale: Scale::Test,
        mechanism: mech,
        max_cycles: 20_000_000,
        ..SimConfig::default()
    }
}

/// Run `bench` at the config's core count and scale.
fn run(c: SimConfig, bench: Benchmark) -> Result<RunReport, SimError> {
    let spec = bench.spec(c.n_cores, c.scale);
    Simulation::new(c).run_spec(&spec)
}

#[test]
fn baseline_fft_completes_with_sane_report() {
    let r = run(cfg(2, MechanismKind::None), Benchmark::Fft).expect("run");
    assert!(r.cycles > 1000, "suspiciously short run: {}", r.cycles);
    assert!(r.energy_tokens > 0.0);
    assert!(r.mean_power > 0.0);
    assert_eq!(r.n_cores, 2);
    assert_eq!(r.cores.len(), 2);
    for (i, c) in r.cores.iter().enumerate() {
        assert!(
            c.committed > 1000,
            "core {i} committed only {}",
            c.committed
        );
        assert!(c.tokens > 0.0);
    }
    // fft has barriers: some barrier time must be visible.
    let frac = r.breakdown_frac();
    assert!((frac.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(frac[3] > 0.0, "fft must spend time at barriers");
    assert!(frac[0] > 0.5, "fft at 2 cores is mostly busy");
}

#[test]
fn deterministic_runs() {
    let once = || run(cfg(2, MechanismKind::None), Benchmark::Radix).expect("run");
    let a = once();
    let b = once();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.energy_tokens, b.energy_tokens);
    assert_eq!(a.aopb_tokens, b.aopb_tokens);
    assert_eq!(a.cores[0].committed, b.cores[0].committed);
}

#[test]
fn lock_heavy_benchmark_shows_lock_time() {
    let r = run(cfg(4, MechanismKind::None), Benchmark::Unstructured).expect("run");
    let frac = r.breakdown_frac();
    assert!(
        frac[1] > 0.01,
        "unstructured at 4 cores must show lock-acquisition time, got {frac:?}"
    );
    // Spinning happened and burned some power.
    assert!(r.spin_power_frac() > 0.0);
}

#[test]
fn contention_free_benchmark_is_mostly_busy() {
    let r = run(cfg(4, MechanismKind::None), Benchmark::Blackscholes).expect("run");
    let frac = r.breakdown_frac();
    assert!(
        frac[0] > 0.80,
        "blackscholes should be mostly busy: {frac:?}"
    );
    assert!(
        frac[1] < 0.05,
        "blackscholes has no lock contention: {frac:?}"
    );
}

#[test]
fn baseline_exceeds_the_half_peak_budget() {
    // The whole premise: without control, a busy chip spends a sizable
    // fraction of its time over the 50% budget.
    let r = run(cfg(4, MechanismKind::None), Benchmark::Swaptions).expect("run");
    assert!(
        r.over_budget_frac() > 0.2,
        "baseline should exceed the 50% budget regularly, got {:.3}",
        r.over_budget_frac()
    );
    assert!(r.aopb_tokens > 0.0);
}

#[test]
fn dvfs_reduces_aopb_and_slows_down() {
    let base = run(cfg(4, MechanismKind::None), Benchmark::Swaptions).expect("run");
    let dvfs = run(cfg(4, MechanismKind::Dvfs), Benchmark::Swaptions).expect("run");
    assert!(dvfs.aopb_tokens < base.aopb_tokens, "DVFS must reduce AoPB");
    assert!(
        dvfs.cycles >= base.cycles,
        "power capping cannot speed things up"
    );
    assert!(dvfs.energy_tokens < base.energy_tokens * 1.1);
}

#[test]
fn ptb_matches_budget_better_than_dvfs() {
    let mk = |m| run(cfg(4, m), Benchmark::Barnes).expect("run");
    let base = mk(MechanismKind::None);
    let dvfs = mk(MechanismKind::Dvfs);
    let ptb = mk(MechanismKind::PtbTwoLevel {
        policy: PtbPolicy::ToAll,
        relax: 0.0,
    });
    let norm = |r: &RunReport| r.aopb_tokens / base.aopb_tokens;
    assert!(
        norm(&ptb) < norm(&dvfs),
        "PTB AoPB ({:.3}) must beat DVFS ({:.3})",
        norm(&ptb),
        norm(&dvfs)
    );
}

#[test]
fn two_level_clips_spikes_better_than_dvfs_alone() {
    // Swaptions is sustained-busy, so the chip sits over the budget long
    // enough for the windowed mechanisms to engage even at Test scale.
    let mk = |m| run(cfg(4, m), Benchmark::Swaptions).expect("run");
    let base = mk(MechanismKind::None);
    let dvfs = mk(MechanismKind::Dvfs);
    let two = mk(MechanismKind::TwoLevel);
    assert!(two.aopb_tokens < base.aopb_tokens);
    assert!(
        two.aopb_tokens <= dvfs.aopb_tokens * 1.05,
        "2level ({}) should not be much worse than DVFS ({})",
        two.aopb_tokens,
        dvfs.aopb_tokens
    );
}

#[test]
fn trace_capture_produces_samples() {
    let mut c = cfg(2, MechanismKind::None);
    c.capture_trace = true;
    let r = run(c, Benchmark::Fft).expect("run");
    let t = r.trace.expect("trace requested");
    assert_eq!(t.len() as u64, r.cycles.min(4_000_000));
    assert!(t.per_core.len() == 2);
}

#[test]
fn wrong_thread_count_is_rejected() {
    let spec = Benchmark::Fft.spec(3, Scale::Test);
    let err = Simulation::new(cfg(2, MechanismKind::None))
        .run_spec(&spec)
        .unwrap_err();
    assert!(matches!(err, SimError::BadWorkload(_)));
}

#[test]
fn max_cycles_limit_is_enforced() {
    let limited = |max_cycles| {
        let c = SimConfig {
            max_cycles,
            ..cfg(2, MechanismKind::None)
        };
        match run(c, Benchmark::Fft).unwrap_err() {
            SimError::MaxCyclesExceeded { limit, unfinished } => {
                assert_eq!(limit, max_cycles);
                unfinished
            }
            other => panic!("unexpected error: {other}"),
        }
    };
    // Far too few cycles: both cores are still running.
    assert_eq!(limited(500), vec![0, 1]);
    // One cycle short: only core 1, which finishes on the last cycle.
    let full = run(cfg(2, MechanismKind::None), Benchmark::Fft).expect("run");
    assert_eq!(limited(full.cycles - 1), vec![1]);
}

#[test]
fn budget_fraction_changes_the_budget() {
    let tight = SimConfig {
        budget_frac: 0.4,
        ..cfg(2, MechanismKind::None)
    };
    let loose = SimConfig {
        budget_frac: 0.9,
        ..cfg(2, MechanismKind::None)
    };
    let rt = run(tight, Benchmark::X264).expect("run");
    let rl = run(loose, Benchmark::X264).expect("run");
    assert!(rt.budget.global < rl.budget.global);
    assert!(
        rt.aopb_tokens >= rl.aopb_tokens,
        "tighter budget cannot have less overage"
    );
}
