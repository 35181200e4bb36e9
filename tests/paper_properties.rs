//! Paper-shape property tests: the qualitative claims of the evaluation
//! section must hold on small runs. These are the "does the reproduction
//! reproduce" gates (see EXPERIMENTS.md for the full-scale numbers).

use ptb_core::report::normalized_aopb_pct;
use ptb_core::{MechanismKind, PtbPolicy, SimConfig, Simulation};
use ptb_workloads::{Benchmark, Scale};

fn run(n: usize, bench: Benchmark, mech: MechanismKind) -> ptb_core::RunReport {
    let cfg = SimConfig {
        n_cores: n,
        scale: Scale::Test,
        mechanism: mech,
        ..SimConfig::default()
    };
    let spec = bench.spec(n, Scale::Test);
    Simulation::new(cfg).run_spec(&spec).expect("run")
}

/// §IV.A headline: PTB matches the budget more accurately than DVFS and
/// DFS on a lock/barrier-heavy workload.
#[test]
fn ptb_beats_dvfs_and_dfs_on_accuracy() {
    let bench = Benchmark::Waternsq;
    let base = run(4, bench, MechanismKind::None);
    let dvfs = normalized_aopb_pct(&base, &run(4, bench, MechanismKind::Dvfs));
    let dfs = normalized_aopb_pct(&base, &run(4, bench, MechanismKind::Dfs));
    let ptb = normalized_aopb_pct(
        &base,
        &run(
            4,
            bench,
            MechanismKind::PtbTwoLevel {
                policy: PtbPolicy::ToAll,
                relax: 0.0,
            },
        ),
    );
    assert!(ptb < dvfs, "PTB {ptb:.1}% must beat DVFS {dvfs:.1}%");
    assert!(ptb < dfs, "PTB {ptb:.1}% must beat DFS {dfs:.1}%");
}

/// §II.A: DFS saves less power than DVFS at the same frequency ladder, so
/// it must be *less* accurate (higher AoPB) for the same control law.
#[test]
fn dfs_is_less_accurate_than_dvfs() {
    let bench = Benchmark::Swaptions;
    let base = run(4, bench, MechanismKind::None);
    let dvfs = normalized_aopb_pct(&base, &run(4, bench, MechanismKind::Dvfs));
    let dfs = normalized_aopb_pct(&base, &run(4, bench, MechanismKind::Dfs));
    assert!(dfs >= dvfs, "DFS {dfs:.1}% cannot beat DVFS {dvfs:.1}%");
}

/// §IV.C: relaxing the accuracy constraint must not *increase* energy.
#[test]
fn relaxed_ptb_trades_accuracy_for_energy() {
    let bench = Benchmark::Barnes;
    let strict = run(
        4,
        bench,
        MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::ToAll,
            relax: 0.0,
        },
    );
    let relaxed = run(
        4,
        bench,
        MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::ToAll,
            relax: 0.3,
        },
    );
    // Relaxation throttles later, so it cannot be slower than strict PTB by
    // more than noise.
    assert!(
        relaxed.cycles <= strict.cycles + strict.cycles / 20,
        "relaxed PTB should not run slower: {} vs {}",
        relaxed.cycles,
        strict.cycles
    );
}

/// §III.B: the paper's < 1 % figure is the error of quantising
/// per-instruction *base* power into 8 k-means classes versus exact
/// joules — in this reproduction the class table is the ground truth, so
/// that error is zero by construction. What we measure here is a harsher
/// quantity the paper does not report: the PTHT's last-execution
/// *prediction* error, which includes ROB-residency variance (cache
/// hits/misses, queueing). It must stay bounded so the fetch-time power
/// estimate remains usable.
#[test]
fn ptht_prediction_error_is_bounded() {
    let r = run(2, Benchmark::Swaptions, MechanismKind::None);
    for (i, c) in r.cores.iter().enumerate() {
        assert!(
            c.ptht_error < 0.80,
            "core {i} PTHT relative prediction error {:.3} too high",
            c.ptht_error
        );
        assert!(c.ptht_error.is_finite());
    }
}

/// Figure 4's premise: spin power alone is a small slice of total power —
/// too little to meet a 50 % budget by spin-gating only (the paper's
/// argument for *general* balancing).
#[test]
fn spin_power_alone_cannot_match_the_budget() {
    let r = run(4, Benchmark::Fluidanimate, MechanismKind::None);
    let spin = r.spin_power_frac();
    assert!(
        spin < 0.5,
        "spin power should be a minority share, got {spin:.2}"
    );
    // But the budget deficit is real: the baseline spends time over budget.
    assert!(r.over_budget_frac() > 0.0);
}

/// PTB is "transparent for thread-independent workloads" (§I): on a
/// contention-free benchmark it behaves like the 2-level baseline, within
/// noise, because there are rarely donors.
#[test]
fn ptb_is_transparent_without_contention() {
    let bench = Benchmark::Swaptions;
    let base = run(4, bench, MechanismKind::None);
    let two = normalized_aopb_pct(&base, &run(4, bench, MechanismKind::TwoLevel));
    let ptb = normalized_aopb_pct(
        &base,
        &run(
            4,
            bench,
            MechanismKind::PtbTwoLevel {
                policy: PtbPolicy::ToAll,
                relax: 0.0,
            },
        ),
    );
    // PTB should be at least as accurate; per-cycle enforcement and the
    // occasional memory-stall donor keep it ahead or equal.
    assert!(
        ptb <= two + 15.0,
        "PTB ({ptb:.1}) far off 2level ({two:.1}) without contention"
    );
}

/// The power std-dev claim: PTB holds the chip steadier around the budget
/// than uncontrolled execution.
#[test]
fn ptb_reduces_power_variance() {
    let bench = Benchmark::Barnes;
    let base = run(4, bench, MechanismKind::None);
    let ptb = run(
        4,
        bench,
        MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::Dynamic,
            relax: 0.0,
        },
    );
    assert!(
        ptb.power_stddev < base.power_stddev,
        "PTB stddev {:.0} must undercut baseline {:.0}",
        ptb.power_stddev,
        base.power_stddev
    );
}

/// Conclusion-section claim: PTB's accuracy yields "a more stable
/// temperature over execution time". The lumped-RC thermal model must
/// show a lower per-core temperature standard deviation under PTB than
/// without power control.
#[test]
fn ptb_stabilises_temperature() {
    let bench = Benchmark::Barnes;
    let base = run(4, bench, MechanismKind::None);
    let ptb = run(
        4,
        bench,
        MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::Dynamic,
            relax: 0.0,
        },
    );
    assert!(
        ptb.temp_stddev_c <= base.temp_stddev_c,
        "PTB temp stddev {:.3} must not exceed baseline {:.3}",
        ptb.temp_stddev_c,
        base.temp_stddev_c
    );
    assert!(
        ptb.max_temp_c <= base.max_temp_c + 0.5,
        "PTB must not raise peak temperature"
    );
    // Temperatures must be physically plausible.
    assert!(base.mean_temp_c > 40.0 && base.mean_temp_c < 110.0);
}
