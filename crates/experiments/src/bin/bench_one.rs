//! Quick probe: run one benchmark at one core count under every
//! mechanism and print the headline metrics (used for calibration and as
//! a smoke check before long sweeps).
//!
//! Args: `bench_one [benchmark] [cores]`, plus the shared observability
//! flags (`--trace-out`, `--metrics-out`, `--profile`, `--audit` — see
//! `ptb_experiments::obs`), which apply to the baseline run. `cores`
//! must lie in `1..=64`. Unobserved runs may be answered from the result
//! farm, so the output carries no speed; `sim_throughput` measures that.

use ptb_core::report::{normalized_aopb_pct, normalized_energy_pct, slowdown_pct};
use ptb_core::{MechanismKind, PtbPolicy};
use ptb_experiments::{cores_or_exit, ObsArgs, Runner};
use ptb_workloads::Benchmark;

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let obs = ObsArgs::parse(&mut args);
    let runner = Runner::from_env_args(&mut args);
    let bench = args
        .get(1)
        .and_then(|s| Benchmark::from_name(s))
        .unwrap_or(Benchmark::Fft);
    let cores = cores_or_exit("cores", args.get(2).map(String::as_str));
    let base_sweep = obs.run_sweep(&runner, &[runner.job(bench, MechanismKind::None, cores)]);
    let Some(base) = base_sweep.get(0) else {
        // Quarantined under --keep-going: nothing to normalise against.
        std::process::exit(1);
    };
    println!(
        "{} {}c base: {} cycles, {} committed, mean power {:.0} (budget {:.0}), over-budget {:.0}%, spin-power {:.1}%",
        bench,
        cores,
        base.cycles,
        base.committed(),
        base.mean_power,
        base.budget.global,
        base.over_budget_frac() * 100.0,
        base.spin_power_frac() * 100.0,
    );
    let mechs = [
        MechanismKind::Dvfs,
        MechanismKind::Dfs,
        MechanismKind::TwoLevel,
        MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::ToAll,
            relax: 0.0,
        },
        MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::ToOne,
            relax: 0.0,
        },
        MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::Dynamic,
            relax: 0.0,
        },
        MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::ToAll,
            relax: 0.2,
        },
    ];
    let sweep = runner.sweep(&mechs.map(|mech| runner.job(bench, mech, cores)));
    for (i, mech) in mechs.iter().enumerate() {
        let Some(r) = sweep.get(i) else {
            continue; // quarantined under --keep-going
        };
        println!(
            "  {:<24} energy {:+6.1}%  AoPB {:6.1}%  slowdown {:+6.1}%  stddev {:.0}",
            mech.label(),
            normalized_energy_pct(base, r),
            normalized_aopb_pct(base, r),
            slowdown_pct(base, r),
            r.power_stddev,
        );
    }
}
