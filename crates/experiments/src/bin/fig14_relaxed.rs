//! **Figure 14** — Trading accuracy for energy: the relaxed PTB variant
//! (§IV.C) delays triggering local power savings until consumption exceeds
//! the effective budget by +10/20/30 %, across 2–16 cores and both static
//! policies.
//!
//! Expected shape (paper): at 16 cores, relaxing to +20 % turns PTB's
//! ≈ +3 % energy cost into ≈ −4 % savings (matching DVFS) while AoPB stays
//! ≈ 20 % — still far better than DVFS's ≈ 65 %.

use ptb_core::report::{normalized_aopb_pct, normalized_energy_pct};
use ptb_core::{MechanismKind, PtbPolicy};
use ptb_experiments::{emit_partial, job_index, ObsArgs, Runner};
use ptb_metrics::{mean, Table};
use ptb_workloads::Benchmark;

const CORE_COUNTS: [usize; 4] = [2, 4, 8, 16];
const RELAX: [f64; 3] = [0.0, 0.2, 0.3];

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let obs = ObsArgs::parse(&mut args);
    let runner = Runner::from_env_args(&mut args);
    let mut jobs = Vec::new();
    let mut push = |bench, mech, n| {
        if job_index(&jobs, bench, mech, n).is_none() {
            jobs.push(runner.job(bench, mech, n));
        }
    };
    for n in CORE_COUNTS {
        for bench in Benchmark::ALL {
            push(bench, MechanismKind::None, n);
            push(bench, MechanismKind::Dvfs, n);
            for policy in [PtbPolicy::ToOne, PtbPolicy::ToAll] {
                for relax in RELAX {
                    push(bench, MechanismKind::PtbTwoLevel { policy, relax }, n);
                }
            }
        }
    }
    let sweep = obs.run_sweep(&runner, &jobs);
    let find = |bench: Benchmark, mech: MechanismKind, n: usize| -> Option<&ptb_core::RunReport> {
        sweep.get(job_index(&jobs, bench, mech, n).expect("job exists"))
    };

    let mut energy = Table::new(
        "Figure 14 (left): normalized energy delta % vs relaxation, averaged over benchmarks",
        &["config", "DVFS", "PTB+0%", "PTB+20%", "PTB+30%"],
    );
    let mut aopb = Table::new(
        "Figure 14 (right): normalized AoPB % vs relaxation, averaged over benchmarks",
        &["config", "DVFS", "PTB+0%", "PTB+20%", "PTB+30%"],
    );
    for policy in [PtbPolicy::ToOne, PtbPolicy::ToAll] {
        for n in CORE_COUNTS {
            let mut e_row = Vec::new();
            let mut a_row = Vec::new();
            // DVFS reference column.
            let mut es = Vec::new();
            let mut as_ = Vec::new();
            for bench in Benchmark::ALL {
                // Averages are over the benchmarks whose baseline AND
                // mechanism point both survived the sweep.
                let (Some(base), Some(r)) = (
                    find(bench, MechanismKind::None, n),
                    find(bench, MechanismKind::Dvfs, n),
                ) else {
                    continue;
                };
                es.push(normalized_energy_pct(base, r));
                as_.push(normalized_aopb_pct(base, r));
            }
            e_row.push(mean(&es));
            a_row.push(mean(&as_));
            for relax in RELAX {
                let mech = MechanismKind::PtbTwoLevel { policy, relax };
                let mut es = Vec::new();
                let mut as_ = Vec::new();
                for bench in Benchmark::ALL {
                    let (Some(base), Some(r)) =
                        (find(bench, MechanismKind::None, n), find(bench, mech, n))
                    else {
                        continue;
                    };
                    es.push(normalized_energy_pct(base, r));
                    as_.push(normalized_aopb_pct(base, r));
                }
                e_row.push(mean(&es));
                a_row.push(mean(&as_));
            }
            let label = format!("{n}Core_{}", policy.label());
            energy.row_f(&label, &e_row, 1);
            aopb.row_f(&label, &a_row, 1);
        }
    }
    let dropped = sweep.dropped_labels();
    emit_partial(&runner, "fig14_energy", &energy, &dropped);
    emit_partial(&runner, "fig14_aopb", &aopb, &dropped);
}
