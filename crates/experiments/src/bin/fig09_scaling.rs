//! **Figure 9** — Normalized energy (left) and AoPB (right) averaged over
//! all benchmarks, for 2/4/8/16 cores and both PTB distribution policies
//! (ToOne, ToAll), comparing DVFS, DFS, 2-level and PTB+2-level.
//!
//! Expected shape (paper): PTB+2level pulls the average AoPB down to
//! ≈ 8–10 % at 16 cores (vs ≥ 65 % for DVFS/DFS) at ≈ +3 % energy, and
//! accuracy improves with core count (more donors available).

use ptb_core::report::{normalized_aopb_pct, normalized_energy_pct};
use ptb_core::{MechanismKind, PtbPolicy};
use ptb_experiments::{emit_partial, job_index, ObsArgs, Runner};
use ptb_metrics::{mean, Table};
use ptb_workloads::Benchmark;

const CORE_COUNTS: [usize; 4] = [2, 4, 8, 16];

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let obs = ObsArgs::parse(&mut args);
    let runner = Runner::from_env_args(&mut args);
    let mechs = |policy: PtbPolicy| {
        [
            MechanismKind::Dvfs,
            MechanismKind::Dfs,
            MechanismKind::TwoLevel,
            MechanismKind::PtbTwoLevel { policy, relax: 0.0 },
        ]
    };

    // Jobs: per policy page, per core count, per benchmark, baseline + 4
    // mechanisms. Baselines and non-PTB mechanisms are shared between the
    // two pages, so each (bench, mech, cores) point is queued once.
    let mut jobs = Vec::new();
    let mut push = |bench, mech, n| {
        if job_index(&jobs, bench, mech, n).is_none() {
            jobs.push(runner.job(bench, mech, n));
        }
    };
    for policy in [PtbPolicy::ToOne, PtbPolicy::ToAll] {
        for n in CORE_COUNTS {
            for bench in Benchmark::ALL {
                push(bench, MechanismKind::None, n);
                for m in mechs(policy) {
                    push(bench, m, n);
                }
            }
        }
    }
    let sweep = obs.run_sweep(&runner, &jobs);
    let find = |bench: Benchmark, mech: MechanismKind, n: usize| -> Option<&ptb_core::RunReport> {
        sweep.get(job_index(&jobs, bench, mech, n).expect("job exists"))
    };

    let mut energy = Table::new(
        "Figure 9 (left): normalized energy delta %, averaged over benchmarks",
        &["config", "DVFS", "DFS", "2level", "PTB+2level"],
    );
    let mut aopb = Table::new(
        "Figure 9 (right): normalized AoPB %, averaged over benchmarks",
        &["config", "DVFS", "DFS", "2level", "PTB+2level"],
    );
    for policy in [PtbPolicy::ToOne, PtbPolicy::ToAll] {
        for n in CORE_COUNTS {
            let mut e_cols = Vec::new();
            let mut a_cols = Vec::new();
            for m in mechs(policy) {
                let mut es = Vec::new();
                let mut as_ = Vec::new();
                for bench in Benchmark::ALL {
                    // Averages are over the benchmarks whose baseline
                    // AND mechanism point both survived the sweep.
                    let (Some(base), Some(r)) =
                        (find(bench, MechanismKind::None, n), find(bench, m, n))
                    else {
                        continue;
                    };
                    es.push(normalized_energy_pct(base, r));
                    as_.push(normalized_aopb_pct(base, r));
                }
                e_cols.push(mean(&es));
                a_cols.push(mean(&as_));
            }
            let label = format!("{n}Core_{}", policy.label());
            energy.row_f(&label, &e_cols, 1);
            aopb.row_f(&label, &a_cols, 1);
        }
    }
    let dropped = sweep.dropped_labels();
    emit_partial(&runner, "fig09_energy", &energy, &dropped);
    emit_partial(&runner, "fig09_aopb", &aopb, &dropped);
}
