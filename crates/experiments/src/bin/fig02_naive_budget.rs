//! **Figure 2** — Normalized energy (left) and AoPB (right) for a 16-core
//! CMP with a 50 % power budget, using the *naive* equal split of the
//! global budget: DVFS, DFS and the 2-level hybrid applied per core.
//!
//! Expected shape (paper): energies within ±10 % of baseline; average AoPB
//! stuck around 40–50 % (2-level best), with Ocean/Radix especially bad
//! (≈ 70–80 %) because synchronisation makes per-core budgets the wrong
//! unit — the motivation for PTB.

use ptb_core::MechanismKind;
use ptb_experiments::{emit_partial, ObsArgs, Runner};
use ptb_metrics::{mean, Table};
use ptb_workloads::Benchmark;

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let obs = ObsArgs::parse(&mut args);
    let runner = Runner::from_env_args(&mut args);
    let n = runner.default_cores();
    let mechs = [
        MechanismKind::Dvfs,
        MechanismKind::Dfs,
        MechanismKind::TwoLevel,
    ];

    let mut jobs = Vec::new();
    for bench in Benchmark::ALL {
        jobs.push(runner.job(bench, MechanismKind::None, n));
        for m in mechs {
            jobs.push(runner.job(bench, m, n));
        }
    }
    let sweep = obs.run_sweep(&runner, &jobs);

    let mut energy = Table::new(
        format!(
            "Figure 2 (left): normalized energy delta %, {n}-core CMP, 50% budget, naive split"
        ),
        &["bench", "DVFS", "DFS", "2level"],
    );
    let mut aopb = Table::new(
        format!("Figure 2 (right): normalized AoPB %, {n}-core CMP, 50% budget, naive split"),
        &["bench", "DVFS", "DFS", "2level"],
    );
    let stride = 1 + mechs.len();
    let mut cols_energy = vec![Vec::new(); mechs.len()];
    let mut cols_aopb = vec![Vec::new(); mechs.len()];
    for (bi, bench) in Benchmark::ALL.iter().enumerate() {
        // Complete rows only: a bench whose baseline or any mechanism
        // point was quarantined is dropped (named in the footer).
        let Some(row) = sweep.row(bi * stride, stride) else {
            continue;
        };
        let base = row[0];
        let mut evals = Vec::new();
        let mut avals = Vec::new();
        for (mi, _) in mechs.iter().enumerate() {
            let r = row[1 + mi];
            let e = ptb_core::report::normalized_energy_pct(base, r);
            let a = ptb_core::report::normalized_aopb_pct(base, r);
            evals.push(e);
            avals.push(a);
            cols_energy[mi].push(e);
            cols_aopb[mi].push(a);
        }
        energy.row_f(bench.name(), &evals, 1);
        aopb.row_f(bench.name(), &avals, 1);
    }
    energy.row_f(
        "Avg.",
        &cols_energy.iter().map(|c| mean(c)).collect::<Vec<_>>(),
        1,
    );
    aopb.row_f(
        "Avg.",
        &cols_aopb.iter().map(|c| mean(c)).collect::<Vec<_>>(),
        1,
    );

    let dropped = sweep.dropped_labels();
    emit_partial(&runner, "fig02_energy", &energy, &dropped);
    emit_partial(&runner, "fig02_aopb", &aopb, &dropped);
}
