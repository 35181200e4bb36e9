//! **Figure 4** — Power wasted while spinning, normalized to total power,
//! for every benchmark at 2–16 cores.
//!
//! Expected shape (paper): grows with core count, ≈ 10 % on average at 16
//! cores — enough to matter, not enough to match a 50 % budget on its own
//! (the argument for balancing power generally rather than only exploiting
//! spinning).

use ptb_core::MechanismKind;
use ptb_experiments::{emit_partial, ObsArgs, Runner};
use ptb_metrics::{mean, Table};
use ptb_workloads::Benchmark;

const CORE_COUNTS: [usize; 4] = [2, 4, 8, 16];

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let obs = ObsArgs::parse(&mut args);
    let runner = Runner::from_env_args(&mut args);
    let mut jobs = Vec::new();
    for bench in Benchmark::ALL {
        for n in CORE_COUNTS {
            jobs.push(runner.job(bench, MechanismKind::None, n));
        }
    }
    let sweep = obs.run_sweep(&runner, &jobs);

    let mut table = Table::new(
        "Figure 4: spinlock power as % of total power, per benchmark and core count",
        &["bench", "2", "4", "8", "16"],
    );
    let mut per_count: Vec<Vec<f64>> = vec![Vec::new(); CORE_COUNTS.len()];
    for (bi, bench) in Benchmark::ALL.iter().enumerate() {
        // The row spans one bench across all core counts; keep it only
        // when every count simulated (a gap would skew the column Avg.).
        let Some(row) = sweep.row(bi * CORE_COUNTS.len(), CORE_COUNTS.len()) else {
            continue;
        };
        let vals: Vec<f64> = row
            .iter()
            .enumerate()
            .map(|(ci, r)| {
                let v = r.spin_power_frac() * 100.0;
                per_count[ci].push(v);
                v
            })
            .collect();
        table.row_f(bench.name(), &vals, 2);
    }
    table.row_f(
        "Avg.",
        &per_count.iter().map(|c| mean(c)).collect::<Vec<_>>(),
        2,
    );
    emit_partial(&runner, "fig04_spin_power", &table, &sweep.dropped_labels());
}
