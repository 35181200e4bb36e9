//! **Figure 3** — Execution-time breakdown (lock-acquisition, lock-release,
//! barrier, busy) for every benchmark at 2, 4, 8 and 16 cores, no power
//! mechanism.
//!
//! Expected shape (paper): spinning time grows with core count;
//! unstructured/fluidanimate show large Lock-Acq fractions;
//! cholesky/blackscholes/swaptions/x264 show almost no contention.

use ptb_core::MechanismKind;
use ptb_experiments::{emit_partial, ObsArgs, Runner};
use ptb_metrics::Table;
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
        "Figure 3: execution-time breakdown (%), per benchmark and core count",
        &["bench", "cores", "lock-acq", "lock-rel", "barrier", "busy"],
    );
    for (bi, bench) in Benchmark::ALL.iter().enumerate() {
        for (ci, n) in CORE_COUNTS.iter().enumerate() {
            // Points are independent here (no shared baseline), so drop
            // only the failed point, not the whole bench.
            let Some(r) = sweep.get(bi * CORE_COUNTS.len() + ci) else {
                continue;
            };
            let f = r.breakdown_frac();
            table.row(vec![
                bench.name().to_string(),
                n.to_string(),
                format!("{:.1}", f[1] * 100.0),
                format!("{:.1}", f[2] * 100.0),
                format!("{:.1}", f[3] * 100.0),
                format!("{:.1}", f[0] * 100.0),
            ]);
        }
    }
    emit_partial(&runner, "fig03_breakdown", &table, &sweep.dropped_labels());
}
