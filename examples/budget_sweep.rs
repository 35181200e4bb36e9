//! Budget sweep: how tight can the power constraint get before PTB stops
//! delivering? Sweeps the global budget from 40 % to 90 % of peak on a
//! lock-heavy workload and reports energy / accuracy / performance at each
//! point — the kind of study a packaging team would run before committing
//! to a cheaper thermal solution (paper §I / §IV.D motivation).
//!
//! ```sh
//! cargo run --release -p ptb-core --example budget_sweep
//! ```

use ptb_core::{MechanismKind, PtbPolicy, SimConfig, Simulation};
use ptb_workloads::{Benchmark, Scale};

fn main() {
    let bench = Benchmark::Waternsq;
    let n_cores = 4;
    println!("budget sweep on {bench} ({n_cores} cores, PTB+2level/Dynamic)\n");
    println!(
        "{:>8}  {:>12}  {:>12}  {:>10}  {:>10}",
        "budget%", "energy (J)", "AoPB (J)", "cycles", "over-budget%"
    );
    let spec = bench.spec(n_cores, Scale::Test);
    let mut baseline_cycles = None;
    for budget_pct in [90, 80, 70, 60, 50, 40] {
        let cfg = SimConfig {
            n_cores,
            scale: Scale::Test,
            budget_frac: budget_pct as f64 / 100.0,
            mechanism: MechanismKind::PtbTwoLevel {
                policy: PtbPolicy::Dynamic,
                relax: 0.0,
            },
            ..SimConfig::default()
        };
        let r = Simulation::new(cfg).run_spec(&spec).expect("run");
        let base = *baseline_cycles.get_or_insert(r.cycles);
        println!(
            "{:>8}  {:>12.6}  {:>12.6}  {:>10}  {:>9.1}%   (slowdown vs 90%: {:+.1}%)",
            budget_pct,
            r.energy_joules,
            r.aopb_joules,
            r.cycles,
            r.over_budget_frac() * 100.0,
            100.0 * (r.cycles as f64 / base as f64 - 1.0),
        );
    }
    println!("\nTighter budgets trade performance for power accuracy; PTB keeps");
    println!("the area over the budget small even when the constraint bites.");
}
