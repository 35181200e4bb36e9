//! Quickstart: run one benchmark under Power Token Balancing and print the
//! paper's headline metrics.
//!
//! ```sh
//! cargo run --release -p ptb-core --example quickstart
//! ```

use ptb_core::{MechanismKind, PtbPolicy, SimConfig, Simulation};
use ptb_workloads::{Benchmark, Scale};

fn main() {
    // A 4-core CMP (Table 1 micro-architecture), 50 % power budget,
    // running the synthetic FFT model under PTB with the dynamic policy
    // selector.
    let cfg = SimConfig {
        n_cores: 4,
        scale: Scale::Test,
        budget_frac: 0.5,
        mechanism: MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::Dynamic,
            relax: 0.0,
        },
        ..SimConfig::default()
    };
    let spec = Benchmark::Fft.spec(cfg.n_cores, cfg.scale);
    let report = Simulation::new(cfg)
        .run_spec(&spec)
        .expect("simulation failed");

    println!("benchmark   : {}", report.benchmark);
    println!("mechanism   : {}", report.mechanism);
    println!("cores       : {}", report.n_cores);
    println!("cycles      : {}", report.cycles);
    println!("instructions: {}", report.committed());
    println!(
        "mean power  : {:.0} tokens/cycle (global budget {:.0})",
        report.mean_power, report.budget.global
    );
    println!("energy      : {:.6} J", report.energy_joules);
    println!(
        "AoPB        : {:.6} J over the budget ({:.1}% of cycles over)",
        report.aopb_joules,
        report.over_budget_frac() * 100.0
    );
    let f = report.breakdown_frac();
    println!(
        "time split  : {:.0}% busy, {:.0}% lock-acq, {:.0}% lock-rel, {:.0}% barrier",
        f[0] * 100.0,
        f[1] * 100.0,
        f[2] * 100.0,
        f[3] * 100.0
    );
    println!(
        "spin power  : {:.1}% of total energy",
        report.spin_power_frac() * 100.0
    );
}
