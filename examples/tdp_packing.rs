//! The paper's §IV.D argument, end to end: measure each mechanism's actual
//! budget-matching error on a live simulation, then compute how many cores
//! would fit in a fixed TDP with that error — the business case for
//! accuracy.
//!
//! ```sh
//! cargo run --release -p ptb-core --example tdp_packing
//! ```

use ptb_core::report::normalized_aopb_pct;
use ptb_core::{MechanismKind, PtbPolicy, SimConfig, Simulation};
use ptb_metrics::cores_within_tdp;
use ptb_workloads::{Benchmark, Scale};

fn main() {
    let n_cores = 4;
    let bench = Benchmark::Barnes;
    let spec = bench.spec(n_cores, Scale::Test);
    let mk = |mech| {
        let cfg = SimConfig {
            n_cores,
            scale: Scale::Test,
            mechanism: mech,
            ..SimConfig::default()
        };
        Simulation::new(cfg).run_spec(&spec).expect("run")
    };
    let base = mk(MechanismKind::None);

    // §IV.D arithmetic: 100 W TDP, 16 cores, 50% budget -> 3.125 W/core.
    let tdp = 100.0;
    let per_core_budget = 3.125;

    println!("measured on {bench} ({n_cores} cores), then applied to the paper's");
    println!("100 W / 16-core / 50% budget example:\n");
    println!(
        "{:<24} {:>12} {:>14} {:>14}",
        "mechanism", "AoPB err %", "actual W/core", "cores @100W"
    );
    for mech in [
        MechanismKind::Dvfs,
        MechanismKind::TwoLevel,
        MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::Dynamic,
            relax: 0.0,
        },
    ] {
        let r = mk(mech);
        let err = normalized_aopb_pct(&base, &r) / 100.0;
        println!(
            "{:<24} {:>12.1} {:>14.3} {:>14}",
            r.mechanism,
            err * 100.0,
            per_core_budget * (1.0 + err),
            cores_within_tdp(tdp, per_core_budget, err),
        );
    }
    println!(
        "{:<24} {:>12.1} {:>14.3} {:>14}",
        "ideal", 0.0, per_core_budget, 32
    );
    println!("\nEvery point of budget-matching error is a core you cannot ship.");
}
