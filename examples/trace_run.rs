//! Observability tour: run one benchmark under PTB with the full
//! observer stack attached — event recorder, counter registry, invariant
//! audit and phase profiler — then write a Chrome/Perfetto trace and
//! print the counters the run produced.
//!
//! ```sh
//! cargo run --release -p ptb-core --example trace_run
//! # then load /tmp/ptb_trace.json in https://ui.perfetto.dev
//! ```

use ptb_core::{MechanismKind, PtbPolicy, SimConfig, Simulation};
use ptb_obs::ObsStack;
use ptb_workloads::{Benchmark, Scale};

fn main() {
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

    // Every component on: a bounded event ring (tracing), named
    // counters, a conservation audit every 64 cycles, and wall-clock
    // phase timing. Unobserved runs should call `run_spec` instead,
    // which uses `NullObserver` and compiles all of this away.
    let mut stack = ObsStack::new()
        .with_recorder(1 << 20)
        .with_counters()
        .with_audit(64)
        .with_profiler();

    let spec = Benchmark::Fft.spec(cfg.n_cores, cfg.scale);
    let mut report = Simulation::new(cfg)
        .run_spec_observed(&spec, &mut stack)
        .expect("simulation failed");
    stack.merge_extra_metrics(&mut report.extra_metrics);

    println!(
        "{} / {} on {} cores: {} cycles, {:.0} tokens",
        report.benchmark, report.mechanism, report.n_cores, report.cycles, report.energy_tokens
    );

    let recorder = stack.recorder.as_ref().expect("recorder attached");
    let path = std::env::temp_dir().join("ptb_trace.json");
    std::fs::write(&path, recorder.chrome_trace_json()).expect("write trace");
    println!(
        "wrote {} trace events ({} dropped) to {}",
        recorder.len(),
        recorder.dropped(),
        path.display()
    );

    let profiler = stack.profiler.as_ref().expect("profiler attached");
    println!("phase profile: {}", profiler.summary());

    println!("counters:");
    for (name, value) in stack.counters.as_ref().expect("counters").as_map() {
        println!("  {name:<36} {value}");
    }
}
