//! **Figure 5** — Per-cycle CMP power against the global budget (the
//! motivation plot: even when the chip is over budget, individual cores
//! sit under their local share, so a global mechanism can rebalance).
//!
//! Prints a window of the trace as (cycle, chip power, per-core power,
//! budget) rows; the CSV holds the full captured window. Accepts the
//! shared observability flags (`--trace-out`, `--metrics-out`,
//! `--profile`, `--audit` — see `ptb_experiments::obs`).

use ptb_core::{MechanismKind, SimConfig, Simulation};
use ptb_experiments::{emit, ObsArgs, Runner};
use ptb_metrics::{Histogram, Table};
use ptb_workloads::Benchmark;

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let obs = ObsArgs::parse(&mut args);
    let runner = Runner::from_env_args(&mut args);
    let n = 4; // small CMP so per-core curves are readable, as in Fig. 5
    let cfg = SimConfig {
        n_cores: n,
        scale: runner.scale,
        mechanism: MechanismKind::None,
        capture_trace: true,
        ..SimConfig::default()
    };
    let spec = Benchmark::Barnes.spec(cfg.n_cores, cfg.scale);
    let sim = Simulation::new(cfg);
    let report = if obs.enabled() {
        let mut stack = obs.stack();
        let mut r = sim.run_spec_observed(&spec, &mut stack).expect("run");
        stack.merge_extra_metrics(&mut r.extra_metrics);
        obs.finish(&stack);
        r
    } else {
        sim.run_spec(&spec).expect("run")
    };
    let trace = report.trace.as_ref().expect("trace captured");

    let mut headers: Vec<String> = vec!["cycle".into(), "chip".into(), "budget".into()];
    headers.extend((0..n).map(|c| format!("core{c}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        format!(
            "Figure 5: per-cycle power (tokens/cycle) vs global budget ({:.0}), {}-core barnes",
            report.budget.global, n
        ),
        &header_refs,
    );
    // Sample a mid-run window, decimated for the text table.
    let start = trace.len() / 2;
    let end = (start + 4000).min(trace.len());
    for i in (start..end).step_by(50) {
        let mut row = vec![
            i.to_string(),
            format!("{:.0}", trace.chip[i]),
            format!("{:.0}", report.budget.global),
        ];
        for c in 0..n {
            row.push(format!("{:.0}", trace.per_core[c][i]));
        }
        table.row(row);
    }
    emit(&runner, "fig05_power_trace", &table);

    // Headline check: of the cycles where the chip is over budget, how
    // many have a donor (a core under its local share)? This is PTB's
    // opportunity window.
    let mut over_cycles = 0usize;
    let mut opportunity = 0usize;
    for i in 0..trace.len() {
        if f64::from(trace.chip[i]) > report.budget.global {
            over_cycles += 1;
            if (0..n).any(|c| f64::from(trace.per_core[c][i]) < report.budget.local) {
                opportunity += 1;
            }
        }
    }
    println!(
        "over-budget cycles with a donor available: {} / {} ({:.1}%)",
        opportunity,
        over_cycles.max(1),
        100.0 * opportunity as f64 / over_cycles.max(1) as f64
    );

    // Chip power distribution relative to the budget.
    let mut hist = Histogram::new(0.0, report.budget.peak_chip, 64);
    for &p in &trace.chip {
        hist.record(f64::from(p));
    }
    println!(
        "chip power: mean {:.0}, p50 {:.0}, p90 {:.0}, p99 {:.0} tokens/cycle; {:.1}% of cycles over the {:.0}-token budget",
        hist.mean(),
        hist.quantile(0.5),
        hist.quantile(0.9),
        hist.quantile(0.99),
        hist.frac_at_least(report.budget.global) * 100.0,
        report.budget.global,
    );
}
