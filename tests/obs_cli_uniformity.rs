//! Source-level checks over the experiment binaries in
//! `crates/experiments/src/bin`:
//!
//! * every figure binary must accept the shared observability flags
//!   (`--trace-out`/`--metrics-out`/`--profile`/`--audit`) through
//!   `ObsArgs::parse`, so the flag set stays uniform across the CLI
//!   surface instead of silently ignored by some binaries. Exempt are
//!   the non-figure utilities with their own argv contracts: `farm_ctl`
//!   (subcommand CLI over an existing store — no simulation of its own)
//!   and `sim_check` (the fuzzer, driven by the validation harness);
//! * every simulated point goes through the result farm: a binary may
//!   name `Simulation` only for a reason listed in [`LIVE_RUNS`].

use std::path::Path;

/// Binaries allowed to skip `ObsArgs::parse`.
const EXEMPT: &[&str] = &["farm_ctl.rs", "sim_check.rs"];

/// Binaries allowed to run `Simulation` directly instead of submitting
/// `FarmJob`s through `Runner::sweep`, each for the reason beside it.
const LIVE_RUNS: &[&str] = &[
    "fig05_power_trace.rs", // its report carries a per-cycle power trace
    "fig06_spin_trace.rs",  // its report carries a per-cycle spin trace
    "sim_throughput.rs",    // it times live runs
];

/// `(file name, source)` of every binary in `src/bin`.
fn binary_sources() -> Vec<(String, String)> {
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&bin_dir).expect("list src/bin") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_owned();
        if name.ends_with(".rs") {
            let src = std::fs::read_to_string(&path).expect("read binary source");
            out.push((name, src));
        }
    }
    out
}

#[test]
fn every_figure_binary_parses_the_shared_obs_flags() {
    let mut missing = Vec::new();
    let mut seen = 0usize;
    for (name, src) in binary_sources() {
        if EXEMPT.contains(&name.as_str()) {
            continue;
        }
        seen += 1;
        if !src.contains("ObsArgs::parse") {
            missing.push(name);
        }
    }
    assert!(
        seen >= 17,
        "expected at least 17 non-exempt binaries, found {seen} — \
         if binaries moved, update this test"
    );
    assert!(
        missing.is_empty(),
        "binaries ignoring the shared obs flags (wire ObsArgs::parse \
         or add to EXEMPT with a rationale): {missing:?}"
    );
}

#[test]
fn only_listed_binaries_simulate_outside_the_farm() {
    let offenders: Vec<String> = binary_sources()
        .into_iter()
        .filter(|(name, src)| src.contains("Simulation") && !LIVE_RUNS.contains(&name.as_str()))
        .map(|(name, _)| name)
        .collect();
    assert!(
        offenders.is_empty(),
        "binaries that run `Simulation` directly (build FarmJobs and run \
         them through Runner::sweep, or add to LIVE_RUNS with a reason): \
         {offenders:?}"
    );
}
