//! # ptb-experiments — figure/table regeneration harness
//!
//! One binary per paper artefact (see `DESIGN.md` §4 for the index). All
//! binaries share this library: a sweep [`Runner`] that builds each
//! figure point as a [`FarmJob`] ([`Runner::job`]) and runs a batch of
//! them through the `ptb-farm` store and executor ([`Runner::sweep`]),
//! plus output helpers that print the paper's rows/series as aligned
//! text and drop a CSV next to it.
//!
//! Environment knobs (all optional):
//! * `PTB_SCALE` — `test` | `small` (default) | `large`;
//! * `PTB_JOBS` — worker threads (default: available parallelism;
//!   `0` is rejected);
//! * `PTB_OUT` — output directory for `.txt`/`.csv` artefacts
//!   (default `target/figures`);
//! * `PTB_CORES` — override the core count of single-core-count figures
//!   (`1..=64`; a value outside it is rejected, an unparsable one warns
//!   and gives 16);
//! * `PTB_FARM_DIR` — `ptb-farm` result store location (default
//!   `target/farm`); previously simulated points load from it instead
//!   of re-simulating, so re-running figure binaries is incremental;
//! * `PTB_NO_CACHE` — set to disable the farm entirely;
//! * `PTB_KEEP_GOING` — `1` is `--keep-going`, `0` `--fail-fast`;
//! * `PTB_JOB_TIMEOUT` — the `--job-timeout` watchdog, in seconds.
//!
//! Every binary also accepts `--no-cache` and `--farm-dir PATH` flags
//! (see [`Runner::from_env_args`]) and the `farm_ctl` binary inspects,
//! resumes, verifies, or garbage-collects a farm store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod obs;
pub mod runner;

pub use obs::ObsArgs;
pub use runner::{cores_or_exit, emit, emit_partial, Runner, Sweep};

use ptb_core::report::{normalized_aopb_pct, normalized_energy_pct, slowdown_pct};
use ptb_core::{MechanismKind, PtbPolicy};
use ptb_farm::FarmJob;
use ptb_metrics::{mean, Table};
use ptb_workloads::Benchmark;

/// Slot of the job in `jobs` that runs `bench` under `mech` on
/// `n_cores` cores, for figures that look their points up by name.
pub fn job_index(
    jobs: &[FarmJob],
    bench: Benchmark,
    mech: MechanismKind,
    n_cores: usize,
) -> Option<usize> {
    jobs.iter()
        .position(|j| j.bench == bench && j.config.mechanism == mech && j.config.n_cores == n_cores)
}

/// The paper's evaluated mechanism set for 16-core detail figures.
pub fn detail_mechanisms(ptb: MechanismKind) -> Vec<MechanismKind> {
    vec![
        MechanismKind::Dvfs,
        MechanismKind::Dfs,
        MechanismKind::TwoLevel,
        ptb,
    ]
}

/// Shared harness for Figures 10/11/12: per-benchmark normalized energy
/// and AoPB at the default core count for DVFS/DFS/2-level/PTB with the
/// given policy (and, for Figure 13, per-benchmark slowdown).
///
/// Runs with per-job failure isolation (see [`Runner::sweep`]): in
/// `--keep-going` mode a bench whose baseline or any mechanism point
/// failed is dropped from the tables (and named in the artefact
/// footer). The sweep honours the caller's [`ObsArgs`] (see
/// [`ObsArgs::run_sweep`]). Emits `<stem>_energy`, `<stem>_aopb` and
/// returns the jobs and sweep for any extra processing.
pub fn detail_figure(
    runner: &Runner,
    obs: &ObsArgs,
    policy: PtbPolicy,
    relax: f64,
    stem: &str,
    figure_label: &str,
) -> (Vec<FarmJob>, Sweep) {
    let n = runner.default_cores();
    let ptb = MechanismKind::PtbTwoLevel { policy, relax };
    let mechs = detail_mechanisms(ptb);
    let mut jobs = Vec::new();
    for bench in Benchmark::ALL {
        jobs.push(runner.job(bench, MechanismKind::None, n));
        for &m in &mechs {
            jobs.push(runner.job(bench, m, n));
        }
    }
    let sweep = obs.run_sweep(runner, &jobs);
    let stride = 1 + mechs.len();

    let headers = ["bench", "DVFS", "DFS", "2level", "PTB+2level"];
    let mut energy = Table::new(
        format!(
            "{figure_label} (left): normalized energy delta %, {n}-core, {}",
            policy.label()
        ),
        &headers,
    );
    let mut aopb = Table::new(
        format!(
            "{figure_label} (right): normalized AoPB %, {n}-core, {}",
            policy.label()
        ),
        &headers,
    );
    let mut e_cols = vec![Vec::new(); mechs.len()];
    let mut a_cols = vec![Vec::new(); mechs.len()];
    for (bi, bench) in Benchmark::ALL.iter().enumerate() {
        let Some(row) = sweep.row(bi * stride, stride) else {
            continue; // complete rows only; footer names the gaps
        };
        let base = row[0];
        let mut es = Vec::new();
        let mut as_ = Vec::new();
        for mi in 0..mechs.len() {
            let r = row[1 + mi];
            let e = normalized_energy_pct(base, r);
            let a = normalized_aopb_pct(base, r);
            es.push(e);
            as_.push(a);
            e_cols[mi].push(e);
            a_cols[mi].push(a);
        }
        energy.row_f(bench.name(), &es, 1);
        aopb.row_f(bench.name(), &as_, 1);
    }
    energy.row_f(
        "Avg.",
        &e_cols.iter().map(|c| mean(c)).collect::<Vec<_>>(),
        1,
    );
    aopb.row_f(
        "Avg.",
        &a_cols.iter().map(|c| mean(c)).collect::<Vec<_>>(),
        1,
    );
    let dropped = sweep.dropped_labels();
    emit_partial(runner, &format!("{stem}_energy"), &energy, &dropped);
    emit_partial(runner, &format!("{stem}_aopb"), &aopb, &dropped);
    (jobs, sweep)
}

/// Figure 13 companion: per-benchmark performance slowdown table from the
/// sweep produced by [`detail_figure`]. Incomplete benches are skipped,
/// matching the energy/AoPB tables.
pub fn slowdown_table(jobs: &[FarmJob], sweep: &Sweep, title: &str) -> Table {
    let mechs_per_bench = 5; // baseline + 4 mechanisms
    let mut table = Table::new(title, &["bench", "DVFS", "DFS", "2level", "PTB+2level"]);
    let mut cols = vec![Vec::new(); 4];
    for (bi, bench) in Benchmark::ALL.iter().enumerate() {
        let Some(row) = sweep.row(bi * mechs_per_bench, mechs_per_bench) else {
            continue;
        };
        let base = row[0];
        debug_assert_eq!(jobs[bi * mechs_per_bench].bench, *bench);
        let mut vals = Vec::new();
        for mi in 0..4 {
            let s = slowdown_pct(base, row[1 + mi]);
            vals.push(s);
            cols[mi].push(s);
        }
        table.row_f(bench.name(), &vals, 1);
    }
    table.row_f("Avg.", &cols.iter().map(|c| mean(c)).collect::<Vec<_>>(), 1);
    table
}
