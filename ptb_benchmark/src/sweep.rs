//! `sweep-fig02`: a researcher regenerating a paper figure through the
//! real figure binary (`Runner` → farm → CSV).
//!
//! The binary is `fig02_naive_budget` at test scale on 4 cores — 56
//! simulations, the figure the repository pins with goldens. Set-up is
//! one cold run against an empty farm (executor, simulation and store
//! writes); the measured loop reruns it warm, so each run is answered
//! from the store (key hash, store probe, process start, CSV). The
//! figure is fixed, so the seed does not apply. Every run's CSVs are
//! compared byte for byte against `tests/goldens/`.

use crate::metrics::{E2e, Layers, Tally};
use crate::probe::{self, Stored};
use crate::sim::{self, SimJob};
use crate::spans::Tracer;
use crate::{serve, Ctx};
use ptb_farm::{Farm, FarmJob};
use serde::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// The figure binary driven.
const FIGURE: &str = "fig02_naive_budget";

/// The CSVs it writes, each pinned under `tests/goldens/`.
const CSVS: [&str; 2] = ["fig02_energy.csv", "fig02_aopb.csv"];

/// Simulations in one run of the figure (14 benchmarks × 4 configs).
const JOBS: u64 = 56;

/// Cold set-up runs per benchmark run.
const SETUP_REPS: usize = 3;

/// Jobs of the warm farm re-simulated by the traced run's simulator and
/// executor probes.
const PROBE_JOBS: usize = 14;

/// How often a cold run's resident set is sampled.
const RSS_SAMPLE: Duration = Duration::from_millis(5);

/// Build the figure binary from the checkout at `root` with the
/// repository's own workspace, and return its path.
fn build(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--message-format=json",
        ])
        .args([
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "ptb-experiments",
            "--bin",
            FIGURE,
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building {FIGURE} failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|msg| msg.get("reason").and_then(Value::as_str) == Some("compiler-artifact"))
        .filter(|msg| {
            msg.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Value::as_str)
                == Some(FIGURE)
        })
        .find_map(|msg| {
            msg.get("executable")
                .and_then(Value::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| format!("cargo reported no executable for {FIGURE}"))
}

/// Start the figure with a scrubbed environment: no ambient `PTB_*`
/// setting may leak into the run.
fn spawn(bin: &Path, farm: &Path, out: &Path) -> Result<Child, String> {
    let mut cmd = Command::new(bin);
    for (var, _) in std::env::vars_os() {
        if var.to_string_lossy().starts_with("PTB_") {
            cmd.env_remove(var);
        }
    }
    cmd.env("PTB_SCALE", "test")
        .env("PTB_CORES", "4")
        .env("PTB_JOBS", "2")
        .env("PTB_FARM_DIR", farm)
        .env("PTB_OUT", out)
        .current_dir(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {FIGURE}: {e}"))
}

/// Exit status and CSVs of a finished run, against the goldens.
fn check(status: ExitStatus, out: &Path, goldens: &[String; 2]) -> Result<(), String> {
    if !status.success() {
        return Err(format!("{FIGURE} exited with {status}"));
    }
    for (name, want) in CSVS.iter().zip(goldens) {
        let got =
            std::fs::read_to_string(out.join(name)).map_err(|e| format!("read {name}: {e}"))?;
        if &got != want {
            return Err(format!("{name} differs from tests/goldens/{name}"));
        }
    }
    Ok(())
}

fn clear(out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    for name in CSVS {
        std::fs::remove_file(out.join(name)).ok();
    }
    Ok(())
}

/// A cold run: wall seconds, and the peak resident set sampled while it
/// ran (the child's own `VmHWM`), MiB.
fn cold(bin: &Path, farm: &Path, out: &Path) -> Result<(f64, ExitStatus, f64), String> {
    let t0 = Instant::now();
    let mut child = spawn(bin, farm, out)?;
    let mut hwm = 0.0f64;
    loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
            return Ok((t0.elapsed().as_secs_f64(), status, hwm));
        }
        if let Some(mb) = crate::vm_hwm_mb(&format!("/proc/{}/status", child.id())) {
            hwm = hwm.max(mb);
        }
        std::thread::sleep(RSS_SAMPLE);
    }
}

/// Run `sweep-fig02`. An op is one figure job: `ops_per_s` is jobs
/// answered per second of warm runs, and each warm run's wall time per
/// job is the latency of its 56 ops.
pub fn run(ctx: &Ctx, tally: &mut Tally, tr: &mut Tracer, l: &mut Layers) -> Result<E2e, String> {
    let bin = build(&ctx.root)?;
    let goldens =
        CSVS.map(|name| std::fs::read_to_string(ctx.root.join("tests/goldens").join(name)));
    let goldens = match goldens {
        [Ok(a), Ok(b)] => [a, b],
        _ => return Err("cannot read the fig02 goldens under tests/goldens".into()),
    };
    let out = ctx.dir.join("figures");
    let mut e = E2e::default();
    let mut farm = PathBuf::new();
    for rep in 0..SETUP_REPS {
        farm = ctx.dir.join(format!("farm-{rep}"));
        clear(&out)?;
        tr.begin("experiments.cold_run");
        let (secs, status, hwm) = cold(&bin, &farm, &out)?;
        tr.end();
        tally.check(JOBS, check(status, &out, &goldens));
        e.setup_s.push(secs);
        e.peak_rss_mb = e.peak_rss_mb.max(hwm);
        if rep + 1 < SETUP_REPS {
            std::fs::remove_dir_all(&farm).ok();
        }
    }

    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        clear(&out)?;
        tr.begin("experiments.warm_run");
        let t0 = Instant::now();
        let status = spawn(&bin, &farm, &out)?
            .wait()
            .map_err(|e| format!("wait: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        tr.end();
        if tally.check(JOBS, check(status, &out, &goldens)) {
            e.rates.push(JOBS as f64 / secs);
            e.ops += JOBS as f64;
            e.secs += secs;
            e.op_ms.push((secs * 1e3 / JOBS as f64, JOBS as f64));
        }
    }

    if ctx.trace {
        let stored = read_back(&farm)?;
        if stored.len() as u64 != JOBS {
            tally.fail(
                1,
                format!("warm farm holds {} entries, not {JOBS}", stored.len()),
            );
        }
        let probe_jobs = &stored[..PROBE_JOBS.min(stored.len())];
        let sims: Vec<SimJob> = probe_jobs
            .iter()
            .map(|s| SimJob::new(s.job.bench, s.job.config.clone()))
            .collect();
        sim::profile(&sims, tally, tr).fill(l);
        let jobs: Vec<FarmJob> = probe_jobs.iter().map(|s| s.job.clone()).collect();
        probe::exec(&ctx.dir.join("exec-probe"), &jobs, tally, tr, l)?;
        probe::store(&farm, &stored, tally, tr, l)?;
        serve::probe(&farm, &stored, ctx.seed, tally, tr, l)?;
    }
    Ok(e)
}

/// Every entry of the farm at `dir`, in key order.
fn read_back(dir: &Path) -> Result<Vec<Stored>, String> {
    let farm = Farm::open(dir).map_err(|e| format!("open warm farm: {e}"))?;
    let keys = farm
        .store()
        .keys()
        .map_err(|e| format!("list warm farm: {e}"))?;
    keys.into_iter()
        .map(|key| match farm.store().read_entry(&key) {
            Ok(Some((job, report))) => Ok(Stored::new(key, job, report)),
            Ok(None) => Err(format!("entry {key} vanished")),
            Err(e) => Err(format!("entry {key}: {e}")),
        })
        .collect()
}
