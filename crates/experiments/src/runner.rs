//! Parallel sweep execution and artefact emission.
//!
//! Sweeps route through the `ptb-farm` content-addressed result store
//! by default: previously simulated points load from disk, misses run
//! in parallel on the farm's work-stealing executor, and every batch
//! prints a one-line `[farm]` hit/miss summary to stderr. Set
//! `PTB_NO_CACHE=1` (or pass `--no-cache`) to simulate every point on
//! the same executor without the store.

use ptb_core::{MechanismKind, RunReport, SimConfig, MAX_CORES};
use ptb_farm::{exec, ExecConfig, Farm, FarmJob, JobError, Quarantine};
use ptb_metrics::Table;
use ptb_workloads::{Benchmark, Scale};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Thread-parallel simulation sweep runner.
pub struct Runner {
    /// Workload scale.
    pub scale: Scale,
    /// Worker threads.
    pub jobs: usize,
    /// Artefact output directory.
    pub out_dir: PathBuf,
    /// Result farm (content-addressed cache + journal); `None` runs
    /// every simulation in-process without persistence.
    pub farm: Option<Farm>,
    /// Degraded-completion contract for [`Runner::sweep`]: `true`
    /// (`--keep-going`) quarantines failed jobs and emits partial
    /// artefacts; `false` (`--fail-fast`, the default) quarantines and
    /// exits nonzero at the first failed batch.
    pub keep_going: bool,
    /// Per-job wall-clock watchdog for [`Runner::sweep`]; a job that
    /// exceeds it is reported as timed out rather than hanging the
    /// sweep. `None` disables.
    pub job_timeout: Option<Duration>,
}

/// Parse a `PTB_SCALE` value. `Err` carries a warning for unparsable
/// input (the caller decides where to print it).
fn parse_scale(raw: Option<&str>) -> Result<Scale, String> {
    match raw {
        None => Ok(Scale::Small),
        Some("test") => Ok(Scale::Test),
        Some("small") => Ok(Scale::Small),
        Some("large") => Ok(Scale::Large),
        Some(other) => Err(format!(
            "unparsable PTB_SCALE={other:?} (expected test|small|large); using small"
        )),
    }
}

/// Parse a `PTB_JOBS` value against a fallback. `Err(None)` means the
/// value was rejected outright (zero); `Err(Some(_))` carries a warning
/// and the caller should fall back.
fn parse_jobs(raw: Option<&str>) -> Result<Option<usize>, Option<String>> {
    match raw {
        None => Ok(None),
        Some(s) => match s.parse::<usize>() {
            Ok(0) => Err(None),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(Some(format!(
                "unparsable PTB_JOBS={s:?}; using available parallelism"
            ))),
        },
    }
}

/// Core count of single-core-count figures when `PTB_CORES` is unset.
const DEFAULT_CORES: usize = 16;

/// Parse a core count (`PTB_CORES`, or a binary's core-count argument,
/// called `name` in messages) the way [`parse_jobs`] parses `PTB_JOBS`.
/// `Err(None)` means the value was rejected outright (outside
/// `1..=MAX_CORES`); `Err(Some(_))` carries a warning and the caller
/// should fall back to 16.
fn parse_cores(name: &str, raw: Option<&str>) -> Result<usize, Option<String>> {
    match raw {
        None => Ok(DEFAULT_CORES),
        Some(s) => match s.parse::<usize>() {
            Ok(n) if (1..=MAX_CORES).contains(&n) => Ok(n),
            Ok(_) => Err(None),
            Err(_) => Err(Some(format!(
                "unparsable {name}={s:?}; using {DEFAULT_CORES}"
            ))),
        },
    }
}

/// A core count from `raw` (see [`parse_cores`]): 16 when absent, a
/// warning and 16 when unparsable, and process exit 2 when outside
/// `1..=MAX_CORES`.
pub fn cores_or_exit(name: &str, raw: Option<&str>) -> usize {
    match parse_cores(name, raw) {
        Ok(n) => n,
        Err(None) => {
            eprintln!(
                "error: {name} must be between 1 and {MAX_CORES}, got {}",
                raw.unwrap_or_default()
            );
            std::process::exit(2);
        }
        Err(Some(warning)) => {
            eprintln!("warning: {warning}");
            DEFAULT_CORES
        }
    }
}

/// Parse a per-job timeout (`--job-timeout` or `PTB_JOB_TIMEOUT`): a
/// positive number of seconds. `None` rejects the value.
fn parse_timeout(raw: &str) -> Option<Duration> {
    raw.parse::<f64>()
        .ok()
        .filter(|s| *s > 0.0)
        .and_then(|s| Duration::try_from_secs_f64(s).ok())
}

/// Parse a `PTB_KEEP_GOING` value: `0` or `1`, like `--fail-fast` and
/// `--keep-going`. `Err` carries a warning for anything else, and the
/// caller keeps the fail-fast default.
fn parse_keep_going(raw: Option<&str>) -> Result<bool, String> {
    match raw {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!(
            "unparsable PTB_KEEP_GOING={other:?} (expected 0 or 1); failing fast"
        )),
    }
}

impl Runner {
    /// Configure from the environment (see crate docs).
    ///
    /// `PTB_JOBS=0` and a `PTB_JOB_TIMEOUT` that is not a positive
    /// number of seconds are rejected (process exit 2); unparsable
    /// `PTB_SCALE`/`PTB_JOBS`/`PTB_KEEP_GOING` values warn on stderr and
    /// fall back to their defaults instead of being silently ignored.
    pub fn from_env() -> Self {
        let scale_var = std::env::var("PTB_SCALE").ok();
        let scale = parse_scale(scale_var.as_deref()).unwrap_or_else(|warning| {
            eprintln!("warning: {warning}");
            Scale::Small
        });
        let default_jobs = || {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        };
        let jobs_var = std::env::var("PTB_JOBS").ok();
        let jobs = match parse_jobs(jobs_var.as_deref()) {
            Ok(Some(n)) => n,
            Ok(None) => default_jobs(),
            Err(None) => {
                eprintln!("error: PTB_JOBS must be at least 1, got 0");
                std::process::exit(2);
            }
            Err(Some(warning)) => {
                eprintln!("warning: {warning}");
                default_jobs()
            }
        };
        let out_dir = std::env::var("PTB_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/figures"));
        let keep_going_var = std::env::var("PTB_KEEP_GOING").ok();
        let keep_going = parse_keep_going(keep_going_var.as_deref()).unwrap_or_else(|warning| {
            eprintln!("warning: {warning}");
            false
        });
        let job_timeout = std::env::var("PTB_JOB_TIMEOUT").ok().map(|raw| {
            parse_timeout(&raw).unwrap_or_else(|| {
                eprintln!(
                    "error: PTB_JOB_TIMEOUT requires a positive number of seconds, got {raw:?}"
                );
                std::process::exit(2);
            })
        });
        Runner {
            scale,
            jobs,
            out_dir,
            farm: Farm::from_env(),
            keep_going,
            job_timeout,
        }
    }

    /// [`Runner::from_env`] plus the shared farm CLI flags, stripped
    /// from `argv` (both `--flag value` and `--flag=value` forms) so
    /// each binary's positional parsing runs on what remains:
    ///
    /// * `--no-cache` — bypass the farm entirely (like `PTB_NO_CACHE`);
    /// * `--farm-dir PATH` — store location (overrides `PTB_FARM_DIR`);
    /// * `--keep-going` / `--fail-fast` — quarantine failed jobs and
    ///   emit partial artefacts vs. exit nonzero on the first failed
    ///   batch (the default; overrides `PTB_KEEP_GOING`);
    /// * `--job-timeout SECS` — per-job wall-clock watchdog (overrides
    ///   `PTB_JOB_TIMEOUT`).
    pub fn from_env_args(argv: &mut Vec<String>) -> Self {
        let mut no_cache = false;
        let mut farm_dir: Option<PathBuf> = None;
        let mut keep_going: Option<bool> = None;
        let mut job_timeout: Option<Duration> = None;
        let mut i = 0;
        while i < argv.len() {
            let (flag, inline) = match argv[i].split_once('=') {
                Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
                None => (argv[i].clone(), None),
            };
            let take_value = |argv: &mut Vec<String>, i: usize| {
                inline.clone().unwrap_or_else(|| {
                    if i < argv.len() {
                        argv.remove(i)
                    } else {
                        eprintln!("error: {flag} requires a value");
                        std::process::exit(2);
                    }
                })
            };
            match flag.as_str() {
                "--no-cache" => {
                    argv.remove(i);
                    no_cache = true;
                }
                "--keep-going" => {
                    argv.remove(i);
                    keep_going = Some(true);
                }
                "--fail-fast" => {
                    argv.remove(i);
                    keep_going = Some(false);
                }
                "--farm-dir" => {
                    argv.remove(i);
                    farm_dir = Some(PathBuf::from(take_value(argv, i)));
                }
                "--job-timeout" => {
                    argv.remove(i);
                    let raw = take_value(argv, i);
                    match parse_timeout(&raw) {
                        Some(timeout) => job_timeout = Some(timeout),
                        None => {
                            eprintln!("error: --job-timeout requires a positive number of seconds");
                            std::process::exit(2);
                        }
                    }
                }
                _ => i += 1,
            }
        }
        let mut runner = Runner::from_env();
        if let Some(kg) = keep_going {
            runner.keep_going = kg;
        }
        if job_timeout.is_some() {
            runner.job_timeout = job_timeout;
        }
        if no_cache {
            runner.farm = None;
        } else if let Some(dir) = farm_dir {
            match Farm::open(&dir) {
                Ok(farm) => runner.farm = Some(farm),
                Err(e) => {
                    eprintln!(
                        "warning: cannot open farm store {}: {e}; running uncached",
                        dir.display()
                    );
                    runner.farm = None;
                }
            }
        }
        runner
    }

    /// Core count for single-core-count figures (paper: 16), overridable
    /// with `PTB_CORES` (see [`cores_or_exit`]).
    pub fn default_cores(&self) -> usize {
        cores_or_exit("PTB_CORES", std::env::var("PTB_CORES").ok().as_deref())
    }

    /// The figure point `bench` under `mech` on `n_cores` cores, at the
    /// runner's scale with every other config field at its default.
    /// A point that varies another field sets it on the returned job.
    pub fn job(&self, bench: Benchmark, mech: MechanismKind, n_cores: usize) -> FarmJob {
        FarmJob::new(
            bench,
            SimConfig {
                n_cores,
                scale: self.scale,
                mechanism: mech,
                ..SimConfig::default()
            },
        )
    }

    /// Executor policy for failure-isolating sweeps.
    fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            watchdog: self.job_timeout,
            ..ExecConfig::new(self.jobs)
        }
    }

    /// Run all jobs with per-job failure isolation — the degraded-
    /// completion path behind every figure binary.
    ///
    /// Each job runs inside `catch_unwind` with bounded retry for
    /// transient faults and the runner's wall-clock watchdog; a failed
    /// job occupies its slot as `None` instead of aborting the sweep.
    /// Every failure is appended to the quarantine manifest
    /// (`failed.jsonl` in the farm directory, or the output directory
    /// when running uncached) as a replayable job for `farm_ctl resume`
    /// and `sim_check --replay`. In fail-fast mode (the default) the
    /// process then exits with status 1; with `--keep-going` the
    /// partial [`Sweep`] is returned so callers can emit partial
    /// artefacts with a footer naming the dropped points.
    pub fn sweep(&self, jobs: &[FarmJob]) -> Sweep {
        if jobs.is_empty() {
            return Sweep::default();
        }
        let outcomes: Vec<Result<RunReport, JobError>> = if let Some(farm) = &self.farm {
            let before = farm.stats();
            let outcomes = farm.try_run_batch(jobs, &self.exec_config());
            let batch = farm.stats().since(&before);
            eprintln!(
                "[farm] {} (store {})",
                batch.summary(),
                farm.dir().display()
            );
            outcomes
        } else {
            exec::run_work_stealing(jobs.iter().collect(), &self.exec_config(), |job, ctx| {
                job.try_simulate(ctx.deadline)
            })
        };

        let mut reports = Vec::with_capacity(jobs.len());
        let mut failures: Vec<(FarmJob, JobError)> = Vec::new();
        for (job, outcome) in jobs.iter().zip(outcomes) {
            match outcome {
                Ok(r) => reports.push(Some(r)),
                Err(e) => {
                    reports.push(None);
                    failures.push((job.clone(), e));
                }
            }
        }
        if !failures.is_empty() {
            self.quarantine_failures(&failures);
            if !self.keep_going {
                eprintln!(
                    "error: {} job(s) failed and --keep-going is not set; \
                     rerun with --keep-going for partial artefacts, or replay \
                     the quarantine manifest with `sim_check --replay`",
                    failures.len()
                );
                std::process::exit(1);
            }
        }
        Sweep { reports, failures }
    }

    /// Append each unique failed job to the quarantine manifest and
    /// report where it went. Duplicated jobs (same content key) are
    /// quarantined once.
    fn quarantine_failures(&self, failures: &[(FarmJob, JobError)]) {
        let quarantine = match &self.farm {
            Some(farm) => farm.quarantine(),
            None => Quarantine::in_dir(&self.out_dir),
        };
        let mut seen = HashSet::new();
        for (job, err) in failures {
            eprintln!("[sweep] FAILED {}: {err}", job.label());
            if !seen.insert(job.key()) {
                continue;
            }
            let res = match &self.farm {
                Some(farm) => farm.quarantine_job(job, err),
                None => quarantine.record(&ptb_farm::QuarantineEntry::new(job, err)),
            };
            if let Err(e) = res {
                eprintln!("warning: cannot quarantine {}: {e}", job.label());
            }
        }
        eprintln!(
            "[sweep] {} failed job(s) quarantined to {}",
            failures.len(),
            quarantine.path().display()
        );
    }
}

/// Outcome of a failure-isolating [`Runner::sweep`]: one slot per job
/// (in job order), with failed jobs' slots empty and their errors
/// collected separately.
#[derive(Default)]
pub struct Sweep {
    /// One entry per submitted job; `None` marks a failed job.
    pub reports: Vec<Option<RunReport>>,
    /// The failed jobs and why, in job order.
    pub failures: Vec<(FarmJob, JobError)>,
}

impl Sweep {
    /// The report for job slot `idx`, if it succeeded.
    pub fn get(&self, idx: usize) -> Option<&RunReport> {
        self.reports.get(idx).and_then(|r| r.as_ref())
    }

    /// True when every job produced a report.
    pub fn complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Unwrap into plain reports, panicking if any job failed. The
    /// bridge for callers that have already established completeness.
    pub fn expect_complete(self) -> Vec<RunReport> {
        self.reports
            .into_iter()
            .map(|r| r.expect("sweep incomplete: a job failed"))
            .collect()
    }

    /// The `len` consecutive reports starting at slot `start`, if every
    /// one of them succeeded — the "complete rows only" policy: a figure
    /// row whose baseline or any mechanism point failed is skipped
    /// entirely rather than plotted against a partial denominator.
    pub fn row(&self, start: usize, len: usize) -> Option<Vec<&RunReport>> {
        (start..start + len).map(|i| self.get(i)).collect()
    }

    /// Labels of the failed jobs (for partial-artefact footers).
    pub fn dropped_labels(&self) -> Vec<String> {
        self.failures
            .iter()
            .map(|(job, _)| {
                let cfg = &job.config;
                format!("{}/{}/{}c", job.bench, cfg.mechanism.label(), cfg.n_cores)
            })
            .collect()
    }
}

/// Print a table and write `.txt` + `.csv` artefacts into the runner's
/// output directory.
pub fn emit(runner: &Runner, name: &str, table: &Table) {
    emit_partial(runner, name, table, &[]);
}

/// [`emit`], with the artefact marked as partial: each dropped point in
/// `dropped` is named in a `# dropped: <label>` footer line of both
/// files, so a consumer of a `--keep-going` run can tell a complete
/// artefact from a degraded one without diffing against the full grid.
pub fn emit_partial(runner: &Runner, name: &str, table: &Table, dropped: &[String]) {
    let footer: String = dropped
        .iter()
        .map(|label| format!("# dropped: {label}\n"))
        .collect();
    let mut text = table.to_text();
    if !footer.is_empty() {
        text.push('\n');
        text.push_str(&footer);
    }
    println!("{text}");
    if let Err(e) = std::fs::create_dir_all(&runner.out_dir) {
        eprintln!("warning: cannot create {}: {e}", runner.out_dir.display());
        return;
    }
    let txt_path = runner.out_dir.join(format!("{name}.txt"));
    let csv_path = runner.out_dir.join(format!("{name}.csv"));
    let mut csv = table.to_csv();
    csv.push_str(&footer);
    if let Err(e) = write_artefact(&txt_path, &text) {
        eprintln!("warning: cannot write {}: {e}", txt_path.display());
    }
    if let Err(e) = write_artefact(&csv_path, &csv) {
        eprintln!("warning: cannot write {}: {e}", csv_path.display());
    }
    println!("[wrote {} and {}]", txt_path.display(), csv_path.display());
}

/// Write `contents` to `path` as a new file. An existing artefact is
/// unlinked first, not truncated: on ext4 (`auto_da_alloc`) closing a
/// truncated-and-rewritten file starts its writeback at once, and the
/// next rewrite waits for that write to reach the disk, so back-to-back
/// reruns of a warm figure would each block on disk latency. When the
/// unlink fails, the file is rewritten in place.
fn write_artefact(path: &Path, contents: &str) -> std::io::Result<()> {
    std::fs::remove_file(path).ok();
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_runner() -> Runner {
        Runner {
            scale: Scale::Test,
            jobs: 4,
            out_dir: std::env::temp_dir().join("ptb-figtest"),
            farm: None,
            keep_going: false,
            job_timeout: None,
        }
    }

    fn farmed_runner(tag: &str) -> (Runner, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("ptb-runner-farm-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let runner = Runner {
            farm: Some(Farm::open(&dir).expect("open farm")),
            ..test_runner()
        };
        (runner, dir)
    }

    #[test]
    fn parallel_results_match_serial() {
        let r = test_runner();
        let jobs = vec![
            r.job(Benchmark::Fft, MechanismKind::None, 2),
            r.job(Benchmark::Radix, MechanismKind::None, 2),
            r.job(Benchmark::Fft, MechanismKind::Dvfs, 2),
        ];
        let swept = r.sweep(&jobs);
        assert!(swept.complete());
        let parallel = swept.expect_complete();
        for (job, rep) in jobs.iter().zip(&parallel) {
            let serial = job.simulate();
            assert_eq!(serial.cycles, rep.cycles, "{}", job.label());
            assert_eq!(serial.energy_tokens, rep.energy_tokens);
        }
    }

    #[test]
    fn farmed_runner_matches_uncached_and_hits_on_rerun() {
        let (r, dir) = farmed_runner("rerun");
        let jobs = vec![
            r.job(Benchmark::Fft, MechanismKind::None, 2),
            r.job(Benchmark::Fft, MechanismKind::Dvfs, 2),
        ];
        let cold = r.sweep(&jobs).expect_complete();
        for (job, rep) in jobs.iter().zip(&cold) {
            let direct = job.simulate();
            assert_eq!(direct.cycles, rep.cycles, "{}", job.label());
        }
        let warm = r.sweep(&jobs).expect_complete();
        let stats = r.farm.as_ref().unwrap().stats();
        assert_eq!(stats.misses, 2, "cold run simulated");
        assert_eq!(stats.hits, 2, "warm run served from store");
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.cycles, w.cycles);
            assert_eq!(c.energy_tokens, w.energy_tokens);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scale_parsing_warns_instead_of_silently_defaulting() {
        assert_eq!(parse_scale(None), Ok(Scale::Small));
        assert_eq!(parse_scale(Some("test")), Ok(Scale::Test));
        assert_eq!(parse_scale(Some("large")), Ok(Scale::Large));
        let err = parse_scale(Some("meduim")).unwrap_err();
        assert!(err.contains("meduim"), "{err}");
    }

    #[test]
    fn jobs_parsing_rejects_zero_and_flags_garbage() {
        assert_eq!(parse_jobs(None), Ok(None));
        assert_eq!(parse_jobs(Some("8")), Ok(Some(8)));
        assert_eq!(parse_jobs(Some("0")), Err(None), "zero is rejected");
        match parse_jobs(Some("many")) {
            Err(Some(w)) => assert!(w.contains("many"), "{w}"),
            other => panic!("expected warning, got {other:?}"),
        }
    }

    #[test]
    fn cores_parsing_rejects_out_of_range_and_flags_garbage() {
        let table = [
            (None, Ok(16)),
            (Some("1"), Ok(1)),
            (Some("32"), Ok(32)),
            (Some("64"), Ok(MAX_CORES)),
            (Some("0"), Err(None)),
            (Some("65"), Err(None)),
        ];
        for (raw, want) in table {
            assert_eq!(parse_cores("PTB_CORES", raw), want, "{raw:?}");
        }
        for garbage in ["abc", "-4", "", "1e3"] {
            match parse_cores("PTB_CORES", Some(garbage)) {
                Err(Some(w)) => assert!(w.contains(&format!("PTB_CORES={garbage:?}")), "{w}"),
                other => panic!("{garbage:?}: expected a warning, got {other:?}"),
            }
        }
    }

    #[test]
    fn timeout_and_keep_going_parse_like_their_flags() {
        let timeouts = [
            ("10", Some(Duration::from_secs(10))),
            ("0.5", Some(Duration::from_millis(500))),
            ("10s", None),
            ("0", None),
            ("-3", None),
            ("NaN", None),
            ("inf", None),
            ("", None),
        ];
        for (raw, want) in timeouts {
            assert_eq!(parse_timeout(raw), want, "{raw:?}");
        }
        let keep_going = [
            (None, Ok(false)),
            (Some("0"), Ok(false)),
            (Some("1"), Ok(true)),
            (Some("false"), Err("\"false\"")),
            (Some("true"), Err("\"true\"")),
            (Some(""), Err("\"\"")),
        ];
        for (raw, want) in keep_going {
            match (parse_keep_going(raw), want) {
                (Ok(got), Ok(w)) => assert_eq!(got, w, "{raw:?}"),
                (Err(warning), Err(quoted)) => assert!(warning.contains(quoted), "{warning}"),
                (got, _) => panic!("{raw:?}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn sweep_matches_run_all_when_healthy() {
        // The failure-isolating sweep must agree with the fail-fast
        // run-everything path (`Farm::run_batch`) when nothing fails.
        let r = test_runner();
        let (farmed, dir) = farmed_runner("run-all");
        let jobs = vec![
            r.job(Benchmark::Fft, MechanismKind::None, 2),
            r.job(Benchmark::Radix, MechanismKind::None, 2),
        ];
        let all = farmed.farm.as_ref().unwrap().run_batch(&jobs, 2);
        let swept = r.sweep(&jobs);
        assert!(swept.complete());
        assert!(swept.dropped_labels().is_empty());
        let swept = swept.expect_complete();
        assert_eq!(all.len(), swept.len());
        for (a, b) in all.iter().zip(&swept) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.energy_tokens, b.energy_tokens);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn farmed_sweep_quarantines_and_keeps_going() {
        let (mut r, dir) = farmed_runner("sweep-quarantine");
        r.keep_going = true;
        // A livelock-bound synthetic cannot be built from the figure
        // grid (all benchmarks terminate), so exercise the quarantine
        // path through the farm layer directly with a poisoned config:
        // zero max_cycles makes the simulation error deterministically.
        let farm = r.farm.as_ref().unwrap();
        let bad = FarmJob::new(
            Benchmark::Fft,
            SimConfig {
                n_cores: 2,
                scale: Scale::Test,
                max_cycles: 1,
                ..SimConfig::default()
            },
        );
        let good = FarmJob::new(
            Benchmark::Radix,
            SimConfig {
                n_cores: 2,
                scale: Scale::Test,
                ..SimConfig::default()
            },
        );
        let outcomes = farm.try_run_batch(&[bad.clone(), good.clone()], &ExecConfig::new(2));
        assert!(outcomes[0].is_err(), "truncated run must fail");
        assert!(outcomes[1].is_ok(), "healthy job unaffected");
        let (job, err) = (&bad, outcomes[0].as_ref().unwrap_err());
        farm.quarantine_job(job, err).unwrap();
        let q = farm.quarantine();
        let entries = q.load().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].job.config.max_cycles, 1, "replayable config");
        assert_eq!(farm.stats().quarantined, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn emit_partial_footers_name_dropped_points() {
        let r = test_runner();
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into()]);
        emit_partial(&r, "unit_test_partial", &t, &["fft/ptb/8c".into()]);
        let csv = std::fs::read_to_string(r.out_dir.join("unit_test_partial.csv")).unwrap();
        assert!(csv.ends_with("# dropped: fft/ptb/8c\n"), "{csv}");
        let txt = std::fs::read_to_string(r.out_dir.join("unit_test_partial.txt")).unwrap();
        assert!(txt.contains("# dropped: fft/ptb/8c"), "{txt}");
    }

    #[test]
    fn emit_writes_artifacts() {
        let r = test_runner();
        let mut long = Table::new("t", &["a"]);
        long.row(vec!["123456789".into()]);
        emit(&r, "unit_test_table", &long);
        // A rerun replaces each artefact whole, also with shorter content.
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into()]);
        emit(&r, "unit_test_table", &t);
        let read = |ext: &str| {
            std::fs::read_to_string(r.out_dir.join(format!("unit_test_table.{ext}"))).unwrap()
        };
        assert_eq!(read("txt"), t.to_text());
        assert_eq!(read("csv"), t.to_csv());
    }
}
