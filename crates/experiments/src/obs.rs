//! Shared observability CLI for the experiment binaries.
//!
//! Any binary that accepts these flags strips them from its argv before
//! positional parsing, so they compose with each binary's own arguments:
//!
//! * `--trace-out PATH` — write a Chrome `trace_event` JSON file
//!   (load in Perfetto / `chrome://tracing`);
//! * `--metrics-out PATH` — write the run's counters and profile as a
//!   `metric,value` CSV;
//! * `--profile` — measure wall-clock time per simulator phase and
//!   print a one-line breakdown;
//! * `--audit` — check power-accounting invariants during the run
//!   (panics on violation).
//!
//! With none of the flags given, runs go through [`ptb_obs::NullObserver`]
//! and pay no observability cost at all.

use crate::runner::{Runner, Sweep};
use ptb_core::Simulation;
use ptb_farm::FarmJob;
use ptb_metrics::Table;
use ptb_obs::ObsStack;
use std::path::PathBuf;

/// Default event-ring capacity for `--trace-out` (events beyond this
/// keep only the newest; the drop count is reported).
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Audit stride for `--audit`: check invariants every this many cycles.
pub const AUDIT_STRIDE: u64 = 64;

/// Parsed observability flags (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    /// Chrome trace output path, from `--trace-out`.
    pub trace_out: Option<PathBuf>,
    /// Metrics CSV output path, from `--metrics-out`.
    pub metrics_out: Option<PathBuf>,
    /// Wall-clock phase profiling, from `--profile`.
    pub profile: bool,
    /// Invariant auditing, from `--audit`.
    pub audit: bool,
}

impl ObsArgs {
    /// Strip the observability flags out of `argv` (both `--flag value`
    /// and `--flag=value` forms) and return the parsed set. Unrelated
    /// arguments keep their relative order, so positional parsing can
    /// run on what remains.
    pub fn parse(argv: &mut Vec<String>) -> ObsArgs {
        let mut out = ObsArgs::default();
        let mut i = 0;
        while i < argv.len() {
            let (flag, inline) = match argv[i].split_once('=') {
                Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
                None => (argv[i].clone(), None),
            };
            match flag.as_str() {
                "--trace-out" | "--metrics-out" => {
                    argv.remove(i);
                    let value = inline.unwrap_or_else(|| {
                        if i < argv.len() {
                            argv.remove(i)
                        } else {
                            eprintln!("error: {flag} requires a PATH argument");
                            std::process::exit(2);
                        }
                    });
                    let path = PathBuf::from(value);
                    if flag == "--trace-out" {
                        out.trace_out = Some(path);
                    } else {
                        out.metrics_out = Some(path);
                    }
                }
                "--profile" => {
                    argv.remove(i);
                    out.profile = true;
                }
                "--audit" => {
                    argv.remove(i);
                    out.audit = true;
                }
                _ => i += 1,
            }
        }
        out
    }

    /// True when any flag asked for observation.
    pub fn enabled(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.profile || self.audit
    }

    /// Build the observer stack these flags describe. Counters are on
    /// whenever anything is observed — they are cheap and feed
    /// `RunReport::extra_metrics`.
    pub fn stack(&self) -> ObsStack {
        let mut s = ObsStack::new();
        if self.enabled() {
            s = s.with_counters();
        }
        if self.trace_out.is_some() {
            s = s.with_recorder(TRACE_CAPACITY);
        }
        if self.audit {
            s = s.with_audit(AUDIT_STRIDE);
        }
        if self.profile {
            s = s.with_profiler();
        }
        s
    }

    /// Run a whole sweep under these flags.
    ///
    /// With no flag set this is exactly [`Runner::sweep`] — parallel,
    /// farm-cached, failure-isolating. With observation on, the jobs
    /// run sequentially (deterministic artefact content) through one
    /// shared [`ObsStack`], always live (a cache hit would observe
    /// nothing), failing fast on the first error: counters accumulate
    /// across the whole sweep, the trace ring covers its tail, and each
    /// report's `extra_metrics` carries the stack state as of that run.
    pub fn run_sweep(&self, runner: &Runner, jobs: &[FarmJob]) -> Sweep {
        if !self.enabled() {
            return runner.sweep(jobs);
        }
        let mut stack = self.stack();
        let mut reports = Vec::with_capacity(jobs.len());
        for job in jobs {
            let mut report = Simulation::new(job.config.clone())
                .run_observed(job.bench, &mut stack)
                .unwrap_or_else(|e| panic!("{} failed: {e}", job.label()));
            stack.merge_extra_metrics(&mut report.extra_metrics);
            reports.push(Some(report));
        }
        self.finish(&stack);
        Sweep {
            reports,
            failures: Vec::new(),
        }
    }

    /// Write the artefacts and print the summaries a populated stack
    /// carries. Exposed for binaries that drive the stack by hand
    /// instead of through [`ObsArgs::run_sweep`].
    pub fn finish(&self, stack: &ObsStack) {
        if let (Some(path), Some(rec)) = (&self.trace_out, &stack.recorder) {
            match std::fs::write(path, rec.chrome_trace_json()) {
                Ok(()) => println!(
                    "[trace: {} events ({} dropped) -> {}]",
                    rec.len(),
                    rec.dropped(),
                    path.display()
                ),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
        if let Some(path) = &self.metrics_out {
            let mut merged = std::collections::BTreeMap::new();
            stack.merge_extra_metrics(&mut merged);
            let mut t = Table::new("metrics", &["metric", "value"]);
            for (k, v) in &merged {
                t.row(vec![k.clone(), format!("{v}")]);
            }
            match std::fs::write(path, t.to_csv()) {
                Ok(()) => println!("[metrics: {} series -> {}]", merged.len(), path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
        if let Some(p) = &stack.profiler {
            println!("[profile: {}]", p.summary());
        }
        if let Some(a) = &stack.audit {
            println!("[audit: {} checks passed]", a.checks());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_strips_flags_and_keeps_positionals() {
        let mut a = argv(&[
            "bench_one",
            "fft",
            "--trace-out",
            "/tmp/t.json",
            "8",
            "--profile",
        ]);
        let o = ObsArgs::parse(&mut a);
        assert_eq!(a, argv(&["bench_one", "fft", "8"]));
        assert_eq!(
            o.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.json"))
        );
        assert!(o.profile);
        assert!(!o.audit);
        assert!(o.enabled());
    }

    #[test]
    fn parse_accepts_equals_form() {
        let mut a = argv(&["x", "--metrics-out=/tmp/m.csv", "--audit"]);
        let o = ObsArgs::parse(&mut a);
        assert_eq!(a, argv(&["x"]));
        assert_eq!(
            o.metrics_out.as_deref(),
            Some(std::path::Path::new("/tmp/m.csv"))
        );
        assert!(o.audit);
    }

    #[test]
    fn no_flags_means_disabled() {
        let mut a = argv(&["x", "fft", "16"]);
        let o = ObsArgs::parse(&mut a);
        assert!(!o.enabled());
        assert!(o.stack().is_empty());
    }

    #[test]
    fn stack_matches_flags() {
        let o = ObsArgs {
            trace_out: Some("/tmp/t.json".into()),
            metrics_out: None,
            profile: true,
            audit: false,
        };
        let s = o.stack();
        assert!(s.recorder.is_some());
        assert!(s.counters.is_some());
        assert!(s.profiler.is_some());
        assert!(s.audit.is_none());
    }
}
