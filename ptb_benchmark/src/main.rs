//! `ptb_benchmark`: one command that measures the simulator, the figure
//! sweep and the HTTP service end to end, plus a traced run that breaks
//! each workload down by layer.
//!
//! ```text
//! ptb_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!               [--out FILE] [--trace-out FILE]
//! ptb_benchmark [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! ptb_benchmark compare --base A.json.. --change B.json..
//! ```
//!
//! With `--workload` one workload runs in this process and the last line
//! of standard output is the result object (`correct`, `attempted`,
//! `failed`, `metrics`): the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Without it every workload runs in
//! a child process of its own, each printing its table. `--out`
//! writes the detailed record (samples, quartiles, counts) that
//! `compare` reads; `--trace-out` writes the traced run's spans as
//! Chrome-trace JSON. The exit code is 0 only when every output was
//! correct.

mod compare;
mod metrics;
mod probe;
mod serve;
mod sim;
mod spans;
mod sweep;

use metrics::{e2e_metrics, layer_metrics, Layers, Outcome, Tally};
use serde::{json, Map, Value};
use spans::Tracer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Routes allocations through `ptb_obs::alloc::CountingAlloc` while
/// [`COUNT_ALLOCS`] is set (traced runs only) and straight to the system
/// allocator otherwise, so the end-to-end numbers never pay for counting.
struct BenchAlloc;

static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);

// SAFETY: every method forwards its arguments unchanged to `System` or to
// `CountingAlloc`, which forwards to `System` after bumping its counters.
// Both end in the same allocator, so a block allocated through one path
// may be resized or freed through the other.
unsafe impl GlobalAlloc for BenchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            unsafe { ptb_obs::alloc::CountingAlloc.alloc(layout) }
        } else {
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            unsafe { ptb_obs::alloc::CountingAlloc.dealloc(ptr, layout) }
        } else {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            unsafe { ptb_obs::alloc::CountingAlloc.alloc_zeroed(layout) }
        } else {
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            unsafe { ptb_obs::alloc::CountingAlloc.realloc(ptr, layout, new_size) }
        } else {
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[global_allocator]
static ALLOC: BenchAlloc = BenchAlloc;

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["sim-spin", "sim-busy", "sweep-fig02", "serve-mixed"];

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Result-file format tag.
const SCHEMA: &str = "ptb-benchmark/1";

/// What a workload run needs to know.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced (per-layer) run?
    pub trace: bool,
    /// Root of the checkout.
    pub root: PathBuf,
    /// Scratch directory of this run, removed at exit.
    pub dir: PathBuf,
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, MiB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set, MiB.
pub fn peak_rss_mb() -> f64 {
    vm_hwm_mb("/proc/self/status").unwrap_or(0.0)
}

/// The checkout the benchmark was built from.
fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the checkout")
        .to_path_buf()
}

/// Scratch space inside the checkout (ignored by git).
fn scratch(tag: &str) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[derive(Debug)]
struct Opts {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(WORKLOADS.into_iter().find(|w| w == name).ok_or_else(|| {
                        format!("unknown workload {name:?}; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !o.seconds.is_finite() || o.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// Run one workload in this process.
fn run_workload(
    name: &'static str,
    ctx: &Ctx,
    tally: &mut Tally,
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<metrics::E2e, String> {
    match name {
        "sim-spin" => sim::run(sim::Mix::Spin, ctx, tally, tr, l),
        "sim-busy" => sim::run(sim::Mix::Busy, ctx, tally, tr, l),
        "sweep-fig02" => sweep::run(ctx, tally, tr, l),
        "serve-mixed" => serve::run(ctx, tally, tr, l),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Print the human-readable summary of a run to standard error.
fn summarize(o: &Outcome, spans: &[spans::Span]) {
    let mut t = ptb_metrics::Table::new(
        format!(
            "{} (seed {}, {}): {} of {} ops failed",
            o.workload,
            o.seed,
            if o.trace { "traced" } else { "end to end" },
            o.failed,
            o.attempted
        ),
        &["metric", "value", "unit", "n", "p25", "p75"],
    );
    for m in &o.metrics {
        t.row(vec![
            m.name.to_owned(),
            format!("{:.4}", m.value),
            m.unit.to_owned(),
            m.n.to_string(),
            format!("{:.4}", m.quartiles.0),
            format!("{:.4}", m.quartiles.2),
        ]);
    }
    eprint!("{}", t.to_text());
    if !spans.is_empty() {
        let mut t = ptb_metrics::Table::new(
            "benchmark spans: self time is span time minus child-span time",
            &["span", "count", "total_ms", "self_ms"],
        );
        for (name, (count, total, own)) in spans::self_times(spans) {
            t.row(vec![
                name.to_owned(),
                count.to_string(),
                format!("{:.3}", total as f64 / 1e6),
                format!("{:.3}", own as f64 / 1e6),
            ]);
        }
        eprint!("{}", t.to_text());
    }
    for e in &o.errors {
        eprintln!("FAILED: {e}");
    }
}

fn write_runs(path: &Path, runs: Vec<Value>) -> Result<(), String> {
    let mut doc = Map::new();
    doc.insert("schema".into(), Value::Str(SCHEMA.into()));
    doc.insert("runs".into(), Value::Array(runs));
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, json::to_string_pretty(&Value::Object(doc)) + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// One workload, in this process. Returns the exit code.
fn single(name: &'static str, o: &Opts) -> Result<i32, String> {
    COUNT_ALLOCS.store(o.trace, Ordering::Relaxed);
    let ctx = Ctx {
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        root: checkout_root(),
        dir: scratch(&format!("run-{name}"))?,
    };
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let mut tr = Tracer::new(o.trace, Instant::now(), 0);
    tr.begin(name);
    let result = run_workload(name, &ctx, &mut tally, &mut tr, &mut layers);
    tr.end();
    std::fs::remove_dir_all(&ctx.dir).ok();
    let e2e = result?;
    let outcome = Outcome {
        workload: name,
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics: if o.trace {
            layer_metrics(&layers)
        } else {
            e2e_metrics(&e2e)
        },
    };
    summarize(&outcome, &tr.spans);
    if let Some(path) = &o.trace_out {
        std::fs::write(path, spans::chrome_trace(&tr.spans))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if let Some(path) = &o.out {
        write_runs(path, vec![outcome.record()])?;
    }
    println!("{}", outcome.result_line());
    Ok(if outcome.correct() { 0 } else { 1 })
}

/// Every workload, each in a child process of its own (so each has its
/// own peak resident set). Returns the exit code.
fn all(o: &Opts) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate self: {e}"))?;
    let dir = scratch("all")?;
    let mut runs = Vec::new();
    let mut code = 0;
    for name in WORKLOADS {
        let out = dir.join(format!("{name}.json"));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&out)
            .stdout(Stdio::null());
        if let Some(t) = &o.trace_out {
            let stem = t.with_extension("");
            cmd.arg("--trace-out")
                .arg(format!("{}-{name}.json", stem.display()));
        }
        let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
        if !status.success() {
            eprintln!("{name}: exited with {status}");
            code = 1;
        }
        let record = std::fs::read_to_string(&out)
            .ok()
            .and_then(|t| json::parse(&t).ok())
            .and_then(|d| d.get("runs").and_then(Value::as_array).cloned());
        runs.extend(record.unwrap_or_default());
    }
    std::fs::remove_dir_all(&dir).ok();
    if let Some(path) = &o.out {
        write_runs(path, runs)?;
    }
    Ok(code)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        parse(&args).and_then(|o| match o.workload {
            Some(name) => single(name, &o),
            None => all(&o),
        })
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{E2e, END_TO_END, PER_LAYER};
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn benchmark_json() -> Value {
        let path = checkout_root().join("BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn names(v: &Value, key: &str) -> BTreeSet<String> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_owned())
            .collect()
    }

    #[test]
    fn metric_and_workload_names_are_well_formed() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name))
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad name {name:?}");
        }
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "names repeat"
        );
    }

    #[test]
    fn benchmark_json_matches_what_the_binary_emits() {
        let doc = benchmark_json();
        let emitted = |ms: Vec<metrics::Measured>| -> BTreeSet<String> {
            ms.iter().map(|m| m.name.to_owned()).collect()
        };
        assert_eq!(
            names(&doc, "end_to_end"),
            emitted(e2e_metrics(&E2e::default()))
        );
        assert_eq!(
            names(&doc, "per_layer"),
            emitted(layer_metrics(&Layers::default()))
        );
        assert_eq!(
            names(&doc, "workloads"),
            WORKLOADS.iter().map(|w| w.to_string()).collect()
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            let section = if def.bound.is_some() {
                "end_to_end"
            } else {
                "per_layer"
            };
            let entry = doc
                .get(section)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some(def.name))
                .unwrap();
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            let better = match def.better {
                metrics::Better::Higher => "higher",
                metrics::Better::Lower => "lower",
            };
            assert_eq!(entry.get("better").and_then(Value::as_str), Some(better));
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn quartiles_are_ptb_metrics_percentiles() {
        let xs = [4.0, 1.0, 3.0, 2.0, 10.0];
        let (p25, p50, p75) = metrics::quartiles(&xs);
        assert_eq!(p25, ptb_metrics::percentile(&xs, 25.0));
        assert_eq!(p50, ptb_metrics::percentile(&xs, 50.0));
        assert_eq!(p75, ptb_metrics::percentile(&xs, 75.0));
        assert_eq!((p25, p50, p75), (2.0, 3.0, 4.0));
    }

    #[test]
    fn cli_takes_the_documented_flags() {
        let args: Vec<String> = [
            "--workload",
            "sim-busy",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse(&args).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some("sim-busy"), 7, 3.0, true)
        );
        assert!(parse(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse(&["--trace".to_string(), "2".to_string()]).is_err());
    }
}
