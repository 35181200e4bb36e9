//! **sim_throughput** — the repo's performance instrument: how fast does
//! the simulator simulate?
//!
//! Sweeps the 14 workloads across core counts (full: 1/4/8/16; `--quick`:
//! 16-core only at test scale, sized for CI), timing each unobserved
//! run median-of-N, and reports simulated cycles per host second plus
//! host-MIPS (committed simulated instructions per host second). Results
//! go to a machine-readable `BENCH_simthroughput.json` — the repo's perf
//! trajectory — and a headline line for `final_verify.sh`:
//!
//! ```text
//! SIM_THROUGHPUT: 12.34 Mcycles/s, 5.67 host-MIPS (8.90s wall, 42 runs)
//! ```
//!
//! Flags:
//! * `--quick` — CI matrix: 14 workloads × 16 cores, test scale;
//! * `--median-of N` — timing repeats per point (default 3);
//! * `--out PATH` — where to write the BENCH json
//!   (default `BENCH_simthroughput.json`);
//! * `--check PATH` — compare cycles/sec against a baseline BENCH json,
//!   exit 1 when any point regresses by more than the threshold;
//! * `--threshold PCT` — regression tolerance for `--check` (default 25,
//!   `PTB_BENCH_THRESHOLD` overrides) — noise-tolerant, not
//!   machine-portable: baselines are only comparable on similar hosts;
//! * `--write-baseline PATH` — also write the json to PATH (refresh
//!   `tests/bench_baseline.json` after intentional perf changes).
//!
//! `PTB_SCALE` selects the workload scale for the full matrix. Runs are
//! always live and unobserved (`NullObserver`): a cached or observed run
//! would not measure the hot path. With the `alloc-telemetry` feature the
//! json additionally carries allocations and bytes per simulated
//! kilocycle (the quantitative case for arena allocation work).

use ptb_core::{MechanismKind, SimConfig, Simulation};
use ptb_experiments::ObsArgs;
use ptb_farm::hash;
use ptb_metrics::{median, Table};
use ptb_workloads::{Benchmark, Scale};
use serde::{json, Map, Value};
use std::time::Instant;

#[cfg(feature = "alloc-telemetry")]
#[global_allocator]
static ALLOC: ptb_obs::alloc::CountingAlloc = ptb_obs::alloc::CountingAlloc;

/// Format tag of the BENCH json; bump on schema changes so `--check`
/// refuses to compare across formats.
const SCHEMA: &str = "ptb-bench-simthroughput/1";

const FULL_CORES: [usize; 4] = [1, 4, 8, 16];
const QUICK_CORES: [usize; 1] = [16];

struct Opts {
    quick: bool,
    median_of: usize,
    out: String,
    check: Option<String>,
    threshold_pct: f64,
    write_baseline: Option<String>,
}

fn parse_opts(argv: &mut Vec<String>) -> Opts {
    let mut opts = Opts {
        quick: false,
        median_of: 3,
        out: "BENCH_simthroughput.json".into(),
        check: None,
        threshold_pct: std::env::var("PTB_BENCH_THRESHOLD")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(25.0),
        write_baseline: None,
    };
    // Every arm either consumes argv[i] or exits, so the cursor never
    // advances: sim_throughput takes no positional arguments.
    let i = 1;
    while i < argv.len() {
        let (flag, inline) = match argv[i].split_once('=') {
            Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
            None => (argv[i].clone(), None),
        };
        let take_value = |argv: &mut Vec<String>| -> String {
            argv.remove(i);
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
            "--quick" => {
                argv.remove(i);
                opts.quick = true;
            }
            "--median-of" => {
                let v = take_value(argv);
                opts.median_of = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: bad --median-of {v:?}");
                    std::process::exit(2);
                });
                opts.median_of = opts.median_of.max(1);
            }
            "--out" => opts.out = take_value(argv),
            "--check" => opts.check = Some(take_value(argv)),
            "--threshold" => {
                let v = take_value(argv);
                opts.threshold_pct = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: bad --threshold {v:?}");
                    std::process::exit(2);
                });
            }
            "--write-baseline" => opts.write_baseline = Some(take_value(argv)),
            other => {
                eprintln!("error: unknown argument {other:?}");
                eprintln!(
                    "usage: sim_throughput [--quick] [--median-of N] [--out PATH] \
                     [--check BASELINE] [--threshold PCT] [--write-baseline PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// One measured matrix point.
struct Point {
    bench: Benchmark,
    n_cores: usize,
    cycles: u64,
    committed: u64,
    wall_s: f64,
    #[cfg(feature = "alloc-telemetry")]
    allocs_per_kilocycle: f64,
    #[cfg(feature = "alloc-telemetry")]
    alloc_bytes_per_kilocycle: f64,
}

impl Point {
    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_s
    }

    fn host_mips(&self) -> f64 {
        self.committed as f64 / self.wall_s / 1e6
    }
}

fn measure(bench: Benchmark, n_cores: usize, scale: Scale, median_of: usize) -> Point {
    let cfg = SimConfig {
        n_cores,
        scale,
        mechanism: MechanismKind::None,
        ..SimConfig::default()
    };
    let sim = Simulation::new(cfg);
    let mut walls = Vec::with_capacity(median_of);
    let mut cycles = 0u64;
    let mut committed = 0u64;
    #[cfg(feature = "alloc-telemetry")]
    let mut alloc_delta = ptb_obs::alloc::AllocSnapshot::default();
    for _ in 0..median_of {
        #[cfg(feature = "alloc-telemetry")]
        let before = ptb_obs::alloc::snapshot();
        let t0 = Instant::now();
        let report = sim
            .run_spec(&bench.spec(n_cores, scale))
            .unwrap_or_else(|e| {
                eprintln!("error: {}/{n_cores}c failed: {e}", bench.name());
                std::process::exit(1);
            });
        walls.push(t0.elapsed().as_secs_f64().max(1e-9));
        #[cfg(feature = "alloc-telemetry")]
        {
            alloc_delta = ptb_obs::alloc::snapshot().since(&before);
        }
        cycles = report.cycles;
        committed = report.cores.iter().map(|c| c.committed).sum();
    }
    Point {
        bench,
        n_cores,
        cycles,
        committed,
        wall_s: median(&walls),
        #[cfg(feature = "alloc-telemetry")]
        allocs_per_kilocycle: alloc_delta.allocs_per_kilocycle(cycles),
        #[cfg(feature = "alloc-telemetry")]
        alloc_bytes_per_kilocycle: alloc_delta.bytes_per_kilocycle(cycles),
    }
}

/// Current commit hash, best-effort (no git invocation: read
/// `.git/HEAD`, chasing one level of `ref:` indirection).
fn read_commit() -> String {
    let chase = |dir: &std::path::Path| -> Option<String> {
        let head = std::fs::read_to_string(dir.join(".git/HEAD")).ok()?;
        let head = head.trim();
        if let Some(refname) = head.strip_prefix("ref: ") {
            let direct = std::fs::read_to_string(dir.join(".git").join(refname)).ok();
            if let Some(h) = direct {
                return Some(h.trim().to_owned());
            }
            // Packed refs fallback.
            let packed = std::fs::read_to_string(dir.join(".git/packed-refs")).ok()?;
            packed
                .lines()
                .find_map(|l| l.strip_suffix(refname).map(|hash| hash.trim().to_owned()))
        } else {
            Some(head.to_owned())
        }
    };
    let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
    loop {
        if let Some(c) = chase(&dir) {
            return c;
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

/// Digest of everything that determines the measured work: every matrix
/// point's content key (config + fully expanded workload), in order.
fn config_digest(points: &[(Benchmark, usize)], scale: Scale) -> String {
    let mut material = String::new();
    for &(bench, n) in points {
        let cfg = SimConfig {
            n_cores: n,
            scale,
            mechanism: MechanismKind::None,
            ..SimConfig::default()
        };
        material.push_str(&hash::job_key(&cfg, &bench.spec(n, scale)));
        material.push('\n');
    }
    hash::digest_hex(material.as_bytes())
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Large => "large",
    }
}

fn to_json(points: &[Point], opts: &Opts, scale: Scale, digest: &str) -> Value {
    let mut runs = Vec::new();
    for p in points {
        let mut m = Map::new();
        m.insert("bench".into(), Value::Str(p.bench.name().into()));
        m.insert("n_cores".into(), Value::U64(p.n_cores as u64));
        m.insert("cycles".into(), Value::U64(p.cycles));
        m.insert("committed".into(), Value::U64(p.committed));
        m.insert("wall_s".into(), Value::F64(p.wall_s));
        m.insert("cycles_per_sec".into(), Value::F64(p.cycles_per_sec()));
        m.insert("host_mips".into(), Value::F64(p.host_mips()));
        #[cfg(feature = "alloc-telemetry")]
        {
            m.insert(
                "allocs_per_kilocycle".into(),
                Value::F64(p.allocs_per_kilocycle),
            );
            m.insert(
                "alloc_bytes_per_kilocycle".into(),
                Value::F64(p.alloc_bytes_per_kilocycle),
            );
        }
        runs.push(Value::Object(m));
    }
    let total_cycles: u64 = points.iter().map(|p| p.cycles).sum();
    let total_committed: u64 = points.iter().map(|p| p.committed).sum();
    let total_wall: f64 = points.iter().map(|p| p.wall_s).sum();
    let mut totals = Map::new();
    totals.insert("cycles".into(), Value::U64(total_cycles));
    totals.insert("committed".into(), Value::U64(total_committed));
    totals.insert("wall_s".into(), Value::F64(total_wall));
    totals.insert(
        "cycles_per_sec".into(),
        Value::F64(total_cycles as f64 / total_wall.max(1e-9)),
    );
    totals.insert(
        "host_mips".into(),
        Value::F64(total_committed as f64 / total_wall.max(1e-9) / 1e6),
    );

    let mut root = Map::new();
    root.insert("schema".into(), Value::Str(SCHEMA.into()));
    root.insert("commit".into(), Value::Str(read_commit()));
    root.insert("config_digest".into(), Value::Str(digest.into()));
    root.insert("scale".into(), Value::Str(scale_name(scale).into()));
    root.insert("quick".into(), Value::Bool(opts.quick));
    root.insert("median_of".into(), Value::U64(opts.median_of as u64));
    root.insert("runs".into(), Value::Array(runs));
    root.insert("totals".into(), Value::Object(totals));
    Value::Object(root)
}

/// Compare `current` against the baseline json at `path`. Returns the
/// number of regressed points (each named on stderr).
fn check_against(path: &str, current: &Value, threshold_pct: f64) -> usize {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    let base = json::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: cannot parse baseline {path}: {e}");
        std::process::exit(2);
    });
    if base.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        eprintln!("error: baseline {path} has a different schema; regenerate it");
        std::process::exit(2);
    }
    if base.get("scale").and_then(Value::as_str) != current.get("scale").and_then(Value::as_str) {
        eprintln!("error: baseline {path} was measured at a different workload scale");
        std::process::exit(2);
    }
    let runs_of = |v: &Value| -> Vec<(String, u64, f64)> {
        v.get("runs")
            .and_then(Value::as_array)
            .map(|rs| {
                rs.iter()
                    .filter_map(|r| {
                        Some((
                            r.get("bench")?.as_str()?.to_owned(),
                            r.get("n_cores")?.as_u64()?,
                            r.get("cycles_per_sec")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let base_runs = runs_of(&base);
    let cur_runs = runs_of(current);
    let mut regressions = 0usize;
    for (bench, n, cur_cps) in &cur_runs {
        let Some((_, _, base_cps)) = base_runs.iter().find(|(bb, bn, _)| bb == bench && bn == n)
        else {
            eprintln!("note: {bench}/{n}c not in baseline, skipping");
            continue;
        };
        if *base_cps <= 0.0 {
            continue;
        }
        let delta_pct = 100.0 * (base_cps - cur_cps) / base_cps;
        if delta_pct > threshold_pct {
            eprintln!(
                "REGRESSION: {bench}/{n}c {:.0} -> {:.0} cycles/s ({delta_pct:.1}% slower, \
                 threshold {threshold_pct:.0}%)",
                base_cps, cur_cps
            );
            regressions += 1;
        }
    }
    regressions
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let obs = ObsArgs::parse(&mut args);
    if obs.enabled() {
        eprintln!(
            "warning: observability flags ignored: sim_throughput measures the unobserved hot path"
        );
    }
    let opts = parse_opts(&mut args);
    let scale = if opts.quick {
        Scale::Test
    } else {
        match std::env::var("PTB_SCALE").ok().as_deref() {
            Some("test") => Scale::Test,
            Some("large") => Scale::Large,
            None | Some("small") => Scale::Small,
            Some(other) => {
                eprintln!("warning: unknown PTB_SCALE {other:?}, using small");
                Scale::Small
            }
        }
    };
    let core_counts: &[usize] = if opts.quick {
        &QUICK_CORES
    } else {
        &FULL_CORES
    };

    let matrix: Vec<(Benchmark, usize)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| core_counts.iter().map(move |&n| (b, n)))
        .collect();
    let digest = config_digest(&matrix, scale);

    eprintln!(
        "sim_throughput: {} points ({} workloads x {:?} cores), {} scale, median of {}",
        matrix.len(),
        Benchmark::ALL.len(),
        core_counts,
        scale_name(scale),
        opts.median_of
    );
    let mut points = Vec::with_capacity(matrix.len());
    for &(bench, n) in &matrix {
        let p = measure(bench, n, scale, opts.median_of);
        eprintln!(
            "  {:>14}/{:<2}c {:>12} cycles {:>8.3}s {:>10.0} cyc/s {:>7.2} MIPS",
            p.bench.name(),
            p.n_cores,
            p.cycles,
            p.wall_s,
            p.cycles_per_sec(),
            p.host_mips()
        );
        points.push(p);
    }

    let mut table = Table::new(
        format!("sim_throughput ({} scale)", scale_name(scale)),
        &[
            "bench",
            "cores",
            "sim-cycles",
            "wall-s",
            "cycles/s",
            "host-MIPS",
        ],
    );
    for p in &points {
        table.row(vec![
            p.bench.name().to_string(),
            p.n_cores.to_string(),
            p.cycles.to_string(),
            format!("{:.3}", p.wall_s),
            format!("{:.0}", p.cycles_per_sec()),
            format!("{:.2}", p.host_mips()),
        ]);
    }
    print!("{}", table.to_text());

    let doc = to_json(&points, &opts, scale, &digest);
    let text = json::to_string_pretty(&doc);
    if let Err(e) = std::fs::write(&opts.out, &text) {
        eprintln!("error: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("[bench: {} runs -> {}]", points.len(), opts.out);
    if let Some(path) = &opts.write_baseline {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("error: cannot write baseline {path}: {e}");
            std::process::exit(1);
        }
        println!("[baseline -> {path}]");
    }

    let total_wall: f64 = points.iter().map(|p| p.wall_s).sum();
    let total_cycles: u64 = points.iter().map(|p| p.cycles).sum();
    let total_committed: u64 = points.iter().map(|p| p.committed).sum();
    println!(
        "SIM_THROUGHPUT: {:.2} Mcycles/s, {:.2} host-MIPS ({:.2}s wall, {} runs)",
        total_cycles as f64 / total_wall.max(1e-9) / 1e6,
        total_committed as f64 / total_wall.max(1e-9) / 1e6,
        total_wall,
        points.len()
    );

    if let Some(baseline) = &opts.check {
        let regressions = check_against(baseline, &doc, opts.threshold_pct);
        if regressions > 0 {
            eprintln!("bench gate FAILED: {regressions} regressed points");
            std::process::exit(1);
        }
        println!(
            "bench gate passed: no point slower than baseline by more than {:.0}%",
            opts.threshold_pct
        );
    }
}
