//! Metric definitions (the same tables as `BENCHMARK.json`), quartile
//! math, and the per-run result record.

use ptb_metrics::percentile;
use serde::{Map, Value};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput, hit ratio).
    Higher,
    /// Smaller values are better (latency, time, memory).
    Lower,
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name, emitted verbatim.
    pub name: &'static str,
    /// Unit, emitted verbatim.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change is a regression (`None` for per-layer
    /// metrics, which carry no bound).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Every workload emits
/// every one; what one "op" is depends on the workload (see README).
///
/// Throughput and latency are means over the whole run, not medians:
/// the measuring host alternates between a fast and a slow state in
/// bursts of a second or two, so per-op times are bimodal and any fixed
/// percentile jumps between the two modes as a run's share of slow
/// bursts crosses it, while a mean moves smoothly with that share.
pub const END_TO_END: [Def; 5] = [
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_mean_ms", "ms", Lower, 0.25),
    e2e("op_tail_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// Per-layer metrics of the traced run. Layer prefixes are the module
/// (crate) names of the code measured.
pub const PER_LAYER: [Def; 34] = [
    layer("noc.ns_per_kcycle", "ns", Lower),
    layer("mem.ns_per_kcycle", "ns", Lower),
    layer("uarch.ns_per_kcycle", "ns", Lower),
    layer("power.ns_per_kcycle", "ns", Lower),
    layer("core.mechanism_ns_per_kcycle", "ns", Lower),
    layer("obs.ns_per_kcycle", "ns", Lower),
    layer("core.allocs_per_kcycle", "count", Lower),
    layer("core.alloc_bytes_per_kcycle", "bytes", Lower),
    layer("sync.spin_share", "ratio", Lower),
    layer("sync.spin_episodes_per_kcycle", "count", Lower),
    layer("uarch.ipc", "ratio", Higher),
    layer("mem.l1_misses_per_kcycle", "count", Lower),
    layer("mem.invalidations_per_kcycle", "count", Lower),
    layer("mem.retries_per_kcycle", "count", Lower),
    layer("core.throttle_changes_per_kcycle", "count", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("farm.exec_utilization", "ratio", Higher),
    layer("farm.exec_steals", "count", Lower),
    layer("farm.key_us", "us", Lower),
    layer("farm.store_put_us", "us", Lower),
    layer("farm.store_get_us", "us", Lower),
    layer("farm.read_entry_us", "us", Lower),
    layer("farm.entry_bytes", "bytes", Lower),
    layer("farm.open_ms", "ms", Lower),
    layer("serve.json_decode_us", "us", Lower),
    layer("serve.report_encode_us", "us", Lower),
    layer("serve.submit_handler_p50_ms", "ms", Lower),
    layer("serve.report_handler_p50_ms", "ms", Lower),
    layer("serve.execute_p50_ms", "ms", Lower),
    layer("serve.miss_settle_p50_ms", "ms", Lower),
    layer("serve.hit_ratio", "ratio", Higher),
    layer("serve.sims_per_new_job", "ratio", Lower),
    layer("http.submit_overhead_p50_ms", "ms", Lower),
    layer("http.fetch_overhead_p50_ms", "ms", Lower),
];

/// `(p25, p50, p75)` by `ptb_metrics::percentile` (linear interpolation
/// between closest ranks).
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    (
        percentile(xs, 25.0),
        percentile(xs, 50.0),
        percentile(xs, 75.0),
    )
}

/// Samples kept verbatim in the result file up to this count; larger
/// sets (per-request latencies) are kept as their count and quartiles.
const MAX_KEPT_SAMPLES: usize = 64;

/// One reported metric of one run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// Quartiles of the samples.
    pub quartiles: (f64, f64, f64),
    /// The samples themselves, when few enough to keep.
    pub samples: Vec<f64>,
}

impl Measured {
    /// A metric whose value is `value`, computed from `samples`.
    pub fn new(def: &Def, value: f64, samples: &[f64]) -> Self {
        Measured {
            name: def.name,
            unit: def.unit,
            value,
            n: samples.len(),
            quartiles: quartiles(samples),
            samples: if samples.len() <= MAX_KEPT_SAMPLES {
                samples.to_vec()
            } else {
                Vec::new()
            },
        }
    }

    /// A metric reported as the median of its samples.
    pub fn median(def: &Def, samples: &[f64]) -> Self {
        Measured::new(def, percentile(samples, 50.0), samples)
    }

    /// A single computed value.
    pub fn single(def: &Def, value: f64) -> Self {
        Measured::new(def, value, &[value])
    }

    fn detail(&self) -> Value {
        let mut m = Map::new();
        m.insert("value".into(), Value::F64(self.value));
        m.insert("unit".into(), Value::Str(self.unit.into()));
        m.insert("n".into(), Value::U64(self.n as u64));
        m.insert("p25".into(), Value::F64(self.quartiles.0));
        m.insert("median".into(), Value::F64(self.quartiles.1));
        m.insert("p75".into(), Value::F64(self.quartiles.2));
        if !self.samples.is_empty() {
            m.insert(
                "samples".into(),
                Value::Array(self.samples.iter().map(|&x| Value::F64(x)).collect()),
            );
        }
        Value::Object(m)
    }
}

/// Raw end-to-end measurements of one workload run.
#[derive(Debug, Default)]
pub struct E2e {
    /// Ops completed in the measured time.
    pub ops: f64,
    /// Measured time, s.
    pub secs: f64,
    /// Throughput of each pass, run or second, ops/s (kept in the
    /// detailed record; the reported value is `ops / secs`).
    pub rates: Vec<f64>,
    /// Op latencies, ms, each with the number of ops it stands for (a
    /// simulation stands for all its kilocycles, a figure run for all
    /// its jobs).
    pub op_ms: Vec<(f64, f64)>,
    /// Set-up repetitions, s.
    pub setup_s: Vec<f64>,
    /// Peak resident set of the measured process, MiB.
    pub peak_rss_mb: f64,
}

/// Mean latency over all ops.
pub fn op_mean(xs: &[(f64, f64)]) -> f64 {
    let weight: f64 = xs.iter().map(|x| x.1).sum();
    let total: f64 = xs.iter().map(|(ms, n)| ms * n).sum();
    if weight > 0.0 {
        total / weight
    } else {
        0.0
    }
}

/// Share of ops, slowest first, that `op_tail_ms` averages. A quarter,
/// not a tenth: the simulator workloads complete a few dozen
/// simulations a run, and a smaller share picks out little more than
/// the passes a noise burst happened to hit.
const TAIL_SHARE: f64 = 0.25;

/// Mean latency over the slowest quarter of all ops: the tail's
/// expected cost.
pub fn tail_mean(xs: &[(f64, f64)]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut left = sorted.iter().map(|x| x.1).sum::<f64>() * TAIL_SHARE;
    let (mut total, mut weight) = (0.0, 0.0);
    for (ms, n) in sorted {
        if left <= 0.0 {
            break;
        }
        let take = n.min(left);
        total += ms * take;
        weight += take;
        left -= take;
    }
    if weight > 0.0 {
        total / weight
    } else {
        0.0
    }
}

/// The end-to-end metrics of `e`, in [`END_TO_END`] order.
pub fn e2e_metrics(e: &E2e) -> Vec<Measured> {
    let [ops, op_mean, op_tail, setup, rss] = &END_TO_END;
    let latencies: Vec<f64> = e.op_ms.iter().map(|x| x.0).collect();
    vec![
        Measured::new(ops, e.ops / e.secs.max(f64::MIN_POSITIVE), &e.rates),
        Measured::new(op_mean, self::op_mean(&e.op_ms), &latencies),
        Measured::new(op_tail, tail_mean(&e.op_ms), &latencies),
        Measured::median(setup, &e.setup_s),
        Measured::single(rss, e.peak_rss_mb),
    ]
}

/// Per-layer results of the traced run, one field per [`PER_LAYER`]
/// entry (same order).
#[derive(Debug, Default, Clone)]
#[allow(missing_docs)]
pub struct Layers {
    pub noc_ns_per_kcycle: f64,
    pub mem_ns_per_kcycle: f64,
    pub uarch_ns_per_kcycle: f64,
    pub power_ns_per_kcycle: f64,
    pub mechanism_ns_per_kcycle: f64,
    pub obs_ns_per_kcycle: f64,
    pub allocs_per_kcycle: f64,
    pub alloc_bytes_per_kcycle: f64,
    pub spin_share: f64,
    pub spin_episodes_per_kcycle: f64,
    pub ipc: f64,
    pub l1_misses_per_kcycle: f64,
    pub invalidations_per_kcycle: f64,
    pub retries_per_kcycle: f64,
    pub throttle_changes_per_kcycle: f64,
    pub trace_overhead_pct: f64,
    pub exec_utilization: f64,
    pub exec_steals: f64,
    pub key_us: Vec<f64>,
    pub store_put_us: Vec<f64>,
    pub store_get_us: Vec<f64>,
    pub read_entry_us: Vec<f64>,
    pub entry_bytes: f64,
    pub open_ms: f64,
    pub json_decode_us: Vec<f64>,
    pub report_encode_us: Vec<f64>,
    pub submit_handler_p50_ms: f64,
    pub report_handler_p50_ms: f64,
    pub execute_p50_ms: f64,
    pub miss_settle_ms: Vec<f64>,
    pub hit_ratio: f64,
    pub sims_per_new_job: f64,
    /// Client-observed submit p50 (for the HTTP overhead difference).
    pub submit_client_p50_ms: f64,
    /// Client-observed report fetch p50.
    pub fetch_client_p50_ms: f64,
}

/// The per-layer metrics of `l`, in [`PER_LAYER`] order. The two HTTP
/// overheads are differences of medians (client p50 minus handler p50),
/// not medians of differences.
pub fn layer_metrics(l: &Layers) -> Vec<Measured> {
    let d = &PER_LAYER;
    let s = Measured::single;
    let m = Measured::median;
    vec![
        s(&d[0], l.noc_ns_per_kcycle),
        s(&d[1], l.mem_ns_per_kcycle),
        s(&d[2], l.uarch_ns_per_kcycle),
        s(&d[3], l.power_ns_per_kcycle),
        s(&d[4], l.mechanism_ns_per_kcycle),
        s(&d[5], l.obs_ns_per_kcycle),
        s(&d[6], l.allocs_per_kcycle),
        s(&d[7], l.alloc_bytes_per_kcycle),
        s(&d[8], l.spin_share),
        s(&d[9], l.spin_episodes_per_kcycle),
        s(&d[10], l.ipc),
        s(&d[11], l.l1_misses_per_kcycle),
        s(&d[12], l.invalidations_per_kcycle),
        s(&d[13], l.retries_per_kcycle),
        s(&d[14], l.throttle_changes_per_kcycle),
        s(&d[15], l.trace_overhead_pct),
        s(&d[16], l.exec_utilization),
        s(&d[17], l.exec_steals),
        m(&d[18], &l.key_us),
        m(&d[19], &l.store_put_us),
        m(&d[20], &l.store_get_us),
        m(&d[21], &l.read_entry_us),
        s(&d[22], l.entry_bytes),
        s(&d[23], l.open_ms),
        m(&d[24], &l.json_decode_us),
        m(&d[25], &l.report_encode_us),
        s(&d[26], l.submit_handler_p50_ms),
        s(&d[27], l.report_handler_p50_ms),
        s(&d[28], l.execute_p50_ms),
        m(&d[29], &l.miss_settle_ms),
        s(&d[30], l.hit_ratio),
        s(&d[31], l.sims_per_new_job),
        s(&d[32], l.submit_client_p50_ms - l.submit_handler_p50_ms),
        s(&d[33], l.fetch_client_p50_ms - l.report_handler_p50_ms),
    ]
}

/// The outcome of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Ops attempted (simulations, sweep jobs, HTTP requests).
    pub attempted: u64,
    /// Ops that failed or returned a wrong result.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Measured>,
}

impl Outcome {
    /// True when every op succeeded and every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line, printed last on standard output: exactly
    /// `correct`, `attempted`, `failed` and `metrics` (each
    /// `{value, unit}`).
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        for m in &self.metrics {
            let mut v = Map::new();
            v.insert("value".into(), Value::F64(m.value));
            v.insert("unit".into(), Value::Str(m.unit.into()));
            metrics.insert(m.name.into(), Value::Object(v));
        }
        let mut root = Map::new();
        root.insert("correct".into(), Value::Bool(self.correct()));
        root.insert("attempted".into(), Value::U64(self.attempted));
        root.insert("failed".into(), Value::U64(self.failed));
        root.insert("metrics".into(), Value::Object(metrics));
        serde::json::to_string(&Value::Object(root))
    }

    /// The detailed record written by `--out`: per metric the samples,
    /// median, quartiles and sample count, plus the op tallies.
    pub fn record(&self) -> Value {
        let mut metrics = Map::new();
        for m in &self.metrics {
            metrics.insert(m.name.into(), m.detail());
        }
        let mut root = Map::new();
        root.insert("workload".into(), Value::Str(self.workload.into()));
        root.insert("seed".into(), Value::U64(self.seed));
        root.insert("seconds".into(), Value::F64(self.seconds));
        root.insert("trace".into(), Value::Bool(self.trace));
        root.insert("correct".into(), Value::Bool(self.correct()));
        root.insert("attempted".into(), Value::U64(self.attempted));
        root.insert("failed".into(), Value::U64(self.failed));
        root.insert(
            "errors".into(),
            Value::Array(self.errors.iter().map(|e| Value::Str(e.clone())).collect()),
        );
        root.insert("metrics".into(), Value::Object(metrics));
        Value::Object(root)
    }
}

/// Op accounting shared by every workload: each op is attempted once and
/// either succeeds or fails with a message.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
}

/// Failure messages kept per run.
const MAX_ERRORS: usize = 16;

impl Tally {
    /// Record `n` ops that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record `n` ops that failed, with the reason.
    pub fn fail(&mut self, n: u64, msg: impl Into<String>) {
        self.attempted += n;
        self.failed += n;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg.into());
        }
    }

    /// Record `n` ops that succeeded when `r` is `Ok`, failed otherwise.
    pub fn check(&mut self, n: u64, r: Result<(), String>) -> bool {
        match r {
            Ok(()) => {
                self.ok(n);
                true
            }
            Err(msg) => {
                self.fail(n, msg);
                false
            }
        }
    }

    /// Fold another tally (a client thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_mean_averages_the_slowest_quarter_of_ops() {
        let unit: Vec<(f64, f64)> = (1..=20).map(|x| (f64::from(x), 1.0)).collect();
        assert_eq!(tail_mean(&unit), 18.0);
        assert_eq!(op_mean(&unit), 10.5);
        // Weights count ops: half an op at 10 ms, two at 1 ms.
        assert_eq!(tail_mean(&[(10.0, 0.5), (1.0, 9.5)]), 2.8);
        assert_eq!(op_mean(&[(10.0, 1.0), (1.0, 9.0)]), 1.9);
        assert_eq!(tail_mean(&[]), 0.0);
        assert_eq!(op_mean(&[]), 0.0);
    }
}
