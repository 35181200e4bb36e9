//! `sim-spin` and `sim-busy`: host speed of the simulator itself, plus
//! the simulator-layer probe every traced run uses.
//!
//! Both workloads run four 16-core `Scale::Small` simulations per pass,
//! live and unobserved on one thread (`Simulation::run_spec`), their
//! workload seeds offset by `--seed`. `sim-spin` runs the most
//! spin-heavy benchmarks under PTB (about 60 % of core-cycles spin, and
//! the mechanism phase takes about 15 % of host time); `sim-busy` runs
//! compute-bound ones with no power mechanism, where spin skip-ahead or
//! mechanism dispatch changes should change nothing.

use crate::metrics::{E2e, Layers, Tally};
use crate::spans::Tracer;
use crate::{peak_rss_mb, probe, serve, Ctx};
use ptb_core::{MechanismKind, PtbPolicy, RunReport, SimConfig, Simulation};
use ptb_farm::hash::digest_hex;
use ptb_farm::FarmJob;
use ptb_obs::{CounterRegistry, Phase, PhaseProfiler};
use ptb_workloads::{Benchmark, Scale, WorkloadSpec};
use serde::{json, Serialize};
use std::time::Instant;

/// Core count of the simulated chip.
const CORES: usize = 16;

/// Set-up repetitions before each pass (set-up is sub-millisecond, so
/// the median needs many).
const SETUP_REPS: usize = 5;

/// Which simulation mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Lock- and barrier-heavy benchmarks under PTB.
    Spin,
    /// Compute-bound benchmarks with no power mechanism.
    Busy,
}

impl Mix {
    fn benches(self) -> [Benchmark; 4] {
        use Benchmark::*;
        match self {
            Mix::Spin => [Unstructured, Waternsq, Fluidanimate, Barnes],
            Mix::Busy => [Swaptions, Blackscholes, X264, Cholesky],
        }
    }

    fn mechanism(self) -> MechanismKind {
        match self {
            Mix::Spin => MechanismKind::PtbTwoLevel {
                policy: PtbPolicy::Dynamic,
                relax: 0.0,
            },
            Mix::Busy => MechanismKind::None,
        }
    }
}

/// FNV-128 digests of `json::to_string(&report.to_value())` at seed 0,
/// with the cycle count for orientation. A pure speed-up must leave
/// every one unchanged.
const PINNED: [(Benchmark, u64, &str); 8] = [
    (
        Benchmark::Unstructured,
        949_293,
        "3cb59d5a3f1683592ff88e2f334d32ea",
    ),
    (
        Benchmark::Waternsq,
        352_217,
        "78153531f6335aab0b95c26f251e539c",
    ),
    (
        Benchmark::Fluidanimate,
        323_009,
        "d4a27ca29a148aace200bc37b578bf77",
    ),
    (
        Benchmark::Barnes,
        253_471,
        "c178d7aad4659b621550bcc526c8e2f3",
    ),
    (
        Benchmark::Swaptions,
        67_598,
        "19c98448e834507096b782e28cbe37cb",
    ),
    (
        Benchmark::Blackscholes,
        80_949,
        "b2715d43ab6d298cd6193ba4240cb52d",
    ),
    (Benchmark::X264, 148_495, "17b57d816b06d7fb9c50683b824870b8"),
    (
        Benchmark::Cholesky,
        166_028,
        "54892c524fe044f36b93569341d9cec8",
    ),
];

/// Digest of a report's compact JSON (the bytes `ptb-serve` serves).
pub fn report_digest(r: &RunReport) -> String {
    digest_hex(json::to_string(&r.to_value()).as_bytes())
}

/// One simulation: the config and the (re-seeded) workload spec.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Benchmark the spec was generated from.
    pub bench: Benchmark,
    /// Machine and mechanism.
    pub config: SimConfig,
    /// The workload, as run.
    pub spec: WorkloadSpec,
}

impl SimJob {
    /// The job for `config`'s core count and scale, unseeded.
    pub fn new(bench: Benchmark, config: SimConfig) -> Self {
        let spec = bench.spec(config.n_cores, config.scale);
        SimJob {
            bench,
            config,
            spec,
        }
    }
}

/// The four simulations of `mix`, workload seeds offset by `seed`.
pub fn jobs(mix: Mix, seed: u64) -> Vec<SimJob> {
    mix.benches()
        .into_iter()
        .map(|bench| {
            let config = SimConfig {
                n_cores: CORES,
                scale: Scale::Small,
                mechanism: mix.mechanism(),
                ..SimConfig::default()
            };
            let mut job = SimJob::new(bench, config);
            job.spec.seed = job.spec.seed.wrapping_add(seed);
            job
        })
        .collect()
}

/// The check on one simulation's report: identical to the first pass's,
/// and at seed 0 identical to the pinned digest.
fn check_report(bench: Benchmark, digest: &str, first: &str, seed: u64) -> Result<(), String> {
    if digest != first {
        return Err(format!("{}: report differs between passes", bench.name()));
    }
    if seed == 0 {
        if let Some((_, cycles, pinned)) = PINNED.iter().find(|(b, _, _)| *b == bench) {
            if digest != *pinned {
                return Err(format!(
                    "{}: report digest {digest} differs from the pinned {pinned} \
                     (seed 0, {cycles} cycles expected)",
                    bench.name()
                ));
            }
        }
    }
    Ok(())
}

/// Run `sim-spin` or `sim-busy`. An op is 1 000 simulated cycles:
/// `ops_per_s` is simulated kilocycles per host second, and the op
/// latencies are each simulation's host ms per kilocycle. The traced
/// run then probes every layer with the same four jobs.
pub fn run(
    mix: Mix,
    ctx: &Ctx,
    tally: &mut Tally,
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<E2e, String> {
    let mut e = passes(mix, ctx, tally, tr);
    e.peak_rss_mb = peak_rss_mb();
    if ctx.trace {
        let jobs = jobs(mix, ctx.seed);
        profile(&jobs, tally, tr).fill(l);
        let farm_jobs: Vec<FarmJob> = jobs
            .iter()
            .map(|j| FarmJob::new(j.bench, j.config.clone()))
            .collect();
        let farm = ctx.dir.join("probe-farm");
        let stored = probe::exec(&farm, &farm_jobs, tally, tr, l)?;
        probe::store(&farm, &stored, tally, tr, l)?;
        serve::probe(&farm, &stored, ctx.seed, tally, tr, l)?;
    }
    Ok(e)
}

/// Passes of the four simulations until `ctx.seconds` have passed.
fn passes(mix: Mix, ctx: &Ctx, tally: &mut Tally, tr: &mut Tracer) -> E2e {
    let mut e = E2e::default();
    // Set-up is the work before cycle 0: generate each spec, then
    // validate it and expand it into per-thread engines as `run_spec`
    // does on entry. It is timed before every pass, so its median spans
    // the run rather than one instant of it.
    let mut setup = || {
        let t0 = Instant::now();
        let js = jobs(mix, ctx.seed);
        for j in &js {
            std::hint::black_box((j.spec.validate(), j.spec.engines()));
        }
        let sims: Vec<Simulation> = js
            .iter()
            .map(|j| Simulation::new(j.config.clone()))
            .collect();
        e.setup_s.push(t0.elapsed().as_secs_f64());
        js.into_iter().zip(sims).collect::<Vec<_>>()
    };
    let mut first: Vec<Option<String>> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let jobs_built = (0..SETUP_REPS)
            .map(|_| setup())
            .last()
            .expect("at least one set-up");
        first.resize(jobs_built.len(), None);
        tr.begin("pass");
        let (mut kcycles, mut secs) = (0.0, 0.0);
        for (i, (job, sim)) in jobs_built.iter().enumerate() {
            tr.begin("core.run_spec");
            let t0 = Instant::now();
            let result = sim.run_spec(&job.spec);
            let dt = t0.elapsed().as_secs_f64();
            tr.end();
            let report = match result {
                Ok(r) => r,
                Err(err) => {
                    tally.fail(1, format!("{}: {err}", job.bench.name()));
                    continue;
                }
            };
            let digest = report_digest(&report);
            let first = first[i].get_or_insert_with(|| digest.clone());
            if tally.check(1, check_report(job.bench, &digest, first, ctx.seed)) {
                let kc = report.cycles as f64 / 1e3;
                kcycles += kc;
                secs += dt;
                e.op_ms.push((dt * 1e3 / kc, kc));
            }
        }
        tr.end();
        if secs > 0.0 {
            e.rates.push(kcycles / secs);
            e.ops += kcycles;
            e.secs += secs;
        }
    }
    e
}

/// What one unobserved and one observed pass over some simulations
/// measured.
#[derive(Debug, Default)]
pub struct SimProfile {
    cycles: f64,
    core_cycles: f64,
    committed: f64,
    spin_cycles: f64,
    phase_ns: [u64; Phase::COUNT],
    counters: CounterRegistry,
    allocs: u64,
    alloc_bytes: u64,
    unobserved_s: f64,
    observed_s: f64,
}

/// Simulate `jobs` twice on this thread: once unobserved, once under
/// `(PhaseProfiler, CounterRegistry)` with the allocation counters read
/// around it. Observing must not change any report.
pub fn profile(jobs: &[SimJob], tally: &mut Tally, tr: &mut Tracer) -> SimProfile {
    let mut p = SimProfile::default();
    let mut digests = Vec::new();
    tr.begin("probe.sim_unobserved");
    let t0 = Instant::now();
    for job in jobs {
        tr.begin("core.run_spec");
        let r = Simulation::new(job.config.clone()).run_spec(&job.spec);
        tr.end();
        digests.push(r.map(|r| report_digest(&r)));
    }
    p.unobserved_s = t0.elapsed().as_secs_f64();
    tr.end();

    tr.begin("probe.sim_observed");
    let mut obs = (PhaseProfiler::new(), CounterRegistry::new());
    let before = ptb_obs::alloc::snapshot();
    let t0 = Instant::now();
    let mut reports = Vec::new();
    for job in jobs {
        tr.begin("core.run_spec_observed");
        reports.push(Simulation::new(job.config.clone()).run_spec_observed(&job.spec, &mut obs));
        tr.end();
    }
    p.observed_s = t0.elapsed().as_secs_f64();
    let allocs = ptb_obs::alloc::snapshot().since(&before);
    tr.end();
    p.allocs = allocs.allocs;
    p.alloc_bytes = allocs.bytes;

    for ((job, unobserved), observed) in jobs.iter().zip(digests).zip(reports) {
        let name = job.bench.name();
        let checked = match (unobserved, observed) {
            (Ok(a), Ok(r)) => {
                if report_digest(&r) == a {
                    p.cycles += r.cycles as f64;
                    p.core_cycles += (r.cycles * r.n_cores as u64) as f64;
                    p.committed += r.committed() as f64;
                    p.spin_cycles += r.cores.iter().map(|c| c.spin_cycles as f64).sum::<f64>();
                    Ok(())
                } else {
                    Err(format!("{name}: observed run differs from unobserved"))
                }
            }
            (Err(e), _) | (_, Err(e)) => Err(format!("{name}: {e}")),
        };
        tally.check(2, checked);
    }
    let (prof, counters) = obs;
    for phase in Phase::ALL {
        p.phase_ns[phase.index()] = prof.nanos(phase);
    }
    p.counters = counters;
    p
}

impl SimProfile {
    /// Fill the simulator layers of `l`.
    pub fn fill(&self, l: &mut Layers) {
        let kc = (self.cycles / 1e3).max(1e-9);
        let ns = |phase: Phase| self.phase_ns[phase.index()] as f64 / kc;
        let count = |name: &str| self.counters.get(name).unwrap_or(0.0) / kc;
        l.noc_ns_per_kcycle = ns(Phase::Noc);
        l.mem_ns_per_kcycle = ns(Phase::MemTick);
        l.uarch_ns_per_kcycle = ns(Phase::CoreTick);
        l.power_ns_per_kcycle = ns(Phase::PowerSample);
        l.mechanism_ns_per_kcycle = ns(Phase::Mechanism);
        l.obs_ns_per_kcycle = ns(Phase::Observer);
        l.allocs_per_kcycle = self.allocs as f64 / kc;
        l.alloc_bytes_per_kcycle = self.alloc_bytes as f64 / kc;
        l.spin_share = self.spin_cycles / self.core_cycles.max(1.0);
        l.spin_episodes_per_kcycle = count("sync.spin_episodes");
        l.ipc = self.committed / self.core_cycles.max(1.0);
        l.l1_misses_per_kcycle = count("mem.l1_misses");
        l.invalidations_per_kcycle = count("mem.invalidations");
        l.retries_per_kcycle = count("mem.backpressure_retries");
        l.throttle_changes_per_kcycle = count("mech.throttle_changes");
        l.trace_overhead_pct = (self.observed_s / self.unobserved_s.max(1e-9) - 1.0) * 100.0;
    }
}
