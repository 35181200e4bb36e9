//! The CMP simulator top level: cores + memory + synchronisation fabric +
//! power sampling + the power-management mechanism, advanced in lockstep
//! one global (3 GHz reference) cycle at a time.

use crate::budget::BudgetSpec;
use crate::config::SimConfig;
use crate::mechanisms::{self, ChipObs, CoreAction, CoreObs, Mechanism};
use crate::report::{CoreReport, RunReport};
use crate::trace::PowerTrace;
use ptb_isa::{Addr, CoreId, CtxState, InstStream, StreamEnv};
use ptb_mem::{AccessKind, MemReq, MemResp, MemorySystem};
use ptb_obs::{MemPulse, NullObserver, Phase, RunEnd, RunMeta, SimObserver, SpinKind, ThrottleObs};
use ptb_power::{
    core_cycle_tokens, uncore_cycle_tokens, ChipEnergy, CoreActivity, DvfsMode, ThermalModel,
    UncoreActivity,
};
use ptb_sync::SyncFabric;
use ptb_uarch::{Core, CoreMemKind, CoreMemReq, RmwExec};
use ptb_workloads::{Benchmark, ThreadEngine, WorkloadSpec};
use std::collections::VecDeque;
use std::time::Instant;

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run did not finish within `max_cycles`.
    MaxCyclesExceeded {
        /// The configured limit.
        limit: u64,
        /// Cores still running at the limit.
        unfinished: Vec<usize>,
    },
    /// The workload does not match the machine.
    BadWorkload(String),
    /// The livelock watchdog fired: every unfinished core spun for
    /// `budget` consecutive cycles, so no core can ever make progress
    /// (a spin only exits when another core acts). Surfaces deadlocked
    /// or livelocked workloads as a structured error long before
    /// `max_cycles` would.
    CycleBudgetExceeded {
        /// The configured all-spin cycle budget.
        budget: u64,
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// The cores that were spinning (all unfinished ones).
        spinning: Vec<usize>,
    },
    /// The wall-clock deadline set via [`Simulation::with_deadline`]
    /// passed before the run finished.
    DeadlineExceeded {
        /// Cycles simulated before the deadline hit.
        cycles_done: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::MaxCyclesExceeded { limit, unfinished } => {
                write!(
                    f,
                    "simulation exceeded {limit} cycles; cores {unfinished:?} unfinished"
                )
            }
            SimError::BadWorkload(s) => write!(f, "bad workload: {s}"),
            SimError::CycleBudgetExceeded {
                budget,
                cycle,
                spinning,
            } => write!(
                f,
                "livelock: all unfinished cores {spinning:?} spun for {budget} \
                 consecutive cycles (at cycle {cycle})"
            ),
            SimError::DeadlineExceeded { cycles_done } => write!(
                f,
                "wall-clock deadline exceeded after {cycles_done} simulated cycles"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Record the time elapsed since `start` against `phase`; returns the
/// new phase start. Only called on the `wants_phase_timing` path.
fn phase_mark<O: SimObserver>(obs: &mut O, phase: Phase, start: Instant) -> Instant {
    let now = Instant::now();
    obs.on_phase_time(phase, now.duration_since(start).as_nanos() as u64);
    now
}

/// A configured simulation, ready to run workloads.
pub struct Simulation {
    cfg: SimConfig,
    deadline: Option<Instant>,
}

struct FabricEnv<'a> {
    fabric: &'a SyncFabric,
    cycle: u64,
}

impl StreamEnv for FabricEnv<'_> {
    fn read_sync_word(&self, addr: Addr) -> u64 {
        self.fabric.read(addr)
    }
    fn now(&self) -> u64 {
        self.cycle
    }
}

impl Simulation {
    /// Create a simulation from a config.
    pub fn new(cfg: SimConfig) -> Self {
        Simulation {
            cfg,
            deadline: None,
        }
    }

    /// Abort the run with [`SimError::DeadlineExceeded`] once wall-clock
    /// time passes `deadline` (checked every 8192 simulated cycles).
    ///
    /// The deadline is a runtime watchdog, not part of [`SimConfig`]: it
    /// never affects the simulated result, only whether a slow job is
    /// cut off, so it is deliberately excluded from content hashing.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Build and run `bench` at the configured scale and core count.
    pub fn run(&self, bench: Benchmark) -> Result<RunReport, SimError> {
        self.run_observed(bench, &mut NullObserver)
    }

    /// Build and run `bench` while streaming simulation events to `obs`.
    ///
    /// See [`Simulation::run_spec_observed`] for the cost model.
    pub fn run_observed<O: SimObserver>(
        &self,
        bench: Benchmark,
        obs: &mut O,
    ) -> Result<RunReport, SimError> {
        let spec = bench.spec(self.cfg.n_cores, self.cfg.scale);
        self.run_spec_observed(&spec, obs)
    }

    /// Run a custom workload spec (must have one thread per core).
    pub fn run_spec(&self, spec: &WorkloadSpec) -> Result<RunReport, SimError> {
        self.run_spec_observed(spec, &mut NullObserver)
    }

    /// Run a custom workload spec while streaming simulation events to
    /// `obs`.
    ///
    /// Every hook site is guarded by the associated `const`
    /// [`SimObserver::ENABLED`], so the monomorphised [`NullObserver`]
    /// instantiation is the plain unobserved simulator loop — the hooks
    /// and their bookkeeping compile away entirely. Wall-clock phase
    /// timing costs a few `Instant::now` calls per simulated cycle and
    /// is measured only when `obs.wants_phase_timing()` returns true.
    pub fn run_spec_observed<O: SimObserver>(
        &self,
        spec: &WorkloadSpec,
        obs: &mut O,
    ) -> Result<RunReport, SimError> {
        let n = self.cfg.n_cores;
        if spec.n_threads() != n {
            return Err(SimError::BadWorkload(format!(
                "workload has {} threads for {} cores",
                spec.n_threads(),
                n
            )));
        }
        let problems = spec.validate();
        if !problems.is_empty() {
            return Err(SimError::BadWorkload(problems.join("; ")));
        }

        let params = &self.cfg.power;
        let budget = BudgetSpec::new(params, &self.cfg.core, n, self.cfg.budget_frac);
        let mut cores: Vec<Core> = (0..n)
            .map(|c| Core::new(CoreId(c), self.cfg.core, params.class_base))
            .collect();
        let mut engines: Vec<ThreadEngine> = spec.engines();
        let mut mem = MemorySystem::new(self.cfg.mem, n);
        let mut fabric = SyncFabric::new();
        let mut mechanism: Box<dyn Mechanism> =
            mechanisms::build(self.cfg.mechanism, self.cfg.ptb, n);

        let mut actions = vec![CoreAction::default(); n];
        let mut current_mode = vec![DvfsMode::NOMINAL; n];
        let mut freq_acc = vec![0.0f64; n];
        let mut transition = vec![0u64; n];

        let mut energy = ChipEnergy::new(n);
        let mut aopb_tokens = 0.0f64;
        let mut cycles_over = 0u64;
        let mut ctx_cycles = vec![[0u64; CtxState::BUCKETS]; n];
        let mut spin_cycles = vec![0u64; n];
        let mut spin_tokens = vec![0.0f64; n];
        let mut trace = self
            .cfg
            .capture_trace
            .then(|| PowerTrace::new(n, 1, 4_000_000));
        // Thermal integration: step the RC model once per `dt` of simulated
        // time, driving it with the interval-average power per core.
        let mesh_width = ptb_noc::MeshConfig::for_cores(n).width;
        let mut thermal = ThermalModel::new(self.cfg.thermal, n, mesh_width);
        let thermal_stride = ((self.cfg.thermal.dt * params.freq_hz) as u64).max(1);
        let mut thermal_acc = vec![0.0f64; n];
        let mut thermal_watts = vec![0.0f64; n];

        // Backpressure retry queues are front-popped on acceptance, so a
        // deque keeps the drain O(1) per request instead of Vec::remove(0)
        // shifting the whole queue.
        let mut retry: Vec<VecDeque<CoreMemReq>> = vec![VecDeque::new(); n];
        // Per-cycle buffers, reused so that a warm cycle does not allocate.
        let mut resp_buf: Vec<MemResp> = Vec::new();
        let mut mem_buf: Vec<CoreMemReq> = Vec::new();
        let mut rmw_buf: Vec<RmwExec> = Vec::new();
        let mut tokens = vec![0.0f64; n];
        let mut obs_buf: Vec<CoreObs> = Vec::with_capacity(n);

        // Observer-only state; dead (and optimised out) under NullObserver.
        let profile = O::ENABLED && obs.wants_phase_timing();
        let mut was_spinning = vec![false; n];
        let mut prev_mem = mem.stats().totals();
        if O::ENABLED {
            obs.on_run_start(&RunMeta {
                benchmark: spec.name.clone(),
                mechanism: mechanism.name(),
                n_cores: n,
                freq_hz: params.freq_hz,
                budget_tokens: budget.global,
            });
        }
        let mut phase_t = Instant::now();

        let mut all_spin_run: u64 = 0;
        let mut cycle: u64 = 0;
        loop {
            cycle += 1;
            if cycle > self.cfg.max_cycles {
                let unfinished = (0..n).filter(|&c| !cores[c].is_done()).collect::<Vec<_>>();
                return Err(SimError::MaxCyclesExceeded {
                    limit: self.cfg.max_cycles,
                    unfinished,
                });
            }
            if let Some(dl) = self.deadline {
                if cycle & 0x1FFF == 0 && Instant::now() >= dl {
                    return Err(SimError::DeadlineExceeded { cycles_done: cycle });
                }
            }

            // 1. Memory system advances; completions reach the cores.
            //    Split at the NoC/event boundary so profiles attribute
            //    interconnect time separately from the event wheel.
            if profile {
                phase_t = Instant::now();
            }
            mem.advance_noc();
            if profile {
                phase_t = phase_mark(obs, Phase::Noc, phase_t);
            }
            mem.advance_events();
            mem.drain_responses(&mut resp_buf);
            for resp in resp_buf.drain(..) {
                cores[resp.core.index()].mem_response(resp.id);
            }
            if profile {
                phase_t = phase_mark(obs, Phase::MemTick, phase_t);
            }

            // 2. Atomic RMWs whose ownership landed execute functionally,
            //    in deterministic core order; streams learn the old value.
            for c in 0..n {
                rmw_buf.clear();
                cores[c].drain_rmw_execs(&mut rmw_buf);
                for r in &rmw_buf {
                    let old = fabric.execute(r.op, r.addr, r.operand);
                    engines[c].rmw_result(r.token, old);
                }
            }

            // 3. Core clocks (frequency-scaled) tick.
            for c in 0..n {
                let mode = current_mode[c];
                let act: CoreActivity = if transition[c] > 0 {
                    // Stalled mid-DVFS-transition: leakage only.
                    transition[c] -= 1;
                    CoreActivity::default()
                } else {
                    freq_acc[c] += mode.f;
                    if freq_acc[c] >= 1.0 {
                        freq_acc[c] -= 1.0;
                        let mut env = FabricEnv {
                            fabric: &fabric,
                            cycle,
                        };
                        cores[c].tick(&mut engines[c], &mut env)
                    } else {
                        CoreActivity::default()
                    }
                };
                tokens[c] = core_cycle_tokens(params, &act, mode);

                // Forward freshly-emitted memory requests (with retry on
                // input-queue backpressure).
                mem_buf.clear();
                cores[c].drain_mem_requests(&mut mem_buf);
                retry[c].extend(mem_buf.drain(..));
                while let Some(req) = retry[c].front().copied() {
                    let accepted = mem.request(MemReq {
                        id: req.id,
                        core: CoreId(c),
                        kind: match req.kind {
                            CoreMemKind::Load => AccessKind::Load,
                            CoreMemKind::Store => AccessKind::Store,
                            CoreMemKind::Rmw => AccessKind::Rmw,
                        },
                        addr: req.addr,
                    });
                    if accepted {
                        retry[c].pop_front();
                    } else {
                        if O::ENABLED {
                            obs.on_mem_retry(cycle, c);
                        }
                        break;
                    }
                }
            }
            if profile {
                phase_t = phase_mark(obs, Phase::CoreTick, phase_t);
            }

            // 4. Power sample for this cycle. Observer-hook delivery
            //    (pulse assembly, `on_cycle` fan-out) is timed separately
            //    into Phase::Observer so it never pollutes the
            //    PowerSample bucket. The chip total is the per-core sum
            //    in core order plus uncore, as `ChipEnergy::add` folds it.
            let mut obs_ns: u64 = 0;
            let mem_act = mem.take_activity();
            if O::ENABLED {
                let t0 = if profile { Some(Instant::now()) } else { None };
                let totals = mem.stats().totals();
                let pulse = MemPulse {
                    l1_accesses: mem_act.l1_accesses,
                    l2_accesses: mem_act.l2_accesses,
                    noc_flit_hops: mem_act.noc_flit_hops,
                    mem_accesses: mem_act.mem_accesses,
                    l1_misses: totals.l1_misses - prev_mem.l1_misses,
                    l2_misses: totals.l2_misses - prev_mem.l2_misses,
                    invalidations: totals.invalidations_received - prev_mem.invalidations_received,
                };
                prev_mem = totals;
                if !pulse.is_empty() {
                    obs.on_mem_pulse(cycle, &pulse);
                }
                if let Some(t0) = t0 {
                    obs_ns += t0.elapsed().as_nanos() as u64;
                }
            }
            let uncore = uncore_cycle_tokens(
                params,
                &UncoreActivity {
                    l1_accesses: mem_act.l1_accesses,
                    l2_accesses: mem_act.l2_accesses,
                    noc_flit_hops: mem_act.noc_flit_hops,
                    mem_accesses: mem_act.mem_accesses,
                },
            ) + mechanism.overhead_tokens(&budget);
            let chip = energy.add(&tokens, uncore);
            if O::ENABLED {
                let t0 = if profile { Some(Instant::now()) } else { None };
                obs.on_cycle(cycle, &tokens, uncore, chip);
                if let Some(t0) = t0 {
                    obs_ns += t0.elapsed().as_nanos() as u64;
                }
            }
            if chip > budget.global {
                aopb_tokens += chip - budget.global;
                cycles_over += 1;
            }
            if let Some(t) = trace.as_mut() {
                t.record(cycle, chip, &tokens);
            }
            for (acc, &t) in thermal_acc.iter_mut().zip(&tokens) {
                *acc += t;
            }
            if cycle.is_multiple_of(thermal_stride) {
                for c in 0..n {
                    thermal_watts[c] = params.watts(thermal_acc[c] / thermal_stride as f64);
                    thermal_acc[c] = 0.0;
                }
                thermal.step(&thermal_watts);
            }
            if profile {
                if obs_ns > 0 {
                    obs.on_phase_time(Phase::Observer, obs_ns);
                }
                let now = Instant::now();
                let total = now.duration_since(phase_t).as_nanos() as u64;
                obs.on_phase_time(Phase::PowerSample, total.saturating_sub(obs_ns));
                phase_t = now;
            }

            // 5. Context/breakdown accounting.
            let mut all_done = true;
            let mut unfinished_cores = 0usize;
            let mut spinning_cores = 0usize;
            for c in 0..n {
                let done = cores[c].is_done();
                all_done &= done;
                if !done {
                    unfinished_cores += 1;
                    let ctx = cores[c].current_ctx();
                    if ctx.spinning {
                        spinning_cores += 1;
                    }
                    ctx_cycles[c][ctx.state.bucket()] += 1;
                    if O::ENABLED && ctx.spinning != was_spinning[c] {
                        was_spinning[c] = ctx.spinning;
                        if ctx.spinning {
                            let kind = match ctx.state {
                                CtxState::LockAcq(_) | CtxState::LockRel(_) => SpinKind::Lock,
                                CtxState::Barrier(_) => SpinKind::Barrier,
                                CtxState::Busy => SpinKind::Other,
                            };
                            obs.on_spin_enter(cycle, c, kind);
                        } else {
                            obs.on_spin_exit(cycle, c);
                        }
                    }
                    if ctx.spinning {
                        spin_cycles[c] += 1;
                        // "Power wasted while spinning" (Figure 4) is the
                        // dynamic power above the idle floor — leakage is
                        // paid whether or not the core spins.
                        spin_tokens[c] += (tokens[c]
                            - params.core_leakage * current_mode[c].leakage_scale())
                        .max(0.0);
                    }
                } else if O::ENABLED && was_spinning[c] {
                    // A core that finishes mid-spin still closes its span.
                    was_spinning[c] = false;
                    obs.on_spin_exit(cycle, c);
                }
            }

            // Livelock watchdog: a spin only exits when *another* core
            // acts (releases a lock, reaches a barrier). If every
            // unfinished core spins — uninterrupted — for the whole
            // budget, no such action can ever come and the run would
            // otherwise burn cycles until `max_cycles`.
            if let Some(spin_budget) = self.cfg.spin_cycle_budget {
                if unfinished_cores > 0 && spinning_cores == unfinished_cores {
                    all_spin_run += 1;
                    if all_spin_run >= spin_budget {
                        let spinning = (0..n).filter(|&c| !cores[c].is_done()).collect::<Vec<_>>();
                        return Err(SimError::CycleBudgetExceeded {
                            budget: spin_budget,
                            cycle,
                            spinning,
                        });
                    }
                } else {
                    all_spin_run = 0;
                }
            }

            // 6. Mechanism observes and sets next-cycle actions.
            obs_buf.clear();
            for c in 0..n {
                obs_buf.push(CoreObs {
                    tokens: tokens[c],
                    ctx: cores[c].current_ctx(),
                    done: cores[c].is_done(),
                });
            }
            let chip_obs = ChipObs {
                cycle,
                chip_tokens: chip,
                uncore_tokens: uncore,
                cores: &obs_buf,
            };
            mechanism.control(&chip_obs, &budget, &mut actions);
            for c in 0..n {
                if actions[c].mode != current_mode[c] {
                    let stall = DvfsMode::transition_cycles(current_mode[c], actions[c].mode);
                    transition[c] += stall;
                    current_mode[c] = actions[c].mode;
                    if O::ENABLED {
                        obs.on_dvfs_change(cycle, c, current_mode[c].v, current_mode[c].f, stall);
                    }
                }
                if O::ENABLED && cores[c].throttle != actions[c].throttle {
                    let th = actions[c].throttle;
                    obs.on_throttle_change(
                        cycle,
                        c,
                        ThrottleObs {
                            fetch_every: th.fetch_every,
                            issue_width: th.issue_width,
                            rob_cap: th.rob_cap,
                        },
                    );
                }
                cores[c].throttle = actions[c].throttle;
            }
            if profile {
                phase_t = phase_mark(obs, Phase::Mechanism, phase_t);
            }

            if all_done {
                break;
            }
        }

        if O::ENABLED {
            obs.on_run_end(&RunEnd {
                cycles: cycle,
                energy_tokens: energy.total,
            });
        }

        // Assemble the report.
        let core_reports: Vec<CoreReport> = (0..n)
            .map(|c| CoreReport {
                ctx_cycles: ctx_cycles[c],
                spin_cycles: spin_cycles[c],
                spin_tokens: spin_tokens[c],
                tokens: energy.per_core[c],
                committed: cores[c].stats.committed,
                mispredict_rate: cores[c].stats.mispredict_rate(),
                ptht_error: cores[c].ptht.relative_error(),
            })
            .collect();
        Ok(RunReport {
            benchmark: spec.name.clone(),
            mechanism: mechanism.name(),
            n_cores: n,
            cycles: cycle,
            budget,
            energy_tokens: energy.total,
            energy_joules: params.joules(energy.total),
            aopb_tokens,
            aopb_joules: params.joules(aopb_tokens),
            mean_power: energy.mean_power(),
            power_stddev: energy.power_stddev(),
            cycles_over_budget: cycles_over,
            max_temp_c: thermal.max_temp,
            mean_temp_c: (0..n).map(|c| thermal.mean_temp(c)).sum::<f64>() / n as f64,
            temp_stddev_c: thermal.mean_stddev(),
            cores: core_reports,
            trace,
            extra_metrics: std::collections::BTreeMap::new(),
        })
    }
}
