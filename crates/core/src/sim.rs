//! The CMP simulator top level: cores + memory + synchronisation fabric +
//! power sampling + the power-management mechanism, advanced in lockstep
//! one global (3 GHz reference) cycle at a time.

use crate::budget::BudgetSpec;
use crate::config::SimConfig;
use crate::mechanisms::{self, ChipObs, CoreAction, CoreObs, Mechanism};
use crate::report::{CoreReport, RunReport};
use crate::trace::PowerTrace;
use ptb_isa::{Addr, CoreId, CtxState, InstStream, StreamEnv};
use ptb_mem::{AccessKind, CoreMemStats, MemActivity, MemReq, MemResp, MemorySystem};
use ptb_obs::{MemPulse, NullObserver, Phase, RunEnd, RunMeta, SimObserver, SpinKind, ThrottleObs};
use ptb_power::{
    core_cycle_tokens, uncore_cycle_tokens, ChipEnergy, CoreActivity, DvfsMode, ThermalModel,
    UncoreActivity,
};
use ptb_sync::SyncFabric;
use ptb_uarch::{Core, CoreMemKind, CoreMemReq, RmwExec};
use ptb_workloads::{ThreadEngine, WorkloadSpec};
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

/// A configured simulation, ready to run workloads.
pub struct Simulation {
    cfg: SimConfig,
    deadline: Option<Instant>,
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

    /// Run a workload spec, which must have one thread per core. A
    /// benchmark's spec at the configured size is
    /// `bench.spec(cfg.n_cores, cfg.scale)`.
    pub fn run_spec(&self, spec: &WorkloadSpec) -> Result<RunReport, SimError> {
        self.run_spec_observed(spec, &mut NullObserver)
    }

    /// [`Simulation::run_spec`], streaming simulation events to `obs`.
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
        let mut chip = Chip::new(&self.cfg, self.deadline, spec, obs)?;
        while !chip.step(obs)? {}
        Ok(chip.finish(obs))
    }
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

/// A chip running one workload: the cores, the memory system, the
/// synchronisation fabric and the mechanism, plus the accounting that
/// becomes the [`RunReport`]. [`Chip::step`] advances every part in
/// lockstep by one global (3 GHz reference) cycle, one method per phase.
struct Chip<'a> {
    cfg: &'a SimConfig,
    deadline: Option<Instant>,
    benchmark: &'a str,
    budget: BudgetSpec,
    cycle: u64,

    cores: Vec<Core>,
    engines: Vec<ThreadEngine>,
    mem: MemorySystem,
    fabric: SyncFabric,
    mechanism: Box<dyn Mechanism>,
    /// Requests refused by the memory input queue, oldest first. They are
    /// front-popped on acceptance, so a deque keeps the drain O(1).
    retry: Vec<VecDeque<CoreMemReq>>,

    // Per-core clocking, as the mechanism last set it.
    actions: Vec<CoreAction>,
    mode: Vec<DvfsMode>,
    freq_acc: Vec<f64>,
    /// Cycles left in a DVFS transition stall.
    transition: Vec<u64>,

    // Accounting for the report.
    energy: ChipEnergy,
    aopb_tokens: f64,
    cycles_over: u64,
    ctx_cycles: Vec<[u64; CtxState::BUCKETS]>,
    spin_cycles: Vec<u64>,
    spin_tokens: Vec<f64>,
    trace: Option<PowerTrace>,
    thermal: ThermalModel,
    /// Cycles per thermal step (`dt` of simulated time).
    thermal_stride: u64,
    thermal_acc: Vec<f64>,
    thermal_watts: Vec<f64>,
    /// Consecutive cycles in which every unfinished core spun.
    all_spin_run: u64,

    // Per-cycle buffers, reused so that a warm cycle does not allocate.
    tokens: Vec<f64>,
    core_obs: Vec<CoreObs>,
    resp_buf: Vec<MemResp>,
    mem_buf: Vec<CoreMemReq>,
    rmw_buf: Vec<RmwExec>,

    // Observer-only state; dead under `NullObserver`.
    profile: bool,
    was_spinning: Vec<bool>,
    prev_mem: CoreMemStats,
}

impl<'a> Chip<'a> {
    /// Check `spec` against the machine, build the chip and announce the
    /// run to `obs`.
    fn new<O: SimObserver>(
        cfg: &'a SimConfig,
        deadline: Option<Instant>,
        spec: &'a WorkloadSpec,
        obs: &mut O,
    ) -> Result<Self, SimError> {
        let n = cfg.n_cores;
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

        let params = &cfg.power;
        let budget = BudgetSpec::new(params, &cfg.core, n, cfg.budget_frac);
        let mem = MemorySystem::new(cfg.mem, n);
        let mechanism = mechanisms::build(cfg.mechanism, cfg.ptb, n);
        let mesh_width = ptb_noc::MeshConfig::for_cores(n).width;
        let chip = Chip {
            cfg,
            deadline,
            benchmark: &spec.name,
            budget,
            cycle: 0,
            cores: (0..n)
                .map(|c| Core::new(CoreId(c), cfg.core, params.class_base))
                .collect(),
            engines: spec.engines(),
            prev_mem: mem.stats().totals(),
            mem,
            fabric: SyncFabric::new(),
            mechanism,
            retry: vec![VecDeque::new(); n],
            actions: vec![CoreAction::default(); n],
            mode: vec![DvfsMode::NOMINAL; n],
            freq_acc: vec![0.0; n],
            transition: vec![0; n],
            energy: ChipEnergy::new(n),
            aopb_tokens: 0.0,
            cycles_over: 0,
            ctx_cycles: vec![[0; CtxState::BUCKETS]; n],
            spin_cycles: vec![0; n],
            spin_tokens: vec![0.0; n],
            trace: cfg.capture_trace.then(|| PowerTrace::new(n, 1, 4_000_000)),
            thermal: ThermalModel::new(cfg.thermal, n, mesh_width),
            thermal_stride: ((cfg.thermal.dt * params.freq_hz) as u64).max(1),
            thermal_acc: vec![0.0; n],
            thermal_watts: vec![0.0; n],
            all_spin_run: 0,
            tokens: vec![0.0; n],
            core_obs: Vec::with_capacity(n),
            resp_buf: Vec::new(),
            mem_buf: Vec::new(),
            rmw_buf: Vec::new(),
            profile: O::ENABLED && obs.wants_phase_timing(),
            was_spinning: vec![false; n],
        };
        if O::ENABLED {
            obs.on_run_start(&RunMeta {
                benchmark: spec.name.clone(),
                mechanism: chip.mechanism.name(),
                n_cores: n,
                freq_hz: params.freq_hz,
                budget_tokens: chip.budget.global,
            });
        }
        Ok(chip)
    }

    /// Run one global cycle; `Ok(true)` once every core is done. Phase
    /// timing happens here only: each bucket is the time between marks.
    fn step<O: SimObserver>(&mut self, obs: &mut O) -> Result<bool, SimError> {
        self.cycle += 1;
        self.check_limits()?;
        // Each mark charges the time since the previous one to a phase;
        // with timing off, the clock is never read.
        let mut last = (O::ENABLED && self.profile).then(Instant::now);
        let mut mark = |obs: &mut O, phase: Phase| {
            if let Some(last) = &mut last {
                let now = Instant::now();
                obs.on_phase_time(phase, now.duration_since(*last).as_nanos() as u64);
                *last = now;
            }
        };

        // Phase 1 is timed at the NoC/event boundary, so that profiles
        // attribute interconnect time apart from the event wheel.
        self.mem.advance_noc();
        mark(obs, Phase::Noc);
        self.deliver_memory();
        mark(obs, Phase::MemTick);

        // RMW execution counts as core tick.
        self.execute_rmws();
        self.tick_cores(obs);
        mark(obs, Phase::CoreTick);

        let mem_act = self.mem.take_activity();
        let (uncore, chip) = self.sample_power(&mem_act);
        mark(obs, Phase::PowerSample);
        if O::ENABLED {
            self.observe_power(obs, &mem_act, uncore, chip);
            mark(obs, Phase::Observer);
        }

        // Bookkeeping and the watchdog count as mechanism.
        let (unfinished, spinning) = self.bookkeeping(obs);
        self.watchdog(unfinished, spinning)?;
        self.control(obs, uncore, chip);
        mark(obs, Phase::Mechanism);
        Ok(unfinished == 0)
    }

    /// The hard limits, checked before a cycle runs: `max_cycles`, then
    /// the wall-clock deadline every 8192 cycles.
    fn check_limits(&self) -> Result<(), SimError> {
        if self.cycle > self.cfg.max_cycles {
            return Err(SimError::MaxCyclesExceeded {
                limit: self.cfg.max_cycles,
                unfinished: self.unfinished(),
            });
        }
        match self.deadline {
            Some(dl) if self.cycle & 0x1FFF == 0 && Instant::now() >= dl => {
                Err(SimError::DeadlineExceeded {
                    cycles_done: self.cycle,
                })
            }
            _ => Ok(()),
        }
    }

    /// The cores that have not finished their thread.
    fn unfinished(&self) -> Vec<usize> {
        (0..self.cores.len())
            .filter(|&c| !self.cores[c].is_done())
            .collect()
    }

    /// Phase 1, after the NoC: memory events fire and completions reach
    /// the cores.
    fn deliver_memory(&mut self) {
        self.mem.advance_events();
        self.mem.drain_responses(&mut self.resp_buf);
        for resp in self.resp_buf.drain(..) {
            self.cores[resp.core.index()].mem_response(resp.id);
        }
    }

    /// Phase 2: atomic RMWs whose ownership landed execute functionally,
    /// in deterministic core order; streams learn the old value.
    fn execute_rmws(&mut self) {
        for c in 0..self.cores.len() {
            self.rmw_buf.clear();
            self.cores[c].drain_rmw_execs(&mut self.rmw_buf);
            for r in &self.rmw_buf {
                let old = self.fabric.execute(r.op, r.addr, r.operand);
                self.engines[c].rmw_result(r.token, old);
            }
        }
    }

    /// Phase 3: the core clocks tick, scaled by each core's frequency,
    /// and meter this cycle's tokens; a core in a DVFS transition stalls
    /// and pays leakage only. New memory requests go to the memory
    /// system in order; one its input queue refuses waits, with those
    /// behind it, for the next cycle.
    fn tick_cores<O: SimObserver>(&mut self, obs: &mut O) {
        let params = &self.cfg.power;
        for c in 0..self.cores.len() {
            let mode = self.mode[c];
            let act = if self.transition[c] > 0 {
                self.transition[c] -= 1;
                CoreActivity::default()
            } else {
                self.freq_acc[c] += mode.f;
                if self.freq_acc[c] >= 1.0 {
                    self.freq_acc[c] -= 1.0;
                    let mut env = FabricEnv {
                        fabric: &self.fabric,
                        cycle: self.cycle,
                    };
                    self.cores[c].tick(&mut self.engines[c], &mut env)
                } else {
                    CoreActivity::default()
                }
            };
            self.tokens[c] = core_cycle_tokens(params, &act, mode);

            self.mem_buf.clear();
            self.cores[c].drain_mem_requests(&mut self.mem_buf);
            let retry = &mut self.retry[c];
            retry.extend(self.mem_buf.drain(..));
            while let Some(req) = retry.front().copied() {
                let accepted = self.mem.request(MemReq {
                    id: req.id,
                    core: CoreId(c),
                    kind: match req.kind {
                        CoreMemKind::Load => AccessKind::Load,
                        CoreMemKind::Store => AccessKind::Store,
                        CoreMemKind::Rmw => AccessKind::Rmw,
                    },
                    addr: req.addr,
                });
                if !accepted {
                    if O::ENABLED {
                        obs.on_mem_retry(self.cycle, c);
                    }
                    break;
                }
                retry.pop_front();
            }
        }
    }

    /// Phase 4: charge this cycle's power. The chip total is the per-core
    /// sum in core order plus uncore and mechanism overhead, as
    /// `ChipEnergy::add` folds it; it feeds the AoPB and the power trace,
    /// and the per-core tokens feed the thermal model. Returns the
    /// `(uncore, chip)` tokens.
    fn sample_power(&mut self, mem_act: &MemActivity) -> (f64, f64) {
        let params = &self.cfg.power;
        let uncore = uncore_cycle_tokens(
            params,
            &UncoreActivity {
                l1_accesses: mem_act.l1_accesses,
                l2_accesses: mem_act.l2_accesses,
                noc_flit_hops: mem_act.noc_flit_hops,
                mem_accesses: mem_act.mem_accesses,
            },
        ) + self.mechanism.overhead_tokens(&self.budget);
        let chip = self.energy.add(&self.tokens, uncore);
        if chip > self.budget.global {
            self.aopb_tokens += chip - self.budget.global;
            self.cycles_over += 1;
        }
        if let Some(t) = self.trace.as_mut() {
            t.record(self.cycle, chip, &self.tokens);
        }
        // The RC thermal model steps once per `dt` of simulated time,
        // driven by the interval-average power per core.
        for (acc, &t) in self.thermal_acc.iter_mut().zip(&self.tokens) {
            *acc += t;
        }
        if self.cycle.is_multiple_of(self.thermal_stride) {
            for (watts, acc) in self.thermal_watts.iter_mut().zip(&mut self.thermal_acc) {
                *watts = params.watts(*acc / self.thermal_stride as f64);
                *acc = 0.0;
            }
            self.thermal.step(&self.thermal_watts);
        }
        (uncore, chip)
    }

    /// The observer's view of the power sample: the cycle's memory pulse,
    /// when there was any traffic, then `on_cycle`.
    fn observe_power<O: SimObserver>(
        &mut self,
        obs: &mut O,
        mem_act: &MemActivity,
        uncore: f64,
        chip: f64,
    ) {
        let totals = self.mem.stats().totals();
        let prev = std::mem::replace(&mut self.prev_mem, totals);
        let pulse = MemPulse {
            l1_accesses: mem_act.l1_accesses,
            l2_accesses: mem_act.l2_accesses,
            noc_flit_hops: mem_act.noc_flit_hops,
            mem_accesses: mem_act.mem_accesses,
            l1_misses: totals.l1_misses - prev.l1_misses,
            l2_misses: totals.l2_misses - prev.l2_misses,
            invalidations: totals.invalidations_received - prev.invalidations_received,
        };
        if !pulse.is_empty() {
            obs.on_mem_pulse(self.cycle, &pulse);
        }
        obs.on_cycle(self.cycle, &self.tokens, uncore, chip);
    }

    /// Phase 5: context and spin accounting, in one pass that also fills
    /// the mechanism's per-core observations, so each core's done flag
    /// and context are read once. Returns the number of unfinished cores
    /// and how many of them spin.
    fn bookkeeping<O: SimObserver>(&mut self, obs: &mut O) -> (usize, usize) {
        let leakage = self.cfg.power.core_leakage;
        let (mut unfinished, mut spinning) = (0, 0);
        self.core_obs.clear();
        for c in 0..self.cores.len() {
            let done = self.cores[c].is_done();
            let ctx = self.cores[c].current_ctx();
            self.core_obs.push(CoreObs {
                tokens: self.tokens[c],
                ctx,
                done,
            });
            if done {
                if O::ENABLED && self.was_spinning[c] {
                    // A core that finishes mid-spin still closes its span.
                    self.was_spinning[c] = false;
                    obs.on_spin_exit(self.cycle, c);
                }
                continue;
            }
            unfinished += 1;
            self.ctx_cycles[c][ctx.state.bucket()] += 1;
            if O::ENABLED && ctx.spinning != self.was_spinning[c] {
                self.was_spinning[c] = ctx.spinning;
                if ctx.spinning {
                    let kind = match ctx.state {
                        CtxState::LockAcq(_) | CtxState::LockRel(_) => SpinKind::Lock,
                        CtxState::Barrier(_) => SpinKind::Barrier,
                        CtxState::Busy => SpinKind::Other,
                    };
                    obs.on_spin_enter(self.cycle, c, kind);
                } else {
                    obs.on_spin_exit(self.cycle, c);
                }
            }
            if ctx.spinning {
                spinning += 1;
                self.spin_cycles[c] += 1;
                // "Power wasted while spinning" (Figure 4) is the dynamic
                // power above the idle floor — leakage is paid whether or
                // not the core spins.
                self.spin_tokens[c] +=
                    (self.tokens[c] - leakage * self.mode[c].leakage_scale()).max(0.0);
            }
        }
        (unfinished, spinning)
    }

    /// Livelock watchdog: a spin only exits when *another* core acts
    /// (releases a lock, reaches a barrier). If every unfinished core
    /// spins, uninterrupted, for the whole budget, no such action can
    /// ever come and the run would otherwise burn cycles until
    /// `max_cycles`.
    fn watchdog(&mut self, unfinished: usize, spinning: usize) -> Result<(), SimError> {
        let Some(budget) = self.cfg.spin_cycle_budget else {
            return Ok(());
        };
        if unfinished == 0 || spinning < unfinished {
            self.all_spin_run = 0;
            return Ok(());
        }
        self.all_spin_run += 1;
        if self.all_spin_run < budget {
            return Ok(());
        }
        Err(SimError::CycleBudgetExceeded {
            budget,
            cycle: self.cycle,
            spinning: self.unfinished(),
        })
    }

    /// Phase 6: the mechanism observes this cycle and sets each core's
    /// DVFS mode and throttle for the next one.
    fn control<O: SimObserver>(&mut self, obs: &mut O, uncore: f64, chip: f64) {
        let chip_obs = ChipObs {
            cycle: self.cycle,
            chip_tokens: chip,
            uncore_tokens: uncore,
            cores: &self.core_obs,
        };
        self.mechanism
            .control(&chip_obs, &self.budget, &mut self.actions);
        for (c, core) in self.cores.iter_mut().enumerate() {
            let action = self.actions[c];
            if action.mode != self.mode[c] {
                let stall = DvfsMode::transition_cycles(self.mode[c], action.mode);
                self.transition[c] += stall;
                self.mode[c] = action.mode;
                if O::ENABLED {
                    obs.on_dvfs_change(self.cycle, c, action.mode.v, action.mode.f, stall);
                }
            }
            if O::ENABLED && core.throttle != action.throttle {
                let th = action.throttle;
                obs.on_throttle_change(
                    self.cycle,
                    c,
                    ThrottleObs {
                        fetch_every: th.fetch_every,
                        issue_width: th.issue_width,
                        rob_cap: th.rob_cap,
                    },
                );
            }
            core.throttle = action.throttle;
        }
    }

    /// End the run: tell `obs`, then assemble the report.
    fn finish<O: SimObserver>(self, obs: &mut O) -> RunReport {
        if O::ENABLED {
            obs.on_run_end(&RunEnd {
                cycles: self.cycle,
                energy_tokens: self.energy.total,
            });
        }
        let n = self.cores.len();
        let params = &self.cfg.power;
        let cores = (0..n)
            .map(|c| CoreReport {
                ctx_cycles: self.ctx_cycles[c],
                spin_cycles: self.spin_cycles[c],
                spin_tokens: self.spin_tokens[c],
                tokens: self.energy.per_core[c],
                committed: self.cores[c].stats.committed,
                mispredict_rate: self.cores[c].stats.mispredict_rate(),
                ptht_error: self.cores[c].ptht.relative_error(),
            })
            .collect();
        RunReport {
            benchmark: self.benchmark.to_owned(),
            mechanism: self.mechanism.name(),
            n_cores: n,
            cycles: self.cycle,
            budget: self.budget,
            energy_tokens: self.energy.total,
            energy_joules: params.joules(self.energy.total),
            aopb_tokens: self.aopb_tokens,
            aopb_joules: params.joules(self.aopb_tokens),
            mean_power: self.energy.mean_power(),
            power_stddev: self.energy.power_stddev(),
            cycles_over_budget: self.cycles_over,
            max_temp_c: self.thermal.max_temp,
            mean_temp_c: (0..n).map(|c| self.thermal.mean_temp(c)).sum::<f64>() / n as f64,
            temp_stddev_c: self.thermal.mean_stddev(),
            cores,
            trace: self.trace,
            extra_metrics: std::collections::BTreeMap::new(),
        }
    }
}
