//! The simulator's cycle loop does not allocate after warm-up.
//!
//! Every per-cycle buffer (completion ring, issue leftovers, memory
//! responses, mesh arrivals, MSHR wait lists, PTB flights, power
//! samples) is owned by the loop and reused, so a steady-state run
//! touches the heap only for genuinely new state: a directory entry for
//! a line never seen before, a queue that grows past its high-water
//! mark. This test holds that line with `ptb_obs::alloc::CountingAlloc`
//! installed as the global allocator. A probe observer snapshots the
//! process-wide counters once the run is warm and again at run end, and
//! the difference must stay under [`MAX_ALLOCS_PER_KCYCLE`].
//!
//! The counters are process-global, so this file is its own test binary
//! and runs its cases one after another in a single `#[test]`.

use ptb_core::{MechanismKind, PtbPolicy, SimConfig, Simulation};
use ptb_obs::alloc::{snapshot, AllocSnapshot, CountingAlloc};
use ptb_obs::{CounterRegistry, NullObserver, PhaseProfiler, RunEnd, SimObserver};
use ptb_workloads::{Benchmark, Scale};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Cycle at which the run counts as warm.
const WARM_CYCLE: u64 = 5_000;

/// Steady-state allocation ceiling, per simulated kilocycle.
const MAX_ALLOCS_PER_KCYCLE: f64 = 5.0;

const CORES: usize = 16;

/// Snapshots the allocation counters at [`WARM_CYCLE`] and at run end.
/// It allocates nothing itself.
#[derive(Default)]
struct AllocProbe {
    warm: Option<AllocSnapshot>,
    steady: Option<(AllocSnapshot, u64)>,
}

impl SimObserver for AllocProbe {
    fn on_cycle(&mut self, cycle: u64, _per_core: &[f64], _uncore: f64, _chip: f64) {
        if cycle == WARM_CYCLE {
            self.warm = Some(snapshot());
        }
    }

    fn on_run_end(&mut self, end: &RunEnd) {
        let warm = self.warm.expect("run shorter than the warm-up");
        self.steady = Some((snapshot().since(&warm), end.cycles - WARM_CYCLE));
    }
}

/// Run `bench` under `mech` with the probe fanned out before `inner`
/// (so the run-end snapshot precedes `inner`'s own run-end work), and
/// return the steady-state allocations per kilocycle.
fn steady_allocs<O: SimObserver>(bench: Benchmark, mech: MechanismKind, inner: O) -> f64 {
    let cfg = SimConfig {
        n_cores: CORES,
        scale: Scale::Test,
        mechanism: mech,
        ..SimConfig::default()
    };
    let spec = bench.spec(CORES, Scale::Test);
    let mut obs = (AllocProbe::default(), inner);
    Simulation::new(cfg)
        .run_spec_observed(&spec, &mut obs)
        .expect("run completes");
    let (allocs, cycles) = obs.0.steady.expect("run end observed");
    let rate = allocs.allocs_per_kilocycle(cycles);
    eprintln!(
        "{} {}: {} allocations ({} bytes) in {cycles} cycles after warm-up = {rate:.2} per kcycle",
        bench.name(),
        mech.label(),
        allocs.allocs,
        allocs.bytes,
    );
    rate
}

#[test]
fn cycle_loop_does_not_allocate_after_warm_up() {
    let ptb = MechanismKind::PtbTwoLevel {
        policy: PtbPolicy::Dynamic,
        relax: 0.0,
    };
    let cases = [
        (
            "barnes, PTB Dynamic",
            steady_allocs(Benchmark::Barnes, ptb, NullObserver),
        ),
        (
            "x264, no mechanism",
            steady_allocs(Benchmark::X264, MechanismKind::None, NullObserver),
        ),
        (
            "barnes, PTB Dynamic, profiled and counted",
            steady_allocs(
                Benchmark::Barnes,
                ptb,
                (PhaseProfiler::new(), CounterRegistry::new()),
            ),
        ),
    ];
    for (case, rate) in cases {
        assert!(
            rate <= MAX_ALLOCS_PER_KCYCLE,
            "{case}: {rate:.2} allocations per simulated kilocycle after cycle \
             {WARM_CYCLE} (limit {MAX_ALLOCS_PER_KCYCLE})"
        );
    }
}
