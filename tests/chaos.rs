//! Chaos integration tests: the farm's graceful-degradation contract
//! under deterministic filesystem fault injection, plus the simulator's
//! livelock watchdog.
//!
//! The headline property (ISSUE acceptance): a 64-job batch running
//! against a `ChaosIo` at a 10 % uniform fault rate completes — every
//! job either returns a report **byte-identical** to a fault-free run
//! or lands in the quarantine manifest — and a subsequent healthy-I/O
//! retry recovers the whole farm.
//!
//! CI sweeps these tests across seeds and rates via `PTB_CHAOS_SEED`
//! and `PTB_CHAOS_RATE`.

use ptb_core::sim::SimError;
use ptb_core::{MechanismKind, PtbPolicy, SimConfig, Simulation};
use ptb_farm::{ChaosConfig, ChaosIo, ExecConfig, Farm, FarmIo, FarmJob, JobFault};
use ptb_isa::{BlockGenConfig, LockId};
use ptb_workloads::{Benchmark, FlatStmt, LockKind, Scale, WorkloadSpec};
use serde::{json, Serialize};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn job(bench: Benchmark, mech: MechanismKind, n_cores: usize) -> FarmJob {
    FarmJob::new(
        bench,
        SimConfig {
            n_cores,
            scale: Scale::Test,
            mechanism: mech,
            ..SimConfig::default()
        },
    )
}

fn chaos_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptb-chaos-it-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The acceptance grid: 64 distinct jobs spanning every benchmark, two
/// core counts, and three mechanisms.
fn grid64() -> Vec<FarmJob> {
    let mut jobs = Vec::new();
    for n in [2, 4] {
        for bench in Benchmark::ALL {
            jobs.push(job(bench, MechanismKind::None, n));
            jobs.push(job(bench, MechanismKind::Dvfs, n));
        }
    }
    let ptb = MechanismKind::PtbTwoLevel {
        policy: PtbPolicy::ToAll,
        relax: 0.0,
    };
    for bench in Benchmark::ALL.into_iter().take(8) {
        jobs.push(job(bench, ptb, 2));
    }
    jobs
}

fn report_json(r: &ptb_core::RunReport) -> String {
    json::to_string(&r.to_value())
}

/// ISSUE acceptance: under a 10 % uniform fault rate, a 64-job batch
/// completes with every non-faulted report byte-identical to a
/// fault-free farm's, every faulted job quarantined, and a healthy-I/O
/// retry recovering all of them.
#[test]
fn chaotic_batch_degrades_gracefully_and_recovers() {
    let rate = env_f64("PTB_CHAOS_RATE", 0.10);
    let seed = env_u64("PTB_CHAOS_SEED", 1);
    let jobs = grid64();
    assert_eq!(jobs.len(), 64, "acceptance batch is 64 jobs");
    let exec = ExecConfig::new(4);

    // Fault-free reference run.
    let base_dir = chaos_dir("base");
    let base_farm = Farm::open(&base_dir).expect("open baseline farm");
    let baseline: Vec<String> = base_farm
        .try_run_batch(&jobs, &exec)
        .iter()
        .map(|r| report_json(r.as_ref().expect("fault-free run succeeds")))
        .collect();
    drop(base_farm);

    // The same batch through a chaotic filesystem.
    let dir = chaos_dir("storm");
    let chaos = Arc::new(ChaosIo::new(ChaosConfig::uniform(seed, rate)));
    let farm = Farm::open_with_io(&dir, chaos.clone()).expect("open chaotic farm");
    let outcomes = farm.try_run_batch(&jobs, &exec);
    assert_eq!(outcomes.len(), jobs.len(), "one outcome per job, always");
    let mut failed = 0usize;
    for ((j, outcome), expected) in jobs.iter().zip(&outcomes).zip(&baseline) {
        match outcome {
            Ok(r) => assert_eq!(
                &report_json(r),
                expected,
                "{}: a returned report is never corrupt",
                j.label()
            ),
            Err(e) => {
                failed += 1;
                farm.quarantine_job(j, e).expect("quarantine writable");
            }
        }
    }
    assert_eq!(
        farm.quarantine().len(),
        failed,
        "every failure is quarantined, nothing else is"
    );
    assert_eq!(farm.stats().quarantined, failed as u64);
    let injected: u64 = chaos.counters().iter().map(|(_, v)| *v).sum();
    if rate > 0.0 {
        assert!(
            injected > 0,
            "a 10%+ rate over hundreds of operations injects faults"
        );
        let registry = farm.counters();
        let text = registry.to_table("farm counters").to_text();
        assert!(
            text.contains("farm.chaos."),
            "chaos counters surface through Farm::counters"
        );
    }
    drop(farm);

    // Recovery: reopen on the real filesystem and retry the manifest.
    let farm = Farm::open(&dir).expect("reopen healthy");
    let (recovered, still) = farm
        .retry_quarantined(&exec)
        .expect("quarantine retry runs");
    assert_eq!((recovered, still), (failed, 0), "healthy I/O recovers all");
    assert!(farm.quarantine().is_empty(), "manifest removed when empty");
    drop(farm);

    // A fresh handle over the recovered store serves the whole grid
    // from cache, byte-identical to the fault-free reference.
    let farm = Farm::open(&dir).expect("reopen recovered");
    for (outcome, expected) in farm.try_run_batch(&jobs, &exec).iter().zip(&baseline) {
        assert_eq!(
            &report_json(outcome.as_ref().expect("recovered farm is healthy")),
            expected
        );
    }
    assert_eq!(farm.stats().misses, 0, "recovery left nothing to re-run");
    assert_eq!(farm.stats().hits, jobs.len() as u64);

    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault decisions are a pure function of (seed, op, path, ordinal):
/// re-running the same batch in the same location with the same seed
/// injects the same faults and fails the same jobs, regardless of how
/// worker threads interleave.
#[test]
fn injected_faults_are_deterministic_per_seed() {
    let jobs: Vec<FarmJob> = Benchmark::ALL
        .into_iter()
        .take(8)
        .map(|b| job(b, MechanismKind::None, 2))
        .collect();
    let dir = chaos_dir("determinism");
    let run = || {
        std::fs::remove_dir_all(&dir).ok();
        let chaos = Arc::new(ChaosIo::new(ChaosConfig::uniform(0xC1A05, 0.6)));
        let farm = Farm::open_with_io(&dir, chaos.clone()).expect("open");
        let outcomes = farm.try_run_batch(&jobs, &ExecConfig::new(3));
        let failures: Vec<String> = jobs
            .iter()
            .zip(&outcomes)
            .filter(|(_, o)| o.is_err())
            .map(|(j, _)| j.label())
            .collect();
        (failures, chaos.counters())
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed, same faults, same failures");
    assert!(
        !first.0.is_empty(),
        "a 60% fault rate defeats the 3-attempt retry budget for some job"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A classic ABBA deadlock: thread 0 takes lock 0 then wants lock 1,
/// thread 1 takes lock 1 then wants lock 0. The program is statically
/// well-formed (balanced acquire/release), so only the runtime watchdog
/// can catch it.
fn abba_deadlock() -> WorkloadSpec {
    let prog = |first: usize, second: usize| {
        vec![
            FlatStmt::Compute {
                profile: 0,
                count: 64,
            },
            FlatStmt::Lock(LockId(first)),
            // A wide window: both threads hold their first lock long
            // before either requests its second.
            FlatStmt::Compute {
                profile: 0,
                count: 256,
            },
            FlatStmt::Lock(LockId(second)),
            FlatStmt::Compute {
                profile: 0,
                count: 4,
            },
            FlatStmt::Unlock(LockId(second)),
            FlatStmt::Unlock(LockId(first)),
        ]
    };
    WorkloadSpec {
        name: "abba-deadlock".into(),
        programs: vec![prog(0, 1), prog(1, 0)],
        profiles: vec![BlockGenConfig::default()],
        seed: 7,
        lock_kind: LockKind::TestAndSet,
    }
}

/// ISSUE acceptance: an infinite-spin workload surfaces as a typed
/// `CycleBudgetExceeded` error — deterministically — instead of hanging
/// until `max_cycles`.
#[test]
fn livelock_watchdog_turns_deadlock_into_a_typed_error() {
    let spec = abba_deadlock();
    assert!(
        spec.validate().is_empty(),
        "deadlock is a runtime property; the program is statically valid"
    );
    let cfg = SimConfig {
        n_cores: 2,
        scale: Scale::Test,
        spin_cycle_budget: Some(4_000),
        ..SimConfig::default()
    };
    let run = || {
        Simulation::new(cfg.clone())
            .run_spec(&spec)
            .expect_err("an ABBA deadlock can never finish")
    };
    let err = run();
    match &err {
        SimError::CycleBudgetExceeded {
            budget,
            cycle,
            spinning,
        } => {
            assert_eq!(*budget, 4_000);
            assert_eq!(spinning, &vec![0, 1], "both cores are stuck");
            assert!(
                *cycle < SimConfig::default().max_cycles,
                "the watchdog fires long before the hard cycle limit"
            );
        }
        other => panic!("expected CycleBudgetExceeded, got: {other}"),
    }
    assert_eq!(
        err.to_string(),
        run().to_string(),
        "the watchdog fires at the same cycle every run"
    );
}

/// A wall-clock deadline that has already passed stops a run at the
/// first check (cycle 8 192; the check runs every 8 192 cycles), and
/// `FarmJob::try_simulate` files it as a timeout, not a fatal fault.
#[test]
fn past_deadline_stops_the_run_at_the_first_check_as_a_timeout() {
    let job = job(Benchmark::Fft, MechanismKind::None, 2);
    let spec = job.bench.spec(job.config.n_cores, job.config.scale);
    let full = Simulation::new(job.config.clone())
        .run_spec(&spec)
        .expect("run");
    assert!(full.cycles > 8_192, "the run must outlast the first check");
    let past = Instant::now();
    let err = Simulation::new(job.config.clone())
        .with_deadline(past)
        .run_spec(&spec)
        .expect_err("the deadline has passed");
    assert_eq!(err, SimError::DeadlineExceeded { cycles_done: 8_192 });
    match job.try_simulate(Some(past)) {
        Err(JobFault::Timeout(msg)) => assert!(msg.ends_with(&err.to_string()), "{msg}"),
        Err(other) => panic!("expected a timeout fault, got {other:?}"),
        Ok(_) => panic!("expected a timeout fault, got a report"),
    }
}
