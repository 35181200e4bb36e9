//! Panic-isolated, retrying work-stealing executor for farm jobs.
//!
//! Simulation times vary wildly across the sweep grid (a 16-core
//! PTB+2-level point costs ~10× a 2-core baseline), so a static
//! partition of the batch leaves workers idle. Each worker owns a deque
//! seeded round-robin; it pops work from its own front and, when empty,
//! steals from the back of the fullest victim — the classic
//! owner-LIFO/thief-FIFO discipline, built on `std::thread::scope` and
//! mutexed deques (contention is irrelevant here because each task is a
//! whole cycle-level simulation).
//!
//! ## Failure containment
//!
//! Each job runs inside `catch_unwind`: one poisoned simulation returns
//! [`JobError::Panicked`] in its own slot and every other job still
//! completes — the pre-chaos executor aborted the whole batch instead.
//! Jobs that *return* a transient fault (injected ENOSPC, a momentarily
//! full disk) are retried with exponential backoff under a bounded
//! [`RetryPolicy`]; fatal faults and panics are never retried. A
//! [`JobCtx`] hands every attempt its wall-clock deadline so the job
//! can cut itself off (`Simulation::with_deadline`) instead of hanging
//! the sweep.

use crate::error::JobError;
use crate::sync::lock;
use ptb_obs::CounterRegistry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Bounded retry with exponential backoff for transient faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the 2nd attempt; doubles per further attempt.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Backoff before attempt `attempt` (2-based): exponential, capped.
    fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(2).min(16);
        self.base_backoff
            .saturating_mul(1 << shift)
            .min(self.max_backoff)
    }
}

/// Executor configuration for one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Work-stealing worker threads.
    pub workers: usize,
    /// Retry policy for transient job faults.
    pub retry: RetryPolicy,
    /// Per-job wall-clock watchdog: each attempt receives
    /// `now + watchdog` as its [`JobCtx::deadline`]. The job itself
    /// honours it (cooperatively); `None` disables.
    pub watchdog: Option<Duration>,
}

impl ExecConfig {
    /// `workers` threads, default retry, no watchdog.
    pub fn new(workers: usize) -> Self {
        ExecConfig {
            workers,
            retry: RetryPolicy::default(),
            watchdog: None,
        }
    }
}

/// Per-attempt context handed to the job closure.
#[derive(Debug, Clone, Copy)]
pub struct JobCtx {
    /// 1-based attempt number (> 1 on retries of transient faults).
    pub attempt: u32,
    /// Wall-clock deadline for this attempt, when a watchdog is set.
    pub deadline: Option<Instant>,
}

/// A failure returned (not thrown) by one job attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFault {
    /// Plausibly clears on retry (I/O pressure); retried under the
    /// [`RetryPolicy`].
    Transient(String),
    /// Deterministic failure; retrying would fail identically.
    Fatal(String),
    /// The attempt gave up at its [`JobCtx::deadline`]; not retried
    /// (the job is as slow the second time).
    Timeout(String),
}

/// Executor telemetry accumulated across batches, exported as
/// `farm.exec.*` counters.
///
/// All fields are relaxed atomics (plus one mutexed latency vector for
/// retry-backoff percentiles), so one instance can be shared by every
/// worker of every batch a [`crate::Farm`] runs. Zero-valued stats mean
/// the executor never ran (or ran unobserved via
/// [`run_work_stealing`]).
#[derive(Debug, Default)]
pub struct ExecStats {
    tasks: AtomicU64,
    steals: AtomicU64,
    steal_misses: AtomicU64,
    max_queue_depth: AtomicU64,
    batches: AtomicU64,
    busy_ns: AtomicU64,
    capacity_ns: AtomicU64,
    wall_ns: AtomicU64,
    retry_sleeps: AtomicU64,
    backoffs_ms: Mutex<Vec<f64>>,
}

impl ExecStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tasks executed (one per input item, regardless of outcome).
    pub fn tasks(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    /// Successful steals (a thief popped a victim's deque).
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Deepest per-worker queue observed at batch seeding.
    pub fn max_queue_depth(&self) -> u64 {
        self.max_queue_depth.load(Ordering::Relaxed)
    }

    /// Worker utilization across all batches: job wall time over
    /// `workers × batch wall time` (0..=1; 0 before any batch ran).
    pub fn utilization(&self) -> f64 {
        let cap = self.capacity_ns.load(Ordering::Relaxed);
        if cap == 0 {
            0.0
        } else {
            self.busy_ns.load(Ordering::Relaxed) as f64 / cap as f64
        }
    }

    fn note_backoff(&self, backoff: Duration) {
        self.retry_sleeps.fetch_add(1, Ordering::Relaxed);
        lock(&self.backoffs_ms).push(backoff.as_secs_f64() * 1e3);
    }

    fn note_queue_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    fn note_batch(&self, n_tasks: usize, workers: usize, wall: Duration) {
        let wall_ns = wall.as_nanos() as u64;
        self.tasks.fetch_add(n_tasks as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
        self.capacity_ns
            .fetch_add(wall_ns.saturating_mul(workers as u64), Ordering::Relaxed);
    }

    /// Export as `farm.exec.*` series (retry-backoff percentiles via
    /// `ptb_metrics::percentile`, only when sleeps happened).
    pub fn counters(&self) -> CounterRegistry {
        let mut c = CounterRegistry::new();
        c.add("farm.exec.tasks", self.tasks() as f64);
        c.add(
            "farm.exec.batches",
            self.batches.load(Ordering::Relaxed) as f64,
        );
        c.add("farm.exec.steals", self.steals() as f64);
        c.add(
            "farm.exec.steal_misses",
            self.steal_misses.load(Ordering::Relaxed) as f64,
        );
        c.set("farm.exec.max_queue_depth", self.max_queue_depth() as f64);
        c.add(
            "farm.exec.wall_ms",
            self.wall_ns.load(Ordering::Relaxed) as f64 / 1e6,
        );
        c.add(
            "farm.exec.busy_ms",
            self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6,
        );
        c.set("farm.exec.utilization_pct", self.utilization() * 100.0);
        c.add(
            "farm.exec.retry.sleeps",
            self.retry_sleeps.load(Ordering::Relaxed) as f64,
        );
        let backoffs = lock(&self.backoffs_ms);
        if !backoffs.is_empty() {
            c.set(
                "farm.exec.retry.backoff_ms_p50",
                ptb_metrics::percentile(&backoffs, 50.0),
            );
            c.set(
                "farm.exec.retry.backoff_ms_p95",
                ptb_metrics::percentile(&backoffs, 95.0),
            );
        }
        c
    }
}

/// Run `f` over `items` on work-stealing threads and return one
/// `Result` per item, **in input order**.
///
/// Each attempt of each job runs inside `catch_unwind`, so a panicking
/// job yields `Err(JobError::Panicked)` in its slot while every other
/// job completes normally. `Err(JobFault::Transient)` results are
/// retried with exponential backoff under the policy's attempt budget;
/// fatal faults, timeouts and panics are final on first occurrence.
pub fn run_work_stealing<T, R, F>(items: Vec<T>, cfg: &ExecConfig, f: F) -> Vec<Result<R, JobError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T, &JobCtx) -> Result<R, JobFault> + Sync,
{
    run_work_stealing_observed(items, cfg, None, f)
}

/// [`run_work_stealing`] with executor telemetry: when `stats` is given,
/// queue depths, steal traffic, per-worker busy time and retry backoffs
/// are accumulated into it (the jobs themselves are unaffected).
pub fn run_work_stealing_observed<T, R, F>(
    items: Vec<T>,
    cfg: &ExecConfig,
    stats: Option<&ExecStats>,
    f: F,
) -> Vec<Result<R, JobError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T, &JobCtx) -> Result<R, JobFault> + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let batch_t0 = Instant::now();
    let workers = cfg.workers.clamp(1, n);
    if workers == 1 {
        if let Some(s) = stats {
            s.note_queue_depth(n as u64);
        }
        let out = items
            .iter()
            .map(|item| timed_job(item, cfg, stats, &f))
            .collect();
        if let Some(s) = stats {
            s.note_batch(n, 1, batch_t0.elapsed());
        }
        return out;
    }

    let deques: Vec<Mutex<VecDeque<(usize, &T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.iter().enumerate() {
        lock(&deques[i % workers]).push_back((i, item));
    }
    if let Some(s) = stats {
        s.note_queue_depth(n.div_ceil(workers) as u64);
    }
    let results: Vec<Mutex<Option<Result<R, JobError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for me in 0..workers {
            let deques = &deques;
            let results = &results;
            let f = &f;
            s.spawn(move || loop {
                // Release the own-deque guard before stealing: holding
                // it while locking a victim would deadlock two thieves
                // eyeing each other's (empty) deques.
                let mut task = lock(&deques[me]).pop_front();
                if task.is_none() {
                    task = steal(deques, me);
                    if let Some(st) = stats {
                        if task.is_some() {
                            st.steals.fetch_add(1, Ordering::Relaxed);
                        } else {
                            st.steal_misses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                let Some((idx, item)) = task else { break };
                *lock(&results[idx]) = Some(timed_job(item, cfg, stats, f));
            });
        }
    });

    if let Some(s) = stats {
        s.note_batch(n, workers, batch_t0.elapsed());
    }
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every task ran")
        })
        .collect()
}

/// [`run_job`] plus per-task busy-time accounting.
fn timed_job<T, R, F>(
    item: &T,
    cfg: &ExecConfig,
    stats: Option<&ExecStats>,
    f: &F,
) -> Result<R, JobError>
where
    F: Fn(&T, &JobCtx) -> Result<R, JobFault>,
{
    let t0 = Instant::now();
    let out = run_job(item, cfg, stats, f);
    if let Some(s) = stats {
        s.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    out
}

/// One job: catch panics, retry transient faults with backoff.
fn run_job<T, R, F>(
    item: &T,
    cfg: &ExecConfig,
    stats: Option<&ExecStats>,
    f: &F,
) -> Result<R, JobError>
where
    F: Fn(&T, &JobCtx) -> Result<R, JobFault>,
{
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let ctx = JobCtx {
            attempt,
            deadline: cfg.watchdog.map(|d| Instant::now() + d),
        };
        match catch_unwind(AssertUnwindSafe(|| f(item, &ctx))) {
            Ok(Ok(r)) => return Ok(r),
            Ok(Err(JobFault::Transient(message))) => {
                if attempt >= cfg.retry.max_attempts {
                    return Err(JobError::Failed {
                        message,
                        attempts: attempt,
                    });
                }
                let backoff = cfg.retry.backoff(attempt + 1);
                if let Some(s) = stats {
                    s.note_backoff(backoff);
                }
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            Ok(Err(JobFault::Fatal(message))) => {
                return Err(JobError::Failed {
                    message,
                    attempts: attempt,
                })
            }
            Ok(Err(JobFault::Timeout(message))) => return Err(JobError::TimedOut { message }),
            Err(payload) => {
                return Err(JobError::Panicked {
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Steal one task from the back of the currently fullest victim deque.
fn steal<'a, T>(deques: &[Mutex<VecDeque<(usize, &'a T)>>], me: usize) -> Option<(usize, &'a T)> {
    let victim = deques
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != me)
        .max_by_key(|(_, d)| lock(d).len())?
        .0;
    lock(&deques[victim]).pop_back()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cfg(workers: usize) -> ExecConfig {
        ExecConfig {
            workers,
            retry: RetryPolicy {
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            watchdog: None,
        }
    }

    fn unwrap_all<R: std::fmt::Debug>(res: Vec<Result<R, JobError>>) -> Vec<R> {
        res.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = unwrap_all(run_work_stealing(items, &cfg(4), |x, _| Ok(x * 2)));
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = run_work_stealing((0..257).collect(), &cfg(8), |x: &usize, _| {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok(*x)
        });
        assert_eq!(out.len(), 257);
        assert_eq!(ran.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn uneven_task_costs_still_complete() {
        // Front-load one long task per deque so stealing must happen
        // for the run to finish quickly; correctness is what we assert.
        let out = unwrap_all(run_work_stealing(
            (0..32).collect(),
            &cfg(4),
            |x: &usize, _| {
                if *x < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Ok(x + 1)
            },
        ));
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_and_empty_input() {
        assert_eq!(
            unwrap_all(run_work_stealing(vec![1, 2, 3], &cfg(1), |x, _| Ok(*x))),
            vec![1, 2, 3]
        );
        assert!(
            run_work_stealing(Vec::<u8>::new(), &cfg(4), |x, _| Ok::<_, JobFault>(*x)).is_empty()
        );
    }

    #[test]
    fn one_panicking_job_out_of_32_leaves_31_results() {
        let out = run_work_stealing((0..32).collect(), &cfg(4), |x: &usize, _| {
            if *x == 13 {
                panic!("poisoned simulation #{x}");
            }
            Ok(*x * 10)
        });
        assert_eq!(out.len(), 32);
        let (ok, err): (Vec<_>, Vec<_>) = out.iter().partition(|r| r.is_ok());
        assert_eq!(ok.len(), 31, "all healthy jobs completed");
        assert_eq!(err.len(), 1, "exactly the poisoned job failed");
        match &out[13] {
            Err(JobError::Panicked { message }) => {
                assert!(message.contains("poisoned simulation #13"), "{message}");
            }
            other => panic!("slot 13 should be Panicked, got {other:?}"),
        }
        assert_eq!(out[12], Ok(120));
        assert_eq!(out[14], Ok(140));
    }

    #[test]
    fn transient_faults_are_retried_with_bounded_attempts() {
        let calls = AtomicUsize::new(0);
        let out = run_work_stealing(vec![0usize], &cfg(1), |_, ctx| {
            calls.fetch_add(1, Ordering::Relaxed);
            if ctx.attempt < 3 {
                Err(JobFault::Transient("injected ENOSPC".into()))
            } else {
                Ok(ctx.attempt)
            }
        });
        assert_eq!(out[0], Ok(3), "third attempt succeeds");
        assert_eq!(calls.load(Ordering::Relaxed), 3);

        // A fault that never clears exhausts the attempt budget.
        let out = run_work_stealing(vec![0usize], &cfg(1), |_, _| {
            Err::<(), _>(JobFault::Transient("still full".into()))
        });
        assert_eq!(
            out[0],
            Err(JobError::Failed {
                message: "still full".into(),
                attempts: 3
            })
        );
    }

    #[test]
    fn fatal_faults_and_timeouts_are_not_retried() {
        let calls = AtomicUsize::new(0);
        let out = run_work_stealing(vec![0usize], &cfg(1), |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err::<(), _>(JobFault::Fatal("bad workload".into()))
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1, "fatal: single attempt");
        assert!(matches!(&out[0], Err(JobError::Failed { attempts: 1, .. })));

        let out = run_work_stealing(vec![0usize], &cfg(1), |_, _| {
            Err::<(), _>(JobFault::Timeout("too slow".into()))
        });
        assert_eq!(
            out[0],
            Err(JobError::TimedOut {
                message: "too slow".into()
            })
        );
    }

    #[test]
    fn watchdog_deadline_reaches_the_job() {
        let e = ExecConfig {
            watchdog: Some(Duration::from_secs(3600)),
            ..cfg(1)
        };
        let out = run_work_stealing(vec![0usize], &e, |_, ctx| {
            let dl = ctx.deadline.expect("deadline set");
            Ok(dl > Instant::now())
        });
        assert_eq!(out[0], Ok(true));
    }

    #[test]
    fn exec_stats_capture_steals_and_utilization() {
        let stats = ExecStats::new();
        let out = run_work_stealing_observed(
            (0..32).collect::<Vec<usize>>(),
            &cfg(4),
            Some(&stats),
            |x, _| {
                if *x < 4 {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(*x)
            },
        );
        assert_eq!(out.len(), 32);
        assert_eq!(stats.tasks(), 32);
        assert_eq!(stats.max_queue_depth(), 8);
        // Front-loaded sleeps force stealing; every worker ends on a miss.
        assert!(stats.steals() > 0, "steals = {}", stats.steals());
        let c = stats.counters();
        assert_eq!(c.get("farm.exec.tasks"), Some(32.0));
        assert_eq!(c.get("farm.exec.batches"), Some(1.0));
        assert!(c.get("farm.exec.steal_misses").unwrap() >= 1.0);
        let util = c.get("farm.exec.utilization_pct").unwrap();
        assert!(util > 0.0 && util <= 100.0, "utilization = {util}");
        assert!(c.get("farm.exec.wall_ms").unwrap() > 0.0);
    }

    #[test]
    fn exec_stats_record_retry_backoffs() {
        let stats = ExecStats::new();
        let e = ExecConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
            ..cfg(1)
        };
        let out = run_work_stealing_observed(vec![0usize], &e, Some(&stats), |_, ctx| {
            if ctx.attempt < 3 {
                Err(JobFault::Transient("flaky".into()))
            } else {
                Ok(())
            }
        });
        assert_eq!(out[0], Ok(()));
        let c = stats.counters();
        assert_eq!(c.get("farm.exec.retry.sleeps"), Some(2.0));
        let p50 = c.get("farm.exec.retry.backoff_ms_p50").unwrap();
        let p95 = c.get("farm.exec.retry.backoff_ms_p95").unwrap();
        assert!(p50 >= 1.0 && p95 <= 2.0, "p50={p50} p95={p95}");
    }

    #[test]
    fn unobserved_runs_have_zero_stats() {
        let stats = ExecStats::new();
        let _ = run_work_stealing((0..8).collect::<Vec<usize>>(), &cfg(2), |x, _| Ok(*x));
        assert_eq!(stats.tasks(), 0);
        assert_eq!(stats.utilization(), 0.0);
        // Percentile series are absent, not zero, when nothing slept.
        assert_eq!(stats.counters().get("farm.exec.retry.backoff_ms_p50"), None);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(p.backoff(2), Duration::from_millis(10));
        assert_eq!(p.backoff(3), Duration::from_millis(20));
        assert_eq!(p.backoff(4), Duration::from_millis(35), "capped");
    }
}
