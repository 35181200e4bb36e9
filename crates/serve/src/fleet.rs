//! Fleet execution: the leases behind the `/v1/work/*` endpoints.
//!
//! Remote `ptb_worker` processes *pull* work — the server never dials
//! out. A claim moves a queued job to `Leased(lease)` under a
//! monotonic-clock TTL; heartbeats extend it; `complete` uploads the
//! report (verified against the content-addressed key, then committed
//! through the same store path as local execution), and the settled job
//! leaves the job map; `fail` maps the worker's typed fault onto the
//! farm's retry/quarantine taxonomy. The reaper requeues expired leases
//! so a SIGKILLed worker costs latency, never a result, and
//! `max_claims` bounds how often a poison job can kill claimants before
//! it is quarantined.
//!
//! ## Idempotency and divergence
//!
//! Workers retry over a faulty network, so every endpoint tolerates
//! duplicate delivery. The interesting case is a duplicate `complete`:
//! the first upload stores the report; a later upload for the key, now
//! outside the job map, is screened against the stored entry's job and
//! byte-compared with its report — identical bytes are acknowledged as
//! a duplicate (the lost-ACK retry shape), while *divergent* bytes mean
//! a determinism violation somewhere in the fleet and are refused,
//! counted, and surfaced in `/v1/status` as a hard error. A simulation
//! is deterministic; two honest workers can never disagree. If the
//! entry is lost or corrupt, the key is forgotten (`read_settled`) and
//! the upload is refused as one for an unknown job: without the job it
//! cannot be committed, and the next submit re-runs the job.
//!
//! ## Races, and why they are safe
//!
//! A lease is the `Leased` state of its job in the registry
//! (`state.rs`), and every endpoint below reads and changes the job in
//! one critical section of the registry lock, so a job and its lease
//! never disagree.
//!
//! * **Complete vs. local drain**: the upload takes the job — a
//!   `Leased` state with `committing` set — and unlinks its queue entry
//!   in one critical section, before the store write; the scheduler
//!   drains only keys still `Queued`, so a job cannot simultaneously
//!   run locally and commit remotely.
//! * **Concurrent duplicate completes**: an upload that finds a commit
//!   in flight gets a 503 retry, which then lands in the byte-compare
//!   path above. The reaper and `fail` leave a committing job alone.
//! * **Failed commit**: a transient store fault requeues the job, which
//!   ends its lease; the former holder's heartbeat and `fail` are then
//!   refused (409) like any lost lease's.
//! * **Zombie worker after reassignment**: a worker whose lease
//!   expired (and whose job was reclaimed) may still finish and
//!   upload. Whoever commits first wins; the other lands in the
//!   duplicate path. Results are content-addressed, so "first" and
//!   "second" are byte-identical by construction.

use crate::state::{JobRecord, JobState, Registry, ServeState};
use ptb_core::RunReport;
use ptb_farm::{FarmJob, JobError};
use serde::{json, Map, Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One live lease: the state of a `Leased` job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseRec {
    /// Worker holding the lease.
    pub worker: String,
    /// TTL granted (heartbeats re-arm this much).
    pub ttl: Duration,
    /// Monotonic expiry deadline.
    pub expires: Instant,
    /// Heartbeats received.
    pub heartbeats: u64,
    /// Free-form progress string from the last heartbeat.
    pub progress: Option<String>,
    /// The holder's upload is being written to the store.
    pub(crate) committing: bool,
}

impl LeaseRec {
    fn new(worker: &str, ttl: Duration, committing: bool) -> Self {
        LeaseRec {
            worker: worker.to_owned(),
            ttl,
            expires: Instant::now() + ttl,
            heartbeats: 0,
            progress: None,
            committing,
        }
    }
}

/// Per-worker bookkeeping, keyed by the worker's self-reported name.
#[derive(Debug, Clone)]
pub struct WorkerRec {
    /// Last contact on any fleet endpoint (monotonic).
    pub last_seen: Instant,
    /// Jobs claimed.
    pub claimed: u64,
    /// Jobs completed (stored or acknowledged duplicate).
    pub completed: u64,
    /// Jobs failed.
    pub failed: u64,
}

/// `serve.lease.*` / `fleet.*` counters.
#[derive(Debug, Default)]
pub struct FleetMetrics {
    /// Leases granted.
    pub claimed: AtomicU64,
    /// Heartbeats accepted.
    pub heartbeats: AtomicU64,
    /// Leases expired by the reaper.
    pub expired: AtomicU64,
    /// Expired-lease jobs returned to the queue.
    pub requeued: AtomicU64,
    /// Divergent duplicate completions (hard errors).
    pub divergent: AtomicU64,
    /// Reports stored via remote completion.
    pub complete_stored: AtomicU64,
    /// Byte-identical duplicate completions acknowledged.
    pub complete_duplicate: AtomicU64,
    /// Completions that arrived while the local executor owned the job.
    pub complete_raced: AtomicU64,
    /// Transient remote failures (requeued).
    pub fail_transient: AtomicU64,
    /// Fatal remote failures (quarantined).
    pub fail_fatal: AtomicU64,
    /// Remote watchdog timeouts (quarantined).
    pub fail_timeout: AtomicU64,
    /// Jobs quarantined from the remote path (poison or retries
    /// exhausted).
    pub quarantined: AtomicU64,
}

impl Registry {
    /// Record contact from `worker`, creating its record on first
    /// sight.
    fn note_worker(&mut self, worker: &str) -> &mut WorkerRec {
        let now = Instant::now();
        let rec = self.workers.entry(worker.to_owned()).or_insert(WorkerRec {
            last_seen: now,
            claimed: 0,
            completed: 0,
            failed: 0,
        });
        rec.last_seen = now;
        rec
    }

    /// True when some fleet worker was heard from within `grace`.
    pub(crate) fn remote_active(&self, grace: Duration) -> bool {
        self.workers.values().any(|w| w.last_seen.elapsed() < grace)
    }

    /// Every live lease with its job, in no particular order.
    fn leases(&self) -> impl Iterator<Item = (&String, &JobRecord, &LeaseRec)> {
        self.jobs.iter().filter_map(|(key, rec)| match &rec.state {
            JobState::Leased(lease) => Some((key, rec, lease)),
            _ => None,
        })
    }
}

/// How a `complete` upload resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// First completion: report verified and stored.
    Stored,
    /// Byte-identical to the already-stored report (lost-ACK retry).
    Duplicate,
    /// Diverges from the already-stored report — a determinism
    /// violation, refused and surfaced in `/v1/status`.
    Divergent,
    /// The local executor owns the job right now; the upload is
    /// acknowledged but discarded (the local result will land).
    RacedLocal,
    /// Transient server-side trouble; the worker should retry.
    Retry(String),
    /// The upload is malformed or does not answer for this key.
    Invalid(String),
    /// The report could not be persisted (non-transient store fault).
    StoreError(String),
}

/// How a `fail` report resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailOutcome {
    /// Transient fault under the retry budget: requeued.
    Requeued {
        /// Remote attempts consumed so far.
        attempts: u32,
    },
    /// Retries exhausted or the fault was fatal: quarantined to
    /// `failed.jsonl`.
    Quarantined,
}

/// Why a fleet request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetRefusal {
    /// The caller does not hold the lease (expired, reassigned, or
    /// never granted). Maps to 409.
    LeaseLost,
    /// The request itself is malformed. Maps to 400.
    Bad(String),
}

impl ServeState {
    /// True when at least one fleet worker has been heard from within
    /// `worker_grace` — the signal for the local scheduler to hold
    /// back.
    pub fn remote_active(&self) -> bool {
        self.registry().remote_active(self.cfg.worker_grace)
    }

    /// Whether the local scheduler may take work right now.
    pub(crate) fn local_may_run(&self, reg: &Registry) -> bool {
        self.cfg.local_execution && !reg.remote_active(self.cfg.worker_grace)
    }

    /// Leases currently live.
    pub(crate) fn lease_count(&self) -> usize {
        self.registry().leases().count()
    }

    /// The live leases by key, in key order.
    pub(crate) fn leases_snapshot(&self) -> Vec<(String, LeaseRec)> {
        let mut leases: Vec<(String, LeaseRec)> = self
            .registry()
            .leases()
            .map(|(key, _, lease)| (key.clone(), lease.clone()))
            .collect();
        leases.sort_by(|a, b| a.0.cmp(&b.0));
        leases
    }

    /// Snapshot of the worker registry.
    pub(crate) fn workers_snapshot(&self) -> Vec<(String, WorkerRec)> {
        let reg = self.registry();
        reg.workers
            .iter()
            .map(|(n, w)| (n.clone(), w.clone()))
            .collect()
    }

    /// Keys whose duplicate completions diverged, with the offending
    /// worker.
    pub(crate) fn divergent_snapshot(&self) -> Vec<(String, String)> {
        self.registry().divergent.clone()
    }

    /// Export the fleet counters into `c`.
    pub(crate) fn fill_fleet_counters(&self, c: &mut ptb_obs::CounterRegistry) {
        let m = &self.fleet;
        let (leases, workers) = {
            let reg = self.registry();
            (reg.leases().count(), reg.workers.len())
        };
        for (name, value) in [
            ("serve.lease.claimed", &m.claimed),
            ("serve.lease.heartbeats", &m.heartbeats),
            ("serve.lease.expired", &m.expired),
            ("serve.lease.requeued", &m.requeued),
            ("serve.lease.divergent", &m.divergent),
            ("fleet.complete.stored", &m.complete_stored),
            ("fleet.complete.duplicate", &m.complete_duplicate),
            ("fleet.complete.raced", &m.complete_raced),
            ("fleet.fail.transient", &m.fail_transient),
            ("fleet.fail.fatal", &m.fail_fatal),
            ("fleet.fail.timeout", &m.fail_timeout),
            ("fleet.quarantined", &m.quarantined),
        ] {
            c.set(name, value.load(Ordering::Relaxed) as f64);
        }
        c.set("serve.lease.active", leases as f64);
        c.set("fleet.workers", workers as f64);
    }

    /// Lease the oldest queued job to `worker`. `None` when the queue
    /// has nothing claimable. The granted TTL is the requested one
    /// clamped to `lease_max_ttl` (default `lease_default_ttl`).
    pub fn claim(
        &self,
        worker: &str,
        requested_ttl: Option<Duration>,
    ) -> Option<(String, FarmJob, Duration)> {
        let ttl = requested_ttl
            .unwrap_or(self.cfg.lease_default_ttl)
            .min(self.cfg.lease_max_ttl);
        let (key, job) = {
            let mut guard = self.registry();
            let reg = &mut *guard;
            reg.note_worker(worker);
            let (key, job) = loop {
                let key = reg.queue.pop_front()?;
                // Settled or reclaimed while queued: skip the stale
                // queue entry and keep looking.
                if let Some(rec) = reg
                    .jobs
                    .get_mut(&key)
                    .filter(|r| r.state == JobState::Queued)
                {
                    rec.claims += 1;
                    break (key, rec.job.clone());
                }
            };
            let lease = LeaseRec::new(worker, ttl, false);
            reg.set_state(&key, JobState::Leased(lease));
            reg.note_worker(worker).claimed += 1;
            (key, job)
        };
        self.fleet.claimed.fetch_add(1, Ordering::Relaxed);
        // Journal the hand-off (duplicate submit lines are ignored
        // by replay) so a server crash still knows what was owed.
        self.farm.record_pending(std::slice::from_ref(&job)).ok();
        Some((key, job, ttl))
    }

    /// Extend `worker`'s lease on `key` by its TTL. Returns the TTL on
    /// success; `LeaseLost` when the lease expired or moved on.
    pub fn heartbeat(
        &self,
        worker: &str,
        key: &str,
        progress: Option<String>,
    ) -> Result<Duration, FleetRefusal> {
        let mut guard = self.registry();
        let reg = &mut *guard;
        reg.note_worker(worker);
        match reg.jobs.get_mut(key).map(|r| &mut r.state) {
            Some(JobState::Leased(l)) if l.worker == worker => {
                l.expires = Instant::now() + l.ttl;
                l.heartbeats += 1;
                if progress.is_some() {
                    l.progress = progress;
                }
                self.fleet.heartbeats.fetch_add(1, Ordering::Relaxed);
                Ok(l.ttl)
            }
            _ => Err(FleetRefusal::LeaseLost),
        }
    }

    /// Accept a completed report for `key` from `worker`.
    ///
    /// Accepted *regardless of lease state* — a worker whose lease
    /// expired mid-upload still carries a correct, content-addressed
    /// result, and refusing it would only waste work. Idempotency and
    /// divergence are resolved by byte comparison (see module docs).
    pub fn complete(&self, worker: &str, key: &str, report: RunReport) -> CompleteOutcome {
        // Screen the upload and take the job in one critical section.
        let taken = 'take: {
            let mut guard = self.registry();
            let reg = &mut *guard;
            reg.note_worker(worker);
            let Some(rec) = reg.jobs.get(key) else {
                break 'take None;
            };
            if let Some(refused) = misidentified(key, &rec.job, &report) {
                return refused;
            }
            let lease = match &rec.state {
                JobState::Running => {
                    self.fleet.complete_raced.fetch_add(1, Ordering::Relaxed);
                    return CompleteOutcome::RacedLocal;
                }
                JobState::Leased(l) if l.committing => {
                    return CompleteOutcome::Retry(
                        "another completion for this key is in flight".into(),
                    );
                }
                JobState::Leased(l) if l.worker == worker => LeaseRec {
                    committing: true,
                    ..l.clone()
                },
                JobState::Leased(_) | JobState::Queued | JobState::Failed(_) => {
                    LeaseRec::new(worker, self.cfg.lease_default_ttl, true)
                }
            };
            let job = rec.job.clone();
            // The uploader holds the job while its commit is in flight,
            // and the queue loses the key: the local scheduler cannot
            // also run it.
            reg.set_state(key, JobState::Leased(lease));
            reg.queue.retain(|k| k != key);
            Some(job)
        };
        let out = match taken {
            Some(job) => self.commit(worker, key, &job, &report),
            None => self.compare_against_store(key, &report),
        };
        match &out {
            CompleteOutcome::Duplicate => {
                self.fleet
                    .complete_duplicate
                    .fetch_add(1, Ordering::Relaxed);
                self.registry().note_worker(worker).completed += 1;
            }
            CompleteOutcome::Divergent => {
                self.fleet.divergent.fetch_add(1, Ordering::Relaxed);
                self.registry()
                    .divergent
                    .push((key.to_owned(), worker.to_owned()));
            }
            _ => {}
        }
        out
    }

    /// Write `worker`'s report for the job it has taken, then settle the
    /// job: done, requeued on a transient store fault, or quarantined.
    fn commit(
        &self,
        worker: &str,
        key: &str,
        job: &FarmJob,
        report: &RunReport,
    ) -> CompleteOutcome {
        let written = self.farm.commit_remote(key, job, report);
        let mut reg = self.registry();
        match written {
            Ok(()) => {
                reg.settle_done(key);
                reg.note_worker(worker).completed += 1;
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                self.fleet.complete_stored.fetch_add(1, Ordering::Relaxed);
                CompleteOutcome::Stored
            }
            Err(e) if e.transient() => {
                // Put the job back; this worker (or any other) retries.
                reg.requeue(key);
                drop(reg);
                self.wake.notify_all();
                CompleteOutcome::Retry(format!("store write failed transiently: {e}"))
            }
            Err(e) => {
                let msg = format!("report for {key} cannot be persisted: {e}");
                let job_err = JobError::Failed {
                    message: msg.clone(),
                    attempts: 1,
                };
                reg.set_state(key, JobState::Failed(job_err.to_string()));
                drop(reg);
                self.quarantine_remote(key, job, &job_err);
                CompleteOutcome::StoreError(msg)
            }
        }
    }

    /// Screen an upload for a key outside the job map against the stored
    /// entry's job, then byte-compare it with the stored report. A lost
    /// or corrupt entry is forgotten by `ServeState::read_settled`, and
    /// the upload is refused like one for a key never submitted.
    fn compare_against_store(&self, key: &str, report: &RunReport) -> CompleteOutcome {
        let Ok(Some((job, stored))) = self.read_settled(key) else {
            return CompleteOutcome::Invalid(format!("unknown job {key:?}"));
        };
        if let Some(refused) = misidentified(key, &job, report) {
            return refused;
        }
        if json::to_string(&stored.to_value()) == json::to_string(&report.to_value()) {
            CompleteOutcome::Duplicate
        } else {
            CompleteOutcome::Divergent
        }
    }

    /// Process a typed failure report from `worker` for `key`.
    pub fn fail(
        &self,
        worker: &str,
        key: &str,
        kind: &str,
        message: &str,
    ) -> Result<FailOutcome, FleetRefusal> {
        let mut guard = self.registry();
        let reg = &mut *guard;
        reg.note_worker(worker);
        // Validate the kind before touching the lease: a malformed
        // request must not consume it and strand the job.
        let counter = match kind {
            "transient" => &self.fleet.fail_transient,
            "fatal" => &self.fleet.fail_fatal,
            "timeout" => &self.fleet.fail_timeout,
            _ => {
                return Err(FleetRefusal::Bad(format!(
                    "unknown fault kind {kind:?} (expected transient|fatal|timeout)"
                )))
            }
        };
        // Only the lease holder may fail a job, and not while its upload
        // is being stored: a zombie's stale verdict must not quarantine
        // work that has moved on.
        let rec = match reg.jobs.get_mut(key) {
            Some(rec) if matches!(&rec.state, JobState::Leased(l) if l.worker == worker && !l.committing) => {
                rec
            }
            _ => return Err(FleetRefusal::LeaseLost),
        };
        let job = rec.job.clone();
        let label = job.label();
        let (outcome, quarantine) = match kind {
            "transient" => {
                rec.remote_attempts += 1;
                let attempts = rec.remote_attempts;
                if attempts < self.cfg.remote_retry_max {
                    (FailOutcome::Requeued { attempts }, None)
                } else {
                    let err = JobError::Failed {
                        message: format!("{label}: {message} (remote retries exhausted)"),
                        attempts,
                    };
                    (FailOutcome::Quarantined, Some(err))
                }
            }
            "fatal" => {
                let err = JobError::Failed {
                    message: format!("{label}: {message}"),
                    attempts: 1,
                };
                (FailOutcome::Quarantined, Some(err))
            }
            _ => {
                let err = JobError::TimedOut {
                    message: format!("{label}: {message}"),
                };
                (FailOutcome::Quarantined, Some(err))
            }
        };
        match &quarantine {
            Some(err) => reg.set_state(key, JobState::Failed(err.to_string())),
            None => reg.requeue(key),
        }
        reg.note_worker(worker).failed += 1;
        drop(guard);
        counter.fetch_add(1, Ordering::Relaxed);
        match quarantine {
            Some(err) => self.quarantine_remote(key, &job, &err),
            None => self.wake.notify_all(),
        }
        Ok(outcome)
    }

    /// Count a fleet-side quarantine and append it to `failed.jsonl`.
    /// The caller has already marked the job `Failed`.
    fn quarantine_remote(&self, key: &str, job: &FarmJob, err: &JobError) {
        self.fleet.quarantined.fetch_add(1, Ordering::Relaxed);
        self.metrics.failed.fetch_add(1, Ordering::Relaxed);
        if let Err(qe) = self.farm.quarantine_job(job, err) {
            eprintln!("warning: cannot quarantine {key}: {qe}");
        }
    }

    /// One reaper pass over the live leases: expired ones are ended,
    /// their jobs requeued — or quarantined once a key has burned
    /// `max_claims` claims (a job that keeps killing or stalling its
    /// claimants is poison, not unlucky). A lease whose commit is in
    /// flight is left to its commit.
    pub fn reap_expired_leases(&self) {
        let now = Instant::now();
        let expired = {
            let mut reg = self.registry();
            let mut expired: Vec<_> = reg
                .leases()
                .filter(|(_, _, lease)| lease.expires <= now && !lease.committing)
                .map(|(key, rec, lease)| {
                    let poison = (rec.claims >= self.cfg.max_claims).then(|| {
                        let err = JobError::Failed {
                            message: format!(
                                "{}: lease expired {} times; claimants died or stalled",
                                rec.job.label(),
                                rec.claims
                            ),
                            attempts: rec.claims,
                        };
                        (rec.job.clone(), err)
                    });
                    (key.clone(), lease.worker.clone(), poison)
                })
                .collect();
            // Requeue in key order, whatever the job map's hash order.
            expired.sort_by(|a, b| a.0.cmp(&b.0));
            for (key, _, poison) in &expired {
                match poison {
                    Some((_, err)) => reg.set_state(key, JobState::Failed(err.to_string())),
                    None => reg.requeue(key),
                }
            }
            expired
        };
        let mut requeued = false;
        for (key, worker, poison) in expired {
            self.fleet.expired.fetch_add(1, Ordering::Relaxed);
            eprintln!("[fleet] lease on {key} (worker {worker}) expired");
            match poison {
                Some((job, err)) => self.quarantine_remote(&key, &job, &err),
                None => {
                    self.fleet.requeued.fetch_add(1, Ordering::Relaxed);
                    requeued = true;
                }
            }
        }
        if requeued {
            self.wake.notify_all();
        }
    }
}

/// The refusal of an upload whose report does not identify as `job`: a
/// cheap screen before the store's own embedded-job verification.
fn misidentified(key: &str, job: &FarmJob, report: &RunReport) -> Option<CompleteOutcome> {
    let same = report.benchmark == job.bench.name()
        && report.n_cores == job.config.n_cores
        && report.mechanism == job.config.mechanism.label();
    (!same).then(|| {
        CompleteOutcome::Invalid(format!(
            "report identifies as {}/{}/{}c but key {key} addresses {}",
            report.benchmark,
            report.mechanism,
            report.n_cores,
            job.label()
        ))
    })
}

/// Claim-response wire form: `{"key", "job", "ttl_ms"}`. Kept here so
/// the API layer, the worker binary, and the tests agree on one shape.
pub fn claim_response_value(key: &str, job: &FarmJob, ttl: Duration) -> Value {
    let mut m = Map::new();
    m.insert("key".into(), Value::Str(key.to_owned()));
    m.insert("job".into(), job.to_value());
    m.insert("ttl_ms".into(), Value::U64(ttl.as_millis() as u64));
    Value::Object(m)
}
