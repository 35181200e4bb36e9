//! Shared server state: the job registry, the submission queue, the
//! scheduler thread that drains it onto the farm executor, and the
//! `serve.*` metrics.
//!
//! ## Dedup contract
//!
//! A submitted job is identified by its farm content key. On submit:
//!
//! * key `Queued`/`Leased`/`Running` → deduplicated against the
//!   in-flight job;
//! * key previously `Failed` → re-enqueued (a deliberate retry);
//! * key in the settled set, or its report in the store → answered as a
//!   cache hit, nothing runs;
//! * otherwise → enqueued for the scheduler.
//!
//! ## Settled keys
//!
//! The job map holds only what the store cannot answer: queued, leased,
//! running and failed jobs. A job that settles as done leaves it for the
//! settled set (16 bytes a key, also fed by store-probe hits), and every
//! other answer about its key comes from the store through
//! `ServeState::read_settled`, which forgets a lost key and deletes a
//! corrupt entry, so the next submit re-runs the job.
//!
//! The scheduler feeds batches to [`Farm::try_run_batch`], so every
//! miss inherits the farm's full execution contract unchanged: journal
//! record before first simulation, work-stealing execution,
//! `catch_unwind` isolation, bounded retries with backoff, the per-job
//! watchdog, and quarantine of persistent failures to `failed.jsonl`.
//! A faulted job marks only its own key `failed`; the server keeps
//! serving.
//!
//! ## One registry lock
//!
//! The job map, the settled set, the queue, fleet worker records and the
//! divergence ledger sit in one [`Registry`] behind one mutex, with one
//! condvar that wakes the scheduler. A fleet lease is the `Leased` state
//! of its job, not a second record, so the job and its lease cannot
//! disagree. Submit, the scheduler's drain, claim, heartbeat, complete,
//! fail and the reaper each read and change a job in one critical
//! section, and none holds a second lock: the batch registry has its own
//! mutex and is never taken together with this one. Store reads and
//! writes and journal and quarantine appends all run outside the lock.
//! Every mutex is taken through [`ptb_farm::lock`], so a panicking
//! holder costs only its own request.

use crate::fleet::{FleetMetrics, LeaseRec, WorkerRec};
use ptb_core::RunReport;
use ptb_farm::{lock, wait_timeout, ExecConfig, Farm, FarmJob, StoreLookup};
use ptb_obs::CounterRegistry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduler, lease, and registry sizing.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads of the simulation executor (independent of the
    /// HTTP pool).
    pub sim_threads: usize,
    /// Per-job wall-clock watchdog handed to the executor.
    pub job_timeout: Option<Duration>,
    /// Max jobs drained into one executor batch.
    pub batch_max: usize,
    /// Whether the local scheduler simulates at all (disable to run a
    /// pure coordinator that only hands work to fleet workers).
    pub local_execution: bool,
    /// How recently a fleet worker must have been heard from for the
    /// local scheduler to hold back and let the fleet drain the queue.
    /// With no worker contact inside this window the server degrades
    /// transparently to local-only execution.
    pub worker_grace: Duration,
    /// Lease TTL granted when a claim does not request one.
    pub lease_default_ttl: Duration,
    /// Upper bound on the TTL a claim or heartbeat may request.
    pub lease_max_ttl: Duration,
    /// Period of the lease-reaper thread (also drives batch eviction).
    pub reaper_tick: Duration,
    /// Claims a single job may consume across lease expiries before it
    /// is quarantined as poison.
    pub max_claims: u32,
    /// Remote transient-failure retries before a job is quarantined.
    pub remote_retry_max: u32,
    /// How long a settled batch stays in the registry before eviction.
    pub batch_ttl: Duration,
    /// Max concurrent `/v1/metrics/stream` subscribers.
    pub max_streams: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sim_threads: 4,
            job_timeout: Some(Duration::from_secs(300)),
            batch_max: 64,
            local_execution: true,
            worker_grace: Duration::from_secs(3),
            lease_default_ttl: Duration::from_secs(10),
            lease_max_ttl: Duration::from_secs(120),
            reaper_tick: Duration::from_millis(250),
            max_claims: 5,
            remote_retry_max: 3,
            batch_ttl: Duration::from_secs(3600),
            max_streams: 4,
        }
    }
}

/// Lifecycle of one job in the job map. A job that settles as done
/// leaves the map; its wire state is then `done` (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for the scheduler or a fleet claim.
    Queued,
    /// Leased to a fleet worker: the lease lives here and nowhere else.
    Leased(LeaseRec),
    /// Handed to the local executor.
    Running,
    /// Failed (retries exhausted, panic, or timeout); quarantined.
    Failed(String),
}

impl JobState {
    /// Wire name of this state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Leased(_) => "leased",
            JobState::Running => "running",
            JobState::Failed(_) => "failed",
        }
    }

    /// Queued, leased or running: not yet settled either way.
    pub fn in_flight(&self) -> bool {
        !matches!(self, JobState::Failed(_))
    }
}

/// Registry record of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The replayable job.
    pub job: FarmJob,
    /// Current lifecycle state.
    pub state: JobState,
    /// Fleet claims this key has consumed (each lease expiry returns
    /// the job to the queue; past `max_claims` it is quarantined).
    pub claims: u32,
    /// Remote transient failures reported for this key.
    pub remote_attempts: u32,
}

impl JobRecord {
    /// Fresh record in `state` with zeroed fleet bookkeeping.
    pub fn new(job: FarmJob, state: JobState) -> JobRecord {
        JobRecord {
            job,
            state,
            claims: 0,
            remote_attempts: 0,
        }
    }
}

/// The job registry and the fleet's records, behind [`ServeState`]'s
/// one registry lock (see the module docs).
#[derive(Default)]
pub(crate) struct Registry {
    /// Queued, leased, running and failed jobs.
    pub(crate) jobs: HashMap<String, JobRecord>,
    /// Packed keys this server has seen stored: settled here, or hit by
    /// a submit's store probe. Never also in `jobs`.
    pub(crate) settled: HashSet<u128>,
    /// Keys waiting for the scheduler or a claim, oldest first.
    /// Consumers skip a key that is no longer `Queued`.
    pub(crate) queue: VecDeque<String>,
    /// Fleet workers by self-reported name.
    pub(crate) workers: HashMap<String, WorkerRec>,
    /// `(key, worker)` pairs whose uploads diverged from stored bytes.
    pub(crate) divergent: Vec<(String, String)>,
}

impl Registry {
    /// Move the registered job `key` to `state`.
    pub(crate) fn set_state(&mut self, key: &str, state: JobState) {
        if let Some(rec) = self.jobs.get_mut(key) {
            rec.state = state;
        }
    }

    /// Return `key` to the queue.
    pub(crate) fn requeue(&mut self, key: &str) {
        self.set_state(key, JobState::Queued);
        self.queue.push_back(key.to_owned());
    }

    /// `key`'s report is stored: the job leaves the job map and its key
    /// joins the settled set.
    pub(crate) fn settle_done(&mut self, key: &str) {
        self.jobs.remove(key);
        self.settled.insert(pack_key(key));
    }
}

/// Registry record of one batch: its job keys plus, once every job has
/// settled, when that happened (the eviction clock). Settled batches
/// stay for `batch_ttl`, so a busy server holds many: each costs one
/// 16-byte key per job plus this record.
#[derive(Debug)]
pub(crate) struct BatchRec {
    pub(crate) keys: Box<[u128]>,
    pub(crate) settled_at: Option<Instant>,
}

/// A job key as a batch and the settled set store it. Callers pass a
/// [`FarmJob::key`] or a URL key that `ResultStore::path_for` accepted,
/// both 32 lowercase hex digits, so the `expect` cannot fire; unchecked,
/// a leading `+` or uppercase digits would alias a settled key.
fn pack_key(key: &str) -> u128 {
    u128::from_str_radix(key, 16).expect("FarmJob::key is 32 hex digits")
}

/// The [`FarmJob::key`] spelling of a packed key.
fn unpack_key(key: u128) -> String {
    format!("{key:032x}")
}

/// The batch number behind a wire id, which the server spells `b<n>`.
/// Any other spelling of `n` names no batch.
fn batch_number(id: &str) -> Option<u64> {
    let n = id.strip_prefix('b')?.parse().ok()?;
    (format!("b{n}") == id).then_some(n)
}

/// How a submit resolved one job (also its wire name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Served from the store without running.
    Cached,
    /// Identical job already queued or running.
    InFlight,
    /// Scheduled to run.
    Enqueued,
    /// Previously failed; scheduled to run again.
    Requeued,
}

impl Disposition {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Disposition::Cached => "cached",
            Disposition::InFlight => "in-flight",
            Disposition::Enqueued => "enqueued",
            Disposition::Requeued => "requeued",
        }
    }
}

/// Latency reservoir: keeps the most recent `cap` samples (plain ring
/// overwrite) so percentile reads stay O(cap) at any traffic volume.
#[derive(Debug)]
pub struct LatencyRing {
    buf: Vec<f64>,
    cap: usize,
    count: u64,
}

impl LatencyRing {
    fn new(cap: usize) -> Self {
        LatencyRing {
            buf: Vec::new(),
            cap,
            count: 0,
        }
    }

    fn push(&mut self, ms: f64) {
        if self.buf.len() < self.cap {
            self.buf.push(ms);
        } else {
            let at = (self.count % self.cap as u64) as usize;
            self.buf[at] = ms;
        }
        self.count += 1;
    }

    /// `(count, p50, p95, p99)` over the retained window.
    pub fn summary(&self) -> (u64, f64, f64, f64) {
        if self.buf.is_empty() {
            return (0, 0.0, 0.0, 0.0);
        }
        let mut xs = self.buf.clone();
        xs.sort_by(f64::total_cmp);
        (
            self.count,
            ptb_metrics::percentile(&xs, 50.0),
            ptb_metrics::percentile(&xs, 95.0),
            ptb_metrics::percentile(&xs, 99.0),
        )
    }
}

/// Request phases whose wall-clock latency the server tracks (the
/// serving-path analogue of the simulator's `ptb_obs::Phase`
/// attribution; exported as `serve.latency.*` percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestPhase {
    /// `POST /v1/batches` (parse + dedup + enqueue).
    Submit,
    /// Job/batch status polls.
    Poll,
    /// Report fetches (`GET /v1/reports/*`) — the cached-lookup path.
    Report,
    /// Everything else (status, metrics, health).
    Other,
    /// One executor dispatch in the scheduler (covers simulation).
    Execute,
    /// Fleet work endpoints (`/v1/work/*`: claim, heartbeat,
    /// complete, fail).
    Work,
}

impl RequestPhase {
    const ALL: [RequestPhase; 6] = [
        RequestPhase::Submit,
        RequestPhase::Poll,
        RequestPhase::Report,
        RequestPhase::Other,
        RequestPhase::Execute,
        RequestPhase::Work,
    ];

    fn name(self) -> &'static str {
        match self {
            RequestPhase::Submit => "submit",
            RequestPhase::Poll => "poll",
            RequestPhase::Report => "report",
            RequestPhase::Other => "other",
            RequestPhase::Execute => "execute",
            RequestPhase::Work => "work",
        }
    }

    fn index(self) -> usize {
        match self {
            RequestPhase::Submit => 0,
            RequestPhase::Poll => 1,
            RequestPhase::Report => 2,
            RequestPhase::Other => 3,
            RequestPhase::Execute => 4,
            RequestPhase::Work => 5,
        }
    }
}

/// `serve.*` counters and latency reservoirs.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Jobs received across all submits.
    pub submitted: AtomicU64,
    /// Jobs answered `cached`: in the settled set, or hit by the
    /// submit's store probe.
    pub hits: AtomicU64,
    /// Jobs identical to one queued/running.
    pub deduped: AtomicU64,
    /// Jobs newly enqueued.
    pub enqueued: AtomicU64,
    /// Failed jobs re-enqueued by a repeat submit.
    pub requeued: AtomicU64,
    /// Jobs completed by the executor.
    pub completed: AtomicU64,
    /// Jobs that exhausted the farm's failure handling.
    pub failed: AtomicU64,
    /// HTTP requests handled (parsed well enough to route).
    pub http_requests: AtomicU64,
    /// Responses with status ≥ 400.
    pub http_errors: AtomicU64,
    /// Settled batches evicted from the registry by the TTL sweep.
    pub batches_evicted: AtomicU64,
    /// Live `/v1/metrics/stream` subscribers (gauge).
    pub streams_active: AtomicU64,
    /// Stream subscriptions refused because the cap was reached.
    pub streams_rejected: AtomicU64,
    latency: [Mutex<LatencyRing>; 6],
}

/// Retained samples per latency ring (per phase).
const LATENCY_WINDOW: usize = 65_536;

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics {
            submitted: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            enqueued: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
            http_errors: AtomicU64::new(0),
            batches_evicted: AtomicU64::new(0),
            streams_active: AtomicU64::new(0),
            streams_rejected: AtomicU64::new(0),
            latency: std::array::from_fn(|_| Mutex::new(LatencyRing::new(LATENCY_WINDOW))),
        }
    }
}

impl ServeMetrics {
    /// Record `ms` spent in `phase`.
    pub fn observe(&self, phase: RequestPhase, ms: f64) {
        lock(&self.latency[phase.index()]).push(ms);
    }

    /// `(count, p50, p95, p99)` for `phase`, in milliseconds.
    pub fn phase_summary(&self, phase: RequestPhase) -> (u64, f64, f64, f64) {
        lock(&self.latency[phase.index()]).summary()
    }
}

/// Everything the HTTP handlers, the scheduler, the lease reaper, and
/// the fleet endpoints share.
pub struct ServeState {
    pub(crate) farm: Arc<Farm>,
    pub(crate) cfg: ServeConfig,
    /// Jobs, queue, workers and divergence ledger: the one registry
    /// lock.
    registry: Mutex<Registry>,
    /// Wakes the scheduler when the queue grows or the server stops.
    pub(crate) wake: Condvar,
    /// Batches by number (wire id `b<n>`). Never taken together with
    /// `registry`.
    batches: Mutex<HashMap<u64, BatchRec>>,
    batch_seq: AtomicU64,
    stop: AtomicBool,
    started: Instant,
    /// False once the scheduler thread has exited (panic included) —
    /// flips `/healthz` to 503.
    pub(crate) scheduler_alive: AtomicBool,
    /// False once the lease-reaper thread has exited.
    pub(crate) reaper_alive: AtomicBool,
    /// The `serve.*` metrics.
    pub metrics: ServeMetrics,
    /// The `serve.lease.*` and `fleet.*` metrics.
    pub fleet: FleetMetrics,
}

impl ServeState {
    /// Fresh state over an open farm.
    pub fn new(farm: Arc<Farm>, cfg: ServeConfig) -> Self {
        ServeState {
            farm,
            cfg,
            registry: Mutex::new(Registry::default()),
            wake: Condvar::new(),
            batches: Mutex::new(HashMap::new()),
            batch_seq: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            // Liveness flags start true: a probe racing thread startup
            // should not report a dying server.
            scheduler_alive: AtomicBool::new(true),
            reaper_alive: AtomicBool::new(true),
            metrics: ServeMetrics::default(),
            fleet: FleetMetrics::default(),
        }
    }

    /// The registry, under its lock.
    pub(crate) fn registry(&self) -> MutexGuard<'_, Registry> {
        lock(&self.registry)
    }

    /// The farm being served.
    pub fn farm(&self) -> &Farm {
        &self.farm
    }

    /// The serve configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Liveness verdict for `/healthz`: `Ok` while the scheduler and
    /// reaper threads are running and the journal accepts appends;
    /// otherwise the reason the server should be restarted.
    pub fn liveness(&self) -> Result<(), String> {
        if !self.scheduler_alive.load(Ordering::SeqCst) {
            return Err("scheduler thread has exited".into());
        }
        if !self.reaper_alive.load(Ordering::SeqCst) {
            return Err("lease reaper thread has exited".into());
        }
        if !self.farm.journal_writable() {
            return Err("journal is not writable".into());
        }
        Ok(())
    }

    /// Seconds since the state was created.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Jobs waiting for the scheduler.
    pub fn queue_depth(&self) -> usize {
        self.registry().queue.len()
    }

    /// Register a batch of jobs, deduplicating by content key. Returns
    /// the batch id and one `(key, wire state, disposition)` per job, in
    /// submission order.
    pub fn submit(
        &self,
        submitted: Vec<FarmJob>,
    ) -> (String, Vec<(String, &'static str, Disposition)>) {
        let keys: Vec<String> = submitted.iter().map(FarmJob::key).collect();
        let packed: Box<[u128]> = keys.iter().map(|k| pack_key(k)).collect();
        // Probe the store for keys the registry does not hold WITHOUT
        // holding the registry lock — a validated store lookup is disk
        // I/O, and serializing it behind the lock would stall every
        // concurrent request. Before the lock is taken again a key may
        // settle, be forgotten or be enqueued by a racing submitter, so
        // the arms below read the job map first, then the settled set,
        // then the probe; a key with no hit is enqueued, and the
        // scheduler's `try_run_batch` looks it up in the store again.
        let need: Vec<usize> = {
            let reg = self.registry();
            (0..submitted.len())
                .filter(|&i| !reg.jobs.contains_key(&keys[i]) && !reg.settled.contains(&packed[i]))
                .collect()
        };
        // Corrupt entries are left for the farm's own lookup, which
        // removes and re-runs them.
        let hits: HashSet<usize> = need
            .into_iter()
            .filter(|&i| {
                matches!(
                    self.farm.store().get(&keys[i], &submitted[i]),
                    StoreLookup::Hit(_)
                )
            })
            .collect();
        let mut resolved = Vec::with_capacity(submitted.len());
        let mut enqueued = false;
        {
            let mut reg = self.registry();
            for (i, (job, key)) in submitted.iter().zip(&keys).enumerate() {
                self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
                let (state, disposition) = match reg.jobs.get(key).map(|r| &r.state) {
                    Some(JobState::Failed(_)) => {
                        reg.requeue(key);
                        enqueued = true;
                        self.metrics.requeued.fetch_add(1, Ordering::Relaxed);
                        ("queued", Disposition::Requeued)
                    }
                    Some(in_flight) => {
                        self.metrics.deduped.fetch_add(1, Ordering::Relaxed);
                        (in_flight.name(), Disposition::InFlight)
                    }
                    None if hits.contains(&i) || reg.settled.contains(&packed[i]) => {
                        self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                        reg.settled.insert(packed[i]);
                        ("done", Disposition::Cached)
                    }
                    None => {
                        self.metrics.enqueued.fetch_add(1, Ordering::Relaxed);
                        reg.jobs
                            .insert(key.clone(), JobRecord::new(job.clone(), JobState::Queued));
                        reg.queue.push_back(key.clone());
                        enqueued = true;
                        ("queued", Disposition::Enqueued)
                    }
                };
                resolved.push((key.clone(), state, disposition));
            }
        }
        if enqueued {
            self.wake.notify_all();
        }
        let batch = BatchRec {
            keys: packed,
            settled_at: None,
        };
        let n = self.batch_seq.fetch_add(1, Ordering::Relaxed) + 1;
        lock(&self.batches).insert(n, batch);
        (format!("b{n}"), resolved)
    }

    /// Current record of one job in the job map, by key.
    pub fn job(&self, key: &str) -> Option<JobRecord> {
        self.registry().jobs.get(key).cloned()
    }

    /// The stored entry of `key`, a key outside the job map: its
    /// embedded job and report. A missing entry forgets the key, and a
    /// corrupt one (`Err`) is deleted first, as `Farm`'s own lookup
    /// does, so the next submit probes the store, misses and re-runs
    /// the job. A key that is not a content key has no entry.
    pub(crate) fn read_settled(&self, key: &str) -> Result<Option<(FarmJob, RunReport)>, String> {
        let store = self.farm.store();
        if store.path_for(key).is_none() {
            return Ok(None);
        }
        let entry = store.read_entry(key);
        if let Err(reason) = &entry {
            eprintln!("[serve] discarding entry {key}: {reason}");
            store.remove(key);
        }
        if !matches!(entry, Ok(Some(_))) {
            self.registry().settled.remove(&pack_key(key));
        }
        entry
    }

    /// The keys of one batch, in submission order, each with its job
    /// record while the job map holds it and whether the settled set
    /// does. `None` for an unknown (or evicted) batch id.
    pub fn batch(&self, id: &str) -> Option<Vec<(String, Option<JobRecord>, bool)>> {
        let keys = lock(&self.batches)
            .get(&batch_number(id)?)
            .map(|b| b.keys.clone())?;
        let reg = self.registry();
        Some(
            keys.iter()
                .map(|&k| {
                    let key = unpack_key(k);
                    let rec = reg.jobs.get(&key).cloned();
                    (key, rec, reg.settled.contains(&k))
                })
                .collect(),
        )
    }

    /// Batches still held in the registry.
    pub fn batch_count(&self) -> usize {
        lock(&self.batches).len()
    }

    /// Totals of the job registry by state:
    /// `(queued, leased, running, done, failed)`, where `done` is the
    /// size of the settled set.
    pub fn job_totals(&self) -> (u64, u64, u64, u64, u64) {
        let reg = self.registry();
        let mut t = (0, 0, 0, reg.settled.len() as u64, 0);
        for rec in reg.jobs.values() {
            match rec.state {
                JobState::Queued => t.0 += 1,
                JobState::Leased(_) => t.1 += 1,
                JobState::Running => t.2 += 1,
                JobState::Failed(_) => t.4 += 1,
            }
        }
        t
    }

    /// Sweep the batch registry: stamp newly settled batches (no job in
    /// flight) and evict those settled longer than `batch_ttl` ago.
    /// Returns how many were evicted. Called from the reaper tick;
    /// public so tests can drive it directly.
    pub fn sweep_batches(&self) -> usize {
        // Snapshot, judge, then stamp — three short critical sections,
        // never two locks held at once.
        let unsettled: Vec<(u64, Box<[u128]>)> = {
            let batches = lock(&self.batches);
            batches
                .iter()
                .filter(|(_, b)| b.settled_at.is_none())
                .map(|(&id, b)| (id, b.keys.clone()))
                .collect()
        };
        let mut now_settled = Vec::new();
        if !unsettled.is_empty() {
            let reg = self.registry();
            for (id, keys) in unsettled {
                let all_settled = keys.iter().all(|&k| {
                    !reg.jobs
                        .get(&unpack_key(k))
                        .is_some_and(|r| r.state.in_flight())
                });
                if all_settled {
                    now_settled.push(id);
                }
            }
        }
        let mut batches = lock(&self.batches);
        let now = Instant::now();
        for id in now_settled {
            if let Some(b) = batches.get_mut(&id) {
                b.settled_at = Some(now);
            }
        }
        let before = batches.len();
        batches.retain(|_, b| match b.settled_at {
            Some(t) => now.duration_since(t) < self.cfg.batch_ttl,
            None => true,
        });
        let evicted = before - batches.len();
        if evicted > 0 {
            self.metrics
                .batches_evicted
                .fetch_add(evicted as u64, Ordering::Relaxed);
        }
        evicted
    }

    /// All counters of the server as a `ptb-obs` registry: the
    /// `serve.*` namespace (traffic, outcomes, latency percentiles),
    /// merged with the farm's own `farm.*` counters (plus
    /// `farm.chaos.*` under fault injection).
    pub fn counters(&self, rejected: u64) -> CounterRegistry {
        let mut c = CounterRegistry::new();
        let m = &self.metrics;
        c.set(
            "serve.submitted",
            m.submitted.load(Ordering::Relaxed) as f64,
        );
        c.set("serve.hits", m.hits.load(Ordering::Relaxed) as f64);
        c.set("serve.deduped", m.deduped.load(Ordering::Relaxed) as f64);
        c.set("serve.enqueued", m.enqueued.load(Ordering::Relaxed) as f64);
        c.set("serve.requeued", m.requeued.load(Ordering::Relaxed) as f64);
        c.set(
            "serve.completed",
            m.completed.load(Ordering::Relaxed) as f64,
        );
        c.set("serve.failed", m.failed.load(Ordering::Relaxed) as f64);
        c.set(
            "serve.http.requests",
            m.http_requests.load(Ordering::Relaxed) as f64,
        );
        c.set(
            "serve.http.errors",
            m.http_errors.load(Ordering::Relaxed) as f64,
        );
        c.set("serve.http.rejected", rejected as f64);
        c.set("serve.queue_depth", self.queue_depth() as f64);
        c.set("serve.uptime_secs", self.uptime_secs());
        c.set("serve.batches.active", self.batch_count() as f64);
        c.set(
            "serve.batches.evicted",
            m.batches_evicted.load(Ordering::Relaxed) as f64,
        );
        c.set(
            "serve.stream.active",
            m.streams_active.load(Ordering::Relaxed) as f64,
        );
        c.set(
            "serve.stream.rejected",
            m.streams_rejected.load(Ordering::Relaxed) as f64,
        );
        c.set("serve.lock.poisoned", ptb_farm::poisoned_locks() as f64);
        self.fill_fleet_counters(&mut c);
        for phase in RequestPhase::ALL {
            let (count, p50, p95, p99) = m.phase_summary(phase);
            let name = phase.name();
            c.set(&format!("serve.latency.{name}.count"), count as f64);
            if count > 0 {
                c.set(&format!("serve.latency.{name}.p50_ms"), p50);
                c.set(&format!("serve.latency.{name}.p95_ms"), p95);
                c.set(&format!("serve.latency.{name}.p99_ms"), p99);
            }
        }
        c.merge(&self.farm.counters());
        c
    }

    /// Ask the scheduler to exit once the queue is drained of what it
    /// has already taken.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }
}

/// Flips an atomic to `false` when dropped — including during an
/// unwind, which is exactly how a panicking scheduler or reaper thread
/// reports itself dead to `/healthz`.
pub(crate) struct AliveGuard<'a>(pub(crate) &'a AtomicBool);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// Start the scheduler thread: drains the submission queue in batches
/// of at most `batch_max` onto [`Farm::try_run_batch`], updating job
/// states and quarantining failures as they resolve.
///
/// Fleet awareness: while at least one remote worker has been heard
/// from inside `worker_grace`, the local scheduler holds back and lets
/// the fleet drain the queue (one queue, one executor at a time per
/// job). With no live workers — the degraded mode, and the default —
/// it behaves exactly as before. During shutdown it drains whatever is
/// queued regardless, so `stop()` never strands work.
pub fn spawn_scheduler(state: Arc<ServeState>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let _alive = AliveGuard(&state.scheduler_alive);
        loop {
            // Drain and take in one critical section: only keys still
            // Queued belong to us (a fleet claim or complete may have
            // taken the rest).
            let (keys, jobs): (Vec<String>, Vec<FarmJob>) = {
                let mut reg = state.registry();
                loop {
                    let stopping = state.stop.load(Ordering::SeqCst);
                    if !reg.queue.is_empty() && (stopping || state.local_may_run(&reg)) {
                        break;
                    }
                    if stopping {
                        return;
                    }
                    // Bounded wait: worker liveness can change without a
                    // queue notification (a worker going silent must
                    // eventually hand the queue back to local execution).
                    reg = wait_timeout(
                        &state.registry,
                        &state.wake,
                        reg,
                        Duration::from_millis(200),
                    );
                }
                let take = reg.queue.len().min(state.cfg.batch_max.max(1));
                let drained: Vec<String> = reg.queue.drain(..take).collect();
                drained
                    .into_iter()
                    .filter_map(|k| {
                        let rec = reg.jobs.get(&k)?;
                        if rec.state != JobState::Queued {
                            return None;
                        }
                        let job = rec.job.clone();
                        reg.set_state(&k, JobState::Running);
                        Some((k, job))
                    })
                    .unzip()
            };
            if keys.is_empty() {
                continue;
            }
            let exec = ExecConfig {
                watchdog: state.cfg.job_timeout,
                ..ExecConfig::new(state.cfg.sim_threads)
            };
            let t0 = Instant::now();
            let outcomes = state.farm.try_run_batch(&jobs, &exec);
            state
                .metrics
                .observe(RequestPhase::Execute, t0.elapsed().as_secs_f64() * 1e3);
            // Quarantine appends first, outside the lock; then every key
            // settles in one critical section.
            let settled: Vec<Option<String>> = keys
                .iter()
                .zip(&jobs)
                .zip(outcomes)
                .map(|((key, job), outcome)| match outcome {
                    Ok(_) => {
                        state.metrics.completed.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                    Err(e) => {
                        state.metrics.failed.fetch_add(1, Ordering::Relaxed);
                        // Quarantine keeps the full replayable config;
                        // the server itself stays up.
                        if let Err(qe) = state.farm.quarantine_job(job, &e) {
                            eprintln!("warning: cannot quarantine {key}: {qe}");
                        }
                        Some(e.to_string())
                    }
                })
                .collect();
            let mut reg = state.registry();
            for (key, failure) in keys.iter().zip(settled) {
                match failure {
                    None => reg.settle_done(key),
                    Some(e) => reg.set_state(key, JobState::Failed(e)),
                }
            }
        }
    })
}

/// Start the lease reaper: every `reaper_tick` it requeues (or, past
/// `max_claims`, quarantines) jobs whose lease has expired, and sweeps
/// the batch registry's TTL eviction. See `fleet` for the leases
/// themselves.
pub fn spawn_reaper(state: Arc<ServeState>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let _alive = AliveGuard(&state.reaper_alive);
        while !state.stop.load(Ordering::SeqCst) {
            std::thread::sleep(state.cfg.reaper_tick);
            state.reap_expired_leases();
            state.sweep_batches();
        }
    })
}
