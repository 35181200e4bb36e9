//! HTTP API: request routing and the JSON wire protocol.
//!
//! ## Endpoints
//!
//! | method | path | purpose |
//! |---|---|---|
//! | GET | `/healthz` | liveness probe (503 once scheduler/reaper die or the journal stops accepting appends) |
//! | GET | `/v1/status` | store + queue + job-registry + fleet summary |
//! | GET | `/v1/metrics` | all `serve.*`/`farm.*`/`fleet.*` counters as one object |
//! | GET | `/v1/metrics/stream?n=&interval_ms=` | NDJSON counter snapshots (streamed; capped subscribers) |
//! | POST | `/v1/batches` | submit `{"jobs": [...]}`, returns dispositions |
//! | GET | `/v1/batches/{id}` | per-job states of one batch |
//! | GET | `/v1/jobs/{key}` | one job's state |
//! | GET | `/v1/reports/{key}` | the stored `RunReport`, byte-stable |
//! | POST | `/v1/work/claim` | fleet: lease a queued job (`{"worker", "ttl_ms"?}`) |
//! | POST | `/v1/work/{key}/heartbeat` | fleet: extend the lease, report progress |
//! | POST | `/v1/work/{key}/complete` | fleet: upload the `RunReport` |
//! | POST | `/v1/work/{key}/fail` | fleet: typed fault → retry or quarantine |
//! | GET | `/v1/workers` | fleet worker registry + live leases |
//!
//! Report bodies are exactly `json::to_string(&report.to_value())` —
//! the same bytes a direct [`FarmJob::simulate`] serializes to — so
//! clients can byte-compare served results against local runs.
//!
//! ## Job objects
//!
//! A job is `{"bench": ..., "config": ...}`. `bench` accepts the
//! lowercase Table-2 name (`"fft"`) or the enum variant (`"Fft"`).
//! `config` is a full `SimConfig` value; when omitted, defaults apply.
//! The shorthand keys `n_cores`, `scale`, and `mechanism` override the
//! config in place for handwritten curl requests. Whichever form sets
//! it, `n_cores` must lie in `1..=`[`MAX_CORES`].

use crate::fleet::{claim_response_value, CompleteOutcome, FailOutcome, FleetRefusal};
use crate::http::{Request, Response};
use crate::state::{JobRecord, JobState, RequestPhase, ServeState};
use ptb_core::{RunReport, SimConfig, MAX_CORES};
use ptb_farm::{FarmJob, StoreLookup};
use ptb_workloads::Benchmark;
use serde::{json, Deserialize, Map, Serialize, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Max jobs accepted in one `POST /v1/batches`.
pub const MAX_BATCH_JOBS: usize = 1024;

/// Route one parsed request. This is the function handed to
/// [`crate::http::Server::spawn`]; it never panics a worker — handler
/// errors come back as JSON `{"error": ...}` bodies.
pub fn handle(state: &Arc<ServeState>, req: &Request, rejected: u64) -> Response {
    use std::sync::atomic::Ordering;
    state.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
    let t0 = Instant::now();
    let (phase, resp) = route(state, req, rejected);
    state
        .metrics
        .observe(phase, t0.elapsed().as_secs_f64() * 1e3);
    if resp.status >= 400 {
        state.metrics.http_errors.fetch_add(1, Ordering::Relaxed);
    }
    resp
}

fn route(state: &Arc<ServeState>, req: &Request, rejected: u64) -> (RequestPhase, Response) {
    let path = req.path.as_str();
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => (RequestPhase::Other, healthz(state)),
        ("GET", "/v1/status") => (RequestPhase::Other, status(state)),
        ("GET", "/v1/workers") => (RequestPhase::Other, workers(state)),
        ("POST", "/v1/work/claim") => (RequestPhase::Work, work_claim(state, req)),
        ("POST", _) if path.starts_with("/v1/work/") => {
            (RequestPhase::Work, work_dispatch(state, req, path))
        }
        ("GET", "/v1/metrics") => (RequestPhase::Other, metrics(state, rejected)),
        ("GET", "/v1/metrics/stream") => {
            (RequestPhase::Other, metrics_stream(state, req, rejected))
        }
        ("POST", "/v1/batches") => (RequestPhase::Submit, submit(state, req)),
        ("GET", _) if path.starts_with("/v1/batches/") => (
            RequestPhase::Poll,
            batch_status(state, &path["/v1/batches/".len()..]),
        ),
        ("GET", _) if path.starts_with("/v1/jobs/") => (
            RequestPhase::Poll,
            job_status(state, &path["/v1/jobs/".len()..]),
        ),
        ("GET", _) if path.starts_with("/v1/reports/") => (
            RequestPhase::Report,
            report(state, &path["/v1/reports/".len()..]),
        ),
        _ => (
            RequestPhase::Other,
            Response::error(404, &format!("no route for {} {}", req.method, path)),
        ),
    }
}

/// `GET /healthz`: 200 while the scheduler and lease reaper are alive
/// and the journal accepts appends; 503 with the reason otherwise.
fn healthz(state: &Arc<ServeState>) -> Response {
    match state.liveness() {
        Ok(()) => Response::json(200, "{\"ok\":true}".to_string()),
        Err(reason) => {
            let mut obj = Map::new();
            obj.insert("ok".into(), Value::Bool(false));
            obj.insert("reason".into(), Value::Str(reason));
            Response::json(503, json::to_string(&Value::Object(obj)))
        }
    }
}

/// `GET /v1/status`.
fn status(state: &Arc<ServeState>) -> Response {
    let disk = state.farm().store().disk_stats().unwrap_or_default();
    let (queued, leased, running, done, failed) = state.job_totals();
    let mut obj = Map::new();
    obj.insert("entries".into(), Value::U64(disk.entries));
    obj.insert("total_bytes".into(), Value::U64(disk.total_bytes));
    obj.insert("shards".into(), Value::U64(disk.shards));
    obj.insert("queue_depth".into(), Value::U64(state.queue_depth() as u64));
    let mut jobs = Map::new();
    jobs.insert("queued".into(), Value::U64(queued));
    jobs.insert("leased".into(), Value::U64(leased));
    jobs.insert("running".into(), Value::U64(running));
    jobs.insert("done".into(), Value::U64(done));
    jobs.insert("failed".into(), Value::U64(failed));
    obj.insert("jobs".into(), Value::Object(jobs));
    obj.insert(
        "leases".into(),
        Value::U64(state.fleet.lease_count() as u64),
    );
    obj.insert(
        "workers".into(),
        Value::U64(state.fleet.workers_snapshot().len() as u64),
    );
    obj.insert("remote_active".into(), Value::Bool(state.remote_active()));
    // Divergent completions are a hard error: a deterministic
    // simulation uploaded under the same content key MUST byte-match.
    let divergent = state.fleet.divergent_snapshot();
    obj.insert(
        "divergent".into(),
        Value::Array(
            divergent
                .iter()
                .map(|(key, worker)| {
                    let mut d = Map::new();
                    d.insert("key".into(), Value::Str(key.clone()));
                    d.insert("worker".into(), Value::Str(worker.clone()));
                    Value::Object(d)
                })
                .collect(),
        ),
    );
    obj.insert("healthy".into(), Value::Bool(state.liveness().is_ok()));
    obj.insert("uptime_secs".into(), Value::F64(state.uptime_secs()));
    Response::json(200, json::to_string(&Value::Object(obj)))
}

/// `GET /v1/workers`: the fleet registry plus live leases, for
/// `farm_ctl workers`.
fn workers(state: &Arc<ServeState>) -> Response {
    let grace = state.config().worker_grace;
    let mut workers: Vec<(String, crate::fleet::WorkerRec)> = state.fleet.workers_snapshot();
    workers.sort_by(|a, b| a.0.cmp(&b.0));
    let mut obj = Map::new();
    obj.insert(
        "workers".into(),
        Value::Array(
            workers
                .into_iter()
                .map(|(name, w)| {
                    let mut m = Map::new();
                    m.insert("name".into(), Value::Str(name));
                    m.insert(
                        "last_seen_ms".into(),
                        Value::U64(w.last_seen.elapsed().as_millis() as u64),
                    );
                    m.insert("live".into(), Value::Bool(w.last_seen.elapsed() < grace));
                    m.insert("claimed".into(), Value::U64(w.claimed));
                    m.insert("completed".into(), Value::U64(w.completed));
                    m.insert("failed".into(), Value::U64(w.failed));
                    Value::Object(m)
                })
                .collect(),
        ),
    );
    let mut leases: Vec<(String, crate::fleet::LeaseRec)> = state.fleet.leases_snapshot();
    leases.sort_by(|a, b| a.0.cmp(&b.0));
    obj.insert(
        "leases".into(),
        Value::Array(
            leases
                .into_iter()
                .map(|(key, l)| {
                    let mut m = Map::new();
                    m.insert("key".into(), Value::Str(key));
                    m.insert("worker".into(), Value::Str(l.worker));
                    m.insert(
                        "expires_in_ms".into(),
                        Value::U64(
                            l.expires
                                .saturating_duration_since(Instant::now())
                                .as_millis() as u64,
                        ),
                    );
                    m.insert("heartbeats".into(), Value::U64(l.heartbeats));
                    if let Some(p) = l.progress {
                        m.insert("progress".into(), Value::Str(p));
                    }
                    Value::Object(m)
                })
                .collect(),
        ),
    );
    obj.insert("remote_active".into(), Value::Bool(state.remote_active()));
    Response::json(200, json::to_string(&Value::Object(obj)))
}

fn counters_value(state: &Arc<ServeState>, rejected: u64) -> Value {
    let registry = state.counters(rejected);
    let mut obj = Map::new();
    for (name, value) in registry.as_map() {
        obj.insert(name.clone(), Value::F64(*value));
    }
    Value::Object(obj)
}

/// `GET /v1/metrics`.
fn metrics(state: &Arc<ServeState>, rejected: u64) -> Response {
    Response::json(200, json::to_string(&counters_value(state, rejected)))
}

/// Decrements the live-stream gauge when dropped — including when the
/// connection dies before the producer ever runs.
struct StreamGuard(Arc<ServeState>);

impl Drop for StreamGuard {
    fn drop(&mut self) {
        use std::sync::atomic::Ordering;
        self.0.metrics.streams_active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// `GET /v1/metrics/stream?n=&interval_ms=`: `n` newline-delimited
/// counter snapshots taken `interval_ms` apart, written to the
/// connection as they are produced. A failed write means the client
/// disconnected and stops the producer immediately, so an abandoned
/// stream costs at most one interval. Concurrent subscribers are
/// capped (`max_streams`; excess answered 503) so stuck streams can
/// never pin the whole worker pool. Bounded (`n` ≤ 60, interval
/// ≤ 5000 ms) besides.
fn metrics_stream(state: &Arc<ServeState>, req: &Request, rejected: u64) -> Response {
    use std::sync::atomic::Ordering;
    let n = req.query_u64("n").unwrap_or(5).clamp(1, 60);
    let interval = req.query_u64("interval_ms").unwrap_or(200).min(5000);
    let cap = state.config().max_streams.max(1) as u64;
    if state.metrics.streams_active.fetch_add(1, Ordering::SeqCst) >= cap {
        state.metrics.streams_active.fetch_sub(1, Ordering::SeqCst);
        state
            .metrics
            .streams_rejected
            .fetch_add(1, Ordering::Relaxed);
        return Response::error(503, "metrics stream subscriber cap reached");
    }
    let guard = StreamGuard(state.clone());
    let state = state.clone();
    Response::stream(200, "application/x-ndjson", move |w| {
        let _guard = guard;
        for i in 0..n {
            let mut line = json::to_string(&counters_value(&state, rejected));
            line.push('\n');
            // A write error is a disconnected client: drop the
            // subscriber right here instead of sleeping through the
            // remaining snapshots.
            w.write_all(line.as_bytes())?;
            w.flush()?;
            if i + 1 < n {
                std::thread::sleep(std::time::Duration::from_millis(interval));
            }
        }
        Ok(())
    })
}

/// Parse one wire job object into a [`FarmJob`].
fn parse_job(v: &Value) -> Result<FarmJob, String> {
    let obj = v.as_object().ok_or("job must be an object")?;
    let bench_v = obj.get("bench").ok_or("job is missing \"bench\"")?;
    let bench = match bench_v.as_str() {
        Some(name) => Benchmark::from_name(&name.to_lowercase())
            .or_else(|| Benchmark::from_value(bench_v).ok())
            .ok_or_else(|| format!("unknown benchmark {name:?}"))?,
        None => Benchmark::from_value(bench_v).map_err(|e| format!("bad \"bench\": {e}"))?,
    };
    let mut config = match obj.get("config") {
        Some(c) => SimConfig::from_value(c).map_err(|e| format!("bad \"config\": {e}"))?,
        None => SimConfig::default(),
    };
    // Shorthand overrides for handwritten requests.
    if let Some(n) = obj.get("n_cores") {
        config.n_cores = n
            .as_u64()
            .ok_or("\"n_cores\" must be an unsigned integer")? as usize;
    }
    if let Some(s) = obj.get("scale") {
        config.scale =
            ptb_workloads::Scale::from_value(s).map_err(|e| format!("bad \"scale\": {e}"))?;
    }
    if let Some(m) = obj.get("mechanism") {
        config.mechanism = ptb_core::MechanismKind::from_value(m)
            .map_err(|e| format!("bad \"mechanism\": {e}"))?;
    }
    // Checked on the final config, whichever form set it: a 0-core job
    // has no workload to key.
    if !(1..=MAX_CORES).contains(&config.n_cores) {
        return Err(format!(
            "\"n_cores\" must be between 1 and {MAX_CORES}, got {}",
            config.n_cores
        ));
    }
    Ok(FarmJob::new(bench, config))
}

/// `POST /v1/batches`.
fn submit(state: &Arc<ServeState>, req: &Request) -> Response {
    let body = match json::parse(&req.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let jobs_v = match body.as_object().and_then(|o| o.get("jobs")) {
        Some(Value::Array(a)) => a,
        _ => return Response::error(400, "body must be {\"jobs\": [...]}"),
    };
    if jobs_v.is_empty() {
        return Response::error(400, "empty batch");
    }
    if jobs_v.len() > MAX_BATCH_JOBS {
        return Response::error(
            400,
            &format!("batch of {} exceeds limit {MAX_BATCH_JOBS}", jobs_v.len()),
        );
    }
    let mut jobs = Vec::with_capacity(jobs_v.len());
    for (i, jv) in jobs_v.iter().enumerate() {
        match parse_job(jv) {
            Ok(job) => jobs.push(job),
            Err(e) => return Response::error(400, &format!("jobs[{i}]: {e}")),
        }
    }
    let (batch_id, resolved) = state.submit(jobs);
    let mut obj = Map::new();
    obj.insert("batch".into(), Value::Str(batch_id));
    obj.insert(
        "jobs".into(),
        Value::Array(
            resolved
                .into_iter()
                .map(|(key, jstate, disposition)| {
                    let mut j = Map::new();
                    j.insert("key".into(), Value::Str(key));
                    j.insert("state".into(), Value::Str(jstate.name().to_string()));
                    j.insert(
                        "disposition".into(),
                        Value::Str(disposition.name().to_string()),
                    );
                    j
                })
                .map(Value::Object)
                .collect(),
        ),
    );
    Response::json(200, json::to_string(&Value::Object(obj)))
}

fn record_value(key: &str, rec: Option<&JobRecord>) -> Value {
    let mut j = Map::new();
    j.insert("key".into(), Value::Str(key.to_string()));
    match rec {
        Some(rec) => {
            j.insert("state".into(), Value::Str(rec.state.name().to_string()));
            j.insert("label".into(), Value::Str(rec.job.label()));
            if let JobState::Failed(err) = &rec.state {
                j.insert("error".into(), Value::Str(err.clone()));
            }
        }
        None => {
            j.insert("state".into(), Value::Str("unknown".to_string()));
        }
    }
    Value::Object(j)
}

/// `GET /v1/batches/{id}`.
fn batch_status(state: &Arc<ServeState>, id: &str) -> Response {
    let Some(entries) = state.batch(id) else {
        return Response::error(404, &format!("unknown batch {id:?}"));
    };
    let done = entries
        .iter()
        .filter(|(_, r)| {
            matches!(
                r.as_ref().map(|r| &r.state),
                Some(JobState::Done) | Some(JobState::Failed(_))
            )
        })
        .count();
    let mut obj = Map::new();
    obj.insert("batch".into(), Value::Str(id.to_string()));
    obj.insert("total".into(), Value::U64(entries.len() as u64));
    obj.insert("settled".into(), Value::U64(done as u64));
    obj.insert("done".into(), Value::Bool(done == entries.len()));
    obj.insert(
        "jobs".into(),
        Value::Array(
            entries
                .iter()
                .map(|(k, r)| record_value(k, r.as_ref()))
                .collect(),
        ),
    );
    Response::json(200, json::to_string(&Value::Object(obj)))
}

/// `GET /v1/jobs/{key}`.
fn job_status(state: &Arc<ServeState>, key: &str) -> Response {
    match state.job(key) {
        Some(rec) => Response::json(200, json::to_string(&record_value(key, Some(&rec)))),
        None => {
            // Not in this server's registry — it may still sit in the
            // store from an earlier process.
            match state.farm().store().read_entry(key) {
                Ok(Some(_)) => {
                    let mut j = Map::new();
                    j.insert("key".into(), Value::Str(key.to_string()));
                    j.insert("state".into(), Value::Str("done".to_string()));
                    Response::json(200, json::to_string(&Value::Object(j)))
                }
                _ => Response::error(404, &format!("unknown job {key:?}")),
            }
        }
    }
}

/// `GET /v1/reports/{key}`: the stored report, serialized compactly —
/// byte-identical to `json::to_string(&job.simulate().to_value())`.
fn report(state: &Arc<ServeState>, key: &str) -> Response {
    // Prefer the registry: it validates against the submitted config
    // and distinguishes queued/running/failed from plain absence.
    if let Some(rec) = state.job(key) {
        match &rec.state {
            JobState::Done => match state.farm().store().get(key, &rec.job) {
                StoreLookup::Hit(report) => {
                    return Response::json(200, json::to_string(&report.to_value()));
                }
                StoreLookup::Miss => {
                    return Response::error(404, &format!("report for {key:?} has been removed"));
                }
                StoreLookup::Corrupt(e) => {
                    // Retryable: a re-submit will re-run the job.
                    return Response::error(503, &format!("stored entry is corrupt: {e}"));
                }
            },
            JobState::Queued | JobState::Leased(_) | JobState::Running => {
                return Response::error(409, &format!("job {key:?} is still {}", rec.state.name()));
            }
            JobState::Failed(err) => {
                return Response::error(502, &format!("job failed: {err}"));
            }
        }
    }
    // Never submitted here: serve straight from the store.
    match state.farm().store().read_entry(key) {
        Ok(Some((_, report))) => Response::json(200, json::to_string(&report.to_value())),
        Ok(None) => Response::error(404, &format!("no report for {key:?}")),
        Err(e) => Response::error(503, &format!("stored entry is corrupt: {e}")),
    }
}

/// The `"worker"` field every `/v1/work/*` body must carry.
fn worker_name(body: &Value) -> Result<&str, Response> {
    body.as_object()
        .and_then(|o| o.get("worker"))
        .and_then(Value::as_str)
        .filter(|w| !w.is_empty())
        .ok_or_else(|| Response::error(400, "body must carry a non-empty \"worker\""))
}

fn ok_outcome(outcome: &str) -> Response {
    let mut m = Map::new();
    m.insert("ok".into(), Value::Bool(true));
    m.insert("outcome".into(), Value::Str(outcome.to_owned()));
    Response::json(200, json::to_string(&Value::Object(m)))
}

/// `POST /v1/work/claim`: `{"worker", "ttl_ms"?}` → a leased job
/// (`{"key", "job", "ttl_ms"}`) or `{"job": null}` when the queue has
/// nothing claimable.
fn work_claim(state: &Arc<ServeState>, req: &Request) -> Response {
    let body = match json::parse(&req.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let worker = match worker_name(&body) {
        Ok(w) => w,
        Err(resp) => return resp,
    };
    let ttl = body
        .as_object()
        .and_then(|o| o.get("ttl_ms"))
        .and_then(Value::as_u64)
        .map(Duration::from_millis);
    match state.claim(worker, ttl) {
        Some((key, job, granted)) => Response::json(
            200,
            json::to_string(&claim_response_value(&key, &job, granted)),
        ),
        None => Response::json(200, "{\"job\":null}".to_string()),
    }
}

/// Dispatch `POST /v1/work/{key}/{heartbeat|complete|fail}`.
fn work_dispatch(state: &Arc<ServeState>, req: &Request, path: &str) -> Response {
    let rest = &path["/v1/work/".len()..];
    let Some((key, action)) = rest.rsplit_once('/') else {
        return Response::error(404, &format!("no route for POST {path}"));
    };
    if key.is_empty() {
        return Response::error(400, "empty job key");
    }
    match action {
        "heartbeat" => work_heartbeat(state, req, key),
        "complete" => work_complete(state, req, key),
        "fail" => work_fail(state, req, key),
        _ => Response::error(404, &format!("no route for POST {path}")),
    }
}

/// `POST /v1/work/{key}/heartbeat`: `{"worker", "progress"?}` →
/// `{"ok":true,"ttl_ms"}` or 409 once the lease has moved on.
fn work_heartbeat(state: &Arc<ServeState>, req: &Request, key: &str) -> Response {
    let body = match json::parse(&req.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let worker = match worker_name(&body) {
        Ok(w) => w,
        Err(resp) => return resp,
    };
    let progress = body
        .as_object()
        .and_then(|o| o.get("progress"))
        .and_then(Value::as_str)
        .map(str::to_owned);
    match state.heartbeat(worker, key, progress) {
        Ok(ttl) => {
            let mut m = Map::new();
            m.insert("ok".into(), Value::Bool(true));
            m.insert("ttl_ms".into(), Value::U64(ttl.as_millis() as u64));
            Response::json(200, json::to_string(&Value::Object(m)))
        }
        Err(FleetRefusal::LeaseLost) => Response::error(409, "lease lost"),
        Err(FleetRefusal::Bad(msg)) => Response::error(400, &msg),
    }
}

/// `POST /v1/work/{key}/complete`: `{"worker", "report": {...}}`.
fn work_complete(state: &Arc<ServeState>, req: &Request, key: &str) -> Response {
    let body = match json::parse(&req.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let worker = match worker_name(&body) {
        Ok(w) => w,
        Err(resp) => return resp,
    };
    let report = match body.as_object().and_then(|o| o.get("report")) {
        Some(rv) => match RunReport::from_value(rv) {
            Ok(r) => r,
            Err(e) => return Response::error(400, &format!("bad \"report\": {e}")),
        },
        None => return Response::error(400, "body must carry \"report\""),
    };
    match state.complete(worker, key, report) {
        CompleteOutcome::Stored => ok_outcome("stored"),
        CompleteOutcome::Duplicate => ok_outcome("duplicate"),
        CompleteOutcome::RacedLocal => ok_outcome("raced-local"),
        CompleteOutcome::Divergent => Response::error(
            409,
            &format!(
                "divergent completion for {key}: uploaded bytes differ from the stored report \
                 (determinism violation; see /v1/status)"
            ),
        ),
        CompleteOutcome::Retry(msg) => Response::error(503, &msg),
        CompleteOutcome::Invalid(msg) => Response::error(400, &msg),
        CompleteOutcome::StoreError(msg) => Response::error(500, &msg),
    }
}

/// `POST /v1/work/{key}/fail`: `{"worker", "kind", "message"?}` with
/// `kind` one of `transient|fatal|timeout`.
fn work_fail(state: &Arc<ServeState>, req: &Request, key: &str) -> Response {
    let body = match json::parse(&req.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let worker = match worker_name(&body) {
        Ok(w) => w,
        Err(resp) => return resp,
    };
    let obj = body.as_object().expect("worker_name checked object");
    let kind = match obj.get("kind").and_then(Value::as_str) {
        Some(k) => k,
        None => return Response::error(400, "body must carry \"kind\""),
    };
    let message = obj
        .get("message")
        .and_then(Value::as_str)
        .unwrap_or("(no message)");
    match state.fail(worker, key, kind, message) {
        Ok(FailOutcome::Requeued { attempts }) => {
            let mut m = Map::new();
            m.insert("ok".into(), Value::Bool(true));
            m.insert("outcome".into(), Value::Str("requeued".to_owned()));
            m.insert("attempts".into(), Value::U64(attempts as u64));
            Response::json(200, json::to_string(&Value::Object(m)))
        }
        Ok(FailOutcome::Quarantined) => ok_outcome("quarantined"),
        Err(FleetRefusal::LeaseLost) => Response::error(409, "lease lost"),
        Err(FleetRefusal::Bad(msg)) => Response::error(400, &msg),
    }
}
