//! Integration tests for the `ptb-serve` fleet layer: lease claim /
//! heartbeat / complete / fail semantics over the wire, reaper-driven
//! failover, idempotent duplicate completions, divergence detection,
//! graceful degradation to local execution, batch-registry eviction,
//! the liveness probe — and the acceptance kill test: three real
//! `ptb_worker` processes, one SIGKILLed mid-job, 10% network chaos,
//! zero lost jobs, zero duplicated store writes, byte-identical
//! reports.

use ptb_core::{MechanismKind, SimConfig};
use ptb_farm::{ChaosConfig, ChaosIo, Farm, FarmJob};
use ptb_serve::{http_call, ServeConfig, ServerConfig};
use ptb_workloads::{Benchmark, Scale};
use serde::{json, Deserialize, Map, Serialize, Value};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn fleet_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptb-fleet-it-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn submit_body(jobs: &[FarmJob]) -> String {
    let mut body = Map::new();
    body.insert(
        "jobs".into(),
        Value::Array(jobs.iter().map(|j| j.to_value()).collect()),
    );
    json::to_string(&Value::Object(body))
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> (u16, Value) {
    let (status, text) = http_call(addr, "POST", path, Some(body)).expect("POST round-trip");
    (status, json::parse(&text).unwrap_or(Value::Null))
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Value) {
    let (status, text) = http_call(addr, "GET", path, None).expect("GET round-trip");
    (status, json::parse(&text).unwrap_or(Value::Null))
}

fn str_field(v: &Value, name: &str) -> String {
    v.as_object()
        .and_then(|o| o.get(name))
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_owned()
}

fn u64_field(v: &Value, name: &str) -> u64 {
    v.as_object()
        .and_then(|o| o.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn arr_field(v: &Value, name: &str) -> Vec<Value> {
    v.as_object()
        .and_then(|o| o.get(name))
        .and_then(|x| match x {
            Value::Array(a) => Some(a.clone()),
            _ => None,
        })
        .unwrap_or_default()
}

fn counter(addr: SocketAddr, name: &str) -> f64 {
    let (_, metrics) = get_json(addr, "/v1/metrics");
    metrics
        .as_object()
        .and_then(|o| o.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(-1.0)
}

/// `{"worker": ..}` plus extras, serialised.
fn worker_body(worker: &str, extra: &[(&str, Value)]) -> String {
    let mut m = Map::new();
    m.insert("worker".into(), Value::Str(worker.to_owned()));
    for (k, v) in extra {
        m.insert((*k).to_owned(), v.clone());
    }
    json::to_string(&Value::Object(m))
}

fn claim(addr: SocketAddr, worker: &str, ttl_ms: Option<u64>) -> Option<(String, Value, u64)> {
    let extra: Vec<(&str, Value)> = match ttl_ms {
        Some(ms) => vec![("ttl_ms", Value::U64(ms))],
        None => vec![],
    };
    let (status, v) = post_json(addr, "/v1/work/claim", &worker_body(worker, &extra));
    assert_eq!(status, 200, "claim failed: {v:?}");
    let obj = v.as_object().expect("claim returns an object");
    match obj.get("job") {
        Some(Value::Null) | None => None,
        Some(j) => Some((str_field(&v, "key"), j.clone(), u64_field(&v, "ttl_ms"))),
    }
}

fn poll_batch(addr: SocketAddr, id: &str, deadline: Duration) {
    let until = Instant::now() + deadline;
    loop {
        let (status, v) = get_json(addr, &format!("/v1/batches/{id}"));
        assert_eq!(status, 200, "{v:?}");
        if v.as_object()
            .and_then(|o| o.get("done"))
            .and_then(Value::as_bool)
            .unwrap_or(false)
        {
            return;
        }
        assert!(Instant::now() < until, "batch {id} did not settle");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// A coordinator-mode server: no local execution, fast reaper, short
/// leases — every job must flow through the `/v1/work/*` endpoints.
fn coordinator(dir: &std::path::Path, cfg: ServeConfig) -> ptb_serve::ServeHandle {
    let farm = Arc::new(Farm::open(dir.join("farm")).expect("open farm"));
    ptb_serve::start(farm, "127.0.0.1:0", cfg, ServerConfig::default()).expect("start server")
}

fn coordinator_cfg() -> ServeConfig {
    ServeConfig {
        local_execution: false,
        lease_default_ttl: Duration::from_millis(400),
        lease_max_ttl: Duration::from_secs(10),
        reaper_tick: Duration::from_millis(50),
        ..ServeConfig::default()
    }
}

#[test]
fn lease_expires_without_heartbeat_and_is_reclaimed_by_another_worker() {
    let dir = fleet_dir("expiry");
    let handle = coordinator(&dir, coordinator_cfg());
    let addr = handle.addr();

    let jobs = vec![job(Benchmark::Fft, MechanismKind::None, 2)];
    let (status, _) = post_json(addr, "/v1/batches", &submit_body(&jobs));
    assert_eq!(status, 200);

    // w1 claims and goes silent; w2 finds nothing while the lease is
    // live, then inherits the job once the reaper requeues it.
    let (key, _, ttl) = claim(addr, "w1", None).expect("w1 claims the job");
    assert_eq!(key, jobs[0].key());
    assert_eq!(ttl, 400);
    assert!(claim(addr, "w2", None).is_none(), "job is leased to w1");

    let deadline = Instant::now() + Duration::from_secs(30);
    let reclaimed = loop {
        if let Some((k, _, _)) = claim(addr, "w2", None) {
            break k;
        }
        assert!(Instant::now() < deadline, "expired lease never requeued");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(reclaimed, key, "w2 inherits the very job w1 abandoned");
    assert!(counter(addr, "serve.lease.expired") >= 1.0);
    assert!(counter(addr, "serve.lease.requeued") >= 1.0);

    // And the claims survive in /v1/jobs as lease state.
    let (_, jv) = get_json(addr, &format!("/v1/jobs/{key}"));
    assert_eq!(str_field(&jv, "state"), "leased");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heartbeats_extend_the_lease_past_many_reaper_ticks() {
    let dir = fleet_dir("heartbeat");
    let handle = coordinator(&dir, coordinator_cfg());
    let addr = handle.addr();

    let jobs = vec![job(Benchmark::Radix, MechanismKind::None, 2)];
    post_json(addr, "/v1/batches", &submit_body(&jobs));
    let (key, job_v, _) = claim(addr, "w1", Some(400)).expect("claim");

    // Beat at ttl/3 for 6 full TTLs: the reaper must never reclaim.
    for _ in 0..18 {
        std::thread::sleep(Duration::from_millis(130));
        let (status, v) = post_json(
            addr,
            &format!("/v1/work/{key}/heartbeat"),
            &worker_body("w1", &[("progress", Value::Str("simulating".into()))]),
        );
        assert_eq!(status, 200, "heartbeat refused: {v:?}");
        assert!(claim(addr, "w2", None).is_none(), "lease leaked to w2");
    }
    assert_eq!(counter(addr, "serve.lease.expired"), 0.0);
    assert!(counter(addr, "serve.lease.heartbeats") >= 18.0);

    // The worker then completes; the served report is byte-identical
    // to a direct in-process run of the claimed job.
    let claimed = FarmJob::from_value(&job_v).expect("claimed job parses");
    let report = claimed.simulate();
    let (status, v) = post_json(
        addr,
        &format!("/v1/work/{key}/complete"),
        &worker_body("w1", &[("report", report.to_value())]),
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(str_field(&v, "outcome"), "stored");
    let (status, served) =
        http_call(addr, "GET", &format!("/v1/reports/{key}"), None).expect("fetch");
    assert_eq!(status, 200);
    assert_eq!(served, json::to_string(&report.to_value()));

    // Heartbeating a settled job is a 409: the lease is gone.
    let (status, _) = post_json(
        addr,
        &format!("/v1/work/{key}/heartbeat"),
        &worker_body("w1", &[]),
    );
    assert_eq!(status, 409);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_completions_are_idempotent_and_divergence_is_a_hard_error() {
    let dir = fleet_dir("divergent");
    let handle = coordinator(&dir, coordinator_cfg());
    let addr = handle.addr();

    let jobs = vec![job(Benchmark::Cholesky, MechanismKind::None, 2)];
    post_json(addr, "/v1/batches", &submit_body(&jobs));
    let (key, job_v, _) = claim(addr, "w1", Some(5_000)).expect("claim");
    let report = FarmJob::from_value(&job_v).expect("job parses").simulate();

    let (status, v) = post_json(
        addr,
        &format!("/v1/work/{key}/complete"),
        &worker_body("w1", &[("report", report.to_value())]),
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(str_field(&v, "outcome"), "stored");

    // A zombie worker re-uploading identical bytes is harmless.
    let (status, v) = post_json(
        addr,
        &format!("/v1/work/{key}/complete"),
        &worker_body("w2", &[("report", report.to_value())]),
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(str_field(&v, "outcome"), "duplicate");
    assert_eq!(counter(addr, "fleet.complete.duplicate"), 1.0);

    // Different bytes under the same content key: determinism is
    // broken somewhere — hard 409, and the pair lands in /v1/status.
    let mut tampered = report.to_value();
    if let Value::Object(o) = &mut tampered {
        let cycles = o.get("cycles").and_then(Value::as_u64).unwrap_or(0);
        o.insert("cycles".into(), Value::U64(cycles + 1));
    }
    let (status, v) = post_json(
        addr,
        &format!("/v1/work/{key}/complete"),
        &worker_body("w3", &[("report", tampered)]),
    );
    assert_eq!(status, 409, "{v:?}");
    let (_, sv) = get_json(addr, "/v1/status");
    let divergent = arr_field(&sv, "divergent");
    assert_eq!(divergent.len(), 1, "{sv:?}");
    assert_eq!(str_field(&divergent[0], "key"), key);
    assert_eq!(str_field(&divergent[0], "worker"), "w3");
    assert_eq!(counter(addr, "serve.lease.divergent"), 1.0);

    // The store kept exactly the first upload.
    let (status, served) =
        http_call(addr, "GET", &format!("/v1/reports/{key}"), None).expect("fetch");
    assert_eq!(status, 200);
    assert_eq!(served, json::to_string(&report.to_value()));
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A late upload for a settled key whose store entry is gone has
/// nothing to compare with and no job to commit: it is refused with a
/// 4xx naming the key unknown (not a 503 the worker would retry), the
/// key is forgotten, and the next submit runs the job through the fleet
/// again.
#[test]
fn a_lost_entry_refuses_late_uploads_and_re_runs_through_the_fleet() {
    let dir = fleet_dir("lostentry");
    let handle = coordinator(&dir, coordinator_cfg());
    let addr = handle.addr();

    let jobs = vec![job(Benchmark::Fft, MechanismKind::None, 2)];
    let report = jobs[0].simulate();
    let complete = |worker: &str, key: &str| {
        post_json(
            addr,
            &format!("/v1/work/{key}/complete"),
            &worker_body(worker, &[("report", report.to_value())]),
        )
    };
    post_json(addr, "/v1/batches", &submit_body(&jobs));
    let (key, _, _) = claim(addr, "w1", Some(5_000)).expect("claim");
    let (status, v) = complete("w1", &key);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(str_field(&v, "outcome"), "stored");

    let entry = handle
        .state()
        .farm()
        .store()
        .path_for(&key)
        .expect("a content key");
    std::fs::remove_file(&entry).expect("delete the entry");
    let (status, v) = complete("w2", &key);
    assert!((400..500).contains(&status), "{status}: {v:?}");
    assert!(str_field(&v, "error").contains("unknown job"), "{v:?}");

    let (_, v) = post_json(addr, "/v1/batches", &submit_body(&jobs));
    let resolved = arr_field(&v, "jobs");
    assert_eq!(str_field(&resolved[0], "disposition"), "enqueued", "{v:?}");
    let (again, _, _) = claim(addr, "w3", Some(5_000)).expect("the job is claimable again");
    assert_eq!(again, key);
    let (status, v) = complete("w3", &key);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(str_field(&v, "outcome"), "stored");
    let (status, served) =
        http_call(addr, "GET", &format!("/v1/reports/{key}"), None).expect("fetch");
    assert_eq!(status, 200);
    assert_eq!(served, json::to_string(&report.to_value()));
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fail_kinds_map_to_bounded_retry_or_quarantine() {
    let dir = fleet_dir("failkinds");
    let cfg = ServeConfig {
        remote_retry_max: 2,
        ..coordinator_cfg()
    };
    let handle = coordinator(&dir, cfg);
    let addr = handle.addr();
    let farm = handle.state().farm();

    // Job A alone first, so re-claims after a requeue get A back.
    post_json(
        addr,
        "/v1/batches",
        &submit_body(&[job(Benchmark::Fft, MechanismKind::None, 2)]),
    );

    // Transient faults requeue with an attempt counter until
    // remote_retry_max, then quarantine.
    let (key_a, _, _) = claim(addr, "w1", Some(5_000)).expect("claim A");
    let (status, v) = post_json(
        addr,
        &format!("/v1/work/{key_a}/fail"),
        &worker_body(
            "w1",
            &[
                ("kind", Value::Str("transient".into())),
                ("message", Value::Str("store hiccup".into())),
            ],
        ),
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(str_field(&v, "outcome"), "requeued");
    assert_eq!(u64_field(&v, "attempts"), 1);

    let (key_a2, _, _) = claim(addr, "w1", Some(5_000)).expect("requeued job claimable");
    assert_eq!(key_a2, key_a);
    let (status, v) = post_json(
        addr,
        &format!("/v1/work/{key_a}/fail"),
        &worker_body("w1", &[("kind", Value::Str("transient".into()))]),
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(
        str_field(&v, "outcome"),
        "quarantined",
        "retry budget of 2 exhausted on the second transient fault"
    );

    // Fatal and timeout faults quarantine immediately. An unknown
    // kind is a 400 that does NOT consume the lease.
    post_json(
        addr,
        "/v1/batches",
        &submit_body(&[
            job(Benchmark::Radix, MechanismKind::None, 2),
            job(Benchmark::Cholesky, MechanismKind::None, 2),
        ]),
    );
    for (worker, kind) in [("w2", "fatal"), ("w3", "timeout")] {
        let (key, _, _) = claim(addr, worker, Some(5_000)).expect("claim");
        let (status, _) = post_json(
            addr,
            &format!("/v1/work/{key}/fail"),
            &worker_body(worker, &[("kind", Value::Str("martian".into()))]),
        );
        assert_eq!(status, 400, "unknown fault kind");
        let (status, v) = post_json(
            addr,
            &format!("/v1/work/{key}/fail"),
            &worker_body(worker, &[("kind", Value::Str(kind.into()))]),
        );
        assert_eq!(status, 200, "lease survived the bad request: {v:?}");
        assert_eq!(str_field(&v, "outcome"), "quarantined", "kind {kind}");
    }
    let quarantined = farm.quarantine().load().unwrap_or_default();
    assert_eq!(quarantined.len(), 3, "all three jobs end in failed.jsonl");
    assert_eq!(counter(addr, "fleet.fail.transient"), 2.0);
    assert_eq!(counter(addr, "fleet.fail.fatal"), 1.0);
    assert_eq!(counter(addr, "fleet.fail.timeout"), 1.0);
    assert_eq!(counter(addr, "fleet.quarantined"), 3.0);

    // A worker that lost its lease cannot fail the job (409), on a
    // settled key or an unknown one alike.
    let (status, _) = post_json(
        addr,
        &format!("/v1/work/{key_a}/fail"),
        &worker_body("w9", &[("kind", Value::Str("transient".into()))]),
    );
    assert_eq!(status, 409);
    let quarantined_before = counter(addr, "fleet.quarantined");
    let (status, _) = post_json(
        addr,
        "/v1/work/nosuchkey/fail",
        &worker_body("w9", &[("kind", Value::Str("transient".into()))]),
    );
    assert_eq!(status, 409, "no lease on an unknown key either");
    assert_eq!(counter(addr, "fleet.quarantined"), quarantined_before);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A job's state and the fleet's lease list are one record: after a
/// failed upload by another worker, `/v1/jobs` reads `leased` exactly
/// when `/v1/workers` lists a lease on the key, and the first claimant
/// may heartbeat or fail the job only while that lease is its own
/// (DESIGN §14: only the current lease holder may fail a job).
#[test]
fn a_failed_upload_leaves_the_job_and_its_lease_in_step() {
    let dir = fleet_dir("leaseviews");
    // Every store write fails with ENOSPC, a transient fault.
    let chaos = ChaosIo::new(ChaosConfig {
        enospc: 1.0,
        ..ChaosConfig::uniform(7, 0.0)
    });
    let farm = Arc::new(Farm::open_with_io(dir.join("farm"), Arc::new(chaos)).expect("open farm"));
    let handle = ptb_serve::start(
        farm,
        "127.0.0.1:0",
        coordinator_cfg(),
        ServerConfig::default(),
    )
    .expect("start server");
    let addr = handle.addr();

    let jobs = vec![job(Benchmark::Fft, MechanismKind::None, 2)];
    let report = jobs[0].simulate();
    post_json(addr, "/v1/batches", &submit_body(&jobs));
    let (key, _, _) = claim(addr, "w1", Some(10_000)).expect("w1 claims the job");
    let (status, v) = post_json(
        addr,
        &format!("/v1/work/{key}/complete"),
        &worker_body("w2", &[("report", report.to_value())]),
    );
    assert_eq!(status, 503, "the store write fails transiently: {v:?}");

    let (_, jv) = get_json(addr, &format!("/v1/jobs/{key}"));
    let (_, wv) = get_json(addr, "/v1/workers");
    let leases: Vec<Value> = arr_field(&wv, "leases")
        .into_iter()
        .filter(|l| str_field(l, "key") == key)
        .collect();
    assert_eq!(
        str_field(&jv, "state") == "leased",
        !leases.is_empty(),
        "job {jv:?} against leases {wv:?}"
    );
    assert_eq!(counter(addr, "serve.lease.active"), leases.len() as f64);
    let w1_holds = leases.iter().any(|l| str_field(l, "worker") == "w1");

    let (status, v) = post_json(
        addr,
        &format!("/v1/work/{key}/heartbeat"),
        &worker_body("w1", &[]),
    );
    assert_eq!(status == 200, w1_holds, "heartbeat: {v:?}");
    let (status, v) = post_json(
        addr,
        &format!("/v1/work/{key}/fail"),
        &worker_body("w1", &[("kind", Value::Str("fatal".into()))]),
    );
    assert_eq!(status == 200, w1_holds, "fail: {v:?}");
    let (_, jv) = get_json(addr, &format!("/v1/jobs/{key}"));
    assert_eq!(
        str_field(&jv, "state") == "failed",
        w1_holds,
        "only the holder's verdict quarantines: {jv:?}"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_workers_degrades_to_local_and_silent_workers_hand_the_queue_back() {
    let dir = fleet_dir("degrade");
    let cfg = ServeConfig {
        sim_threads: 2,
        worker_grace: Duration::from_millis(500),
        reaper_tick: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let handle = coordinator(&dir, cfg);
    let addr = handle.addr();

    // No worker has ever connected: batches complete locally.
    let first = vec![job(Benchmark::Fft, MechanismKind::None, 2)];
    let (_, v) = post_json(addr, "/v1/batches", &submit_body(&first));
    poll_batch(addr, &str_field(&v, "batch"), Duration::from_secs(300));

    // A worker shows up (empty-queue claim still registers contact),
    // then goes silent. Work submitted while it looked alive must
    // still complete: past worker_grace the local scheduler takes the
    // queue back.
    assert!(claim(addr, "ghost", None).is_none());
    let (_, sv) = get_json(addr, "/v1/status");
    assert_eq!(
        sv.as_object()
            .and_then(|o| o.get("remote_active"))
            .and_then(Value::as_bool),
        Some(true),
        "{sv:?}"
    );
    let second = vec![job(Benchmark::Radix, MechanismKind::None, 2)];
    let (_, v) = post_json(addr, "/v1/batches", &submit_body(&second));
    poll_batch(addr, &str_field(&v, "batch"), Duration::from_secs(300));
    assert_eq!(
        counter(addr, "fleet.complete.stored"),
        0.0,
        "nothing was remotely executed"
    );
    assert_eq!(counter(addr, "serve.completed"), 2.0);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn settled_batches_are_evicted_after_their_ttl() {
    let dir = fleet_dir("batchttl");
    let cfg = ServeConfig {
        sim_threads: 2,
        batch_ttl: Duration::from_millis(300),
        reaper_tick: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let handle = coordinator(&dir, cfg);
    let addr = handle.addr();

    let jobs = vec![job(Benchmark::Fft, MechanismKind::None, 2)];
    let (_, v) = post_json(addr, "/v1/batches", &submit_body(&jobs));
    let id = str_field(&v, "batch");
    poll_batch(addr, &id, Duration::from_secs(300));

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _) = get_json(addr, &format!("/v1/batches/{id}"));
        if status == 404 {
            break;
        }
        assert!(Instant::now() < deadline, "settled batch never evicted");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(counter(addr, "serve.batches.evicted") >= 1.0);
    // The job registry (and the store) are untouched by eviction.
    let (status, _) = get_json(addr, &format!("/v1/reports/{}", jobs[0].key()));
    assert_eq!(status, 200);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthz_turns_503_when_the_journal_dies() {
    let dir = fleet_dir("healthz");
    let handle = coordinator(&dir, ServeConfig::default());
    let addr = handle.addr();

    let (status, v) = get_json(addr, "/healthz");
    assert_eq!(status, 200, "{v:?}");

    // Yank the farm directory out from under the server: the journal
    // stops being appendable and liveness must say so.
    std::fs::remove_dir_all(dir.join("farm")).expect("remove farm dir");
    let (status, v) = get_json(addr, "/healthz");
    assert_eq!(status, 503, "{v:?}");
    assert!(str_field(&v, "reason").contains("journal"), "{v:?}");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Child process that is SIGKILLed (or at least killed) on drop, so a
/// failing assertion never leaks workers past the test.
struct Reaped(std::process::Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

fn spawn_worker(addr: SocketAddr, name: &str, extra: &[&str]) -> std::process::Child {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_ptb_worker"));
    cmd.arg("--addr")
        .arg(addr.to_string())
        .arg("--name")
        .arg(name)
        .arg("--poll-ms")
        .arg("50")
        .stdout(std::process::Stdio::null());
    for a in extra {
        cmd.arg(a);
    }
    cmd.spawn().expect("spawn ptb_worker")
}

/// The acceptance test from the issue: a batch fanned out to three
/// real worker processes over loopback, one SIGKILLed while it
/// provably holds a lease, the survivors running under 10% seeded
/// network chaos — and still: zero lost jobs, zero duplicated store
/// writes, every served report byte-identical to a sequential
/// in-process run.
#[test]
fn fleet_kill_chaos_acceptance() {
    let dir = fleet_dir("killchaos");
    let cfg = ServeConfig {
        local_execution: false,
        lease_default_ttl: Duration::from_millis(2_000),
        lease_max_ttl: Duration::from_secs(10),
        reaper_tick: Duration::from_millis(100),
        max_claims: 10,
        ..ServeConfig::default()
    };
    let handle = coordinator(&dir, cfg);
    let addr = handle.addr();

    let jobs = vec![
        job(Benchmark::Fft, MechanismKind::None, 2),
        job(Benchmark::Radix, MechanismKind::None, 2),
        job(Benchmark::Cholesky, MechanismKind::None, 2),
        job(Benchmark::Fft, MechanismKind::Dvfs, 2),
        job(Benchmark::Radix, MechanismKind::Dvfs, 2),
        job(Benchmark::Fft, MechanismKind::None, 4),
    ];
    // The sequential ground truth, bytes and all, before any worker
    // ever touches the farm.
    let expected: Vec<(String, String)> = jobs
        .iter()
        .map(|j| (j.key(), json::to_string(&j.simulate().to_value())))
        .collect();

    // The victim claims first (no competitors yet), then parks in its
    // --hold-ms window so the SIGKILL provably lands mid-job.
    let victim = Reaped(spawn_worker(
        addr,
        "victim",
        &["--hold-ms", "60000", "--ttl-ms", "2000"],
    ));
    let (_, v) = post_json(addr, "/v1/batches", &submit_body(&jobs));
    let batch_id = str_field(&v, "batch");
    assert!(!batch_id.is_empty(), "{v:?}");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, wv) = get_json(addr, "/v1/workers");
        let held = arr_field(&wv, "leases")
            .iter()
            .any(|l| str_field(l, "worker") == "victim");
        if held {
            break;
        }
        assert!(Instant::now() < deadline, "victim never claimed a lease");
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(victim); // SIGKILL while the lease is live and the job unfinished

    // Two survivors under 10% seeded network chaos drain everything,
    // including the job the victim died holding.
    let _w2 = Reaped(spawn_worker(
        addr,
        "w2",
        &["--ttl-ms", "2000", "--chaos", "0.1", "--chaos-seed", "42"],
    ));
    let _w3 = Reaped(spawn_worker(
        addr,
        "w3",
        &["--ttl-ms", "2000", "--chaos", "0.1", "--chaos-seed", "43"],
    ));
    poll_batch(addr, &batch_id, Duration::from_secs(300));

    // Zero lost jobs; the dead worker's lease demonstrably expired.
    assert!(
        counter(addr, "serve.lease.expired") >= 1.0,
        "the SIGKILLed worker's lease must have been reaped"
    );
    let (_, sv) = get_json(addr, "/v1/status");
    assert_eq!(arr_field(&sv, "divergent").len(), 0, "{sv:?}");
    assert_eq!(
        sv.as_object()
            .and_then(|o| o.get("jobs"))
            .map(|j| u64_field(j, "done"))
            .unwrap_or(0),
        jobs.len() as u64,
        "{sv:?}"
    );
    // Zero duplicated store writes: exactly one entry per unique job.
    assert_eq!(u64_field(&sv, "entries"), jobs.len() as u64, "{sv:?}");
    assert_eq!(counter(addr, "serve.failed"), 0.0);
    assert_eq!(
        handle
            .state()
            .farm()
            .quarantine()
            .load()
            .unwrap_or_default()
            .len(),
        0,
        "nothing quarantined"
    );

    // Byte-identical to the sequential ground truth, every report.
    for (key, want) in &expected {
        let (status, served) =
            http_call(addr, "GET", &format!("/v1/reports/{key}"), None).expect("fetch");
        assert_eq!(status, 200, "{served}");
        assert_eq!(&served, want, "report bytes diverged for {key}");
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
