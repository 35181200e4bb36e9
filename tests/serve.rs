//! Integration tests for `ptb-serve`: the HTTP batch lifecycle end to
//! end, byte-stability of served reports, the dedup dispositions, the
//! wire protocol's error paths, and graceful degradation when the
//! store underneath is fault-injected.

use ptb_core::{MechanismKind, SimConfig};
use ptb_farm::{binfmt, ChaosConfig, ChaosIo, Farm, FarmJob};
use ptb_serve::{http_call, ServeConfig, ServerConfig};
use ptb_workloads::{Benchmark, Scale};
use serde::{json, Map, Serialize, Value};
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

fn serve_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptb-serve-it-{}-{tag}", std::process::id()));
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

fn get_json(addr: SocketAddr, path: &str) -> (u16, Value) {
    let (status, body) = http_call(addr, "GET", path, None).expect("GET round-trip");
    let v = json::parse(&body).unwrap_or(Value::Null);
    (status, v)
}

fn poll_batch(addr: SocketAddr, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, v) = get_json(addr, &format!("/v1/batches/{id}"));
        assert_eq!(status, 200);
        if v.as_object()
            .and_then(|o| o.get("done"))
            .and_then(Value::as_bool)
            .unwrap_or(false)
        {
            return;
        }
        assert!(Instant::now() < deadline, "batch {id} did not settle");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Submit `jobs`; the batch id and the resolved job objects.
fn submit(addr: SocketAddr, jobs: &[FarmJob]) -> (String, Vec<Value>) {
    let (status, resp) =
        http_call(addr, "POST", "/v1/batches", Some(&submit_body(jobs))).expect("submit");
    assert_eq!(status, 200, "{resp}");
    let v = json::parse(&resp).expect("submit JSON");
    let resolved = v
        .get("jobs")
        .and_then(Value::as_array)
        .cloned()
        .expect("resolved jobs");
    (str_field(&v, "batch"), resolved)
}

/// The `jobs` totals of `GET /v1/status`, in wire order.
fn job_totals(addr: SocketAddr) -> [u64; 5] {
    let (status, sv) = get_json(addr, "/v1/status");
    assert_eq!(status, 200);
    ["queued", "leased", "running", "done", "failed"].map(|name| {
        sv.get("jobs")
            .and_then(|j| j.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(u64::MAX)
    })
}

fn str_field(v: &Value, name: &str) -> String {
    v.as_object()
        .and_then(|o| o.get(name))
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_owned()
}

#[test]
fn batch_lifecycle_serves_byte_identical_reports_and_dedups_resubmits() {
    let dir = serve_dir("lifecycle");
    let farm = Arc::new(Farm::open(dir.join("farm")).expect("open farm"));
    let handle = ptb_serve::start(
        farm,
        "127.0.0.1:0",
        ServeConfig {
            sim_threads: 2,
            ..ServeConfig::default()
        },
        ServerConfig::default(),
    )
    .expect("start server");
    let addr = handle.addr();

    let jobs = vec![
        job(Benchmark::Fft, MechanismKind::None, 2),
        job(Benchmark::Radix, MechanismKind::None, 2),
    ];
    let (status, resp) =
        http_call(addr, "POST", "/v1/batches", Some(&submit_body(&jobs))).expect("submit");
    assert_eq!(status, 200, "{resp}");
    let v = json::parse(&resp).expect("submit JSON");
    let batch_id = str_field(&v, "batch");
    let resolved = v
        .as_object()
        .and_then(|o| o.get("jobs"))
        .and_then(|j| j.as_array().cloned())
        .expect("resolved jobs");
    assert_eq!(resolved.len(), 2);
    for r in &resolved {
        assert_eq!(str_field(r, "disposition"), "enqueued");
    }
    poll_batch(addr, &batch_id);

    // The batch lists its jobs' keys in submission order, and answers
    // only to the id spelling the server issued.
    assert_eq!(batch_id, "b1");
    let (_, bv) = get_json(addr, "/v1/batches/b1");
    let listed: Vec<String> = bv
        .get("jobs")
        .and_then(Value::as_array)
        .expect("batch jobs")
        .iter()
        .map(|j| str_field(j, "key"))
        .collect();
    let submitted: Vec<String> = jobs.iter().map(FarmJob::key).collect();
    assert_eq!(listed, submitted);
    for alias in ["b01", "b+1", "B1", "1"] {
        let (status, _) = get_json(addr, &format!("/v1/batches/{alias}"));
        assert_eq!(status, 404, "batch id {alias:?}");
    }

    // Served reports are byte-identical to direct in-process runs.
    for j in &jobs {
        let key = j.key();
        let (status, served) =
            http_call(addr, "GET", &format!("/v1/reports/{key}"), None).expect("fetch");
        assert_eq!(status, 200, "{served}");
        assert_eq!(
            served,
            json::to_string(&j.simulate().to_value()),
            "served report differs from a direct run for {}",
            j.label()
        );
    }

    // Identical re-submit: everything cached, executor untouched.
    let (status, resp) =
        http_call(addr, "POST", "/v1/batches", Some(&submit_body(&jobs))).expect("re-submit");
    assert_eq!(status, 200);
    let v = json::parse(&resp).expect("re-submit JSON");
    for r in v
        .as_object()
        .and_then(|o| o.get("jobs"))
        .and_then(|j| j.as_array().cloned())
        .expect("resolved jobs")
    {
        assert_eq!(str_field(&r, "disposition"), "cached");
        assert_eq!(str_field(&r, "state"), "done");
    }
    let (_, metrics) = get_json(addr, "/v1/metrics");
    let counter = |name: &str| {
        metrics
            .as_object()
            .and_then(|o| o.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(-1.0)
    };
    assert_eq!(counter("serve.completed"), 2.0, "two jobs simulated once");
    assert_eq!(counter("serve.hits"), 2.0, "re-submit fully cached");
    assert_eq!(counter("serve.failed"), 0.0);
    assert!(counter("serve.latency.report.p99_ms") >= 0.0);

    // Status reflects the settled registry and the populated store:
    // both jobs have left the job map, and the settled set holds them.
    assert_eq!(job_totals(addr), [0, 0, 0, 2, 0]);
    let (status, sv) = get_json(addr, "/v1/status");
    assert_eq!(status, 200);
    let entries = sv
        .as_object()
        .and_then(|o| o.get("entries"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert_eq!(entries, 2);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fresh_server_serves_cold_store_and_shorthand_jobs() {
    let dir = serve_dir("coldstore");
    // A previous "process" populates the store directly.
    let seeded = job(Benchmark::Fft, MechanismKind::Dvfs, 2);
    let key = seeded.key();
    {
        let farm = Farm::open(dir.join("farm")).expect("open farm");
        farm.run_batch(std::slice::from_ref(&seeded), 1);
    }
    // A brand-new server over the same store answers from disk.
    let farm = Arc::new(Farm::open(dir.join("farm")).expect("reopen farm"));
    let handle = ptb_serve::start(
        farm,
        "127.0.0.1:0",
        ServeConfig::default(),
        ServerConfig::default(),
    )
    .expect("start server");
    let addr = handle.addr();

    // Report of a never-submitted key comes straight from the store.
    let (status, served) =
        http_call(addr, "GET", &format!("/v1/reports/{key}"), None).expect("fetch");
    assert_eq!(status, 200, "{served}");
    assert_eq!(served, json::to_string(&seeded.simulate().to_value()));
    let (status, jv) = get_json(addr, &format!("/v1/jobs/{key}"));
    assert_eq!(status, 200);
    assert_eq!(str_field(&jv, "state"), "done");

    // The shorthand wire form resolves to the same content key.
    let shorthand =
        r#"{"jobs": [{"bench": "fft", "mechanism": "Dvfs", "n_cores": 2, "scale": "Test"}]}"#;
    let (status, resp) =
        http_call(addr, "POST", "/v1/batches", Some(shorthand)).expect("shorthand submit");
    assert_eq!(status, 200, "{resp}");
    let v = json::parse(&resp).expect("shorthand JSON");
    let resolved = v
        .as_object()
        .and_then(|o| o.get("jobs"))
        .and_then(|j| j.as_array().cloned())
        .expect("resolved jobs");
    assert_eq!(str_field(&resolved[0], "key"), key);
    assert_eq!(str_field(&resolved[0], "disposition"), "cached");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A settled key whose store entry is then corrupted or deleted heals
/// without a restart: the report answers 503 (and the corrupt file is
/// deleted) or 404, the next submit enqueues the job, and it settles
/// again with the bytes of a direct run.
#[test]
fn a_corrupt_or_deleted_entry_re_runs_on_the_next_submit() {
    let dir = serve_dir("lostentry");
    let farm = Arc::new(Farm::open(dir.join("farm")).expect("open farm"));
    let handle = ptb_serve::start(
        farm.clone(),
        "127.0.0.1:0",
        ServeConfig {
            sim_threads: 2,
            ..ServeConfig::default()
        },
        ServerConfig::default(),
    )
    .expect("start server");
    let addr = handle.addr();

    let jobs = [
        job(Benchmark::Fft, MechanismKind::None, 2),
        job(Benchmark::Radix, MechanismKind::None, 2),
    ];
    let (batch, _) = submit(addr, &jobs);
    poll_batch(addr, &batch);
    for (j, corrupt) in jobs.iter().zip([true, false]) {
        let key = j.key();
        let entry = farm.store().path_for(&key).expect("a content key");
        if corrupt {
            let mut bytes = std::fs::read(&entry).expect("read the entry");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
            std::fs::write(&entry, bytes).expect("flip one byte");
        } else {
            std::fs::remove_file(&entry).expect("delete the entry");
        }
        let report_path = format!("/v1/reports/{key}");
        let (status, body) = http_call(addr, "GET", &report_path, None).expect("fetch");
        assert_eq!(status, if corrupt { 503 } else { 404 }, "{body}");
        assert!(!entry.exists(), "the corrupt entry is deleted");

        let (batch, resolved) = submit(addr, std::slice::from_ref(j));
        assert_eq!(str_field(&resolved[0], "disposition"), "enqueued");
        poll_batch(addr, &batch);
        let (status, served) = http_call(addr, "GET", &report_path, None).expect("fetch");
        assert_eq!(status, 200, "{served}");
        assert_eq!(served, json::to_string(&j.simulate().to_value()));
    }
    assert_eq!(job_totals(addr), [0, 0, 0, 2, 0]);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_errors_are_json_and_never_kill_the_server() {
    let dir = serve_dir("protocol");
    let farm = Arc::new(Farm::open(dir.join("farm")).expect("open farm"));
    let handle = ptb_serve::start(
        farm,
        "127.0.0.1:0",
        ServeConfig::default(),
        ServerConfig::default(),
    )
    .expect("start server");
    let addr = handle.addr();

    for (method, path, body, want) in [
        ("GET", "/nope", None, 404),
        ("GET", "/v1/batches/b999", None, 404),
        ("GET", "/v1/jobs/deadbeef", None, 404),
        ("GET", "/v1/reports/deadbeef", None, 404),
        ("POST", "/v1/batches", Some("not json"), 400),
        ("POST", "/v1/batches", Some("{\"jobs\": []}"), 400),
        (
            "POST",
            "/v1/batches",
            Some("{\"jobs\": [{\"bench\": \"nosuch\"}]}"),
            400,
        ),
    ] {
        let (status, resp) = http_call(addr, method, path, body).expect("round-trip");
        assert_eq!(status, want, "{method} {path}: {resp}");
        let v = json::parse(&resp).expect("errors are JSON");
        assert!(
            !str_field(&v, "error").is_empty(),
            "error body has an error field: {resp}"
        );
    }
    let (status, _) = get_json(addr, "/healthz");
    assert_eq!(status, 200, "server still healthy after abuse");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A URL key is not a path: `../` keys must not reach files beside or
/// above the store. Every ancestor level of the farm dir holds a
/// well-formed entry for the key that would resolve to it, in both the
/// frame and the older JSON envelope, so a server that joined the key
/// into a path would answer 200 (or 503) instead of 404. Nor is any
/// other spelling of a settled key one: uppercase or with a leading `+`
/// (both of which `u128::from_str_radix` reads) it is a 4xx on every
/// route that takes a key.
#[test]
fn traversal_keys_cannot_reach_files_outside_the_store() {
    let dir = serve_dir("traversal");
    let farm_dir = dir.join("a/b/c/d/e/f/farm");
    let farm = Arc::new(Farm::open(&farm_dir).expect("open farm"));
    let seeded = job(Benchmark::Fft, MechanismKind::None, 2);
    let report = seeded.simulate();
    let (job_json, report_json) = (
        json::to_string(&seeded.to_value()),
        json::to_string(&report.to_value()),
    );
    let keys: Vec<String> = (1..=6)
        .map(|n| format!("{}outside", "../".repeat(n)))
        .collect();
    // Level k above the farm dir holds the entry for the k-level key;
    // the farm dir itself holds the 1-level one, where a flat
    // `objects/<key>.json` lookup would land.
    let mut level = farm_dir.clone();
    for key in std::iter::once(&keys[0]).chain(&keys) {
        let envelope = format!(
            r#"{{"store_format":{},"report_format":{},"key":{},"job":{job_json},"report":{report_json}}}"#,
            ptb_farm::STORE_FORMAT,
            ptb_core::report::REPORT_FORMAT,
            json::to_string(&Value::Str(key.clone())),
        );
        std::fs::write(level.join("outside.json"), envelope).unwrap();
        std::fs::write(
            level.join("outside.bin"),
            binfmt::encode(key, &job_json, &report_json),
        )
        .unwrap();
        level.pop();
    }
    // The seeded job is stored, and a submit's store probe settles it.
    let key = seeded.key();
    farm.store()
        .put(&key, &seeded, &report)
        .expect("store the seeded job");
    let handle = ptb_serve::start(
        farm,
        "127.0.0.1:0",
        ServeConfig::default(),
        ServerConfig::default(),
    )
    .expect("start server");
    let addr = handle.addr();
    let (_, resolved) = submit(addr, std::slice::from_ref(&seeded));
    assert_eq!(str_field(&resolved[0], "disposition"), "cached");
    let (status, _) = get_json(addr, &format!("/v1/reports/{key}"));
    assert_eq!(status, 200, "the key itself is served");

    let mut upload = Map::new();
    upload.insert("worker".into(), Value::Str("w1".into()));
    upload.insert("report".into(), report.to_value());
    let upload = json::to_string(&Value::Object(upload));
    let spellings = [
        key.to_uppercase(),
        format!("+{key}"),
        format!("+{}", &key[1..]),
    ];
    for spelling in spellings.iter().chain(&keys) {
        for endpoint in ["reports", "jobs"] {
            let path = format!("/v1/{endpoint}/{spelling}");
            let (status, body) = http_call(addr, "GET", &path, None).expect("round-trip");
            assert_eq!(status, 404, "GET {path}: {body}");
        }
        let path = format!("/v1/work/{spelling}/complete");
        let (status, body) = http_call(addr, "POST", &path, Some(&upload)).expect("round-trip");
        assert!((400..500).contains(&status), "POST {path}: {status} {body}");
    }
    let (status, _) = get_json(addr, "/healthz");
    assert_eq!(status, 200);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_faulted_store_degrades_gracefully_and_server_stays_up() {
    let dir = serve_dir("chaos");
    // Heavy fault injection on every store/journal operation.
    let io = Arc::new(ChaosIo::new(ChaosConfig::uniform(7, 0.9)));
    let farm = Arc::new(Farm::open_with_io(dir.join("farm"), io).expect("open farm"));
    let handle = ptb_serve::start(
        farm.clone(),
        "127.0.0.1:0",
        ServeConfig {
            sim_threads: 2,
            job_timeout: Some(Duration::from_secs(120)),
            ..ServeConfig::default()
        },
        ServerConfig::default(),
    )
    .expect("start server");
    let addr = handle.addr();

    let jobs = vec![
        job(Benchmark::Fft, MechanismKind::None, 2),
        job(Benchmark::Radix, MechanismKind::None, 2),
    ];
    let (status, resp) =
        http_call(addr, "POST", "/v1/batches", Some(&submit_body(&jobs))).expect("submit");
    assert_eq!(status, 200, "{resp}");
    let batch_id = str_field(&json::parse(&resp).expect("JSON"), "batch");
    poll_batch(addr, &batch_id);

    // Every job settled one way or the other; any failure is
    // quarantined with its full replayable config and the server is
    // still answering.
    let (_, bv) = get_json(addr, &format!("/v1/batches/{batch_id}"));
    let settled = bv
        .as_object()
        .and_then(|o| o.get("settled"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert_eq!(settled, 2, "all jobs settled under chaos: {bv:?}");
    let (_, metrics) = get_json(addr, "/v1/metrics");
    let failed = metrics
        .as_object()
        .and_then(|o| o.get("serve.failed"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let quarantined = farm.quarantine().load().unwrap_or_default();
    assert_eq!(
        quarantined.len() as f64,
        failed,
        "every failed job is quarantined, replayably"
    );
    for q in &quarantined {
        assert!(!q.key.is_empty());
        assert!(
            FarmJob::new(q.job.bench, q.job.config.clone()).key() == q.key,
            "quarantine entry replays to the same key"
        );
    }
    let (status, _) = get_json(addr, "/healthz");
    assert_eq!(status, 200, "server survives a faulty store");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `ptb_serve` as a child process with two HTTP workers, killed on
/// drop. A stack overflow aborts the whole process, so a crash test
/// cannot share the test binary with the server it crashes; two workers
/// make a request that kills one of them show within a few requests.
struct ServeChild {
    child: std::process::Child,
    addr: SocketAddr,
    _stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl ServeChild {
    fn spawn(farm_dir: &std::path::Path) -> Self {
        use std::io::BufRead;
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ptb_serve"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--farm-dir")
            .arg(farm_dir)
            .args(["--workers", "2"])
            .env_remove("PTB_CHAOS")
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn ptb_serve");
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read listening line");
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("no address in {line:?}"));
        ServeChild {
            child,
            addr,
            _stdout: stdout,
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// One 100 KB body of nested `[` used to overflow an HTTP worker's
/// stack and abort the server. Every route that parses JSON must answer
/// 400 instead, and the server must stay up.
#[test]
fn deeply_nested_json_is_a_400_not_a_crash() {
    let dir = serve_dir("nesting");
    let server = ServeChild::spawn(&dir.join("farm"));
    let body = "[".repeat(100_000);
    for path in ["/v1/batches", "/v1/work/claim"] {
        let (status, resp) = http_call(server.addr, "POST", path, Some(&body))
            .unwrap_or_else(|e| panic!("POST {path}: server gone ({e})"));
        assert_eq!(status, 400, "POST {path}: {resp}");
        let v = json::parse(&resp).expect("errors are JSON");
        assert!(!str_field(&v, "error").is_empty(), "{resp}");
    }
    let (status, _) = get_json(server.addr, "/healthz");
    assert_eq!(status, 200, "server still healthy after the deep bodies");
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// A job with 0 cores used to panic an HTTP worker while keying it, and
/// each such request took one worker from the pool for good. It is a
/// 400, and the server keeps answering.
#[test]
fn zero_core_jobs_are_a_400_and_keep_every_worker() {
    let dir = serve_dir("zerocores");
    let server = ServeChild::spawn(&dir.join("farm"));
    // Three 0-core batches (more than the two workers) in the shorthand
    // and the full-config form, then one above `MAX_CORES`.
    let bodies = [
        r#"{"jobs":[{"bench":"fft","n_cores":0}]}"#.to_owned(),
        submit_body(&[job(Benchmark::Fft, MechanismKind::None, 0)]),
        r#"{"jobs":[{"bench":"radix","n_cores":0,"scale":"Test"}]}"#.to_owned(),
        r#"{"jobs":[{"bench":"fft","n_cores":65}]}"#.to_owned(),
    ];
    for body in &bodies {
        let (status, resp) = http_call(server.addr, "POST", "/v1/batches", Some(body))
            .unwrap_or_else(|e| panic!("POST {body}: no answer ({e})"));
        assert_eq!(status, 400, "{body}: {resp}");
        assert!(str_field(&json::parse(&resp).expect("JSON"), "error").contains("n_cores"));
    }
    let (status, _) = get_json(server.addr, "/healthz");
    assert_eq!(status, 200, "server still answers after the 0-core batches");
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// A parser that re-validates the rest of the input for every plain
/// character spends about 80 s of CPU on one 2 MiB JSON string. The
/// reply must come within 10 s, and the server must stay healthy.
#[test]
fn a_two_mebibyte_json_string_is_answered_promptly() {
    let dir = serve_dir("bigstring");
    let server = ServeChild::spawn(&dir.join("farm"));
    let body = format!("\"{}\"", "x".repeat(2 << 20));
    let (tx, rx) = std::sync::mpsc::channel();
    let addr = server.addr;
    std::thread::spawn(move || tx.send(http_call(addr, "POST", "/v1/batches", Some(&body))));
    let (status, resp) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a reply within 10 s")
        .expect("round-trip");
    assert_eq!(status, 400, "{resp}");
    let (status, _) = get_json(server.addr, "/healthz");
    assert_eq!(status, 200);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
