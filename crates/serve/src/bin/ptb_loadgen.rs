//! Load-test `ptb-serve`: populate a large store, hammer it with
//! concurrent batch submissions, and prove nothing is lost or run
//! twice.
//!
//! ```text
//! ptb_loadgen [--farm-dir PATH] [--populate N] [--clients C]
//!             [--requests R] [--batch B] [--addr HOST:PORT]
//!             [--out BENCH_serve.json]
//! ```
//!
//! Without `--addr` the generator starts an in-process server over the
//! populated store. Each of `C` client threads issues `R` rounds of:
//! one `POST /v1/batches` carrying `B` jobs picked deterministically
//! from the populated key space, then one `GET /v1/reports/{key}` per
//! job. Afterwards it asserts, from the server's own counters:
//!
//! * every fetch answered `200` — zero lost jobs;
//! * `serve.completed == 0` — every submission deduplicated against
//!   the store, zero duplicated work;
//! * store entry count unchanged.
//!
//! Latency percentiles land in `--out` (committed as
//! `BENCH_serve.json`).

use ptb_core::SimConfig;
use ptb_farm::hash::splitmix64;
use ptb_farm::{Farm, FarmJob};
use ptb_serve::{http_call, ServeConfig, ServerConfig};
use ptb_workloads::{Benchmark, Scale};
use serde::{json, Map, Serialize, Value};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The `i`-th populated job: one real template report is stored under
/// many distinct keys by varying `max_cycles` (a hashed config field),
/// so a 100k-entry store costs one simulation, not 100k.
fn nth_job(i: u64) -> FarmJob {
    let mut config = SimConfig {
        n_cores: 2,
        scale: Scale::Test,
        ..SimConfig::default()
    };
    config.max_cycles = 1_000_000 + i;
    FarmJob::new(Benchmark::Fft, config)
}

fn p(xs: &[f64], q: f64) -> f64 {
    ptb_metrics::percentile(xs, q)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let populate: u64 = flag(&args, "--populate")
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let clients: usize = flag(&args, "--clients")
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let requests: usize = flag(&args, "--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let batch: usize = flag(&args, "--batch")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let out = flag(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let farm_dir = flag(&args, "--farm-dir").unwrap_or_else(|| "target/loadgen_farm".to_string());

    // Phase 1: populate. One real simulation, N store entries.
    let farm = Farm::open(&farm_dir).expect("open farm store");
    let have = farm.store().len() as u64;
    if have < populate {
        eprintln!(
            "[loadgen] populating {} entries ({have} present)…",
            populate
        );
        let template = nth_job(0).simulate();
        let t0 = Instant::now();
        for i in have..populate {
            let job = nth_job(i);
            farm.store()
                .put(&job.key(), &job, &template)
                .expect("populate put");
            if (i + 1) % 20_000 == 0 {
                eprintln!("[loadgen]   {} / {populate}", i + 1);
            }
        }
        eprintln!("[loadgen] populated in {:.1}s", t0.elapsed().as_secs_f64());
    }
    let entries_before = farm.store().len() as u64;

    // Phase 2: the server (external via --addr, else in-process).
    let mut handle = None;
    let addr: SocketAddr = match flag(&args, "--addr") {
        Some(a) => a.parse().expect("parse --addr"),
        None => {
            let h = ptb_serve::start(
                Arc::new(farm),
                "127.0.0.1:0",
                ServeConfig::default(),
                ServerConfig {
                    workers: 16,
                    queue_depth: 256,
                    ..ServerConfig::default()
                },
            )
            .expect("start in-process server");
            let a = h.addr();
            handle = Some(h);
            a
        }
    };

    // Phase 3: the storm.
    eprintln!("[loadgen] {clients} clients x {requests} requests x {batch} jobs against {addr} …");
    let t0 = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut submit_ms = Vec::new();
                let mut fetch_ms = Vec::new();
                let mut lost = 0u64;
                for r in 0..requests {
                    let picks: Vec<u64> = (0..batch)
                        .map(|b| splitmix64((c * requests + r) as u64 * 64 + b as u64) % populate)
                        .collect();
                    let jobs: Vec<(String, Value)> = picks
                        .iter()
                        .map(|&i| {
                            let job = nth_job(i);
                            (job.key(), job.to_value())
                        })
                        .collect();
                    let mut body = Map::new();
                    body.insert(
                        "jobs".into(),
                        Value::Array(jobs.iter().map(|(_, v)| v.clone()).collect()),
                    );
                    let body = json::to_string(&Value::Object(body));
                    let t = Instant::now();
                    let (status, _) = http_call(addr, "POST", "/v1/batches", Some(&body))
                        .expect("submit round-trip");
                    submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    assert_eq!(status, 200, "submit rejected");
                    for (key, _) in &jobs {
                        let t = Instant::now();
                        let (status, body) =
                            http_call(addr, "GET", &format!("/v1/reports/{key}"), None)
                                .expect("report round-trip");
                        fetch_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        if status != 200 || body.is_empty() {
                            lost += 1;
                        }
                    }
                }
                (submit_ms, fetch_ms, lost)
            })
        })
        .collect();
    let mut submit_ms = Vec::new();
    let mut fetch_ms = Vec::new();
    let mut lost = 0u64;
    for t in threads {
        let (s, f, l) = t.join().expect("client thread");
        submit_ms.extend(s);
        fetch_ms.extend(f);
        lost += l;
    }
    let elapsed = t0.elapsed().as_secs_f64();

    // Phase 4: assertions from the server's own books.
    let (_, metrics_body) = http_call(addr, "GET", "/v1/metrics", None).expect("metrics");
    let metrics = json::parse(&metrics_body).expect("metrics JSON");
    let counter = |name: &str| -> f64 {
        metrics
            .as_object()
            .and_then(|o| o.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let (_, status_body) = http_call(addr, "GET", "/v1/status", None).expect("status");
    let status_v = json::parse(&status_body).expect("status JSON");
    let entries_after = status_v
        .as_object()
        .and_then(|o| o.get("entries"))
        .and_then(Value::as_u64)
        .unwrap_or(0);

    let total_jobs = (clients * requests * batch) as f64;
    assert_eq!(lost, 0, "lost jobs: {lost} report fetches failed");
    assert_eq!(
        counter("serve.completed"),
        0.0,
        "duplicated work: the executor ran jobs that were already stored"
    );
    assert_eq!(
        counter("serve.submitted"),
        total_jobs,
        "server and client disagree on submission count"
    );
    assert_eq!(
        entries_after, entries_before,
        "store entry count changed under a read-only storm"
    );

    // Phase 5: the benchmark artefact.
    let mut doc = Map::new();
    doc.insert("populated".into(), Value::U64(entries_before));
    doc.insert("clients".into(), Value::U64(clients as u64));
    doc.insert("requests_per_client".into(), Value::U64(requests as u64));
    doc.insert("jobs_per_batch".into(), Value::U64(batch as u64));
    doc.insert("submitted_jobs".into(), Value::U64(total_jobs as u64));
    doc.insert("lost_jobs".into(), Value::U64(lost));
    doc.insert(
        "duplicated_jobs".into(),
        Value::U64(counter("serve.completed") as u64),
    );
    doc.insert(
        "http_rejected".into(),
        Value::U64(counter("serve.http.rejected") as u64),
    );
    doc.insert("elapsed_secs".into(), Value::F64(elapsed));
    doc.insert(
        "requests_per_sec".into(),
        Value::F64((submit_ms.len() + fetch_ms.len()) as f64 / elapsed),
    );
    let mut s = Map::new();
    s.insert("p50_ms".into(), Value::F64(p(&submit_ms, 50.0)));
    s.insert("p95_ms".into(), Value::F64(p(&submit_ms, 95.0)));
    s.insert("p99_ms".into(), Value::F64(p(&submit_ms, 99.0)));
    doc.insert("submit_latency".into(), Value::Object(s));
    let mut f = Map::new();
    f.insert("p50_ms".into(), Value::F64(p(&fetch_ms, 50.0)));
    f.insert("p95_ms".into(), Value::F64(p(&fetch_ms, 95.0)));
    f.insert("p99_ms".into(), Value::F64(p(&fetch_ms, 99.0)));
    doc.insert("cached_lookup_latency".into(), Value::Object(f));
    let text = json::to_string_pretty(&Value::Object(doc));
    std::fs::write(&out, format!("{text}\n")).expect("write benchmark artefact");
    println!(
        "loadgen OK: {} submits + {} fetches in {elapsed:.1}s, 0 lost, 0 duplicated; p99 cached lookup {:.2} ms -> {out}",
        submit_ms.len(),
        fetch_ms.len(),
        p(&fetch_ms, 99.0)
    );

    if let Some(h) = handle.take() {
        h.shutdown();
    }
}
