//! `serve-mixed`: the HTTP batch service under a closed loop of two
//! clients, and the serve-layer probe of the other workloads' traced
//! runs.
//!
//! A round is one `POST /v1/batches` of four jobs picked by SplitMix64
//! from (seed, client, round), then `GET /v1/reports/{key}` for each
//! cached pick. Every 64th round in which the client has no never-seen
//! job in flight swaps one pick for a new one (a real simulation plus a
//! store write on the server); it is polled with `GET /v1/jobs/{key}`
//! once per later round until `done`, then fetched. Reads (JSON decode,
//! dedup, store read, report encode) thus run beside writes (scheduler,
//! executor, store put) on one server.

use crate::metrics::{E2e, Layers, Tally};
use crate::probe::{self, Stored};
use crate::sim::{self, report_digest, SimJob};
use crate::spans::Tracer;
use crate::{peak_rss_mb, Ctx};
use ptb_core::{RunReport, SimConfig};
use ptb_farm::{Farm, FarmJob};
use ptb_metrics::percentile;
use ptb_serve::{http_call, ServeConfig, ServeHandle, ServerConfig};
use ptb_workloads::{Benchmark, Scale};
use serde::{json, Serialize, Value};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Entries in the populated store.
const POPULATE: u64 = 5_000;

/// Set-up repetitions (populate + open + start) per run.
const SETUP_REPS: usize = 3;

/// Load threads, each a closed-loop client with one connection open.
const CLIENTS: u64 = 2;

/// Jobs per submitted batch.
const BATCH: u64 = 4;

/// Every this many rounds a client with no never-seen job in flight
/// submits one.
const FRESH_EVERY: u64 = 64;

/// Untimed rounds per client before the measured window.
const WARMUP_ROUNDS: u64 = 50;

/// Rounds per client of the serve probe in other workloads' traced runs
/// (each client submits one never-seen job, in its last round).
const PROBE_ROUNDS: u64 = 32;

/// Longest wait for never-seen jobs still running when a load ends.
const DRAIN_LIMIT: Duration = Duration::from_secs(120);

/// Calls timed per serve-layer codec probe.
const CODEC_CALLS: usize = 200;

/// FNV-128 digest of the template report (fft, 2 cores, test scale).
const TEMPLATE_DIGEST: &str = "fdf9bb6023e726494834c8d16fc41d96";

/// The `i`-th populated job: one real template report is stored under
/// many keys by varying `max_cycles`, a hashed config field that does
/// not change the simulated result.
fn nth_job(i: u64) -> FarmJob {
    let config = SimConfig {
        n_cores: 2,
        scale: Scale::Test,
        max_cycles: 1_000_000 + i,
        ..SimConfig::default()
    };
    FarmJob::new(Benchmark::Fft, config)
}

/// The same job under a `max_cycles` no populated entry uses, so its
/// key is new to the server but its report is the base job's.
fn fresh_variant(base: &FarmJob, seed: u64, client: u64, n: u64) -> FarmJob {
    let mut job = base.clone();
    job.config.max_cycles = (1 << 40) | ((seed & 0xffff) << 24) | (client << 20) | (n & 0xf_ffff);
    job
}

/// SplitMix64.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn pick(seed: u64, client: u64, round: u64, slot: u64, len: usize) -> usize {
    (splitmix(seed ^ splitmix((client << 48) ^ (round << 8) ^ slot)) % len as u64) as usize
}

/// A job the clients may submit: key, wire JSON, and the exact report
/// body a fetch must return.
#[derive(Debug, Clone)]
struct Entry {
    key: String,
    json: String,
    body: Arc<String>,
}

impl Entry {
    fn new(job: &FarmJob, body: Arc<String>) -> Self {
        Entry {
            key: job.key(),
            json: json::to_string(&job.to_value()),
            body,
        }
    }
}

fn batch_body(jobs: &[&Entry]) -> String {
    let parts: Vec<&str> = jobs.iter().map(|e| e.json.as_str()).collect();
    format!("{{\"jobs\":[{}]}}", parts.join(","))
}

/// One request; transport errors become messages.
fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    http_call(addr, method, path, body).map_err(|e| format!("{method} {path}: {e}"))
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let until = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((200, _)) = http_call(addr, "GET", "/healthz", None) {
            return Ok(());
        }
        if Instant::now() > until {
            return Err("server never answered /healthz with 200".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn start(farm: Farm) -> Result<ServeHandle, String> {
    let handle = ptb_serve::start(
        Arc::new(farm),
        "127.0.0.1:0",
        ServeConfig {
            sim_threads: 1,
            ..ServeConfig::default()
        },
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("start server: {e}"))?;
    wait_healthy(handle.addr())?;
    Ok(handle)
}

/// When a client stops issuing rounds.
#[derive(Clone, Copy)]
enum Stop {
    /// Measure for this long after the warm-up.
    For(Duration),
    /// Issue exactly this many rounds.
    Rounds(u64),
}

/// Shared client settings.
struct Load<'a> {
    addr: SocketAddr,
    seed: u64,
    entries: &'a [Entry],
    fresh: &'a (dyn Fn(u64, u64) -> Entry + Sync),
    fresh_every: u64,
    warmup: u64,
    stop: Stop,
    barrier: Barrier,
}

/// What one client measured (timed requests only).
#[derive(Default)]
struct ClientOut {
    tally: Tally,
    op_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    settle_ms: Vec<f64>,
    /// Timed requests completed in each whole second of the window.
    per_second: Vec<u64>,
    window: Option<(Instant, Instant)>,
}

impl ClientOut {
    /// Issue one request, check it, and time it if inside the window.
    fn request(
        &mut self,
        tr: &mut Tracer,
        span: &'static str,
        timed: bool,
        (addr, method, path, body): (SocketAddr, &str, &str, Option<&str>),
        check: impl FnOnce(u16, &str) -> Result<(), String>,
    ) -> Option<String> {
        tr.begin(span);
        let t0 = Instant::now();
        let res = call(addr, method, path, body);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.end();
        let outcome = res.and_then(|(status, text)| check(status, &text).map(|()| text));
        match outcome {
            Ok(text) => {
                self.tally.ok(1);
                if let (true, Some((start, _))) = (timed, self.window) {
                    self.op_ms.push(ms);
                    let second = start.elapsed().as_secs() as usize;
                    if self.per_second.len() <= second {
                        self.per_second.resize(second + 1, 0);
                    }
                    self.per_second[second] += 1;
                    match span {
                        "http.submit" => self.submit_ms.push(ms),
                        "http.fetch" => self.fetch_ms.push(ms),
                        _ => {}
                    }
                }
                Some(text)
            }
            Err(msg) => {
                self.tally.fail(1, msg);
                None
            }
        }
    }
}

fn expect_status(want: u16) -> impl Fn(u16, &str) -> Result<(), String> {
    move |status, text| {
        if status == want {
            Ok(())
        } else {
            Err(format!(
                "HTTP {status}: {}",
                text.chars().take(160).collect::<String>()
            ))
        }
    }
}

/// Fetch `e`'s report and compare it byte for byte.
fn fetch(out: &mut ClientOut, tr: &mut Tracer, addr: SocketAddr, e: &Entry, timed: bool) {
    let path = format!("/v1/reports/{}", e.key);
    out.request(
        tr,
        "http.fetch",
        timed,
        (addr, "GET", &path, None),
        |status, text| {
            expect_status(200)(status, text)?;
            if text == e.body.as_str() {
                Ok(())
            } else {
                Err(format!("report {} differs from the expected body", e.key))
            }
        },
    );
}

/// Poll never-seen jobs once each; fetch and drop the settled ones.
fn poll(
    out: &mut ClientOut,
    tr: &mut Tracer,
    addr: SocketAddr,
    pending: &mut Vec<(Entry, Instant)>,
    timed: bool,
) {
    let mut still = Vec::new();
    for (e, submitted) in pending.drain(..) {
        let path = format!("/v1/jobs/{}", e.key);
        let Some(text) = out.request(
            tr,
            "http.poll",
            timed,
            (addr, "GET", &path, None),
            expect_status(200),
        ) else {
            continue;
        };
        if text.contains("\"state\":\"done\"") {
            out.settle_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
            fetch(out, tr, addr, &e, timed);
        } else if text.contains("\"state\":\"failed\"") {
            out.tally.fail(1, format!("job {} failed: {text}", e.key));
        } else {
            still.push((e, submitted));
        }
    }
    *pending = still;
}

fn client(load: &Load, c: u64, tr: &mut Tracer) -> ClientOut {
    let mut out = ClientOut::default();
    let mut pending: Vec<(Entry, Instant)> = Vec::new();
    let mut deadline = None;
    let mut fresh_n = 0;
    tr.begin("client");
    for round in 0.. {
        if round == load.warmup {
            load.barrier.wait();
            let now = Instant::now();
            out.window = Some((now, now));
            if let Stop::For(d) = load.stop {
                deadline = Some(now + d);
            }
        }
        let timed = round >= load.warmup;
        tr.begin("round");
        let mut picks: Vec<&Entry> = (0..BATCH)
            .map(|slot| &load.entries[pick(load.seed, c, round, slot, load.entries.len())])
            .collect();
        // At most one never-seen job in flight per client: the server
        // simulates on one thread, so an open-ended stream of misses
        // would grow its queue (and the clients' polls) without bound.
        let fresh = ((round + 1) % load.fresh_every == 0 && pending.is_empty()).then(|| {
            fresh_n += 1;
            (load.fresh)(c, fresh_n)
        });
        if let Some(f) = &fresh {
            picks[0] = f;
        }
        let body = batch_body(&picks);
        let submitted = Instant::now();
        let accepted = out
            .request(
                tr,
                "http.submit",
                timed,
                (load.addr, "POST", "/v1/batches", Some(&body)),
                |status, text| {
                    expect_status(200)(status, text)?;
                    match picks.iter().find(|e| !text.contains(e.key.as_str())) {
                        Some(e) => Err(format!("submit answer lacks key {}", e.key)),
                        None => Ok(()),
                    }
                },
            )
            .is_some();
        if accepted {
            let cached = if fresh.is_some() {
                &picks[1..]
            } else {
                &picks[..]
            };
            for e in cached {
                fetch(&mut out, tr, load.addr, e, timed);
            }
        }
        poll(&mut out, tr, load.addr, &mut pending, timed);
        if let (true, Some(f)) = (accepted, fresh) {
            pending.push((f, submitted));
        }
        tr.end();
        let done = match (load.stop, deadline) {
            (Stop::For(_), Some(d)) => Instant::now() >= d,
            (Stop::Rounds(n), _) => round + 1 >= n,
            _ => false,
        };
        if done {
            break;
        }
    }
    if let Some(w) = &mut out.window {
        w.1 = Instant::now();
    }
    let drain_until = Instant::now() + DRAIN_LIMIT;
    while !pending.is_empty() && Instant::now() < drain_until {
        std::thread::sleep(Duration::from_millis(10));
        poll(&mut out, tr, load.addr, &mut pending, false);
    }
    for (e, _) in pending {
        out.tally.fail(1, format!("job {} never settled", e.key));
    }
    tr.end();
    out
}

/// Run every client on its own thread and merge what they measured.
fn drive(load: &Load, tr: &mut Tracer) -> ClientOut {
    let outs: Vec<(ClientOut, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut ctr = tr.fork(c + 1);
                s.spawn(move || (client(load, c, &mut ctr), ctr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = ClientOut::default();
    for (o, ctr) in outs {
        tr.absorb(ctr);
        all.tally.merge(o.tally);
        all.op_ms.extend(o.op_ms);
        all.submit_ms.extend(o.submit_ms);
        all.fetch_ms.extend(o.fetch_ms);
        all.settle_ms.extend(o.settle_ms);
        if all.per_second.len() < o.per_second.len() {
            all.per_second.resize(o.per_second.len(), 0);
        }
        for (sum, n) in all.per_second.iter_mut().zip(&o.per_second) {
            *sum += n;
        }
        all.window = match (all.window, o.window) {
            (Some(a), Some(b)) => Some((a.0.min(b.0), a.1.max(b.1))),
            (a, b) => a.or(b),
        };
    }
    all
}

/// Fill the serve and HTTP layers from the server's own `/v1/metrics`
/// and what the clients measured.
fn fill_layers(addr: SocketAddr, out: &ClientOut, l: &mut Layers) -> Result<(), String> {
    let (status, text) = call(addr, "GET", "/v1/metrics", None)?;
    if status != 200 {
        return Err(format!("/v1/metrics answered {status}"));
    }
    let m = json::parse(&text).map_err(|e| format!("/v1/metrics JSON: {e}"))?;
    let get = |name: &str| m.get(name).and_then(Value::as_f64).unwrap_or(0.0);
    l.submit_handler_p50_ms = get("serve.latency.submit.p50_ms");
    l.report_handler_p50_ms = get("serve.latency.report.p50_ms");
    l.execute_p50_ms = get("serve.latency.execute.p50_ms");
    l.hit_ratio = get("serve.hits") / get("serve.submitted").max(1.0);
    l.sims_per_new_job = get("serve.completed") / get("serve.enqueued").max(1.0);
    l.submit_client_p50_ms = percentile(&out.submit_ms, 50.0);
    l.fetch_client_p50_ms = percentile(&out.fetch_ms, 50.0);
    l.miss_settle_ms = out.settle_ms.clone();
    Ok(())
}

/// Time `json::parse` of the batch bodies the clients sent (replayed
/// from the same picks) and the report encode of `reports`.
fn codec_probe(load: &Load, reports: &[&RunReport], tr: &mut Tracer, l: &mut Layers) {
    tr.begin("probe.codec");
    for i in 0..CODEC_CALLS as u64 {
        let picks: Vec<&Entry> = (0..BATCH)
            .map(|slot| {
                &load.entries[pick(
                    load.seed,
                    i % CLIENTS,
                    i / CLIENTS,
                    slot,
                    load.entries.len(),
                )]
            })
            .collect();
        let body = batch_body(&picks);
        let t0 = Instant::now();
        let parsed = json::parse(std::hint::black_box(&body));
        l.json_decode_us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(parsed.is_ok());
    }
    for i in 0..CODEC_CALLS {
        let r = reports[i % reports.len()];
        let t0 = Instant::now();
        let text = json::to_string(&std::hint::black_box(r).to_value());
        l.report_encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(text.len());
    }
    tr.end();
}

/// Run `serve-mixed`. An op is one HTTP request; failed requests are
/// counted, not timed.
pub fn run(ctx: &Ctx, tally: &mut Tally, tr: &mut Tracer, l: &mut Layers) -> Result<E2e, String> {
    let mut e = E2e::default();
    let template_job = nth_job(0);
    let template = template_job.simulate();
    let template_body = Arc::new(json::to_string(&template.to_value()));
    tally.check(
        1,
        if report_digest(&template) == TEMPLATE_DIGEST {
            Ok(())
        } else {
            Err(format!(
                "template report digest {} differs from the pinned {TEMPLATE_DIGEST}",
                report_digest(&template)
            ))
        },
    );
    let entries: Vec<Entry> = (0..POPULATE)
        .map(|i| Entry::new(&nth_job(i), template_body.clone()))
        .collect();

    let mut server = None;
    for rep in 0..SETUP_REPS {
        let dir = ctx.dir.join(format!("serve-farm-{rep}"));
        let t0 = Instant::now();
        let farm = Farm::open(&dir).map_err(|e| format!("open farm: {e}"))?;
        for (i, entry) in entries.iter().enumerate() {
            farm.store()
                .put(&entry.key, &nth_job(i as u64), &template)
                .map_err(|e| format!("populate: {e}"))?;
        }
        let handle = start(farm)?;
        e.setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((old, old_dir)) = server.replace((handle, dir)) {
            old.shutdown();
            std::fs::remove_dir_all(old_dir).ok();
        }
    }
    let (handle, dir) = server.expect("at least one set-up");

    let fresh = |c: u64, n: u64| {
        Entry::new(
            &fresh_variant(&template_job, ctx.seed, c, n),
            template_body.clone(),
        )
    };
    let load = Load {
        addr: handle.addr(),
        seed: ctx.seed,
        entries: &entries,
        fresh: &fresh,
        fresh_every: FRESH_EVERY,
        warmup: WARMUP_ROUNDS,
        stop: Stop::For(Duration::from_secs_f64(ctx.seconds)),
        barrier: Barrier::new(CLIENTS as usize),
    };
    let out = drive(&load, tr);
    let layers = if ctx.trace {
        fill_layers(handle.addr(), &out, l)
    } else {
        Ok(())
    };
    handle.shutdown();
    layers?;
    e.peak_rss_mb = peak_rss_mb();
    // Throughput of each whole second of the window (the last, partial
    // second is dropped) for the record; the value is the window total.
    let window = out
        .window
        .map_or(0.0, |(t0, t1)| t1.duration_since(t0).as_secs_f64());
    e.rates = out
        .per_second
        .iter()
        .take(window as usize)
        .map(|&n| n as f64)
        .collect();
    e.ops = out.per_second.iter().sum::<u64>() as f64;
    e.secs = window;
    e.op_ms = out.op_ms.iter().map(|&ms| (ms, 1.0)).collect();
    tally.merge(out.tally);

    if ctx.trace {
        sim::profile(
            &[SimJob::new(Benchmark::Fft, template_job.config.clone())],
            tally,
            tr,
        )
        .fill(l);
        let exec_jobs: Vec<FarmJob> = std::iter::once(template_job.clone())
            .chain((1..=3).map(|n| fresh_variant(&template_job, ctx.seed, CLIENTS, n)))
            .collect();
        probe::exec(&ctx.dir.join("exec-probe"), &exec_jobs, tally, tr, l)?;
        let sample: Vec<Stored> = (0..CODEC_CALLS as u64)
            .map(|i| {
                let idx = pick(ctx.seed, i % CLIENTS, i / CLIENTS, 0, entries.len());
                Stored {
                    key: entries[idx].key.clone(),
                    job: nth_job(idx as u64),
                    report: template.clone(),
                    body: template_body.to_string(),
                }
            })
            .collect();
        probe::store(&dir, &sample, tally, tr, l)?;
        codec_probe(&load, &[&template], tr, l);
    }
    Ok(e)
}

/// The serve-layer probe of a non-serving workload: serve `stored` from
/// the farm at `dir` to two clients for a fixed number of rounds, each
/// client ending with one never-seen variant of a stored job.
pub fn probe(
    dir: &Path,
    stored: &[Stored],
    seed: u64,
    tally: &mut Tally,
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<(), String> {
    if stored.is_empty() {
        return Err("no stored results to serve".into());
    }
    let entries: Vec<Entry> = stored
        .iter()
        .map(|s| Entry {
            key: s.key.clone(),
            json: json::to_string(&s.job.to_value()),
            body: Arc::new(s.body.clone()),
        })
        .collect();
    let fresh = |c: u64, n: u64| {
        let base = &stored[c as usize % stored.len()];
        Entry::new(
            &fresh_variant(&base.job, seed, c, n),
            entries[c as usize % entries.len()].body.clone(),
        )
    };
    let farm = Farm::open(dir).map_err(|e| format!("open probe farm: {e}"))?;
    let handle = start(farm)?;
    let load = Load {
        addr: handle.addr(),
        seed,
        entries: &entries,
        fresh: &fresh,
        fresh_every: PROBE_ROUNDS,
        warmup: 0,
        stop: Stop::Rounds(PROBE_ROUNDS),
        barrier: Barrier::new(CLIENTS as usize),
    };
    tr.begin("probe.serve");
    let out = drive(&load, tr);
    let filled = fill_layers(handle.addr(), &out, l);
    handle.shutdown();
    tr.end();
    filled?;
    tally.merge(out.tally);
    let reports: Vec<&RunReport> = stored.iter().map(|s| &s.report).collect();
    codec_probe(&load, &reports, tr, l);
    Ok(())
}
